//! The four placement policies of [`DhtEngine`](crate::DhtEngine), one
//! module each, plus the replica-set geometry the three VerDi variants
//! share on the Verme overlay (§5.2): replicas live in the anchor's own
//! section, `n/2` of them, and a block has an anchor at its key's
//! replica point (and, for the dual-section variants, at the paired
//! point one section forward).

pub mod compromise;
pub mod dhash;
pub mod fast;
pub mod secure;

use verme_chord::{Id, NodeHandle};
use verme_core::{Payload, VermeAnswer, VermeNode};
use verme_sim::Addr;

/// The replica list a Verme replica lookup answered with, if any.
fn replicas_of(answer: Option<VermeAnswer>) -> Option<Vec<NodeHandle>> {
    match answer {
        Some(VermeAnswer::Replicas { replicas }) => Some(replicas),
        _ => None,
    }
}

/// True if this node anchors the replica set for `point`: it is the first
/// in-section node at or after the point, or — in the §5.2 corner — the
/// last one before it. Only the anchor re-replicates a block; without
/// this check every holder would push copies to *its own* successors and
/// the block would creep across the whole section over time.
fn is_replica_anchor<Pl: Payload>(o: &VermeNode<Pl>, point: Id) -> bool {
    let layout = o.layout();
    let me = o.id();
    if !layout.same_section(point, me) {
        return false;
    }
    if point.distance_to(me) < layout.section_len() {
        // Forward side: anchor iff no in-section node in [point, me).
        !o.predecessor_list()
            .iter()
            .any(|h| layout.same_section(h.id, point) && h.id.in_closed_open(point, me))
    } else {
        // Corner side: anchor iff no in-section node in (me, point].
        !o.successor_list()
            .iter()
            .any(|h| layout.same_section(h.id, point) && h.id.in_open_closed(me, point))
    }
}

/// True if this node anchors `key` under either of its two replica points
/// (Fast and Compromise store in both sections).
fn anchors_either<Pl: Payload>(o: &VermeNode<Pl>, key: Id) -> bool {
    is_replica_anchor(o, key) || is_replica_anchor(o, o.layout().paired_replica_point(key))
}

/// This node's in-section successors.
fn section_successors<Pl: Payload>(o: &VermeNode<Pl>) -> impl Iterator<Item = Addr> + '_ {
    let layout = o.layout();
    let me = o.id();
    o.successor_list().iter().filter(move |h| layout.same_section(h.id, me)).map(|h| h.addr)
}

/// The in-section replica peers: the first `replicas / 2` in-section
/// successors.
fn section_peers<Pl: Payload>(o: &VermeNode<Pl>, replicas: usize) -> Vec<Addr> {
    section_successors(o).take(replicas / 2).collect()
}

/// The in-section heir: the first live in-section successor *outside* the
/// current replica window, which inherits anchor duty once we are gone.
fn section_heir<Pl: Payload>(o: &VermeNode<Pl>, replicas: usize) -> Option<Addr> {
    let in_section: Vec<Addr> = section_successors(o).collect();
    in_section.get(replicas / 2).or_else(|| in_section.last()).copied()
}

/// True if `key` lies in the prober's section (the VerDi orphan filter).
fn in_owner_section<Pl: Payload>(o: &VermeNode<Pl>, key: Id, owner: Id) -> bool {
    o.layout().same_section(key, owner)
}
