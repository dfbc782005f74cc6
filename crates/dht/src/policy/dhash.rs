//! DHash: Chord's DHT layer (paper §5.1), the baseline VerDi is compared
//! against.
//!
//! `get` = Chord lookup + direct fetch from the responsible node;
//! `put` = lookup + direct store on the responsible node, which acks the
//! client immediately and replicates to its successors in the background.
//! Background replication bytes are accounted separately
//! ([`keys::BYTES_REPLICATION`](crate::keys::BYTES_REPLICATION)), matching
//! the paper's Figure 7 footnote.
//!
//! Every attempt, retries included, fetches from the lookup's first
//! successor (the responsible node); a retry re-resolves rather than
//! rotating across the successor list.

use verme_chord::{ChordNode, Id};
use verme_sim::{Addr, Scope};

use crate::api::OpKind;
use crate::engine::{DhtEngine, EngineCtx, NoExt, Policy};

/// The DHash policy: Chord lookups, successor-list replication.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dhash;

/// A DHash node: a [`ChordNode`] plus the block store and data plane.
pub type DhashNode = DhtEngine<Dhash>;

impl Policy for Dhash {
    type Overlay = ChordNode;
    type Ext = NoExt;
    type State = ();

    const PROBE_SCOPE_BYTES: usize = 32;
    const NEED_HEAD_BYTES: usize = 8;

    fn issue_attempt(e: &mut DhashNode, op: u64, ctx: &mut EngineCtx<'_, Self>) {
        e.issue_lookup_attempt(
            op,
            ctx,
            |_, key| key,
            |overlay, key, avoid, ictx| overlay.start_lookup_excluding(key, avoid, ictx),
        );
    }

    fn drain_overlay(e: &mut DhashNode, ctx: &mut EngineCtx<'_, Self>) {
        for o in e.overlay.take_outcomes() {
            let Some((op, _)) = e.lookup_to_op.remove(&o.seq) else {
                continue;
            };
            let Some(req) = e.request(op) else {
                continue;
            };
            let Some(result) = o.result else {
                e.fail_attempt(op, ctx);
                continue;
            };
            let responsible = result.responsible().addr;
            if e.cfg.memo_enabled && req.kind == OpKind::Get {
                e.serving.memo_put(req.key, responsible, ctx.now(), e.cfg.memo_ttl);
            }
            e.send_request(op, responsible, req, ctx);
        }
    }

    /// The node is responsible for keys in `(predecessor, me]`.
    fn anchors(e: &DhashNode, key: Id) -> bool {
        match e.overlay.predecessor() {
            Some(p) => key.in_open_closed(p.id, e.overlay.id()),
            None => true,
        }
    }

    /// The first `replicas - 1` successors.
    fn replica_peers(e: &DhashNode) -> Vec<Addr> {
        let n = e.cfg.replicas.saturating_sub(1);
        e.overlay.successor_list().iter().take(n).map(|h| h.addr).collect()
    }

    /// The successor that newly enters the replica set once we leave.
    fn heir(e: &DhashNode) -> Option<Addr> {
        let succs = e.overlay.successor_list();
        succs.get(e.cfg.replicas.saturating_sub(1)).or_else(|| succs.last()).map(|h| h.addr)
    }

    /// The probe names the prober's responsibility range.
    fn probe_from(e: &DhashNode) -> Id {
        e.overlay.predecessor().map_or(e.overlay.id(), |p| p.id)
    }

    /// Orphans lie in the prober's range (its own id alone means the
    /// whole ring).
    fn is_orphan(_: &DhashNode, key: Id, from: Id, owner: Id) -> bool {
        from == owner || key.in_open_closed(from, owner)
    }

    /// The prober pulls back every orphan it lacks.
    fn pulls(_: &DhashNode, _: Id) -> bool {
        true
    }

    fn on_ext(_: &mut DhashNode, _: Addr, msg: NoExt, _: &mut EngineCtx<'_, Self>) {
        match msg {}
    }

    fn ext_scope(msg: &NoExt) -> Scope {
        match *msg {}
    }
}
