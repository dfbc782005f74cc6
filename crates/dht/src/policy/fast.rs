//! Fast-VerDi (paper §5.3.1): the performance end of the VerDi spectrum.
//!
//! `get` = type-adjusted replica lookup (the overlay returns opposite-type
//! replica addresses, sealed) + direct fetch.
//! `put` = type-adjusted lookup + direct store on the responsible node,
//! which first copies the block to the *other* replica point (the
//! opposite-type section) and only then acknowledges the client — the
//! extra copy visible in Figures 6 and 7. Compromise-VerDi's relays run
//! the same flow, cross copy included.
//!
//! Fast-VerDi's known weakness — an impersonating node can harvest
//! replica addresses by issuing lookups — is exactly what the Figure 8
//! worm experiment exploits.

use std::collections::HashMap;

use bytes::Bytes;

use verme_chord::Id;
use verme_core::{VermeAnswer, VermeNode};
use verme_sim::{Addr, Scope, Wire};

use super::{anchors_either, in_owner_section, replicas_of, section_heir, section_peers};
use crate::block::verify_block;
use crate::engine::{Accepted, DhtEngine, DhtMsg, EngineCtx, Policy, HDR};

/// The Fast-VerDi policy: type-adjusted lookups, direct data path, and a
/// copy in the paired section.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fast;

/// A Fast-VerDi node: a bare [`VermeNode`] plus the direct data plane with
/// cross-section copies.
pub type FastVerDiNode = DhtEngine<Fast>;

/// The cross-section copy messages (Fast and Compromise).
#[derive(Clone, Debug)]
pub enum CrossMsg {
    /// Copy of a block to the responsible node of the *other* replica
    /// point (opposite type).
    CrossCopy {
        /// Copy transaction id.
        xid: u64,
        /// Block key.
        key: Id,
        /// Block contents.
        value: Bytes,
        /// True when sent by the repair plane or for a read-repair write
        /// (ack charged to replication).
        repair: bool,
    },
    /// Cross-copy acknowledgment.
    CrossCopyAck {
        /// Transaction id from the request.
        xid: u64,
        /// Whether the copy was stored.
        ok: bool,
    },
}

impl Wire for CrossMsg {
    fn wire_size(&self) -> usize {
        match self {
            CrossMsg::CrossCopy { value, .. } => HDR + 8 + 16 + value.len(),
            CrossMsg::CrossCopyAck { .. } => HDR + 9,
        }
    }
}

impl CrossMsg {
    /// Copies are served like stores; their acks finish an operation.
    pub(crate) fn scope(&self) -> Scope {
        match self {
            CrossMsg::CrossCopy { .. } => Scope::DhtServe,
            CrossMsg::CrossCopyAck { .. } => Scope::DhtOp,
        }
    }
}

/// Cross-copy state of one node.
#[derive(Default)]
pub struct CrossCopies {
    next_xid: u64,
    /// Stores awaiting the lookup of their paired point, by lookup id.
    lookups: HashMap<u64, Accepted>,
    /// Copies awaiting acknowledgment: xid → (op, client, repair).
    waiting: HashMap<u64, (u64, Addr, bool)>,
    /// Cross-section repair lookups in flight: lookup id → keys to probe.
    repair_lookups: HashMap<u64, Vec<Id>>,
    /// Rotation cursor over anchored keys for the bounded spot check.
    cursor: usize,
}

impl CrossCopies {
    fn next_xid(&mut self) -> u64 {
        self.next_xid += 1;
        self.next_xid - 1
    }
}

/// The policies that carry Fast-VerDi's cross-section copy.
pub(crate) trait CrossCopying: Policy<Overlay = VermeNode<()>> {
    /// The policy's cross-copy state.
    fn copies(state: &mut Self::State) -> &mut CrossCopies;
    /// Wraps a cross-copy message into the policy's extension type.
    fn wrap(msg: CrossMsg) -> Self::Ext;
}

impl CrossCopying for Fast {
    fn copies(state: &mut CrossCopies) -> &mut CrossCopies {
        state
    }
    fn wrap(msg: CrossMsg) -> CrossMsg {
        msg
    }
}

/// The other replica point for a key this node just stored: if we sit in
/// the key's own section, the pair is one section forward; if the client
/// stored at the shifted point, the pair is the key's natural point.
/// Either way the pair's section has the opposite type of ours, so the
/// §5.3.1 check permits our lookup.
fn paired_point(o: &VermeNode<()>, key: Id) -> Id {
    let layout = o.layout();
    if layout.same_section(key, o.id()) {
        layout.paired_replica_point(key)
    } else {
        key
    }
}

/// §5.3.1: before acking a store, copy the block to the responsible node
/// of the opposite-type replica point.
pub(crate) fn start_copy<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    acc: Accepted,
    ctx: &mut EngineCtx<'_, P>,
) {
    let pair = paired_point(&e.overlay, acc.key);
    let lid = e.with_overlay(ctx, |overlay, ictx| overlay.start_replica_lookup(pair, None, ictx));
    P::copies(&mut e.state).lookups.insert(lid, acc);
    P::drain_overlay(e, ctx);
}

/// Routes a completed lookup that belongs to the cross-copy machinery.
pub(crate) fn resolved<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    lid: u64,
    answer: Option<VermeAnswer>,
    ctx: &mut EngineCtx<'_, P>,
) {
    let copies = P::copies(&mut e.state);
    if let Some(acc) = copies.lookups.remove(&lid) {
        copy_to_pair(e, acc, answer, ctx);
    } else if let Some(keys) = copies.repair_lookups.remove(&lid) {
        probe_pair(e, keys, answer, ctx);
    }
}

fn copy_to_pair<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    acc: Accepted,
    answer: Option<VermeAnswer>,
    ctx: &mut EngineCtx<'_, P>,
) {
    let replicas = match replicas_of(answer) {
        Some(r) if !r.is_empty() => r,
        _ => {
            // Cannot reach the paired section: the put fails honestly.
            let nack = DhtMsg::StoreAck { op: acc.op, ok: false };
            return e.send_as(acc.repair, ctx, acc.client, nack);
        }
    };
    // Rotate with the client's retry attempt so a dead first replica in
    // the paired section does not fail every retry the same way.
    let target = replicas[acc.attempt as usize % replicas.len()].addr;
    let copies = P::copies(&mut e.state);
    let xid = copies.next_xid();
    copies.waiting.insert(xid, (acc.op, acc.client, acc.repair));
    let msg = CrossMsg::CrossCopy { xid, key: acc.key, value: acc.value, repair: acc.repair };
    e.send_as(acc.repair, ctx, target, DhtMsg::Ext(P::wrap(msg)));
}

/// A cross-section repair lookup resolved: probe the paired anchor with
/// the keys whose opposite-type copies we are spot-checking.
fn probe_pair<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    keys: Vec<Id>,
    answer: Option<VermeAnswer>,
    ctx: &mut EngineCtx<'_, P>,
) {
    let replicas = match replicas_of(answer) {
        Some(r) if !r.is_empty() => r,
        _ => {
            e.probes_outstanding = e.probes_outstanding.saturating_sub(1);
            return;
        }
    };
    let owner = e.overlay.id();
    let msg = DhtMsg::RepairProbe { round: e.repair_round, from: owner, owner, keys, cross: true };
    e.send_background(ctx, replicas[0].addr, msg);
}

/// Handles a cross-copy message.
pub(crate) fn on_msg<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    from: Addr,
    msg: CrossMsg,
    ctx: &mut EngineCtx<'_, P>,
) {
    match msg {
        CrossMsg::CrossCopy { xid, key, value, repair } => {
            let ok = verify_block(key, &value);
            if ok {
                e.accept(key, value, ctx);
            }
            let ack = DhtMsg::Ext(P::wrap(CrossMsg::CrossCopyAck { xid, ok }));
            e.send_as(repair, ctx, from, ack);
        }
        CrossMsg::CrossCopyAck { xid, ok } => {
            if let Some((op, client, repair)) = P::copies(&mut e.state).waiting.remove(&xid) {
                e.send_as(repair, ctx, client, DhtMsg::StoreAck { op, ok });
            }
        }
    }
}

/// Re-pushes a block the paired anchor reported missing.
pub(crate) fn push<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    to: Addr,
    key: Id,
    value: Bytes,
    ctx: &mut EngineCtx<'_, P>,
) {
    let xid = P::copies(&mut e.state).next_xid();
    let msg = CrossMsg::CrossCopy { xid, key, value, repair: true };
    e.send_background(ctx, to, DhtMsg::Ext(P::wrap(msg)));
}

/// Cross-section spot check: one replica lookup per key, bounded by the
/// batch budget and rotated across rounds so every anchored block is
/// eventually verified against its paired point. (In-section probes, by
/// contrast, carry every anchored key.)
pub(crate) fn spot_check<P: CrossCopying>(
    e: &mut DhtEngine<P>,
    anchored: &[Id],
    ctx: &mut EngineCtx<'_, P>,
) {
    if anchored.is_empty() {
        return;
    }
    let copies = P::copies(&mut e.state);
    let start = copies.cursor % anchored.len();
    let take = e.cfg.repair_batch.min(anchored.len());
    copies.cursor = (start + take) % anchored.len();
    for i in 0..take {
        let k = anchored[(start + i) % anchored.len()];
        let pair = paired_point(&e.overlay, k);
        let lid =
            e.with_overlay(ctx, |overlay, ictx| overlay.start_replica_lookup(pair, None, ictx));
        P::copies(&mut e.state).repair_lookups.insert(lid, vec![k]);
        e.probes_outstanding += 1;
    }
    P::drain_overlay(e, ctx);
}

impl Policy for Fast {
    type Overlay = VermeNode<()>;
    type Ext = CrossMsg;
    type State = CrossCopies;

    const PROBE_SCOPE_BYTES: usize = 17;
    const NEED_HEAD_BYTES: usize = 9;

    fn issue_attempt(e: &mut FastVerDiNode, op: u64, ctx: &mut EngineCtx<'_, Self>) {
        e.issue_lookup_attempt(
            op,
            ctx,
            |overlay, key| overlay.layout().replica_point_avoiding(key, overlay.node_type()),
            |overlay, point, avoid, ictx| {
                overlay.start_replica_lookup_excluding(point, None, avoid, ictx)
            },
        );
    }

    fn drain_overlay(e: &mut FastVerDiNode, ctx: &mut EngineCtx<'_, Self>) {
        for o in e.overlay.take_outcomes() {
            if let Some((op, _)) = e.lookup_to_op.remove(&o.lid) {
                let Some(req) = e.request(op) else {
                    continue;
                };
                e.send_to_replica(op, replicas_of(o.answer), req, ctx, |e, ctx| {
                    e.fail_attempt(op, ctx)
                });
            } else {
                resolved(e, o.lid, o.answer, ctx);
            }
        }
        // Fast-VerDi never piggybacks, so answer requests cannot appear.
        debug_assert!(e.overlay.take_answer_requests().is_empty());
    }

    fn anchors(e: &FastVerDiNode, key: Id) -> bool {
        anchors_either(&e.overlay, key)
    }

    fn replica_peers(e: &FastVerDiNode) -> Vec<Addr> {
        section_peers(&e.overlay, e.cfg.replicas)
    }

    fn heir(e: &FastVerDiNode) -> Option<Addr> {
        section_heir(&e.overlay, e.cfg.replicas)
    }

    fn is_orphan(e: &FastVerDiNode, key: Id, _: Id, owner: Id) -> bool {
        in_owner_section(&e.overlay, key, owner)
    }

    fn on_ext(e: &mut FastVerDiNode, from: Addr, msg: CrossMsg, ctx: &mut EngineCtx<'_, Self>) {
        on_msg(e, from, msg, ctx);
    }

    fn ext_scope(msg: &CrossMsg) -> Scope {
        msg.scope()
    }

    fn stored(e: &mut FastVerDiNode, acc: Accepted, ctx: &mut EngineCtx<'_, Self>) {
        start_copy(e, acc, ctx);
    }

    fn push_cross(
        e: &mut FastVerDiNode,
        to: Addr,
        key: Id,
        value: Bytes,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        push(e, to, key, value, ctx);
    }

    fn spot_check(e: &mut FastVerDiNode, anchored: &[Id], ctx: &mut EngineCtx<'_, Self>) {
        spot_check(e, anchored, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_block_size() {
        let big = Bytes::from(vec![0u8; 8192]);
        let small = Bytes::from(vec![0u8; 16]);
        let store = |value: Bytes| DhtMsg::<Fast>::Store {
            op: 1,
            key: Id::new(1),
            value,
            attempt: 0,
            repair: false,
        };
        assert!(store(big.clone()).wire_size() > store(small).wire_size() + 8000);
        assert!(DhtMsg::<Fast>::StoreAck { op: 1, ok: true }.wire_size() < 64);
        let cc = CrossMsg::CrossCopy { xid: 1, key: Id::new(1), value: big, repair: false };
        assert!(DhtMsg::<Fast>::Ext(cc).wire_size() > 8192);
    }
}
