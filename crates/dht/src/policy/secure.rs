//! Secure-VerDi (paper §5.3.2): the security end of the VerDi spectrum.
//!
//! The DHT operation is piggybacked inside the recursive lookup itself:
//! a `get`'s data rides back along the reverse lookup path (sealed to the
//! initiator), and a `put`'s data rides the forward path. No node ever
//! learns a non-neighbor's address — an impersonating node can at most
//! infect the sections of its own O(log n) overlay neighbors — at the
//! price of a data transfer on *every* hop, which is what Figures 6 and 7
//! charge it for.
//!
//! Because replies never carry addresses, Secure-VerDi does not need
//! dual-section replication: data is stored only at the key's natural
//! replica point (§5.3.2), so repair is purely in-section. The lookup
//! memo is deliberately never used: every operation rides a certified
//! lookup, and a memoized direct fetch would bypass exactly the
//! certification the variant pays for.

use std::collections::HashMap;

use bytes::Bytes;

use verme_chord::Id;
use verme_core::{Payload, VermeNode};
use verme_sim::{Addr, Scope};

use super::{in_owner_section, is_replica_anchor, section_heir, section_peers};
use crate::api::{keys, OpKind};
use crate::block::verify_block;
use crate::engine::{DhtEngine, EngineCtx, NoExt, Policy};

/// The Secure-VerDi policy: the operation rides a certified lookup.
#[derive(Clone, Copy, Debug, Default)]
pub struct Secure;

/// A Secure-VerDi node: a payload-carrying [`VermeNode`] plus the block
/// store. There is no separate data plane — data rides the lookups.
pub type SecureVerDiNode = DhtEngine<Secure>;

/// The operation payload piggybacked inside Secure-VerDi lookups and
/// their sealed replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SecurePayload {
    /// Forward path: retrieve the block stored under `key`.
    GetReq {
        /// Block key.
        key: Id,
    },
    /// Forward path: store `value` under `key`.
    PutReq {
        /// Block key.
        key: Id,
        /// Block contents (travels the whole lookup path).
        value: Bytes,
    },
    /// Reverse path: the block (travels the whole reverse path, sealed).
    GetResp {
        /// The block, if stored.
        value: Option<Bytes>,
    },
    /// Reverse path: store acknowledgment.
    PutResp {
        /// Whether the block was stored.
        ok: bool,
    },
}

impl Payload for SecurePayload {
    fn wire_size(&self) -> usize {
        match self {
            SecurePayload::GetReq { .. } => 17,
            SecurePayload::PutReq { value, .. } => 17 + value.len(),
            SecurePayload::GetResp { value } => 1 + value.as_ref().map_or(0, |v| v.len()),
            SecurePayload::PutResp { .. } => 2,
        }
    }
}

/// Fan-out bookkeeping for one operation's current attempt.
#[derive(Clone, Debug)]
pub struct FanoutState {
    /// Sibling lookups of the current attempt still in flight.
    inflight: u32,
    /// Siblings issued for this attempt so far (initial fan-out plus
    /// replacements); capped at three times the configured fan-out.
    spawned: u32,
    /// First hops this attempt has already routed over (plus any the
    /// suspicion counter blacklisted); replacements route around all of
    /// them.
    used: Vec<Addr>,
}

/// The lookup key and piggyback payload re-issuing `op` would carry.
/// `None` for finished operations and, with `single_path`, for repair
/// writes, which stay single-path by design.
fn payload_of(e: &SecureVerDiNode, op: u64, single_path: bool) -> Option<(Id, SecurePayload)> {
    let p = e.ops.get(op)?;
    if single_path && p.repair {
        return None;
    }
    let payload = match p.kind {
        OpKind::Get => SecurePayload::GetReq { key: p.key },
        OpKind::Put => SecurePayload::PutReq {
            key: p.key,
            value: p.value.clone().expect("puts carry a value"),
        },
    };
    Some((p.key, payload))
}

/// Records one failed fan-out sibling of an operation's attempt. The
/// attempt itself only fails once the *last* in-flight sibling of the
/// current attempt has failed — a forged reply racing ahead of an honest
/// copy must not burn the attempt while that copy is still in flight.
/// Siblings of a superseded attempt are ignored outright.
///
/// A sibling that failed *fast* (a detected forgery, not a timeout)
/// bought information with most of the attempt's deadline still left, so
/// when fan-out is configured we spend it: a replacement copy is launched
/// over a first hop this attempt has not routed through yet. Total spawns
/// per attempt are capped at three times the configured fan-out, bounding
/// the traffic an adversary can extract.
fn fail_sibling(e: &mut SecureVerDiNode, op: u64, attempt: u32, ctx: &mut EngineCtx<'_, Secure>) {
    if e.ops.get(op).is_none() {
        e.state.remove(&op);
        return;
    }
    if !e.ops.attempt_matches(op, attempt) {
        return; // Stale sibling of an earlier attempt.
    }
    let mut state =
        e.state.remove(&op).unwrap_or(FanoutState { inflight: 1, spawned: 1, used: Vec::new() });
    state.inflight = state.inflight.saturating_sub(1);
    if e.cfg.lookup_fanout > 1 && state.spawned < 3 * e.cfg.lookup_fanout as u32 {
        if let Some((key, payload)) = payload_of(e, op, true) {
            if let Some(hop) = e.overlay.route_first_hop_excluding(key, &state.used).map(|h| h.addr)
            {
                let exclude = state.used.clone();
                let lid = e.with_overlay(ctx, |overlay, ictx| {
                    overlay.start_replica_lookup_excluding(key, Some(payload), &exclude, ictx)
                });
                e.lookup_to_op.insert(lid, (op, attempt));
                state.used.push(hop);
                state.spawned += 1;
                state.inflight += 1;
                e.state.insert(op, state);
                return;
            }
        }
    }
    if state.inflight == 0 {
        e.fail_attempt(op, ctx);
    } else {
        e.state.insert(op, state);
    }
}

impl Policy for Secure {
    type Overlay = VermeNode<SecurePayload>;
    type Ext = NoExt;
    /// Fan-out bookkeeping for each operation's *current* attempt.
    type State = HashMap<u64, FanoutState>;

    const PROBE_SCOPE_BYTES: usize = 16;
    const NEED_HEAD_BYTES: usize = 8;
    const REPLICATE_INVALIDATES: bool = false;

    /// Issues the piggybacked lookup for a pending operation and arms the
    /// attempt timer.
    ///
    /// With `lookup_fanout > 1` each attempt sends redundant copies whose
    /// first hops are pairwise disjoint (and disjoint from any hops the
    /// suspicion counter has blacklisted): a Byzantine relay on one path
    /// cannot absorb the operation, because an independent copy routes
    /// around it. The first verified answer wins; stale siblings resolve
    /// against an already-finished operation and are ignored.
    fn issue_attempt(e: &mut SecureVerDiNode, op: u64, ctx: &mut EngineCtx<'_, Self>) {
        let Some((key, payload)) = payload_of(e, op, false) else {
            return;
        };
        let p = e.ops.get(op).expect("payload_of found the op");
        let (attempt, repair) = (p.attempt, p.repair);
        let avoid = e.avoid(op);
        if e.cfg.hop_suspicion {
            let hop = e.overlay.route_first_hop_excluding(key, &avoid).map(|h| h.addr);
            e.ops.note_first_hop(op, hop);
        }
        // Repair writes stay single-path: they are background traffic and
        // already retried by their own OpTable lifecycle.
        let fanout = if repair { 1 } else { e.cfg.lookup_fanout.max(1) };
        let mut exclude = avoid;
        let mut issued = 0u32;
        for i in 0..fanout {
            let hop = e.overlay.route_first_hop_excluding(key, &exclude).map(|h| h.addr);
            if i > 0 && hop.is_none() {
                break; // No disjoint route left to fan out over.
            }
            let pb = payload.clone();
            let lid = e.with_overlay(ctx, |overlay, ictx| {
                overlay.start_replica_lookup_excluding(key, Some(pb), &exclude, ictx)
            });
            e.lookup_to_op.insert(lid, (op, attempt));
            issued += 1;
            match hop {
                Some(h) => exclude.push(h),
                None => break,
            }
        }
        let (inflight, spawned) = (issued.max(1), issued.max(1));
        e.state.insert(op, FanoutState { inflight, spawned, used: exclude });
        e.arm_attempt_timer(op, attempt, ctx);
        Self::drain_overlay(e, ctx);
    }

    /// Handles both directions of the piggyback protocol after any
    /// delegated overlay call.
    fn drain_overlay(e: &mut SecureVerDiNode, ctx: &mut EngineCtx<'_, Self>) {
        // 1. Operations that reached us as the responsible node.
        for req in e.overlay.take_answer_requests() {
            match req.payload {
                SecurePayload::GetReq { key } => e.admit_fetch(req.lid, key, Addr::NULL, ctx),
                SecurePayload::PutReq { key, value } => {
                    let ok = verify_block(key, &value);
                    if ok {
                        e.accept(key, value, ctx);
                    }
                    let resp = Some(SecurePayload::PutResp { ok });
                    e.with_overlay(ctx, |overlay, ictx| overlay.send_answer(req.lid, resp, ictx));
                }
                // Response payloads never appear on the forward path.
                other @ (SecurePayload::GetResp { .. } | SecurePayload::PutResp { .. }) => {
                    debug_assert!(false, "response payload on forward path: {other:?}");
                }
            }
        }
        // 2. Completions of operations we initiated.
        for o in e.overlay.take_outcomes() {
            let Some((op, attempt)) = e.lookup_to_op.remove(&o.lid) else {
                continue;
            };
            if e.ops.get(op).is_none() {
                // A sibling of an operation that already finished.
                e.state.remove(&op);
                continue;
            }
            let fail = move |e: &mut SecureVerDiNode, ctx: &mut EngineCtx<'_, Self>| {
                fail_sibling(e, op, attempt, ctx)
            };
            match o.app {
                Some(SecurePayload::GetResp { value }) => e.got_value(op, value, ctx, fail),
                Some(SecurePayload::PutResp { ok }) => e.store_acked(op, ok, ctx, fail),
                _ => {
                    // A reply arrived (the lookup "completed") but carried
                    // no usable payload — the forged-envelope signature of
                    // a hijack, since honest responsible nodes always
                    // attach a response.
                    if e.cfg.hop_suspicion && o.answer.is_some() {
                        ctx.metrics().count(keys::LOOKUPS_HIJACKED, 1);
                    }
                    fail(e, ctx);
                }
            }
        }
    }

    fn anchors(e: &SecureVerDiNode, key: Id) -> bool {
        is_replica_anchor(&e.overlay, key)
    }

    fn replica_peers(e: &SecureVerDiNode) -> Vec<Addr> {
        section_peers(&e.overlay, e.cfg.replicas)
    }

    fn heir(e: &SecureVerDiNode) -> Option<Addr> {
        section_heir(&e.overlay, e.cfg.replicas)
    }

    fn is_orphan(e: &SecureVerDiNode, key: Id, _: Id, owner: Id) -> bool {
        in_owner_section(&e.overlay, key, owner)
    }

    fn on_ext(_: &mut SecureVerDiNode, _: Addr, msg: NoExt, _: &mut EngineCtx<'_, Self>) {
        match msg {}
    }

    fn ext_scope(msg: &NoExt) -> Scope {
        match *msg {}
    }

    /// Answers the lookup `lid` with the block, sealed to the initiator.
    /// `send_answer` returns false if the relay state already expired; the
    /// initiator's retry covers that case.
    fn serve(e: &mut SecureVerDiNode, lid: u64, key: Id, _: Addr, ctx: &mut EngineCtx<'_, Self>) {
        let resp = Some(SecurePayload::GetResp { value: e.store.get(key).cloned() });
        e.with_overlay(ctx, |overlay, ictx| overlay.send_answer(lid, resp, ictx));
    }

    fn forget(e: &mut SecureVerDiNode, op: u64) {
        e.state.remove(&op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DhtMsg;
    use verme_sim::Wire;

    #[test]
    fn payload_sizes_track_data() {
        let key = Id::new(1);
        let small = SecurePayload::GetReq { key };
        let data = Bytes::from(vec![0u8; 8192]);
        let put = SecurePayload::PutReq { key, value: data.clone() };
        let resp = SecurePayload::GetResp { value: Some(data) };
        let empty_resp = SecurePayload::GetResp { value: None };
        assert!(small.wire_size() < 32);
        assert!(put.wire_size() >= 8192);
        assert!(resp.wire_size() >= 8192);
        assert!(empty_resp.wire_size() < 8);
        assert_eq!(SecurePayload::PutResp { ok: true }.wire_size(), 2);
    }

    #[test]
    fn overlay_messages_carry_payload_bytes() {
        let r = DhtMsg::<Secure>::Replicate { key: Id::new(1), value: Bytes::from(vec![0u8; 100]) };
        assert!(r.wire_size() > 100);
    }
}
