//! The one DHT engine behind DHash and the three VerDi variants.
//!
//! Paper §5 defines a single get/put layer; its four systems differ only
//! in how an operation reaches its replica point and where the data then
//! travels. [`DhtEngine`] implements everything they share exactly once:
//!
//! - the operation lifecycle around [`OpTable`]: start, the hot-block
//!   cache, get coalescing and the lookup memo, completion, retries;
//! - fetch serving through the FIFO service slot, store and in-section
//!   replication, verification of everything written to the store;
//! - background data stabilization, epoch-kicked probe/need/pull repair
//!   rounds, hinted handoff on graceful leave, and read-repair.
//!
//! A statically dispatched [`Policy`] supplies only what differs: the
//! overlay and its lookup call, the responsibility (anchor) test, the
//! replica and heir peers, the orphan filter, the fetch target, and the
//! variant's own extension messages — Fast-VerDi's cross-section copy,
//! Secure-VerDi's piggybacked certified lookup, and Compromise-VerDi's
//! signed relay. The four node types are aliases of `DhtEngine<P>`.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;

use bytes::Bytes;
use rand::Rng;

use verme_chord::{ChordNode, Id, NodeHandle};
use verme_core::{Payload, VermeNode};
use verme_sim::{Addr, Ctx, Node, ProfScope, Scope, SimDuration, Wire};

use crate::api::{keys, DhtConfig, DhtNode, OpKind, OpOutcome, OpTable};
use crate::block::{block_key, verify_block, BlockStore};
use crate::serving::ServingPlane;

/// Modelled message header, shared with the overlays.
pub(crate) const HDR: usize = verme_chord::proto::HEADER_BYTES;

/// Delay between a detected neighborhood change and the reactive repair
/// round, coalescing the flurry of changes a single join/leave causes.
const REPAIR_KICK_DELAY: SimDuration = SimDuration::from_secs(2);

/// The overlay calls the engine makes itself; a policy makes the rest on
/// its concrete overlay type.
pub trait Overlay: Node<Msg: Debug, Timer: Debug> {
    /// This node's overlay identifier.
    fn id(&self) -> Id;
    /// Counter bumped whenever the neighborhood changes (repair trigger).
    fn neighbor_epoch(&self) -> u64;
    /// The first hop a lookup for `key` would take, avoiding `exclude`.
    fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle>;
}

impl Overlay for ChordNode {
    fn id(&self) -> Id {
        ChordNode::id(self)
    }
    fn neighbor_epoch(&self) -> u64 {
        ChordNode::neighbor_epoch(self)
    }
    fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        ChordNode::route_first_hop_excluding(self, key, exclude)
    }
}

impl<Pl: Payload> Overlay for VermeNode<Pl> {
    fn id(&self) -> Id {
        VermeNode::id(self)
    }
    fn neighbor_epoch(&self) -> u64 {
        VermeNode::neighbor_epoch(self)
    }
    fn route_first_hop_excluding(&self, key: Id, exclude: &[Addr]) -> Option<NodeHandle> {
        VermeNode::route_first_hop_excluding(self, key, exclude)
    }
}

/// The overlay's message type under policy `P`.
pub type OverlayMsg<P> = <<P as Policy>::Overlay as Node>::Msg;
/// The overlay's timer type under policy `P`.
pub type OverlayTimer<P> = <<P as Policy>::Overlay as Node>::Timer;
/// The simulator context a `DhtEngine<P>` handler runs in.
pub type EngineCtx<'a, P> = Ctx<'a, DhtMsg<P>, DhtTimer<OverlayTimer<P>>>;

/// What differs between the four DHT systems. Every hook is a static
/// function over the engine, so the message path has no dynamic dispatch.
pub trait Policy: Clone + Debug + Sized + 'static {
    /// The overlay node the system runs on.
    type Overlay: Overlay;
    /// Wire messages only this system sends.
    type Ext: Wire + Clone + Debug;
    /// Per-node state only this system keeps.
    type State: Default;

    /// Bytes a repair probe spends naming its scope: DHash names the
    /// prober's range (32), Fast/Compromise the owner plus the cross flag
    /// (17), Secure the owner alone (16).
    const PROBE_SCOPE_BYTES: usize;
    /// Fixed bytes of a repair need: the round (8), plus the echoed cross
    /// flag on Fast/Compromise (9).
    const NEED_HEAD_BYTES: usize;
    /// Whether an incoming replica drops the block from the hot-block
    /// cache. Secure-VerDi keeps the cached copy; every other write path
    /// drops it.
    const REPLICATE_INVALIDATES: bool = true;

    /// Issues (or re-issues) the current attempt of a pending operation
    /// and arms its attempt timer.
    fn issue_attempt(e: &mut DhtEngine<Self>, op: u64, ctx: &mut EngineCtx<'_, Self>);
    /// Turns overlay completions into data-plane actions; runs after every
    /// call into the overlay.
    fn drain_overlay(e: &mut DhtEngine<Self>, ctx: &mut EngineCtx<'_, Self>);
    /// True if this node anchors `key`: it re-replicates, repairs and hands
    /// off the block.
    fn anchors(e: &DhtEngine<Self>, key: Id) -> bool;
    /// The peers holding this node's replicas (replication and repair
    /// probe targets).
    fn replica_peers(e: &DhtEngine<Self>) -> Vec<Addr>;
    /// The peer that inherits this node's anchored blocks when it leaves.
    fn heir(e: &DhtEngine<Self>) -> Option<Addr>;
    /// True if `key`, held by a probed node, belongs to the prober's scope
    /// (`from`/`owner` as sent in the probe) and so is a pull candidate.
    fn is_orphan(e: &DhtEngine<Self>, key: Id, from: Id, owner: Id) -> bool;
    /// Start of the scope a repair probe names (DHash: the prober's range).
    fn probe_from(e: &DhtEngine<Self>) -> Id {
        e.overlay.id()
    }
    /// True if a reported orphan should be pulled back.
    fn pulls(e: &DhtEngine<Self>, key: Id) -> bool {
        Self::anchors(e, key)
    }
    /// Handles a variant-only message.
    fn on_ext(e: &mut DhtEngine<Self>, from: Addr, msg: Self::Ext, ctx: &mut EngineCtx<'_, Self>);
    /// The profiler scope a variant-only message is handled under.
    fn ext_scope(msg: &Self::Ext) -> Scope;

    /// The responsible node accepted a store: acknowledge it (Fast and
    /// Compromise first copy it to the paired section).
    fn stored(e: &mut DhtEngine<Self>, acc: Accepted, ctx: &mut EngineCtx<'_, Self>) {
        e.send_as(acc.repair, ctx, acc.client, DhtMsg::StoreAck { op: acc.op, ok: true });
    }
    /// A fetch reply arrived (Compromise: at a relay, for a relay job).
    fn on_fetch_reply(
        e: &mut DhtEngine<Self>,
        op: u64,
        value: Option<Bytes>,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        e.got_value(op, value, ctx, |e, ctx| e.fail_attempt(op, ctx));
    }
    /// A store acknowledgment arrived (Compromise: at a relay).
    fn on_store_ack(e: &mut DhtEngine<Self>, op: u64, ok: bool, ctx: &mut EngineCtx<'_, Self>) {
        e.store_acked(op, ok, ctx, |e, ctx| e.fail_attempt(op, ctx));
    }
    /// Answers a fetch once its service slot is reached.
    fn serve(
        e: &mut DhtEngine<Self>,
        op: u64,
        key: Id,
        client: Addr,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        let value = e.store.get(key).cloned();
        e.send_data(ctx, client, DhtMsg::FetchReply { op, value });
    }
    /// Re-pushes a block a paired-section probe reported missing.
    fn push_cross(
        e: &mut DhtEngine<Self>,
        to: Addr,
        key: Id,
        value: Bytes,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        e.send_background(ctx, to, DhtMsg::Replicate { key, value });
    }
    /// Extra repair work after the in-section probes of a round.
    fn spot_check(_e: &mut DhtEngine<Self>, _anchored: &[Id], _ctx: &mut EngineCtx<'_, Self>) {}
    /// Drops per-attempt policy state of `op` (it finished or timed out).
    fn forget(_e: &mut DhtEngine<Self>, _op: u64) {}
}

/// Extension type of a policy without messages of its own.
#[derive(Clone, Debug)]
pub enum NoExt {}

impl Wire for NoExt {
    fn wire_size(&self) -> usize {
        match *self {}
    }
}

/// Wire messages of a DHT node: the overlay's own traffic, the data plane
/// every system shares, and the policy's extension messages.
#[derive(Clone, Debug)]
pub enum DhtMsg<P: Policy> {
    /// Encapsulated overlay message.
    Overlay(OverlayMsg<P>),
    /// Direct block fetch from a replica.
    Fetch {
        /// Requester's operation id (opaque to the replica).
        op: u64,
        /// Block key.
        key: Id,
    },
    /// Fetch response.
    FetchReply {
        /// Operation id from the request.
        op: u64,
        /// The block, if stored.
        value: Option<Bytes>,
    },
    /// Direct block store on the responsible node.
    Store {
        /// Requester's operation id.
        op: u64,
        /// Block key.
        key: Id,
        /// Block contents.
        value: Bytes,
        /// Requester's retry attempt: Fast/Compromise rotate their
        /// cross-copy target with it.
        attempt: u32,
        /// True for internal read-repair writes: the whole chain is then
        /// charged to replication, keeping Figure-7 counters clean.
        repair: bool,
    },
    /// Store acknowledgment (Fast/Compromise: after the cross copy).
    StoreAck {
        /// Operation id from the request.
        op: u64,
        /// Whether the store was accepted.
        ok: bool,
    },
    /// Background replication of a block to a replica peer.
    Replicate {
        /// Block key.
        key: Id,
        /// Block contents.
        value: Bytes,
    },
    /// Repair probe: an anchor tells a replica peer which keys it should
    /// hold, plus its scope, so the peer can report gaps and orphans.
    RepairProbe {
        /// Prober-local round number (stale replies are ignored for the
        /// in-flight gauge).
        round: u64,
        /// Start of the prober's range (DHash; the owner otherwise).
        from: Id,
        /// The prober's id (end of the range, or its section).
        owner: Id,
        /// Keys the prober anchors and holds.
        keys: Vec<Id>,
        /// True when probing the opposite-type replica point: the peer
        /// reports gaps only.
        cross: bool,
    },
    /// Repair probe reply.
    RepairNeed {
        /// Round number echoed from the probe.
        round: u64,
        /// Probed keys this node does not hold (please push).
        missing: Vec<Id>,
        /// Keys this node holds in the prober's scope that were not in the
        /// probe: the prober lost (or never had) them and should pull.
        orphans: Vec<Id>,
        /// Echoed from the probe: push via cross copy, not replicate.
        cross: bool,
    },
    /// Pull request for orphaned blocks (answered with `Replicate`).
    RepairPull {
        /// Keys to send back.
        keys: Vec<Id>,
    },
    /// A message only this policy sends.
    Ext(P::Ext),
}

impl<P: Policy> Wire for DhtMsg<P> {
    fn wire_size(&self) -> usize {
        let len = |v: &Option<Bytes>| v.as_ref().map_or(0, |v| v.len());
        match self {
            DhtMsg::Overlay(m) => m.wire_size(),
            DhtMsg::Fetch { .. } => HDR + 8 + 16,
            DhtMsg::FetchReply { value, .. } => HDR + 8 + 1 + len(value),
            DhtMsg::Store { value, .. } => HDR + 8 + 16 + value.len(),
            DhtMsg::StoreAck { .. } => HDR + 9,
            DhtMsg::Replicate { value, .. } => HDR + 16 + value.len(),
            DhtMsg::RepairProbe { keys, .. } => HDR + 8 + P::PROBE_SCOPE_BYTES + 16 * keys.len(),
            DhtMsg::RepairNeed { missing, orphans, .. } => {
                HDR + P::NEED_HEAD_BYTES + 16 * (missing.len() + orphans.len())
            }
            DhtMsg::RepairPull { keys } => HDR + 16 * keys.len(),
            DhtMsg::Ext(x) => x.wire_size(),
        }
    }
}

/// Timers of a DHT node over overlay timers `T`.
#[derive(Clone, Debug)]
pub enum DhtTimer<T> {
    /// Encapsulated overlay timer.
    Overlay(T),
    /// Operation deadline (hard per-request bound).
    OpDeadline {
        /// The guarded operation.
        op: u64,
    },
    /// One attempt's share of the deadline elapsed without an answer.
    AttemptTimeout {
        /// The guarded operation.
        op: u64,
        /// The attempt this timer guards (stale timers are ignored).
        attempt: u32,
    },
    /// Backoff elapsed; re-issue the operation.
    RetryOp {
        /// The operation to retry.
        op: u64,
    },
    /// Periodic background data stabilization.
    DataStabilize,
    /// Periodic repair-round check (probes only if the overlay
    /// neighborhood changed since the previous round).
    Repair,
    /// Short-fuse repair round scheduled right after a detected
    /// neighborhood change (join, crash, or graceful leave).
    RepairKick,
    /// A queued fetch finished its service slot; answer it. Only armed
    /// when `fetch_service_time` is non-zero.
    ServeFetch {
        /// Requester's operation id (Secure: the lookup to answer).
        op: u64,
        /// Block key to read at service completion.
        key: Id,
        /// Where to send the reply.
        client: Addr,
    },
}

/// What an operation asks of the replica it resolved to.
#[derive(Clone, Debug)]
pub struct Request {
    /// Get or put.
    pub kind: OpKind,
    /// Block key.
    pub key: Id,
    /// Block contents (puts only).
    pub value: Option<Bytes>,
    /// The client's retry attempt.
    pub attempt: u32,
    /// Internal read-repair write.
    pub repair: bool,
}

/// A store the responsible node accepted, awaiting acknowledgment.
#[derive(Clone, Debug)]
pub struct Accepted {
    /// Who sent the store.
    pub client: Addr,
    /// The sender's operation id.
    pub op: u64,
    /// Block key.
    pub key: Id,
    /// Block contents.
    pub value: Bytes,
    /// The sender's retry attempt.
    pub attempt: u32,
    /// Internal read-repair write.
    pub repair: bool,
}

/// A DHT node: an overlay node plus the block store and the data plane,
/// specialised by a [`Policy`].
///
/// Drive operations with [`DhtNode::start_get`]/[`DhtNode::start_put`] via
/// [`Runtime::invoke`](verme_sim::Runtime::invoke).
pub struct DhtEngine<P: Policy> {
    pub(crate) overlay: P::Overlay,
    pub(crate) cfg: DhtConfig,
    pub(crate) store: BlockStore,
    pub(crate) ops: OpTable,
    pub(crate) serving: ServingPlane,
    /// Lookups issued for an operation: lookup id → (op, attempt).
    pub(crate) lookup_to_op: HashMap<u64, (u64, u32)>,
    /// Keys with a read-repair write in flight.
    repairing: BTreeSet<Id>,
    pub(crate) repair_round: u64,
    pub(crate) probes_outstanding: usize,
    last_epoch: u64,
    kick_armed: bool,
    pub(crate) state: P::State,
}

impl<P: Policy> DhtEngine<P> {
    /// Wraps an overlay node (converged or joining) with the DHT layer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid.
    pub fn new(overlay: P::Overlay, cfg: DhtConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid DHT config: {e}");
        }
        DhtEngine {
            overlay,
            cfg,
            store: BlockStore::new(),
            ops: OpTable::new(),
            serving: ServingPlane::new(),
            lookup_to_op: HashMap::new(),
            repairing: BTreeSet::new(),
            repair_round: 0,
            probes_outstanding: 0,
            last_epoch: 0,
            kick_armed: false,
            state: P::State::default(),
        }
    }

    /// The underlying overlay node.
    pub fn overlay(&self) -> &P::Overlay {
        &self.overlay
    }

    /// Mutable access to the overlay (behaviour installation).
    pub fn overlay_mut(&mut self) -> &mut P::Overlay {
        &mut self.overlay
    }

    /// The local block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    pub(crate) fn with_overlay<R>(
        &mut self,
        ctx: &mut EngineCtx<'_, P>,
        f: impl FnOnce(&mut P::Overlay, &mut Ctx<'_, OverlayMsg<P>, OverlayTimer<P>>) -> R,
    ) -> R {
        let overlay = &mut self.overlay;
        ctx.nested(|ictx| f(overlay, ictx), DhtMsg::Overlay, DhtTimer::Overlay)
    }

    /// Sends foreground data-plane traffic (Figure 7 bytes).
    pub(crate) fn send_data(&mut self, ctx: &mut EngineCtx<'_, P>, to: Addr, msg: DhtMsg<P>) {
        ctx.metrics().count(keys::BYTES_DATA, msg.wire_size() as u64);
        ctx.send(to, msg);
    }

    /// Sends background replication traffic.
    pub(crate) fn send_background(&mut self, ctx: &mut EngineCtx<'_, P>, to: Addr, msg: DhtMsg<P>) {
        ctx.metrics().count(keys::BYTES_REPLICATION, msg.wire_size() as u64);
        ctx.send(to, msg);
    }

    /// Sends as background traffic for read-repair writes, foreground
    /// otherwise.
    pub(crate) fn send_as(
        &mut self,
        repair: bool,
        ctx: &mut EngineCtx<'_, P>,
        to: Addr,
        msg: DhtMsg<P>,
    ) {
        if repair {
            self.send_background(ctx, to, msg);
        } else {
            self.send_data(ctx, to, msg);
        }
    }

    /// Fails the current attempt of `op` (retry with backoff, or give up).
    pub(crate) fn fail_attempt(&mut self, op: u64, ctx: &mut EngineCtx<'_, P>) {
        self.ops.fail_attempt(op, &self.cfg, ctx, |op| DhtTimer::RetryOp { op });
    }

    pub(crate) fn arm_attempt_timer(&self, op: u64, attempt: u32, ctx: &mut EngineCtx<'_, P>) {
        if self.cfg.max_retries > 0 {
            ctx.set_timer(self.cfg.attempt_timeout(), DhtTimer::AttemptTimeout { op, attempt });
        }
    }

    /// The hops `op` must route around (empty unless suspicion is on).
    pub(crate) fn avoid(&self, op: u64) -> Vec<Addr> {
        if self.cfg.hop_suspicion {
            self.ops.avoid(op).to_vec()
        } else {
            Vec::new()
        }
    }

    /// The request the pending operation `op` makes.
    pub(crate) fn request(&self, op: u64) -> Option<Request> {
        self.ops.get(op).map(|p| Request {
            kind: p.kind,
            key: p.key,
            value: p.value.clone(),
            attempt: p.attempt,
            repair: p.repair,
        })
    }

    /// The lookup memo's answer for a first get attempt. Retries never
    /// trust the memo: the block (or the ring) moved, so it is dropped.
    pub(crate) fn memo_front(
        &mut self,
        kind: OpKind,
        key: Id,
        attempt: u32,
        ctx: &EngineCtx<'_, P>,
    ) -> Option<Addr> {
        if !self.cfg.memo_enabled || kind != OpKind::Get {
            return None;
        }
        if attempt == 0 {
            self.serving.memo_get(key, ctx.now())
        } else {
            self.serving.memo_invalidate(key);
            None
        }
    }

    /// The attempt DHash and Fast-VerDi share: a fresh memoized address
    /// skips the lookup; otherwise look up `point(key)` with `start` and
    /// let the policy's drain send the request. The attempt timer guards
    /// either path.
    pub(crate) fn issue_lookup_attempt(
        &mut self,
        op: u64,
        ctx: &mut EngineCtx<'_, P>,
        point: impl FnOnce(&P::Overlay, Id) -> Id,
        start: impl FnOnce(
            &mut P::Overlay,
            Id,
            &[Addr],
            &mut Ctx<'_, OverlayMsg<P>, OverlayTimer<P>>,
        ) -> u64,
    ) {
        let Some(p) = self.ops.get(op) else {
            return;
        };
        let (kind, key, attempt) = (p.kind, p.key, p.attempt);
        if let Some(addr) = self.memo_front(kind, key, attempt, ctx) {
            ctx.metrics().count(keys::LOOKUP_MEMO_HITS, 1);
            self.arm_attempt_timer(op, attempt, ctx);
            self.send_data(ctx, addr, DhtMsg::Fetch { op, key });
            return;
        }
        let point = point(&self.overlay, key);
        let avoid = self.avoid(op);
        if self.cfg.hop_suspicion {
            let hop = self.overlay.route_first_hop_excluding(point, &avoid).map(|h| h.addr);
            self.ops.note_first_hop(op, hop);
        }
        let lid = self.with_overlay(ctx, |overlay, ictx| start(overlay, point, &avoid, ictx));
        self.lookup_to_op.insert(lid, (op, attempt));
        self.arm_attempt_timer(op, attempt, ctx);
        P::drain_overlay(self, ctx);
    }

    /// Sends request `id` (an op, or a Compromise relay job) to the
    /// replica `to`: a fetch for gets, a store for puts.
    pub(crate) fn send_request(
        &mut self,
        id: u64,
        to: Addr,
        req: Request,
        ctx: &mut EngineCtx<'_, P>,
    ) {
        let Request { kind, key, value, attempt, repair } = req;
        match kind {
            OpKind::Get => self.send_data(ctx, to, DhtMsg::Fetch { op: id, key }),
            OpKind::Put => {
                let value = value.expect("puts carry a value");
                let msg = DhtMsg::Store { op: id, key, value, attempt, repair };
                self.send_as(repair, ctx, to, msg);
            }
        }
    }

    /// Sends request `id` to `replicas[attempt % len]`, rotating across the
    /// replica list on retry so a dead first replica does not burn every
    /// attempt; a first get attempt memoizes the target. Fails with
    /// `fail` when the lookup found no replica.
    pub(crate) fn send_to_replica(
        &mut self,
        id: u64,
        replicas: Option<Vec<NodeHandle>>,
        req: Request,
        ctx: &mut EngineCtx<'_, P>,
        fail: impl FnOnce(&mut Self, &mut EngineCtx<'_, P>),
    ) {
        let replicas = match replicas {
            Some(r) if !r.is_empty() => r,
            _ => return fail(self, ctx),
        };
        let target = replicas[req.attempt as usize % replicas.len()].addr;
        if self.cfg.memo_enabled && req.kind == OpKind::Get && req.attempt == 0 {
            self.serving.memo_put(req.key, target, ctx.now(), self.cfg.memo_ttl);
        }
        self.send_request(id, target, req, ctx);
    }

    /// A get's value came back: finish the op on a verified block (then
    /// read-repair if it needed failover), or fail the attempt with
    /// `fail`. With defenses armed, a verification failure after a
    /// completed lookup is a suspected hijack.
    pub(crate) fn got_value(
        &mut self,
        op: u64,
        value: Option<Bytes>,
        ctx: &mut EngineCtx<'_, P>,
        fail: impl FnOnce(&mut Self, &mut EngineCtx<'_, P>),
    ) {
        let Some(p) = self.ops.get(op) else {
            return;
        };
        if value.as_ref().is_some_and(|v| verify_block(p.key, v)) {
            let (key, attempt) = (p.key, p.attempt);
            let val = value.clone().expect("verified value present");
            self.finish_op(op, true, value, ctx);
            self.read_repair(key, attempt, val, ctx);
        } else {
            if self.cfg.hop_suspicion {
                ctx.metrics().count(keys::LOOKUPS_HIJACKED, 1);
            }
            fail(self, ctx);
        }
    }

    /// A put's acknowledgment came back.
    pub(crate) fn store_acked(
        &mut self,
        op: u64,
        ok: bool,
        ctx: &mut EngineCtx<'_, P>,
        fail: impl FnOnce(&mut Self, &mut EngineCtx<'_, P>),
    ) {
        if ok {
            self.finish_op(op, true, None, ctx);
        } else {
            fail(self, ctx);
        }
    }

    /// Read-repair: a get that only succeeded on a retry found the
    /// first-line replica set incomplete, so the block is re-stored
    /// through the normal put path as a background write.
    fn read_repair(&mut self, key: Id, attempt: u32, value: Bytes, ctx: &mut EngineCtx<'_, P>) {
        if attempt > 0 && self.cfg.repair_enabled && !self.repairing.contains(&key) {
            self.repairing.insert(key);
            let rop =
                self.ops.start_repair(key, value, &self.cfg, ctx, |op| DhtTimer::OpDeadline { op });
            P::issue_attempt(self, rop, ctx);
        }
    }

    /// Completes an operation, clears read-repair bookkeeping, settles
    /// coalesced waiters with the leader's result, and fills the cache.
    pub(crate) fn finish_op(
        &mut self,
        op: u64,
        ok: bool,
        value: Option<Bytes>,
        ctx: &mut EngineCtx<'_, P>,
    ) {
        P::forget(self, op);
        let Some(f) = self.ops.finish(op, ok, value.clone(), ctx) else {
            return;
        };
        if f.repair {
            self.repairing.remove(&f.key);
        }
        if f.kind == OpKind::Get && !f.repair {
            if self.cfg.coalesce_gets {
                // Every parked get observes the leader's outcome —
                // success, deadline, or retry exhaustion alike — so no
                // waiter is ever lost.
                for w in self.serving.finish_leader(f.key, op) {
                    self.finish_op(w, ok, value.clone(), ctx);
                }
            }
            if self.cfg.cache_enabled && ok {
                if let Some(v) = value {
                    self.serving.cache_fill(f.key, v, self.cfg.cache_capacity);
                }
            }
        }
    }

    /// Drops a block from the hot cache after it moved underneath us.
    fn invalidate_cached(&mut self, key: Id, ctx: &mut EngineCtx<'_, P>) {
        if self.cfg.cache_enabled && self.serving.cache_invalidate(key) {
            ctx.metrics().count(keys::CACHE_INVALIDATIONS, 1);
        }
    }

    /// Replicates a block to this node's replica peers (background).
    fn replicate(&mut self, key: Id, value: &Bytes, ctx: &mut EngineCtx<'_, P>) {
        for addr in P::replica_peers(self) {
            self.send_background(ctx, addr, DhtMsg::Replicate { key, value: value.clone() });
        }
    }

    /// Writes a verified block handed to this node by a client, a relay or
    /// the paired section, and replicates it.
    pub(crate) fn accept(&mut self, key: Id, value: Bytes, ctx: &mut EngineCtx<'_, P>) {
        self.store.put(key, value.clone());
        self.invalidate_cached(key, ctx);
        self.replicate(key, &value, ctx);
    }

    /// Serves a fetch now, or queues it FIFO behind earlier fetches when a
    /// service time is configured (the store is then read at service
    /// completion, not admission).
    pub(crate) fn admit_fetch(
        &mut self,
        op: u64,
        key: Id,
        client: Addr,
        ctx: &mut EngineCtx<'_, P>,
    ) {
        if self.cfg.fetch_service_time.is_zero() {
            P::serve(self, op, key, client, ctx);
        } else {
            let delay = self.serving.enqueue_service(ctx.now(), self.cfg.fetch_service_time);
            ctx.set_timer(delay, DhtTimer::ServeFetch { op, key, client });
        }
    }

    fn on_store(&mut self, acc: Accepted, ctx: &mut EngineCtx<'_, P>) {
        if !verify_block(acc.key, &acc.value) {
            let nack = DhtMsg::StoreAck { op: acc.op, ok: false };
            self.send_as(acc.repair, ctx, acc.client, nack);
            return;
        }
        self.accept(acc.key, acc.value.clone(), ctx);
        P::stored(self, acc, ctx);
    }

    /// Stored blocks this node anchors, in key order.
    fn anchored_blocks(&self) -> Vec<(Id, Bytes)> {
        self.store
            .iter()
            .filter(|(k, _)| P::anchors(self, **k))
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Arms a short-fuse repair round if the overlay neighborhood changed
    /// since the last round. Called after every overlay interaction.
    fn maybe_kick_repair(&mut self, ctx: &mut EngineCtx<'_, P>) {
        if self.cfg.repair_enabled
            && !self.kick_armed
            && self.overlay.neighbor_epoch() != self.last_epoch
        {
            self.kick_armed = true;
            ctx.set_timer(REPAIR_KICK_DELAY, DhtTimer::RepairKick);
        }
    }

    /// Runs one repair round: probes the replica peers with every anchored
    /// key (and the prober's scope, so they can report orphans), then lets
    /// the policy add its own checks. No-op when the neighborhood is
    /// unchanged — a quiet ring sends no repair traffic.
    fn run_repair_round(&mut self, ctx: &mut EngineCtx<'_, P>) {
        let epoch = self.overlay.neighbor_epoch();
        if epoch == self.last_epoch && self.probes_outstanding == 0 {
            return;
        }
        // An unchanged epoch with probes still unanswered means the last
        // round lost a probe to a stale-dead target. Re-probe until a full
        // round completes cleanly; on a fault-free ring the epoch never
        // moves and no probe is ever sent, so this retry path stays inert.
        self.last_epoch = epoch;
        ctx.begin_cause();
        ctx.metrics().count(keys::REPAIR_ROUNDS, 1);
        self.repair_round += 1;
        let (round, owner, from) = (self.repair_round, self.overlay.id(), P::probe_from(self));
        let anchored: Vec<Id> =
            self.store.iter().map(|(k, _)| *k).filter(|k| P::anchors(self, *k)).collect();
        let targets = P::replica_peers(self);
        self.probes_outstanding = targets.len();
        for addr in targets {
            let keys = anchored.clone();
            let msg = DhtMsg::RepairProbe { round, from, owner, keys, cross: false };
            self.send_background(ctx, addr, msg);
        }
        P::spot_check(self, &anchored, ctx);
    }

    /// Handles a probe reply: pushes the blocks the responder lacks
    /// (budgeted; via cross copy for paired-section targets) and pulls
    /// back orphans.
    fn handle_repair_need(
        &mut self,
        from: Addr,
        round: u64,
        missing: Vec<Id>,
        orphans: Vec<Id>,
        cross: bool,
        ctx: &mut EngineCtx<'_, P>,
    ) {
        if round == self.repair_round {
            self.probes_outstanding = self.probes_outstanding.saturating_sub(1);
        }
        let mut pushed = 0usize;
        for k in missing {
            if pushed >= self.cfg.repair_batch {
                break;
            }
            let Some(v) = self.store.get(k).cloned() else {
                continue;
            };
            if cross {
                P::push_cross(self, from, k, v, ctx);
            } else {
                self.send_background(ctx, from, DhtMsg::Replicate { key: k, value: v });
            }
            ctx.metrics().count(keys::REPAIR_PUSHED, 1);
            pushed += 1;
        }
        let pulls: Vec<Id> = orphans
            .into_iter()
            .filter(|k| !self.store.contains(*k) && P::pulls(self, *k))
            .take(self.cfg.repair_batch)
            .collect();
        if !pulls.is_empty() {
            self.send_background(ctx, from, DhtMsg::RepairPull { keys: pulls });
        }
    }
}

impl<P: Policy> DhtNode for DhtEngine<P> {
    fn start_put(&mut self, value: Bytes, ctx: &mut EngineCtx<'_, P>) -> u64 {
        let key = block_key(&value);
        let op = self
            .ops
            .start(OpKind::Put, key, Some(value), &self.cfg, ctx, |op| DhtTimer::OpDeadline { op });
        P::issue_attempt(self, op, ctx);
        op
    }

    fn start_get(&mut self, key: Id, ctx: &mut EngineCtx<'_, P>) -> u64 {
        let op = self
            .ops
            .start(OpKind::Get, key, None, &self.cfg, ctx, |op| DhtTimer::OpDeadline { op });
        if self.cfg.cache_enabled {
            if let Some(v) = self.serving.cache_lookup(key) {
                // Content addressing guarantees the value is the value;
                // answer locally. The already-armed deadline timer finds
                // the op gone and no-ops.
                ctx.metrics().count(keys::CACHE_HITS, 1);
                self.finish_op(op, true, Some(v), ctx);
                return op;
            }
            ctx.metrics().count(keys::CACHE_MISSES, 1);
        }
        if self.cfg.coalesce_gets {
            if let Some(leader) = self.serving.leader_for(key) {
                // Park behind the in-flight get: exactly one upstream
                // request is issued for the key.
                ctx.metrics().count(keys::GETS_COALESCED, 1);
                self.serving.add_waiter(leader, op);
                return op;
            }
            self.serving.set_leader(key, op);
        }
        P::issue_attempt(self, op, ctx);
        op
    }

    fn take_op_outcomes(&mut self) -> Vec<OpOutcome> {
        self.ops.take_outcomes()
    }

    fn stored_blocks(&self) -> usize {
        self.store.len()
    }

    fn store(&self) -> &BlockStore {
        &self.store
    }

    fn repair_inflight(&self) -> usize {
        self.probes_outstanding + self.ops.repairs_pending()
    }
}

impl<P: Policy> Node for DhtEngine<P> {
    type Msg = DhtMsg<P>;
    type Timer = DhtTimer<OverlayTimer<P>>;

    fn on_start(&mut self, ctx: &mut EngineCtx<'_, P>) {
        self.with_overlay(ctx, |overlay, ictx| overlay.on_start(ictx));
        let phase_ns = self.cfg.data_stabilize_interval.as_nanos().max(1);
        let phase = SimDuration::from_nanos(ctx.rng().gen_range(0..phase_ns));
        ctx.set_timer(phase, DhtTimer::DataStabilize);
        if self.cfg.repair_enabled {
            // Deliberately no random phase: repair must consume no rng
            // draws, so a repair-enabled fault-free run stays
            // byte-identical to a repair-disabled one.
            ctx.set_timer(self.cfg.repair_interval, DhtTimer::Repair);
        }
        self.last_epoch = self.overlay.neighbor_epoch();
    }

    fn on_message(&mut self, from: Addr, msg: DhtMsg<P>, ctx: &mut EngineCtx<'_, P>) {
        // Overlay traffic gets no span here: the nested overlay handler
        // enters its own chord.* scopes.
        let scope = match &msg {
            DhtMsg::Overlay(_) => None,
            DhtMsg::Fetch { .. } | DhtMsg::Store { .. } | DhtMsg::Replicate { .. } => {
                Some(Scope::DhtServe)
            }
            DhtMsg::RepairProbe { .. } | DhtMsg::RepairNeed { .. } | DhtMsg::RepairPull { .. } => {
                Some(Scope::DhtRepair)
            }
            DhtMsg::FetchReply { .. } | DhtMsg::StoreAck { .. } => Some(Scope::DhtOp),
            DhtMsg::Ext(x) => Some(P::ext_scope(x)),
        };
        let _span = scope.map(ProfScope::enter);
        match msg {
            DhtMsg::Overlay(m) => {
                self.with_overlay(ctx, |overlay, ictx| overlay.on_message(from, m, ictx));
                P::drain_overlay(self, ctx);
                self.maybe_kick_repair(ctx);
            }
            DhtMsg::Fetch { op, key } => self.admit_fetch(op, key, from, ctx),
            DhtMsg::FetchReply { op, value } => P::on_fetch_reply(self, op, value, ctx),
            DhtMsg::Store { op, key, value, attempt, repair } => {
                self.on_store(Accepted { client: from, op, key, value, attempt, repair }, ctx);
            }
            DhtMsg::StoreAck { op, ok } => P::on_store_ack(self, op, ok, ctx),
            DhtMsg::Replicate { key, value } => {
                if verify_block(key, &value) {
                    self.store.put(key, value);
                    if P::REPLICATE_INVALIDATES {
                        self.invalidate_cached(key, ctx);
                    }
                }
            }
            DhtMsg::RepairProbe { round, from: start, owner, keys: probed, cross } => {
                // Report the probed keys we lack, plus (in-section probes
                // only) orphans: keys we hold in the prober's scope that it
                // did not list. Always answer — an empty reply still
                // drains the prober's in-flight gauge.
                let listed: BTreeSet<Id> = probed.iter().copied().collect();
                let missing: Vec<Id> =
                    probed.into_iter().filter(|k| !self.store.contains(*k)).collect();
                let orphans: Vec<Id> = if cross {
                    Vec::new()
                } else {
                    self.store
                        .iter()
                        .map(|(k, _)| *k)
                        .filter(|k| P::is_orphan(self, *k, start, owner) && !listed.contains(k))
                        .take(self.cfg.repair_batch)
                        .collect()
                };
                let need = DhtMsg::RepairNeed { round, missing, orphans, cross };
                self.send_background(ctx, from, need);
            }
            DhtMsg::RepairNeed { round, missing, orphans, cross } => {
                self.handle_repair_need(from, round, missing, orphans, cross, ctx);
            }
            DhtMsg::RepairPull { keys: pulled } => {
                let mut pushed = 0usize;
                for k in pulled {
                    if pushed >= self.cfg.repair_batch {
                        break;
                    }
                    let Some(v) = self.store.get(k).cloned() else {
                        continue;
                    };
                    self.send_background(ctx, from, DhtMsg::Replicate { key: k, value: v });
                    ctx.metrics().count(keys::REPAIR_PUSHED, 1);
                    pushed += 1;
                }
            }
            DhtMsg::Ext(x) => P::on_ext(self, from, x, ctx),
        }
    }

    fn on_shutdown(&mut self, ctx: &mut EngineCtx<'_, P>) {
        if self.cfg.repair_enabled {
            // Hinted handoff: this node's copies die with it, so push every
            // block it anchors to the heir that enters the replica set once
            // it is gone. Fire-and-forget — the node is gone before any
            // reply could arrive — and all background traffic.
            if let Some(heir) = P::heir(self) {
                ctx.begin_cause();
                for (k, v) in self.anchored_blocks() {
                    ctx.metrics().count(keys::HANDOFF_BLOCKS, 1);
                    self.send_background(ctx, heir, DhtMsg::Replicate { key: k, value: v });
                }
            }
        }
        self.with_overlay(ctx, |overlay, ictx| overlay.on_shutdown(ictx));
    }

    fn on_timer(&mut self, timer: Self::Timer, ctx: &mut EngineCtx<'_, P>) {
        let scope = match &timer {
            DhtTimer::Overlay(_) => None,
            DhtTimer::DataStabilize | DhtTimer::Repair | DhtTimer::RepairKick => {
                Some(Scope::DhtRepair)
            }
            DhtTimer::ServeFetch { .. } => Some(Scope::DhtServe),
            _ => Some(Scope::DhtOp),
        };
        let _span = scope.map(ProfScope::enter);
        match timer {
            DhtTimer::Overlay(t) => {
                self.with_overlay(ctx, |overlay, ictx| overlay.on_timer(t, ictx));
                P::drain_overlay(self, ctx);
                self.maybe_kick_repair(ctx);
            }
            DhtTimer::OpDeadline { op } => self.finish_op(op, false, None, ctx),
            DhtTimer::AttemptTimeout { op, attempt } => {
                if self.ops.attempt_matches(op, attempt) {
                    P::forget(self, op);
                    self.fail_attempt(op, ctx);
                }
            }
            DhtTimer::RetryOp { op } => P::issue_attempt(self, op, ctx),
            DhtTimer::DataStabilize => {
                // Each periodic round is its own causal span. Re-replicate
                // anchored blocks so churn does not erode replication.
                ctx.begin_cause();
                for (k, v) in self.anchored_blocks() {
                    self.replicate(k, &v, ctx);
                }
                ctx.set_timer(self.cfg.data_stabilize_interval, DhtTimer::DataStabilize);
            }
            DhtTimer::Repair => {
                self.run_repair_round(ctx);
                ctx.set_timer(self.cfg.repair_interval, DhtTimer::Repair);
            }
            DhtTimer::RepairKick => {
                self.kick_armed = false;
                self.run_repair_round(ctx);
            }
            DhtTimer::ServeFetch { op, key, client } => P::serve(self, op, key, client, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    use super::*;
    use crate::{Compromise, Dhash, Fast, Secure};

    /// The event queue carries messages by value, so a fatter shared enum
    /// would slow every workload: each variant's message must stay within
    /// the size its own hand-written enum had.
    #[test]
    fn messages_are_no_larger_than_the_variant_enums() {
        assert!(size_of::<DhtMsg<Dhash>>() <= 112, "{}", size_of::<DhtMsg<Dhash>>());
        assert!(size_of::<DhtMsg<Fast>>() <= 128, "{}", size_of::<DhtMsg<Fast>>());
        assert!(size_of::<DhtMsg<Secure>>() <= 176, "{}", size_of::<DhtMsg<Secure>>());
        assert!(size_of::<DhtMsg<Compromise>>() <= 160, "{}", size_of::<DhtMsg<Compromise>>());
    }

    /// Figure 7 charges each variant's repair traffic at its own size.
    #[test]
    fn repair_messages_keep_each_variant_wire_size() {
        fn probe<P: Policy>(k: usize) -> usize {
            let keys = vec![Id::new(1); k];
            let owner = Id::new(2);
            DhtMsg::<P>::RepairProbe { round: 1, from: owner, owner, keys, cross: false }
                .wire_size()
        }
        fn need<P: Policy>(k: usize) -> usize {
            let missing = vec![Id::new(1); k];
            DhtMsg::<P>::RepairNeed { round: 1, missing, orphans: Vec::new(), cross: false }
                .wire_size()
        }
        for k in [0, 3] {
            assert_eq!(probe::<Dhash>(k), HDR + 8 + 32 + 16 * k);
            assert_eq!(probe::<Fast>(k), HDR + 8 + 17 + 16 * k);
            assert_eq!(probe::<Compromise>(k), HDR + 8 + 17 + 16 * k);
            assert_eq!(probe::<Secure>(k), HDR + 8 + 16 + 16 * k);
            assert_eq!(need::<Dhash>(k), HDR + 8 + 16 * k);
            assert_eq!(need::<Fast>(k), HDR + 9 + 16 * k);
            assert_eq!(need::<Compromise>(k), HDR + 9 + 16 * k);
            assert_eq!(need::<Secure>(k), HDR + 8 + 16 * k);
        }
    }
}
