//! Compromise-VerDi (paper §5.3.3): one level of indirection between
//! performance and security.
//!
//! The initiator never performs the lookup itself: it signs a statement
//! vouching for the operation and hands it — with its certificate — to an
//! *opposite-type* finger-table entry, which relays the operation using
//! the Fast-VerDi flow (cross copy included) and forwards the result
//! back. A compromised node therefore cannot harvest addresses by issuing
//! operations (the sealed replica answers go to the relay, not to it); it
//! can only *passively* observe the initiators that happen to use it as a
//! relay, at the rate those neighbors issue requests — the Figure 8
//! Compromise curve.

use std::collections::HashMap;

use bytes::Bytes;

use verme_chord::Id;
use verme_core::VermeNode;
use verme_crypto::{Certificate, SignedStatement};
use verme_sim::{Addr, Scope, Wire};

use super::fast::{self, CrossCopies, CrossCopying, CrossMsg};
use super::{anchors_either, in_owner_section, replicas_of, section_heir, section_peers};
use crate::api::{keys, OpKind};
use crate::block::verify_block;
use crate::engine::{Accepted, DhtEngine, DhtMsg, EngineCtx, Policy, Request, HDR};

/// The Compromise-VerDi policy: signed operations relayed by an
/// opposite-type neighbor.
#[derive(Clone, Copy, Debug, Default)]
pub struct Compromise;

/// A Compromise-VerDi node.
pub type CompromiseVerDiNode = DhtEngine<Compromise>;

/// Modelled size of a signed statement (digest + signature + signer key).
const STATEMENT_BYTES: usize = 80;

/// Compromise-VerDi's own messages: the relay protocol, plus Fast-VerDi's
/// cross copy that relayed puts trigger.
#[derive(Clone, Debug)]
pub enum RelayMsg {
    /// A cross-section copy (responsible → paired responsible).
    Cross(CrossMsg),
    /// The signed, relayed operation request (initiator → relay).
    RelayRequest {
        /// Initiator's operation id (echoed in the relay's reply).
        rop: u64,
        /// The initiator's certificate.
        cert: Certificate,
        /// Signed statement vouching for the operation on `(key, rop)`.
        statement: SignedStatement<(u128, u64)>,
        /// Get or put.
        kind: OpKind,
        /// Block key.
        key: Id,
        /// Block contents (puts only).
        value: Option<Bytes>,
        /// Initiator's retry attempt: the relay rotates its replica
        /// choice with it, so a dead first replica is not retried forever.
        attempt: u32,
        /// True for internal read-repair writes (the relayed chain is
        /// then background traffic).
        repair: bool,
    },
    /// Relay → initiator: the fetched block.
    RelayGetReply {
        /// Operation id from the request.
        rop: u64,
        /// The block, if found.
        value: Option<Bytes>,
    },
    /// Relay → initiator: put acknowledgment.
    RelayPutReply {
        /// Operation id from the request.
        rop: u64,
        /// Whether the store succeeded.
        ok: bool,
    },
}

impl Wire for RelayMsg {
    fn wire_size(&self) -> usize {
        match self {
            RelayMsg::Cross(m) => m.wire_size(),
            RelayMsg::RelayRequest { value, .. } => {
                HDR + 8
                    + Certificate::WIRE_SIZE
                    + STATEMENT_BYTES
                    + 1
                    + 16
                    + value.as_ref().map_or(0, |v| v.len())
            }
            RelayMsg::RelayGetReply { value, .. } => {
                HDR + 8 + 1 + value.as_ref().map_or(0, |v| v.len())
            }
            RelayMsg::RelayPutReply { .. } => HDR + 9,
        }
    }
}

/// A record of a client observed by this node while acting as a relay —
/// exactly the information an impersonating relay can passively harvest
/// (address plus certified type). Exposed for the worm experiments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ObservedClient {
    /// The client's network address.
    pub addr: Addr,
    /// The client's certified type.
    pub node_type: verme_crypto::NodeType,
}

/// A relayed operation this node is executing on a client's behalf.
struct RelayJob {
    client: Addr,
    rop: u64,
    req: Request,
}

/// Relay-side state of one node.
#[derive(Default)]
pub struct RelayState {
    cross: CrossCopies,
    next_job: u64,
    jobs: HashMap<u64, RelayJob>,
    lookup_to_job: HashMap<u64, u64>,
    observed: Vec<ObservedClient>,
}

impl CrossCopying for Compromise {
    fn copies(state: &mut RelayState) -> &mut CrossCopies {
        &mut state.cross
    }
    fn wrap(msg: CrossMsg) -> RelayMsg {
        RelayMsg::Cross(msg)
    }
}

impl CompromiseVerDiNode {
    /// Clients this node has observed while acting as a relay (the
    /// passive-harvest channel of §5.3.3).
    pub fn observed_clients(&self) -> &[ObservedClient] {
        &self.state.observed
    }
}

/// Answers a relay job's client (gets with the block, puts with the ack)
/// and retires the job.
fn reply_job(
    e: &mut CompromiseVerDiNode,
    job_id: u64,
    value: Option<Bytes>,
    ok: bool,
    ctx: &mut EngineCtx<'_, Compromise>,
) {
    let Some(job) = e.state.jobs.remove(&job_id) else {
        return;
    };
    let reply = match job.req.kind {
        OpKind::Get => RelayMsg::RelayGetReply { rop: job.rop, value },
        OpKind::Put => RelayMsg::RelayPutReply { rop: job.rop, ok },
    };
    e.send_as(job.req.repair, ctx, job.client, DhtMsg::Ext(reply));
}

/// A client's signed request reached us as its relay: verify it, note the
/// client, and run the Fast-VerDi flow on its behalf from *our* type
/// vantage point (or fetch straight from the relay-side memo).
fn relay(
    e: &mut CompromiseVerDiNode,
    client: Addr,
    rop: u64,
    cert: Certificate,
    statement: SignedStatement<(u128, u64)>,
    req: Request,
    ctx: &mut EngineCtx<'_, Compromise>,
) {
    // Verify the certificate and the vouching statement; an unverifiable
    // request is dropped (§5.3.3).
    if !cert.verify(e.overlay.verifier()) {
        return;
    }
    let Ok(&(stmt_key, stmt_rop)) = statement.verify(&cert) else {
        return;
    };
    if stmt_key != req.key.raw() || stmt_rop != rop {
        return;
    }
    // Passive observation channel: relays see their clients.
    e.state.observed.push(ObservedClient { addr: client, node_type: cert.node_type() });
    let job_id = e.state.next_job;
    e.state.next_job += 1;
    let (kind, key, attempt) = (req.kind, req.key, req.attempt);
    e.state.jobs.insert(job_id, RelayJob { client, rop, req });
    if let Some(addr) = e.memo_front(kind, key, attempt, ctx) {
        // Relay-side memo hit: a failed fetch fails the job, and the
        // client's retry drops the memo before re-resolving.
        ctx.metrics().count(keys::LOOKUP_MEMO_HITS, 1);
        e.send_data(ctx, addr, DhtMsg::Fetch { op: job_id, key });
        return;
    }
    let adjusted = e.overlay.layout().replica_point_avoiding(key, e.overlay.node_type());
    let lid =
        e.with_overlay(ctx, |overlay, ictx| overlay.start_replica_lookup(adjusted, None, ictx));
    e.state.lookup_to_job.insert(lid, job_id);
    Compromise::drain_overlay(e, ctx);
}

impl Policy for Compromise {
    type Overlay = VermeNode<()>;
    type Ext = RelayMsg;
    type State = RelayState;

    const PROBE_SCOPE_BYTES: usize = 17;
    const NEED_HEAD_BYTES: usize = 9;

    /// Picks a fresh opposite-type relay and sends it the signed request.
    fn issue_attempt(e: &mut CompromiseVerDiNode, op: u64, ctx: &mut EngineCtx<'_, Self>) {
        let Some(Request { kind, key, value, attempt, repair }) = e.request(op) else {
            return;
        };
        e.arm_attempt_timer(op, attempt, ctx);
        let avoid = e.avoid(op);
        let Some(relay) = e.overlay.route_first_hop_excluding(key, &avoid) else {
            // No live opposite-type finger right now; maybe one appears
            // after repair, so this counts as a failed attempt, not a
            // failed operation.
            return e.fail_attempt(op, ctx);
        };
        if e.cfg.hop_suspicion {
            // The relay IS the first hop here: the suspicion counter
            // rotates away from a relay that keeps eating operations.
            e.ops.note_first_hop(op, Some(relay.addr));
        }
        let statement = e.overlay.sign_statement((key.raw(), op));
        let cert = *e.overlay.certificate();
        let msg =
            RelayMsg::RelayRequest { rop: op, cert, statement, kind, key, value, attempt, repair };
        e.send_as(repair, ctx, relay.addr, DhtMsg::Ext(msg));
    }

    fn drain_overlay(e: &mut CompromiseVerDiNode, ctx: &mut EngineCtx<'_, Self>) {
        for o in e.overlay.take_outcomes() {
            let Some(job_id) = e.state.lookup_to_job.remove(&o.lid) else {
                fast::resolved(e, o.lid, o.answer, ctx);
                continue;
            };
            let Some(req) = e.state.jobs.get(&job_id).map(|j| j.req.clone()) else {
                continue;
            };
            e.send_to_replica(job_id, replicas_of(o.answer), req, ctx, |e, ctx| {
                reply_job(e, job_id, None, false, ctx)
            });
        }
        debug_assert!(e.overlay.take_answer_requests().is_empty());
    }

    fn anchors(e: &CompromiseVerDiNode, key: Id) -> bool {
        anchors_either(&e.overlay, key)
    }

    fn replica_peers(e: &CompromiseVerDiNode) -> Vec<Addr> {
        section_peers(&e.overlay, e.cfg.replicas)
    }

    fn heir(e: &CompromiseVerDiNode) -> Option<Addr> {
        section_heir(&e.overlay, e.cfg.replicas)
    }

    fn is_orphan(e: &CompromiseVerDiNode, key: Id, _: Id, owner: Id) -> bool {
        in_owner_section(&e.overlay, key, owner)
    }

    fn on_ext(
        e: &mut CompromiseVerDiNode,
        from: Addr,
        msg: RelayMsg,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        match msg {
            RelayMsg::Cross(m) => fast::on_msg(e, from, m, ctx),
            RelayMsg::RelayRequest { rop, cert, statement, kind, key, value, attempt, repair } => {
                let req = Request { kind, key, value, attempt, repair };
                relay(e, from, rop, cert, statement, req, ctx);
            }
            RelayMsg::RelayGetReply { rop, value } => {
                // An empty or corrupt answer is retried through a
                // (possibly different) relay.
                e.got_value(rop, value, ctx, |e, ctx| e.fail_attempt(rop, ctx));
            }
            RelayMsg::RelayPutReply { rop, ok } => {
                e.store_acked(rop, ok, ctx, |e, ctx| e.fail_attempt(rop, ctx));
            }
        }
    }

    fn ext_scope(msg: &RelayMsg) -> Scope {
        match msg {
            RelayMsg::Cross(m) => m.scope(),
            _ => Scope::DhtOp,
        }
    }

    /// The relay forwards the replica's block, if verified, to its client.
    fn on_fetch_reply(
        e: &mut CompromiseVerDiNode,
        job_id: u64,
        value: Option<Bytes>,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        let Some(key) = e.state.jobs.get(&job_id).map(|j| j.req.key) else {
            return;
        };
        reply_job(e, job_id, value.filter(|v| verify_block(key, v)), false, ctx);
    }

    /// The relay forwards the store's acknowledgment to its client.
    fn on_store_ack(
        e: &mut CompromiseVerDiNode,
        job_id: u64,
        ok: bool,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        reply_job(e, job_id, None, ok, ctx);
    }

    fn stored(e: &mut CompromiseVerDiNode, acc: Accepted, ctx: &mut EngineCtx<'_, Self>) {
        fast::start_copy(e, acc, ctx);
    }

    fn push_cross(
        e: &mut CompromiseVerDiNode,
        to: Addr,
        key: Id,
        value: Bytes,
        ctx: &mut EngineCtx<'_, Self>,
    ) {
        fast::push(e, to, key, value, ctx);
    }

    fn spot_check(e: &mut CompromiseVerDiNode, anchored: &[Id], ctx: &mut EngineCtx<'_, Self>) {
        fast::spot_check(e, anchored, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verme_crypto::{CertificateAuthority, NodeType};

    #[test]
    fn relay_request_includes_certificate_and_statement() {
        let mut ca = CertificateAuthority::new(1);
        let (cert, keys) = ca.issue(7, NodeType::A);
        let statement = SignedStatement::sign(&keys, (9u128, 3u64));
        let request = |kind, value| RelayMsg::RelayRequest {
            rop: 3,
            cert,
            statement: statement.clone(),
            kind,
            key: Id::new(9),
            value,
            attempt: 0,
            repair: false,
        };
        let get = DhtMsg::<Compromise>::Ext(request(OpKind::Get, None));
        let put = request(OpKind::Put, Some(Bytes::from(vec![0u8; 8192])));
        assert!(get.wire_size() >= Certificate::WIRE_SIZE + STATEMENT_BYTES);
        assert!(put.wire_size() > get.wire_size() + 8000);
    }

    #[test]
    fn observed_clients_start_empty() {
        // Structural check that the passive-harvest channel is exposed.
        let o = ObservedClient { addr: Addr::from_raw(1), node_type: NodeType::A };
        assert_eq!(o.node_type, NodeType::A);
        assert!(RelayState::default().observed.is_empty());
    }
}
