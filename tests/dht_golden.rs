//! Golden outputs of the four DHT variants.
//!
//! Each test runs one variant at a fixed seed on a small uniform-latency
//! ring through the same scripted life: puts, gets (coalesced, cached and
//! memoized), two crashes, one graceful leave and one join, then more
//! traffic while repair settles. Every optional serving and repair feature
//! is on, so each code path of the DHT layer runs.
//!
//! The run is folded into one FNV-1a hash: the ordered operation
//! outcomes, every `dht.*` and `bytes.*` counter, the network statistics,
//! the final virtual time and each live node's stored key set. The hash
//! is compared to a committed constant, so any change to the message
//! schedule, the metrics or replica placement shows up here. A change
//! that moves a constant on purpose must say why.

use std::collections::BTreeSet;

use bytes::Bytes;

use verme::chord::{ChordConfig, ChordNode, Id, NodeHandle, StaticRing};
use verme::core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme::crypto::{CertificateAuthority, NodeType};
use verme::dht::{
    block_key, keys, CompromiseVerDiNode, DhashNode, DhtConfig, DhtNode, FastVerDiNode,
    SecureVerDiNode,
};
use verme::sim::runtime::UniformLatency;
use verme::sim::{Addr, HostId, Runtime, SeedSource, SimDuration, SimTime};

const N: usize = 40;
const SEED: u64 = 12;
const HOP: SimDuration = SimDuration::from_millis(20);
const BLOCKS: usize = 20;
const CLIENTS: usize = 6;

const GOLDEN_DHASH: u64 = 0x092e_7b48_d28c_b200;
const GOLDEN_FAST: u64 = 0x17a3_bed4_d1b3_12b0;
const GOLDEN_SECURE: u64 = 0xd2c6_f34f_fabb_8955;
const GOLDEN_COMPROMISE: u64 = 0x93f8_820b_f983_0855;

type Rt<D> = Runtime<D, UniformLatency>;
/// Spawns a joining node bootstrapped from the given address.
type Join<'a, D> = Box<dyn FnMut(&mut Rt<D>, Addr) -> Addr + 'a>;

fn config() -> DhtConfig {
    DhtConfig {
        cache_enabled: true,
        cache_capacity: 6,
        coalesce_gets: true,
        memo_enabled: true,
        fetch_service_time: SimDuration::from_millis(4),
        hop_suspicion: true,
        // Only Secure-VerDi fans out; the other variants ignore it.
        lookup_fanout: 2,
        ..DhtConfig::default()
    }
}

fn layout() -> SectionLayout {
    SectionLayout::with_sections(4, 2)
}

fn value(i: usize) -> Bytes {
    let mut v = vec![0u8; 1024];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    Bytes::from(v)
}

/// 64-bit FNV-1a over everything fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn u128(&mut self, v: u128) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// Drives one variant through the scripted scenario and hashes the run.
struct Script<'a, D: DhtNode> {
    rt: Rt<D>,
    addrs: Vec<Addr>,
    clients: Vec<Addr>,
    keys: Vec<Id>,
    hash: Fnv,
    join: Join<'a, D>,
    id_of: fn(&D) -> Id,
}

impl<D: DhtNode> Script<'_, D> {
    fn run_for(&mut self, secs: u64) {
        let to = self.rt.now() + SimDuration::from_secs(secs);
        self.rt.run_until(to);
        self.collect();
    }

    fn collect(&mut self) {
        for &c in &self.clients {
            for o in self.rt.node_mut(c).expect("clients never fail").take_op_outcomes() {
                self.hash.u64(o.op).bytes(o.kind.label().as_bytes()).u128(o.key.raw());
                self.hash.u64(u64::from(o.ok)).u64(o.latency.as_nanos());
                match &o.value {
                    Some(v) => self.hash.u64(v.len() as u64).bytes(v),
                    None => self.hash.u64(u64::MAX),
                };
            }
        }
    }

    fn put(&mut self, who: Addr, v: Bytes) {
        self.rt.invoke(who, |n, ctx| n.start_put(v, ctx)).expect("client alive");
    }

    fn get(&mut self, who: Addr, key: Id) {
        self.rt.invoke(who, |n, ctx| n.start_get(key, ctx)).expect("client alive");
    }

    /// Every client reads every key, a few milliseconds apart; the first
    /// client asks for each key twice at once so the second get coalesces.
    fn read_all(&mut self) {
        for (i, key) in self.keys.clone().into_iter().enumerate() {
            for c in 0..CLIENTS {
                let who = self.clients[(c + i) % CLIENTS];
                self.get(who, key);
                if c == 0 {
                    self.get(who, key);
                }
            }
            let to = self.rt.now() + SimDuration::from_millis(30);
            self.rt.run_until(to);
        }
    }

    /// The live non-client node holding `key` that sits first at or after
    /// it on the ring: the holder a get is routed to.
    fn primary_holder(&self, key: Id) -> Option<Addr> {
        self.addrs
            .iter()
            .copied()
            .filter(|a| !self.clients.contains(a))
            .filter_map(|a| self.rt.node(a).map(|n| (a, n)))
            .filter(|(_, n)| n.store().contains(key))
            .min_by_key(|(_, n)| key.distance_to((self.id_of)(n)))
            .map(|(a, _)| a)
    }

    fn scenario(mut self) -> (u64, Rt<D>) {
        self.rt.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        for i in 0..BLOCKS {
            let who = self.clients[i % CLIENTS];
            self.put(who, value(i));
            let to = self.rt.now() + SimDuration::from_millis(50);
            self.rt.run_until(to);
        }
        self.run_for(20);
        self.read_all();
        self.run_for(5);

        // Two crashes of primary holders, then read again while memos
        // still name the dead.
        let mut crashed = 0;
        for key in self.keys.clone() {
            if crashed == 2 {
                break;
            }
            if let Some(victim) = self.primary_holder(key) {
                self.rt.kill(victim);
                crashed += 1;
            }
        }
        self.read_all();
        self.run_for(30);

        // One graceful leave (hinted handoff) and one join.
        let leaver = self.keys.iter().rev().find_map(|k| self.primary_holder(*k));
        self.rt.shutdown(leaver.expect("some key has a live primary holder"));
        let joined = (self.join)(&mut self.rt, self.clients[0]);
        self.addrs.push(joined);
        self.run_for(40);

        for i in BLOCKS..BLOCKS + 4 {
            let who = self.clients[i % CLIENTS];
            self.put(who, value(i));
            self.keys.push(block_key(&value(i)));
        }
        self.run_for(20);
        self.read_all();
        self.run_for(40);

        let m = self.rt.metrics();
        for (name, v) in m.counters() {
            if name.starts_with("dht.") || name.starts_with("bytes.") {
                self.hash.bytes(name.as_bytes()).u64(v);
            }
        }
        let s = self.rt.stats();
        for v in [
            s.messages_sent,
            s.bytes_sent,
            s.messages_delivered,
            s.messages_dropped,
            s.partition_dropped,
            s.messages_duplicated,
            s.messages_reordered,
        ] {
            self.hash.u64(v);
        }
        self.hash.u64(self.rt.now().as_nanos());
        for &a in &self.addrs {
            if let Some(n) = self.rt.node(a) {
                self.hash.u64(a.raw()).u64(n.store().len() as u64);
                for (k, _) in n.store().iter() {
                    self.hash.u128(k.raw());
                }
            }
        }
        (self.hash.0, self.rt)
    }
}

fn pick_clients(addrs: &[Addr]) -> Vec<Addr> {
    (0..CLIENTS).map(|c| addrs[(c * 7 + 3) % addrs.len()]).collect()
}

fn run_dhash() -> (u64, Rt<DhashNode>) {
    let mut rng = SeedSource::new(SEED).stream("ids");
    let handles: Vec<NodeHandle> = (0..N)
        .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = StaticRing::new(handles);
    let mut rt = Runtime::new(UniformLatency::new(N, HOP), SEED);
    let mut by_addr: Vec<(u64, usize)> = (0..N).map(|i| (ring.node(i).addr.raw(), i)).collect();
    by_addr.sort_unstable();
    let mut addrs = vec![Addr::NULL; N];
    for (raw, pos) in by_addr {
        let node = DhashNode::new(ring.build_node(pos, ChordConfig::default()), config());
        addrs[pos] = rt.spawn(HostId(raw as usize - 1), node);
    }
    let mut join_rng = SeedSource::new(SEED).stream("joins");
    let join = move |rt: &mut Rt<DhashNode>, bootstrap: Addr| {
        let overlay =
            ChordNode::joining(Id::random(&mut join_rng), ChordConfig::default(), bootstrap);
        rt.spawn(HostId(0), DhashNode::new(overlay, config()))
    };
    script(rt, addrs, Box::new(join), |n| n.overlay().id()).scenario()
}

fn script<'a, D: DhtNode>(
    rt: Rt<D>,
    addrs: Vec<Addr>,
    join: Join<'a, D>,
    id_of: fn(&D) -> Id,
) -> Script<'a, D> {
    let clients = pick_clients(&addrs);
    let keys = (0..BLOCKS).map(|i| block_key(&value(i))).collect();
    Script { rt, addrs, clients, keys, hash: Fnv::new(), join, id_of }
}

/// Builds a VerDi variant on a static Verme ring; joins get a fresh
/// certificate from the same authority.
macro_rules! run_verdi {
    ($name:ident, $node:ident) => {
        fn $name() -> (u64, Rt<$node>) {
            let ring = VermeStaticRing::generate(layout(), N, SEED);
            let mut ca = CertificateAuthority::new(SEED);
            let mut rt = Runtime::new(UniformLatency::new(N, HOP), SEED);
            let addrs: Vec<Addr> = (0..N)
                .map(|i| {
                    let overlay = ring.build_node(i, VermeConfig::new(layout()), &mut ca);
                    rt.spawn(HostId(i), $node::new(overlay, config()))
                })
                .collect();
            let mut join_rng = SeedSource::new(SEED).stream("joins");
            let join = move |rt: &mut Rt<$node>, bootstrap: Addr| {
                let id = layout().assign_id(&mut join_rng, NodeType::B);
                let (cert, kp) = ca.issue(id.raw(), NodeType::B);
                let overlay = VermeNode::joining(
                    VermeConfig::new(layout()),
                    cert,
                    kp,
                    ca.verifier(),
                    bootstrap,
                );
                rt.spawn(HostId(0), $node::new(overlay, config()))
            };
            script(rt, addrs, Box::new(join), |n| n.overlay().id()).scenario()
        }
    };
}

run_verdi!(run_fast, FastVerDiNode);
run_verdi!(run_secure, SecureVerDiNode);
run_verdi!(run_compromise, CompromiseVerDiNode);

/// The serving and repair paths every variant must exercise.
fn assert_fired<D: DhtNode>(rt: &Rt<D>, memo: bool) {
    let m = rt.metrics();
    for key in [
        keys::READ_REPAIR,
        keys::HANDOFF_BLOCKS,
        keys::REPAIR_ROUNDS,
        keys::CACHE_HITS,
        keys::GETS_COALESCED,
        keys::GET_COMPLETED,
        keys::PUT_COMPLETED,
    ] {
        assert!(m.counter(key) > 0, "{key} never fired");
    }
    assert_eq!(m.counter(keys::LOOKUP_MEMO_HITS) > 0, memo, "memo hits");
}

/// True if some live node in `key`'s section and some live node in its
/// paired section both hold `key`: the cross-section copy happened.
fn cross_copied<D: DhtNode>(rt: &Rt<D>, key: Id, id_of: impl Fn(&D) -> Id) -> bool {
    let l = layout();
    let sections: BTreeSet<u128> = rt
        .alive_addrs()
        .map(|a| rt.node(a).expect("alive"))
        .filter(|n| n.store().contains(key))
        .map(|n| l.section_of(id_of(n)))
        .collect();
    sections.contains(&l.section_of(key))
        && sections.contains(&l.section_of(l.paired_replica_point(key)))
}

#[test]
fn dhash_golden() {
    let (hash, rt) = run_dhash();
    assert_fired(&rt, true);
    assert_eq!(hash, GOLDEN_DHASH, "DHash output drifted: {hash:#018x}");
}

#[test]
fn fast_verdi_golden() {
    let (hash, rt) = run_fast();
    assert_fired(&rt, true);
    assert!(cross_copied(&rt, block_key(&value(0)), |n| n.overlay().id()));
    assert_eq!(hash, GOLDEN_FAST, "Fast-VerDi output drifted: {hash:#018x}");
}

#[test]
fn secure_verdi_golden() {
    let (hash, rt) = run_secure();
    assert_fired(&rt, false);
    assert_eq!(hash, GOLDEN_SECURE, "Secure-VerDi output drifted: {hash:#018x}");
}

#[test]
fn compromise_verdi_golden() {
    let (hash, rt) = run_compromise();
    assert_fired(&rt, true);
    assert!(cross_copied(&rt, block_key(&value(0)), |n| n.overlay().id()));
    let observed: usize =
        rt.alive_addrs().map(|a| rt.node(a).expect("alive").observed_clients().len()).sum();
    assert!(observed > 0, "no relay ever observed a client");
    assert_eq!(hash, GOLDEN_COMPROMISE, "Compromise-VerDi output drifted: {hash:#018x}");
}
