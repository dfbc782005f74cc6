//! `dht_mixed`: DHash and the three VerDi variants under open-loop mixed
//! traffic on the transit-stub network (§7.2's substrate).
//!
//! Each cell seeds a key universe of 8 KiB blocks (all puts at once), then
//! replays a Zipf(1.1) schedule from `verme-load` with 90% gets and 10%
//! puts on the virtual clock, never waiting for completions (open loop).
//! The offered rate is well past the knee the holders' fetch-service
//! queue shows with the serving features off; here they are on (hot-block
//! cache, get coalescing, lookup memoization) and absorb most of it. A
//! light trickle of crashes makes repair and failover run. The drain ends as soon as every operation has resolved,
//! so simulated time carries traffic rather than idle maintenance.

use std::collections::HashMap;

use bytes::Bytes;
use rand::Rng;

use verme_chord::{ChordConfig, Id, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeConfig, VermeStaticRing};
use verme_crypto::CertificateAuthority;
use verme_dht::{
    keys as dht_keys, CompromiseVerDiNode, DhashNode, DhtConfig, DhtNode, FastVerDiNode, OpKind,
    SecureVerDiNode,
};
use verme_load::{generate_schedule, LoadProfile, WorkloadEvent};
use verme_net::{TransitStub, TransitStubConfig};
use verme_sim::{Addr, HostId, NetStats, Runtime, SeedSource, SimDuration, SimTime};

use crate::batch::{digest_stats, BatchOut, Mode};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Overlay size.
const NODES: usize = 192;
/// Verme section count.
const SECTIONS: u128 = 16;
/// Block size (DHash's 8 KiB).
const BLOCK_SIZE: usize = 8192;
/// Key universe.
const BLOCKS: usize = 64;
/// Offered load, operations per simulated second.
const RATE: f64 = 400.0;
/// Length of the replayed schedule.
const WINDOW: SimDuration = SimDuration::from_secs(60);
/// Per-fetch service slot at block holders: the saturating resource.
const FETCH_SERVICE: SimDuration = SimDuration::from_millis(160);
/// Latency limit: an operation slower than this counts as failed.
const LATENCY_LIMIT: SimDuration = SimDuration::from_millis(1000);
/// Crashes spread evenly over the window (never a client).
const CRASHES: usize = 6;

const CELLS: [(&str, Variant); 4] = [
    ("dht.dhash", Variant::Dhash),
    ("dht.fast", Variant::Fast),
    ("dht.secure", Variant::Secure),
    ("dht.compromise", Variant::Compromise),
];

#[derive(Copy, Clone)]
enum Variant {
    Dhash,
    Fast,
    Secure,
    Compromise,
}

fn dht_config() -> DhtConfig {
    DhtConfig {
        fetch_service_time: FETCH_SERVICE,
        cache_enabled: true,
        cache_capacity: BLOCKS / 2,
        coalesce_gets: true,
        memo_enabled: true,
        ..DhtConfig::default()
    }
}

fn profile() -> LoadProfile {
    let mut p = LoadProfile::zipf_poisson(RATE);
    p.blocks = BLOCKS;
    p.validate().expect("the dht_mixed profile is valid");
    p
}

/// The block stored under rank `rank`: a rank tag, then zero fill.
fn rank_value(rank: usize) -> Bytes {
    let mut v = vec![0u8; BLOCK_SIZE];
    v[..8].copy_from_slice(&(rank as u64).to_le_bytes());
    Bytes::from(v)
}

/// The simulated results of one cell.
#[derive(Default)]
struct CellResult {
    gets: u64,
    puts: u64,
    /// Schedule operations that failed or never resolved.
    failed: u64,
    /// Schedule operations that succeeded after the latency limit.
    slow: u64,
    /// Successful gets whose value was not the block stored under the key.
    wrong_values: u64,
    /// Blocks that no seeding put could store.
    unseeded: usize,
    outcomes: Digest,
    counters: Vec<u64>,
    stats: NetStats,
    profile: Option<verme_sim::EventProfile>,
    virtual_s: f64,
    pending_max: usize,
}

/// The `verme-dht` counters each cell reports, in digest order.
const COUNTERS: [&str; 12] = [
    dht_keys::GET_COMPLETED,
    dht_keys::PUT_COMPLETED,
    dht_keys::OP_FAILED,
    dht_keys::OP_RETRIES,
    dht_keys::CACHE_HITS,
    dht_keys::CACHE_MISSES,
    dht_keys::GETS_COALESCED,
    dht_keys::LOOKUP_MEMO_HITS,
    verme_chord::keys::BYTES_LOOKUP,
    dht_keys::BYTES_DATA,
    dht_keys::BYTES_REPLICATION,
    dht_keys::REPAIR_PUSHED,
];

impl CellResult {
    fn counter(&self, key: &str) -> f64 {
        let i = COUNTERS.iter().position(|&k| k == key).expect("a reported counter");
        self.counters[i] as f64
    }

    fn digest(&self) -> u64 {
        let mut d = self.outcomes;
        d.u64(self.gets).u64(self.puts).u64(self.failed).u64(self.unseeded as u64);
        for &c in &self.counters {
            d.u64(c);
        }
        digest_stats(&mut d, &self.stats, self.virtual_s);
        d.value()
    }
}

#[cfg(test)]
pub fn labels() -> Vec<&'static str> {
    CELLS.iter().map(|c| c.0).collect()
}

/// Runs the four cells once.
pub fn batch(seed: u64, mode: Mode, tr: &mut Tracer) -> BatchOut {
    let mut out = BatchOut::default();
    let (mut hits, mut misses, mut coalesced, mut memo_hits) = (0.0, 0.0, 0.0, 0.0);
    for (label, variant) in CELLS {
        let r = tr.cell(label, |tr| match variant {
            Variant::Dhash => cell(seed, mode, tr, setup_dhash),
            Variant::Fast => cell(seed, mode, tr, setup_fast),
            Variant::Secure => cell(seed, mode, tr, setup_secure),
            Variant::Compromise => cell(seed, mode, tr, setup_compromise),
        });
        out.digests.push((label.to_string(), r.digest()));
        out.notes.push(format!(
            "{label}: {} gets, {} puts, {} failed, {} slower than the limit, {} retries, {:.1} virtual s",
            r.gets,
            r.puts,
            r.failed,
            r.slow,
            r.counter(dht_keys::OP_RETRIES),
            r.virtual_s,
        ));
        out.cells += 1;
        let ops = r.gets + r.puts;
        out.ops += ops;
        out.ops_failed += r.failed + r.slow;
        out.add_runtime(&r.stats, r.profile.as_ref(), r.virtual_s, r.pending_max);
        out.add("load.ops", ops as f64);
        out.add("dht.gets", r.gets as f64);
        out.add("dht.puts", (r.puts + BLOCKS as u64) as f64);
        out.add("dht.ops_failed", r.counter(dht_keys::OP_FAILED));
        out.add("dht.retries", r.counter(dht_keys::OP_RETRIES));
        let fg = r.counter(verme_chord::keys::BYTES_LOOKUP) + r.counter(dht_keys::BYTES_DATA);
        out.add("dht.bytes_fg", fg);
        out.add("dht.bytes_replication", r.counter(dht_keys::BYTES_REPLICATION));
        hits += r.counter(dht_keys::CACHE_HITS);
        misses += r.counter(dht_keys::CACHE_MISSES);
        coalesced += r.counter(dht_keys::GETS_COALESCED);
        memo_hits += r.counter(dht_keys::LOOKUP_MEMO_HITS);

        // The serving-on sanity of the load sweep, per cell.
        out.check(r.unseeded == 0, || format!("{label}: {} blocks never stored", r.unseeded));
        out.check(r.wrong_values == 0, || {
            format!("{label}: {} gets returned the wrong block", r.wrong_values)
        });
        out.check(r.gets > r.failed, || format!("{label}: no get completed"));
        out.check(r.counter(dht_keys::CACHE_HITS) > 0.0, || {
            format!("{label}: the hot head never hit the cache")
        });
        out.check(r.failed * 10 <= ops, || {
            format!("{label}: {}/{ops} operations failed", r.failed)
        });
    }
    out.add("dht.cache_hit_ratio", hits / (hits + misses).max(1.0));
    let gets = out.get("dht.gets").max(1.0);
    out.add("dht.coalesced_ratio", coalesced / gets);
    out.add("dht.memo_hit_ratio", memo_hits / gets);
    out
}

type Setup<N> = fn(u64, Mode, &mut Tracer) -> (Runtime<N, TransitStub>, Vec<Addr>);

fn network(seed: u64, tr: &mut Tracer) -> TransitStub {
    tr.call("net.topology", || {
        let cfg = TransitStubConfig { hosts: NODES, ..TransitStubConfig::default() };
        TransitStub::generate(cfg, seed ^ 0x6E7)
    })
}

fn runtime<N: DhtNode>(
    net: TransitStub,
    seed: u64,
    mode: Mode,
    tr: &mut Tracer,
) -> Runtime<N, TransitStub> {
    let mut rt = tr.call("sim.spawn", || Runtime::new(net, seed));
    if mode == Mode::Count {
        rt.enable_profiler();
    }
    rt
}

fn setup_dhash(
    seed: u64,
    mode: Mode,
    tr: &mut Tracer,
) -> (Runtime<DhashNode, TransitStub>, Vec<Addr>) {
    let net = network(seed, tr);
    let mut rt = runtime(net, seed, mode, tr);
    let mut rng = SeedSource::new(seed).stream("ids");
    let handles: Vec<NodeHandle> = (0..NODES)
        .map(|i| NodeHandle::new(Id::random(&mut rng), Addr::from_raw(i as u64 + 1)))
        .collect();
    let ring = tr.call("chord.ring_build", || StaticRing::new(handles));
    let mut by_addr: Vec<(u64, usize)> = (0..NODES).map(|i| (ring.node(i).addr.raw(), i)).collect();
    by_addr.sort_unstable();
    let mut addrs = vec![Addr::NULL; NODES];
    for (raw, pos) in by_addr {
        let overlay = tr.call("chord.ring_build", || ring.build_node(pos, ChordConfig::default()));
        let node = tr.call("dht.build", || DhashNode::new(overlay, dht_config()));
        addrs[pos] = tr.call("sim.spawn", || rt.spawn(HostId(raw as usize - 1), node));
    }
    (rt, addrs)
}

macro_rules! verdi_setup {
    ($name:ident, $node:ident) => {
        fn $name(
            seed: u64,
            mode: Mode,
            tr: &mut Tracer,
        ) -> (Runtime<$node, TransitStub>, Vec<Addr>) {
            let net = network(seed, tr);
            let mut rt = runtime(net, seed, mode, tr);
            let layout = SectionLayout::with_sections(SECTIONS, 2);
            let ring =
                tr.call("core.ring_build", || VermeStaticRing::generate(layout, NODES, seed));
            let mut ca = CertificateAuthority::new(seed);
            let mut addrs = Vec::with_capacity(NODES);
            for i in 0..NODES {
                let overlay = tr.call("core.ring_build", || {
                    ring.build_node(i, VermeConfig::new(layout), &mut ca)
                });
                let node = tr.call("dht.build", || $node::new(overlay, dht_config()));
                addrs.push(tr.call("sim.spawn", || rt.spawn(HostId(i), node)));
            }
            (rt, addrs)
        }
    };
}

verdi_setup!(setup_fast, FastVerDiNode);
verdi_setup!(setup_secure, SecureVerDiNode);
verdi_setup!(setup_compromise, CompromiseVerDiNode);

/// One cell: set up, seed the key universe, replay, drain, collect.
fn cell<N: DhtNode>(seed: u64, mode: Mode, tr: &mut Tracer, setup: Setup<N>) -> CellResult {
    let (mut rt, addrs, schedule) = tr.group("setup", |tr| {
        let (rt, addrs) = setup(seed, mode, tr);
        let schedule = tr.call("load.schedule", || {
            generate_schedule(&profile(), &SeedSource::new(seed ^ 0x11AD), WINDOW)
        });
        (rt, addrs, schedule)
    });
    let mut r = tr.group("run", |tr| replay(&mut rt, &addrs, &schedule, seed, tr));
    tr.group("collect", |tr| {
        tr.call("sim.collect", || {
            r.counters = COUNTERS.iter().map(|k| rt.metrics().counter(k)).collect();
            r.stats = rt.stats();
            r.profile = rt.profile().cloned();
            r.virtual_s = rt.now().as_nanos() as f64 / 1e9;
        })
    });
    r
}

/// Client-side bookkeeping of the operations a cell issued.
struct Ledger {
    clients: Vec<Addr>,
    values: Vec<Bytes>,
    rank_of: HashMap<Id, usize>,
    resolved: u64,
    r: CellResult,
}

impl Ledger {
    /// Takes every finished operation off the clients. Returns the keys of
    /// the puts that succeeded.
    fn collect<N: DhtNode>(
        &mut self,
        rt: &mut Runtime<N, TransitStub>,
        tr: &mut Tracer,
    ) -> Vec<Id> {
        let mut stored = Vec::new();
        for &c in &self.clients {
            let outcomes = tr.call("dht.collect", || {
                rt.node_mut(c).expect("clients never crash").take_op_outcomes()
            });
            for o in outcomes {
                self.resolved += 1;
                self.r.outcomes.u64(u64::from(o.ok)).u64(o.latency.as_nanos());
                if !o.ok {
                    self.r.failed += 1;
                    continue;
                }
                if o.latency > LATENCY_LIMIT {
                    self.r.slow += 1;
                }
                match o.kind {
                    OpKind::Put => stored.push(o.key),
                    OpKind::Get => {
                        let right = self.rank_of.get(&o.key).map(|&rank| &self.values[rank]);
                        if o.value.is_none() || o.value.as_ref() != right {
                            self.r.wrong_values += 1;
                        }
                    }
                }
            }
        }
        stored
    }
}

fn replay<N: DhtNode>(
    rt: &mut Runtime<N, TransitStub>,
    addrs: &[Addr],
    schedule: &[WorkloadEvent],
    seed: u64,
    tr: &mut Tracer,
) -> CellResult {
    let client_of = |c: usize| addrs[(c * 13 + 7) % addrs.len()];
    let mut clients: Vec<Addr> = (0..profile().clients).map(client_of).collect();
    clients.sort_unstable_by_key(|a| a.raw());
    clients.dedup();
    let values: Vec<Bytes> = (0..BLOCKS).map(rank_value).collect();
    let keys: Vec<Id> = values.iter().map(verme_dht::block_key).collect();
    let rank_of = keys.iter().enumerate().map(|(r, &k)| (k, r)).collect();
    let mut ledger = Ledger { clients, values, rank_of, resolved: 0, r: CellResult::default() };
    let mut pending_max = 0;
    let mut run_to = |rt: &mut Runtime<N, TransitStub>, tr: &mut Tracer, at: SimTime| {
        tr.call("sim.run", || rt.run_until(at));
        pending_max = pending_max.max(rt.pending_events());
    };
    run_to(rt, tr, SimTime::ZERO + SimDuration::from_secs(1));

    // Seed every block at once; a put can fail transiently, so retry the
    // missing ones from another client.
    let mut missing: Vec<usize> = (0..BLOCKS).collect();
    for round in 0..3 {
        for &rank in &missing {
            let who = ledger.clients[(rank + round) % ledger.clients.len()];
            let value = ledger.values[rank].clone();
            tr.call("sim.invoke", || rt.invoke(who, |n, ctx| n.start_put(value, ctx)));
        }
        let settle = rt.now() + SimDuration::from_secs(30);
        run_to(rt, tr, settle);
        let stored = ledger.collect(rt, tr);
        missing.retain(|&rank| !stored.contains(&keys[rank]));
        if missing.is_empty() {
            break;
        }
    }
    ledger.r = CellResult { unseeded: missing.len(), ..CellResult::default() };
    ledger.resolved = 0;

    // Replay on the virtual clock, crashing a non-client node now and then.
    let mut rng = SeedSource::new(seed).stream("crashes");
    let start = rt.now();
    let crash_at: Vec<SimTime> =
        (1..=CRASHES).map(|k| start + WINDOW.mul_f64(k as f64 / (CRASHES + 1) as f64)).collect();
    let mut next_crash = 0;
    for ev in schedule {
        let at = start + ev.at;
        while next_crash < crash_at.len() && crash_at[next_crash] <= at {
            run_to(rt, tr, crash_at[next_crash]);
            let mut victims: Vec<Addr> = tr.call("sim.alive", || rt.alive_addrs().collect());
            victims.retain(|a| !ledger.clients.contains(a));
            victims.sort_unstable_by_key(|a| a.raw());
            let victim = victims[rng.gen_range(0..victims.len())];
            tr.call("sim.kill", || rt.kill(victim));
            next_crash += 1;
        }
        run_to(rt, tr, at);
        let who = client_of(ev.client);
        if ev.read {
            ledger.r.gets += 1;
            let key = keys[ev.key_rank];
            tr.call("sim.invoke", || rt.invoke(who, |n, ctx| n.start_get(key, ctx)));
        } else {
            ledger.r.puts += 1;
            let value = ledger.values[ev.key_rank].clone();
            tr.call("sim.invoke", || rt.invoke(who, |n, ctx| n.start_put(value, ctx)));
        }
    }

    // Drain until every operation has resolved; the op deadline bounds it.
    let issued = ledger.r.gets + ledger.r.puts;
    let last = start + WINDOW + dht_config().op_deadline + SimDuration::from_secs(10);
    while ledger.resolved < issued && rt.now() < last {
        let step = rt.now() + SimDuration::from_secs(1);
        run_to(rt, tr, step);
        ledger.collect(rt, tr);
    }
    let mut r = ledger.r;
    r.failed += issued - ledger.resolved.min(issued);
    r.pending_max = pending_max;
    r
}
