//! `lookup_churn`: Figure 5's workload at the paper's population.
//!
//! 1740 nodes on a synthetic King matrix, three cells (Chord with
//! transitive lookups, Chord with recursive lookups, Verme with 128
//! sections). Node lifetimes are exponential with a 10-minute mean and a
//! dead node is replaced at once by a join through a random live node.
//! Each node issues lookups for random keys at exponential intervals with
//! a 30 s mean, on the virtual clock and never waiting for replies (open
//! loop). No DHT and no worm: the overlay layers and the Runtime event
//! engine do nearly all the work.

use rand::rngs::StdRng;
use rand::Rng;

use verme_chord::{ChordConfig, ChordNode, Id, LookupMode, NodeHandle, StaticRing};
use verme_core::{SectionLayout, VermeConfig, VermeNode, VermeStaticRing};
use verme_crypto::{CertificateAuthority, NodeType};
use verme_net::king::KING_MEAN_RTT_MS;
use verme_net::KingMatrix;
use verme_sim::rng::exp_duration;
use verme_sim::{
    Addr, EventQueue, Histogram, HostId, LatencyModel, NetStats, Node, Runtime, SeedSource,
    SimDuration, SimTime,
};

use crate::batch::{digest_stats, BatchOut, Mode};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Overlay size: the King matrix's host count, as in the paper.
const NODES: usize = 1740;
/// Verme section count (paper: 128).
const SECTIONS: u128 = 128;
/// Mean node lifetime, seconds.
const MEAN_LIFETIME_S: f64 = 600.0;
/// Mean interval between one node's lookups, seconds (paper: 30 s).
const LOOKUP_MEAN_S: f64 = 30.0;
/// Latency limit: a lookup slower than this counts as failed.
const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Simulated time per cell.
const SIM_TIME: SimDuration = SimDuration::from_secs(60);

/// The cells, in run order, with their labels.
const CELLS: [(&str, Cell); 3] = [
    ("chord.transitive", Cell::Chord(LookupMode::Transitive)),
    ("chord.recursive", Cell::Chord(LookupMode::Recursive)),
    ("core.verme", Cell::Verme),
];

#[derive(Copy, Clone)]
enum Cell {
    Chord(LookupMode),
    Verme,
}

/// The simulated results of one cell.
struct CellResult {
    issued: u64,
    completed: u64,
    failed: u64,
    /// Completed lookups slower than the latency limit.
    slow: u64,
    mean_ms: f64,
    p50_ms: f64,
    hops_mean: f64,
    hops_n: u64,
    maint_bytes: u64,
    lookup_bytes: u64,
    joins: u64,
    stats: NetStats,
    profile: Option<verme_sim::EventProfile>,
    virtual_s: f64,
    pending_max: usize,
}

impl CellResult {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        d.u64(self.issued)
            .u64(self.completed)
            .u64(self.failed)
            .u64(self.slow)
            .f64(self.mean_ms)
            .f64(self.p50_ms)
            .f64(self.hops_mean)
            .u64(self.hops_n)
            .u64(self.maint_bytes)
            .u64(self.lookup_bytes)
            .u64(self.joins);
        digest_stats(&mut d, &self.stats, self.virtual_s);
        d.value()
    }

    fn failure_rate(&self) -> f64 {
        self.failed as f64 / (self.completed + self.failed).max(1) as f64
    }
}

#[cfg(test)]
pub fn labels() -> Vec<&'static str> {
    CELLS.iter().map(|c| c.0).collect()
}

/// Runs the three cells once.
pub fn batch(seed: u64, mode: Mode, tr: &mut Tracer) -> BatchOut {
    let mut out = BatchOut::default();
    let mut results = Vec::new();
    let (mut hops_sum, mut hops_n) = (0.0, 0u64);
    for (label, cell) in CELLS {
        let r = tr.cell(label, |tr| match cell {
            Cell::Chord(lookup_mode) => chord_cell(seed, lookup_mode, mode, tr),
            Cell::Verme => verme_cell(seed, mode, tr),
        });
        out.digests.push((label.to_string(), r.digest()));
        out.notes.push(format!(
            "{label}: {} lookups, {} completed, {} failed, {} slow, mean {:.1} ms, {} joins",
            r.issued, r.completed, r.failed, r.slow, r.mean_ms, r.joins
        ));
        out.cells += 1;
        out.ops += r.issued;
        out.ops_failed += r.failed + r.slow;
        out.add_runtime(&r.stats, r.profile.as_ref(), r.virtual_s, r.pending_max);
        match cell {
            Cell::Chord(_) => {
                out.add("chord.lookups", r.issued as f64);
                out.add("chord.lookups_failed", r.failed as f64);
                hops_sum += r.hops_mean * r.hops_n as f64;
                hops_n += r.hops_n;
            }
            Cell::Verme => {
                out.add("core.lookups", r.issued as f64);
                out.add("core.lookups_failed", r.failed as f64);
                out.add("core.joins", r.joins as f64);
                out.add("crypto.certs", r.joins as f64);
            }
        }
        results.push(r);
    }
    out.add("chord.lookup_hops_mean", hops_sum / hops_n.max(1) as f64);

    // The orderings the Figure 5 tests assert.
    let [tra, rec, ver] = &results[..] else { unreachable!("three cells") };
    for (label, r) in CELLS.iter().map(|c| c.0).zip(&results) {
        out.check(r.completed > 100, || format!("{label}: only {} lookups completed", r.completed));
    }
    out.check(tra.mean_ms < ver.mean_ms, || {
        format!("transitive Chord ({:.1} ms) must beat Verme ({:.1} ms)", tra.mean_ms, ver.mean_ms)
    });
    let ratio = rec.mean_ms / ver.mean_ms;
    out.check((0.6..=1.6).contains(&ratio), || {
        format!("recursive Chord / Verme latency ratio {ratio:.2} outside 0.6..1.6")
    });
    for (label, r) in [("chord.recursive", rec), ("core.verme", ver)] {
        out.check(r.failure_rate() < 0.1, || {
            format!("{label}: lookup failure rate {:.3}", r.failure_rate())
        });
    }
    out
}

enum Ev {
    Lookup(Addr),
    Death(Addr),
}

/// The churn and lookup schedule, drawn on the virtual clock.
struct Churn {
    agenda: EventQueue<Ev>,
    rng: StdRng,
    end: SimTime,
    joins: u64,
    pending_max: usize,
}

impl Churn {
    fn new<N: Node, L: LatencyModel>(rt: &Runtime<N, L>, seed: u64) -> Self {
        let mut rng = SeedSource::new(seed).stream("churn");
        let mut agenda = EventQueue::new();
        // Sorted, so every process draws the same schedule from a seed.
        let mut alive: Vec<Addr> = rt.alive_addrs().collect();
        alive.sort_unstable_by_key(|a| a.raw());
        for addr in alive {
            agenda
                .schedule(SimTime::ZERO + exp_duration(&mut rng, LOOKUP_MEAN_S), Ev::Lookup(addr));
            agenda
                .schedule(SimTime::ZERO + exp_duration(&mut rng, MEAN_LIFETIME_S), Ev::Death(addr));
        }
        Churn { agenda, rng, end: SimTime::ZERO + SIM_TIME, joins: 0, pending_max: 0 }
    }

    fn drive<N: Node, L: LatencyModel>(
        &mut self,
        rt: &mut Runtime<N, L>,
        tr: &mut Tracer,
        mut replace: impl FnMut(&mut Runtime<N, L>, &mut Tracer, HostId, Addr) -> Addr,
        mut lookup: impl FnMut(&mut Runtime<N, L>, &mut Tracer, Addr, Id),
    ) {
        while let Some(at) = self.agenda.peek_time() {
            if at > self.end {
                break;
            }
            tr.call("sim.run", || rt.run_until(at));
            self.pending_max = self.pending_max.max(rt.pending_events());
            let Some((now, ev)) = self.agenda.pop() else { break };
            match ev {
                Ev::Lookup(addr) => {
                    if rt.is_alive(addr) {
                        let key = Id::random(&mut self.rng);
                        lookup(rt, tr, addr, key);
                        let next = now + exp_duration(&mut self.rng, LOOKUP_MEAN_S);
                        self.agenda.schedule(next, Ev::Lookup(addr));
                    }
                }
                Ev::Death(addr) => {
                    if !rt.is_alive(addr) {
                        continue;
                    }
                    let host = rt.host_of(addr).expect("spawned node has a host");
                    tr.call("sim.kill", || rt.kill(addr));
                    let mut live: Vec<Addr> = tr.call("sim.alive", || rt.alive_addrs().collect());
                    live.sort_unstable_by_key(|a| a.raw());
                    let bootstrap = live[self.rng.gen_range(0..live.len())];
                    let fresh = replace(rt, tr, host, bootstrap);
                    self.joins += 1;
                    let next = now + exp_duration(&mut self.rng, LOOKUP_MEAN_S);
                    self.agenda.schedule(next, Ev::Lookup(fresh));
                    let death = now + exp_duration(&mut self.rng, MEAN_LIFETIME_S);
                    self.agenda.schedule(death, Ev::Death(fresh));
                }
            }
        }
        tr.call("sim.run", || rt.run_until(self.end));
        self.pending_max = self.pending_max.max(rt.pending_events());
    }
}

fn collect<N: Node, L: LatencyModel>(
    rt: &mut Runtime<N, L>,
    churn: &Churn,
    tr: &mut Tracer,
) -> CellResult {
    use verme_chord::keys;
    tr.call("sim.collect", || {
        let (mean_ms, p50_ms, slow) =
            rt.metrics_mut().histogram_mut(keys::LOOKUP_LATENCY_MS).map_or((0.0, 0.0, 0), |h| {
                let s = h.summary();
                (s.mean, s.p50, count_above(h, LATENCY_LIMIT_MS))
            });
        let (hops_mean, hops_n) =
            rt.metrics_mut().histogram_mut(keys::LOOKUP_HOPS).map_or((0.0, 0), |h| {
                let s = h.summary();
                (s.mean, s.count)
            });
        let m = rt.metrics();
        CellResult {
            issued: m.counter(keys::LOOKUP_ISSUED),
            completed: m.counter(keys::LOOKUP_COMPLETED),
            failed: m.counter(keys::LOOKUP_FAILED),
            slow,
            mean_ms,
            p50_ms,
            hops_mean,
            hops_n,
            maint_bytes: m.counter(keys::BYTES_MAINT),
            lookup_bytes: m.counter(keys::BYTES_LOOKUP),
            joins: churn.joins,
            stats: rt.stats(),
            profile: rt.profile().cloned(),
            virtual_s: rt.now().as_nanos() as f64 / 1e9,
            pending_max: churn.pending_max,
        }
    })
}

fn chord_cell(seed: u64, lookup_mode: LookupMode, mode: Mode, tr: &mut Tracer) -> CellResult {
    let cfg = ChordConfig { lookup_mode, ..ChordConfig::default() };
    let (mut rt, mut churn) = tr.group("setup", |tr| {
        let king = tr.call("net.topology", || KingMatrix::synthetic(NODES, KING_MEAN_RTT_MS, seed));
        let mut rt: Runtime<ChordNode, KingMatrix> =
            tr.call("sim.spawn", || Runtime::new(king, seed));
        if mode == Mode::Count {
            rt.enable_profiler();
        }
        let mut idrng = SeedSource::new(seed).stream("ids");
        let handles: Vec<NodeHandle> = (0..NODES)
            .map(|i| NodeHandle::new(Id::random(&mut idrng), Addr::from_raw(i as u64 + 1)))
            .collect();
        let ring = tr.call("chord.ring_build", || StaticRing::new(handles));
        // Spawn in address order so each node gets the address its
        // handle names.
        let mut by_addr: Vec<(u64, usize)> =
            (0..NODES).map(|i| (ring.node(i).addr.raw(), i)).collect();
        by_addr.sort_unstable();
        for (raw, pos) in by_addr {
            let node = tr.call("chord.ring_build", || ring.build_node(pos, cfg.clone()));
            tr.call("sim.spawn", || rt.spawn(HostId(raw as usize - 1), node));
        }
        let churn = Churn::new(&rt, seed);
        (rt, churn)
    });
    let mut join_rng = SeedSource::new(seed).stream("join-ids");
    tr.group("run", |tr| {
        churn.drive(
            &mut rt,
            tr,
            |rt, tr, host, bootstrap| {
                let node = tr.call("chord.join", || {
                    ChordNode::joining(Id::random(&mut join_rng), cfg.clone(), bootstrap)
                });
                tr.call("sim.spawn", || rt.spawn(host, node))
            },
            |rt, tr, addr, key| {
                tr.call("sim.invoke", || {
                    rt.invoke(addr, |node, ctx| {
                        if node.is_joined() {
                            node.start_lookup(key, ctx);
                        }
                    })
                });
            },
        )
    });
    tr.group("collect", |tr| collect(&mut rt, &churn, tr))
}

fn verme_cell(seed: u64, mode: Mode, tr: &mut Tracer) -> CellResult {
    let layout = SectionLayout::with_sections(SECTIONS, 2);
    let mut ca = CertificateAuthority::new(seed);
    let (mut rt, mut churn) = tr.group("setup", |tr| {
        let king = tr.call("net.topology", || KingMatrix::synthetic(NODES, KING_MEAN_RTT_MS, seed));
        let mut rt: Runtime<VermeNode<()>, KingMatrix> =
            tr.call("sim.spawn", || Runtime::new(king, seed));
        if mode == Mode::Count {
            rt.enable_profiler();
        }
        let ring = tr.call("core.ring_build", || VermeStaticRing::generate(layout, NODES, seed));
        for i in 0..NODES {
            let node: VermeNode<()> = tr
                .call("core.ring_build", || ring.build_node(i, VermeConfig::new(layout), &mut ca));
            tr.call("sim.spawn", || rt.spawn(HostId(i), node));
        }
        let churn = Churn::new(&rt, seed);
        (rt, churn)
    });
    let mut join_rng = SeedSource::new(seed).stream("join-ids");
    tr.group("run", |tr| {
        churn.drive(
            &mut rt,
            tr,
            |rt, tr, host, bootstrap| {
                // Replacements keep the type balance.
                let ty = if join_rng.gen::<bool>() { NodeType::A } else { NodeType::B };
                let id = tr.call("core.join", || layout.assign_id(&mut join_rng, ty));
                let (cert, keys) = tr.call("crypto.issue", || ca.issue(id.raw(), ty));
                let verifier = ca.verifier();
                let node = tr.call("core.join", || {
                    VermeNode::joining(VermeConfig::new(layout), cert, keys, verifier, bootstrap)
                });
                tr.call("sim.spawn", || rt.spawn(host, node))
            },
            |rt, tr, addr, key| {
                tr.call("sim.invoke", || {
                    rt.invoke(addr, |node, ctx| {
                        if node.is_joined() {
                            node.start_measured_lookup(key, ctx);
                        }
                    })
                });
            },
        )
    });
    tr.group("collect", |tr| collect(&mut rt, &churn, tr))
}

/// Number of samples in `h` above `limit`, found by bisecting the
/// nearest-rank quantiles (the histogram keeps its samples private).
fn count_above(h: &mut Histogram, limit: f64) -> u64 {
    let n = h.count();
    // The k-th smallest sample is the quantile at (k - 0.5) / n.
    let mut kth = |k: usize| h.quantile((k as f64 - 0.5) / n as f64);
    // Find the number of samples at or below `limit`.
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if kth(mid) <= limit {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (n - lo) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_above_matches_a_scan() {
        let xs = [5.0, 1.0, 9.0, 3.0, 3.0, 7.0, 1000.0, 2.0];
        let mut h = Histogram::new();
        for x in xs {
            h.record(x);
        }
        for limit in [0.0, 1.0, 2.5, 3.0, 8.0, 999.0, 1000.0, 2000.0] {
            let want = xs.iter().filter(|&&x| x > limit).count() as u64;
            assert_eq!(count_above(&mut h, limit), want, "limit {limit}");
        }
        assert_eq!(count_above(&mut Histogram::new(), 1.0), 0);
    }
}
