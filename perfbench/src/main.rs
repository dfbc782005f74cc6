//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lookup_churn|dht_mixed|worm_outbreak> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, single-threaded. A workload is a fixed
//! batch of simulated work made from the seed. The first batch counts the
//! Runtime's events and is not timed; then batches repeat until
//! `--seconds` have passed. `wall_s` sums the fastest repeat of each
//! phase of each cell, `setup_s` is the median; both are scaled by the
//! host's speed, measured with the [`reference`] kernel. Every batch must
//! reproduce the first batch's result digests exactly, and every batch's
//! output checks must pass.
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics. With `--trace 1` the untraced batches alternate
//! with traced ones, in which each call into a layer is a span and the
//! program's own span profiler runs; the JSON then holds the per-layer
//! metrics. The spans are written to `perfbench/out/` at exit. Human-readable
//! detail goes to standard error. The exit code is 0 only if every check
//! passed.

mod batch;
mod churn;
mod dht;
mod reference;
mod spans;
mod stats;
mod worm;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use verme_sim::{span_profiler_disable, span_profiler_enable, Scope, SpanProfile};

use batch::{BatchOut, Mode};
use reference::Reference;
use spans::{BatchTiming, Tracer};
use stats::{fastest_parts, iqr_share, median, quartiles, valid_name, valid_unit};

const USAGE: &str =
    "usage: perfbench --workload <lookup_churn|dht_mixed|worm_outbreak> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Workload {
    LookupChurn,
    DhtMixed,
    WormOutbreak,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("lookup_churn", Workload::LookupChurn),
        ("dht_mixed", Workload::DhtMixed),
        ("worm_outbreak", Workload::WormOutbreak),
    ];

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|w| w.1 == self).expect("every workload is listed").0
    }

    fn batch(self, seed: u64, mode: Mode, tr: &mut Tracer) -> BatchOut {
        match self {
            Workload::LookupChurn => churn::batch(seed, mode, tr),
            Workload::DhtMixed => dht::batch(seed, mode, tr),
            Workload::WormOutbreak => worm::batch(seed, mode, tr),
        }
    }
}

/// The end-to-end metrics, all measured with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_failed_frac", "ratio"),
];

/// The per-layer metrics, printed with `--trace 1`.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.deliveries", "count"),
    ("sim.timers", "count"),
    ("sim.dead_letters", "count"),
    ("sim.messages_sent", "count"),
    ("sim.bytes_sent", "bytes"),
    ("sim.messages_dropped", "count"),
    ("sim.virtual_s", "sim_s"),
    ("sim.pending_events_max", "count"),
    ("sim.run_s", "s"),
    ("sim.invoke_s", "s"),
    ("sim.spawn_s", "s"),
    ("sim.deliver.self_s", "s"),
    ("sim.timer.self_s", "s"),
    ("sim.dead_letter.self_s", "s"),
    ("sim.unscoped_s", "s"),
    ("net.topology_s", "s"),
    ("crypto.issue_s", "s"),
    ("crypto.certs", "count"),
    ("chord.ring_build_s", "s"),
    ("chord.transitive.run_s", "s"),
    ("chord.recursive.run_s", "s"),
    ("chord.lookups", "count"),
    ("chord.lookups_failed", "count"),
    ("chord.lookup_hops_mean", "hops"),
    ("chord.stabilize.self_s", "s"),
    ("chord.stabilize.calls", "count"),
    ("chord.lookup_relay.self_s", "s"),
    ("chord.lookup_relay.calls", "count"),
    ("core.ring_build_s", "s"),
    ("core.verme.run_s", "s"),
    ("core.lookups", "count"),
    ("core.lookups_failed", "count"),
    ("core.joins", "count"),
    ("dht.build_s", "s"),
    ("dht.dhash.run_s", "s"),
    ("dht.fast.run_s", "s"),
    ("dht.secure.run_s", "s"),
    ("dht.compromise.run_s", "s"),
    ("dht.gets", "count"),
    ("dht.puts", "count"),
    ("dht.ops_failed", "count"),
    ("dht.retries", "count"),
    ("dht.bytes_fg", "bytes"),
    ("dht.bytes_replication", "bytes"),
    ("dht.cache_hit_ratio", "ratio"),
    ("dht.coalesced_ratio", "ratio"),
    ("dht.memo_hit_ratio", "ratio"),
    ("dht.serve.self_s", "s"),
    ("dht.serve.calls", "count"),
    ("dht.op.self_s", "s"),
    ("dht.op.calls", "count"),
    ("dht.repair.self_s", "s"),
    ("dht.repair.calls", "count"),
    ("load.schedule_s", "s"),
    ("load.ops", "count"),
    ("worm.chord.s", "s"),
    ("worm.fast_verdi.s", "s"),
    ("worm.compromise_verdi.s", "s"),
    ("worm.secure_verdi.s", "s"),
    ("worm.verme.s", "s"),
    ("worm.build_s", "s"),
    ("worm.scans", "count"),
    ("worm.infected", "count"),
    ("worm.collision_ratio", "ratio"),
    ("worm.build.self_s", "s"),
    ("worm.run.self_s", "s"),
    ("worm.propagate.self_s", "s"),
    ("worm.unscoped_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_coverage", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

/// In-program scopes whose self time (and call count) is reported.
const SCOPES: [(Scope, bool); 11] = [
    (Scope::SimDeliver, false),
    (Scope::SimTimer, false),
    (Scope::SimDeadLetter, false),
    (Scope::ChordStabilize, true),
    (Scope::ChordLookupRelay, true),
    (Scope::DhtServe, true),
    (Scope::DhtOp, true),
    (Scope::DhtRepair, true),
    (Scope::WormBuild, false),
    (Scope::WormRun, false),
    (Scope::WormPropagate, false),
];

/// Layer calls timed into each `<stem>_s` per-layer metric.
const CALL_METRICS: [&str; 10] = [
    "sim.run",
    "sim.invoke",
    "sim.spawn",
    "net.topology",
    "crypto.issue",
    "chord.ring_build",
    "core.ring_build",
    "dht.build",
    "load.schedule",
    "worm.build",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::ALL.iter().find(|w| w.0 == value).ok_or_else(|| bad("workload"))?;
                workload = Some(w.1);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs one batch inside a `batch` span and reads its timings back.
fn run_batch(wl: Workload, seed: u64, mode: Mode, tr: &mut Tracer) -> (BatchOut, BatchTiming) {
    let mark = tr.mark();
    let out = tr.group("batch", |tr| wl.batch(seed, mode, tr));
    let timing = BatchTiming::of(tr, tr.since(mark));
    (out, timing)
}

/// Checks a repeat against the first batch; returns the failed checks.
fn verify(first: &BatchOut, again: &BatchOut, what: &str) -> Vec<String> {
    let mut failures = again.failures.clone();
    for ((label, a), (_, b)) in first.digests.iter().zip(&again.digests) {
        if a != b {
            failures.push(format!("{what}: {label} digest {b:016x} differs from {a:016x}"));
        }
    }
    if first.digests.len() != again.digests.len() {
        failures.push(format!(
            "{what}: ran {} cells, not {}",
            again.digests.len(),
            first.digests.len()
        ));
    }
    failures
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let mut tr = Tracer::new();

    // The first batch counts events and warms caches; it is not timed.
    let (first, _) = run_batch(wl, args.seed, Mode::Count, &mut tr);
    let mut attempted = first.cells;
    let mut failures = first.failures.clone();
    let mut failed = (failures.len() as u64).min(first.cells);
    for (label, d) in &first.digests {
        eprintln!("# {} seed {}: {label} digest {d:016x}", wl.name(), args.seed);
    }
    for note in &first.notes {
        eprintln!("# {note}");
    }

    // The peak belongs to the workload alone: it is read before the
    // reference kernel allocates its tables.
    let peak_rss = peak_rss_mb();
    let reference = Reference::new();
    let mut refs: Vec<f64> = Vec::new();
    let started = Instant::now();
    let mut plain: Vec<BatchTiming> = Vec::new();
    let mut traced: Vec<(BatchTiming, SpanProfile)> = Vec::new();
    let mut written = 0..0;
    // A batch starts only if it should end by half a batch past the
    // deadline, so a run lasts about `--seconds` whatever a batch takes.
    let mut last = 0.0;
    while plain.is_empty() || started.elapsed().as_secs_f64() + last / 2.0 < args.seconds {
        let lap = Instant::now();
        refs.extend((0..4).map(|_| reference.time()));
        let (out, t) = run_batch(wl, args.seed, Mode::Plain, &mut tr);
        let f = verify(&first, &out, "untraced repeat");
        eprintln!("# batch wall {:.4} s, setup {:.4} s", t.wall, t.setup);
        plain.push(t);
        attempted += out.cells;
        failed += (f.len() as u64).min(out.cells);
        failures.extend(f);
        if args.trace {
            tr.record_calls(true);
            span_profiler_enable();
            let mark = tr.mark();
            let (out, t) = run_batch(wl, args.seed, Mode::Count, &mut tr);
            if written.is_empty() {
                written = mark..tr.mark();
            }
            let profile = span_profiler_disable().expect("the span profiler was enabled above");
            tr.record_calls(false);
            let mut f = verify(&first, &out, "traced repeat");
            if out.counts != first.counts {
                f.push("traced repeat: per-layer counts differ from the first batch".to_string());
            }
            eprintln!("# traced batch wall {:.4} s, {} spans", t.wall, t.spans);
            traced.push((t, profile));
            attempted += out.cells;
            failed += (f.len() as u64).min(out.cells);
            failures.extend(f);
        }
        last = lap.elapsed().as_secs_f64();
    }
    for f in &failures {
        eprintln!("# CHECK FAILED: {f}");
    }

    let walls: Vec<f64> = plain.iter().map(|t| t.wall).collect();
    let (q1, q3) = quartiles(&walls);
    eprintln!(
        "# {}: {} timed batches, wall median {:.4} s, quartiles {q1:.4} .. {q3:.4} ({:.1}% of the median), fastest parts {:.4} s",
        wl.name(),
        walls.len(),
        median(&walls),
        100.0 * iqr_share(&walls),
        fastest_batch(&plain, &first.unrated).0
    );
    let fastest_ref = refs.iter().copied().fold(f64::INFINITY, f64::min);
    let scale = reference::scale(fastest_ref);
    eprintln!(
        "# reference kernel: fastest {fastest_ref:.4} s, median {:.4} s over {} repeats; host times scale by {scale:.4}",
        median(&refs),
        refs.len()
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        per_layer(wl, &first, &plain, &traced)
    } else {
        end_to_end(&first, &plain, scale, peak_rss)
    };
    let mut correct = failures.is_empty();
    let mut json = String::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() || !valid_name(name) || !valid_unit(unit) {
            eprintln!("# metric {name} ({unit}) is malformed or not finite: {value}");
            correct = false;
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if json.is_empty() { "" } else { ", " };
        write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.jsonl", wl.name(), args.seed);
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tr.to_json_lines(written)))
        {
            Ok(()) => eprintln!("# spans written to {path}"),
            Err(e) => eprintln!("# could not write spans to {path}: {e}"),
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The sum of the fastest repeat of each part of a batch, and the same
/// sum over the parts that are run time for the event rate: not set-up,
/// and not in an `unrated` cell.
fn fastest_batch(plain: &[BatchTiming], unrated: &[&str]) -> (f64, f64) {
    let samples: Vec<Vec<f64>> =
        plain.iter().map(|t| t.parts.iter().map(|p| p.2).collect()).collect();
    let best = fastest_parts(&samples);
    let rated = |p: &(String, &str, f64)| p.1 != "setup" && !unrated.contains(&p.0.as_str());
    let run = plain[0].parts.iter().zip(&best).filter(|(p, _)| rated(p)).map(|(_, b)| b);
    (best.iter().sum(), run.sum())
}

/// The end-to-end metrics. Host times are multiplied by `scale`, which
/// brings them to an undisturbed host (see [`reference::scale`]).
fn end_to_end(
    first: &BatchOut,
    plain: &[BatchTiming],
    scale: f64,
    peak_rss: Option<f64>,
) -> Vec<(&'static str, f64, &'static str)> {
    // Interference on a shared host only ever adds time, in bursts of a
    // few seconds. Each phase of each cell (set-up, run, collection) is
    // timed in every batch, and `wall_s` sums the fastest repeat of each:
    // a phase needs only one undisturbed repeat in the whole run. Set-up
    // is the median of its repeats. Slow phases that last the whole run
    // are taken out by `scale`.
    let (wall, run) = fastest_batch(plain, &first.unrated);
    let setups: Vec<f64> = plain.iter().map(|t| t.setup).collect();
    let values = [
        scale * wall,
        scale * median(&setups),
        first.events as f64 / (scale * run),
        peak_rss.unwrap_or(f64::NAN),
        first.ops_failed as f64 / first.ops.max(1) as f64,
    ];
    END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
}

fn per_layer(
    wl: Workload,
    first: &BatchOut,
    plain: &[BatchTiming],
    traced: &[(BatchTiming, SpanProfile)],
) -> Vec<(&'static str, f64, &'static str)> {
    let mut values: Vec<(String, f64)> = Vec::new();
    let med = |f: &dyn Fn(&BatchTiming, &SpanProfile) -> f64| {
        median(&traced.iter().map(|(t, p)| f(t, p)).collect::<Vec<_>>())
    };
    for stem in CALL_METRICS {
        values.push((format!("{stem}_s"), med(&|t, _| t.call_s(stem))));
    }
    // Each cell's run phase: `<cell>.run_s`, or `<cell>.s` for a worm
    // scenario, whose run phase is one `run_scenario` call.
    let suffix = if wl == Workload::WormOutbreak { "s" } else { "run_s" };
    for (label, _) in &traced[0].0.cell_run {
        values.push((format!("{label}.{suffix}"), med(&|t, _| t.run_s(label))));
    }
    let scope = |p: &SpanProfile, s: Scope| {
        p.scope_totals().into_iter().find(|(x, _)| *x == s).map(|(_, n)| n)
    };
    for (s, with_calls) in SCOPES {
        values.push((
            format!("{}.self_s", s.name()),
            med(&|_, p| scope(p, s).map_or(0.0, |n| n.self_wall.as_secs_f64())),
        ));
        if with_calls {
            values.push((
                format!("{}.calls", s.name()),
                med(&|_, p| scope(p, s).map_or(0.0, |n| n.calls as f64)),
            ));
        }
    }
    // Time inside the calls that can enter in-program scopes, minus the
    // time those scopes account for.
    let unscoped = |calls: &[&str]| {
        med(&|t, p| {
            let inside: f64 = calls.iter().map(|c| t.call_s(c)).sum();
            inside - p.attributed_total().as_secs_f64()
        })
    };
    let (sim_unscoped, worm_unscoped) = match wl {
        Workload::WormOutbreak => (0.0, unscoped(&["worm.build", "worm.scenario"])),
        _ => (unscoped(&["sim.run", "sim.invoke", "sim.spawn"]), 0.0),
    };
    values.push(("sim.unscoped_s".into(), sim_unscoped));
    values.push(("worm.unscoped_s".into(), worm_unscoped));

    let plain_wall = median(&plain.iter().map(|t| t.wall).collect::<Vec<_>>());
    let traced_wall = med(&|t, _| t.wall);
    values.push(("trace.overhead_s".into(), traced_wall - plain_wall));
    values.push(("trace.overhead_frac".into(), (traced_wall - plain_wall) / plain_wall));
    values.push(("trace.span_coverage".into(), med(&|t, _| t.covered / t.wall)));
    values.push(("trace.unattributed_s".into(), med(&|t, _| t.wall - t.covered)));
    values.push(("trace.spans".into(), med(&|t, _| t.spans as f64)));

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| first.get(name));
            (name, v, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload dht_mixed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::DhtMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload worm_outbreak --trace 2").is_err());
        assert!(args("--workload worm_outbreak --seconds").is_err());
        assert!(args("--workload worm_outbreak --bogus 1").is_err());
    }

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        for (w, _) in Workload::ALL {
            assert!(valid_name(w), "{w}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(declared(name), "{name} is printed but not declared");
        }
        for (w, _) in Workload::ALL {
            assert!(declared(w), "workload {w} is not declared");
        }
        let entries = text.matches("\"name\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len());
    }

    #[test]
    fn every_derived_metric_is_in_the_per_layer_table() {
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let cells = churn::labels().into_iter().chain(dht::labels()).map(|l| format!("{l}.run_s"));
        for name in cells.chain(worm::labels().into_iter().map(|l| format!("{l}.s"))) {
            assert!(table.contains(&name.as_str()), "{name} is computed but not declared");
        }
        for stem in CALL_METRICS {
            let name = format!("{stem}_s");
            assert!(table.contains(&name.as_str()), "{name} is computed but not declared");
        }
        for (s, calls) in SCOPES {
            assert!(table.contains(&format!("{}.self_s", s.name()).as_str()), "{}", s.name());
            if calls {
                assert!(table.contains(&format!("{}.calls", s.name()).as_str()), "{}", s.name());
            }
        }
    }
}
