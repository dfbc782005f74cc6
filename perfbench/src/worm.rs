//! `worm_outbreak`: Figure 8's five scenarios at tens of thousands of
//! nodes, about 24 nodes per section as in the paper.
//!
//! The worm model bypasses `Runtime` and shares only `EventQueue`, so
//! this workload is the control on which Runtime-dispatch changes must
//! not move. `run_scenario` builds its overlay and then runs the
//! outbreak; set-up is timed through the same public call with a zero
//! duration, which builds everything and simulates nothing.

use verme_sim::SimDuration;
use verme_worm::{run_scenario, Scenario, ScenarioConfig, ScenarioResult};

use crate::batch::{BatchOut, Mode};
use crate::spans::Tracer;
use crate::stats::Digest;

/// Population: 1024 sections of 24 nodes.
const NODES: usize = 24_576;
/// Verme section count.
const SECTIONS: u128 = 1024;
/// Simulated time per scenario, as in the paper (`ScenarioConfig::default`).
const DURATION: SimDuration = SimDuration::from_secs(20_000);

/// The five scenarios of Figure 8 with their labels.
fn scenarios() -> [(&'static str, Scenario); 5] {
    [
        ("worm.chord", Scenario::ChordWorm),
        ("worm.fast_verdi", Scenario::FastVerDiImpersonation { lookups_per_sec: 10.0 }),
        ("worm.compromise_verdi", Scenario::CompromiseVerDi { node_lookup_rate_per_sec: 1.0 }),
        ("worm.secure_verdi", Scenario::SecureVerDiImpersonation),
        ("worm.verme", Scenario::VermeWorm),
    ]
}

fn config(seed: u64, duration: SimDuration) -> ScenarioConfig {
    ScenarioConfig { nodes: NODES, sections: SECTIONS, duration, seed, ..ScenarioConfig::default() }
}

fn digest(r: &ScenarioResult) -> u64 {
    let mut d = Digest::default();
    d.u64(r.infected as u64)
        .u64(r.vulnerable as u64)
        .u64(r.nodes as u64)
        .u64(r.scans)
        .u64(r.collisions);
    for &(t, v) in r.curve.points() {
        d.u64(t.as_nanos()).f64(v);
    }
    d.value()
}

#[cfg(test)]
pub fn labels() -> Vec<&'static str> {
    scenarios().iter().map(|s| s.0).collect()
}

/// Compromise-VerDi's spread hinges on how much of the key space one
/// random impersonator relays: depending on the seed it infects every
/// vulnerable machine or stalls below a fifth of them, with 20 times
/// fewer scans and nearly the same host time. Its scans would make the
/// event rate a measure of the seed, so the rate leaves it out.
const UNRATED: &str = "worm.compromise_verdi";

/// Runs the five scenarios once. Worm scans stand for simulated events.
/// A machine the worm reaches in an overlay built to contain it (Verme,
/// Secure-VerDi) is a failed operation; in the other three overlays the
/// worm is meant to spread, and the checks below say how.
pub fn batch(seed: u64, _mode: Mode, tr: &mut Tracer) -> BatchOut {
    let mut out = BatchOut { unrated: vec![UNRATED], ..BatchOut::default() };
    let mut results = Vec::new();
    for (label, scenario) in scenarios() {
        let r = tr.cell(label, |tr| {
            tr.group("setup", |tr| {
                let cfg = config(seed, SimDuration::ZERO);
                tr.call("worm.build", || run_scenario(&scenario, &cfg))
            });
            let cfg = config(seed, DURATION);
            tr.group("run", |tr| tr.call("worm.scenario", || run_scenario(&scenario, &cfg)))
        });
        out.digests.push((label.to_string(), digest(&r)));
        out.notes.push(format!(
            "{label}: {} of {} vulnerable infected, {} scans",
            r.infected, r.vulnerable, r.scans
        ));
        out.cells += 1;
        if label != UNRATED {
            out.events += r.scans;
        }
        if matches!(scenario, Scenario::VermeWorm | Scenario::SecureVerDiImpersonation) {
            out.ops += r.vulnerable as u64;
            out.ops_failed += r.infected as u64;
        }
        out.add("worm.scans", r.scans as f64);
        out.add("worm.infected", r.infected as f64);
        results.push(r);
    }
    let collisions: u64 = results.iter().map(|r| r.collisions).sum();
    out.add("worm.collision_ratio", collisions as f64 / out.get("worm.infected").max(1.0));

    // The containment and speed orderings of the Figure 8 tests: Verme
    // and Secure-VerDi contain the worm; Chord, Fast-VerDi and
    // Compromise-VerDi do not, in that order of speed. Compromise-VerDi
    // may not reach half the vulnerable machines within the budget.
    let [chord, fast, comp, secure, verme] = &results[..] else { unreachable!("five scenarios") };
    let section = NODES as f64 / SECTIONS as f64;
    out.check((2..(3.0 * section) as usize).contains(&verme.infected), || {
        format!("Verme: {} infected, a section holds {section:.0}", verme.infected)
    });
    out.check(
        secure.infected > verme.infected && (secure.infected as f64) < 40.0 * section,
        || format!("Secure-VerDi: {} infected, Verme {}", secure.infected, verme.infected),
    );
    let t50 = |r: &ScenarioResult| r.time_to_vulnerable_fraction(0.5);
    match (t50(chord), t50(fast)) {
        (Some(tc), Some(tf)) => {
            out.check(tc < tf, || format!("Chord ({tc}) must beat Fast-VerDi ({tf})"))
        }
        _ => out.check(false, || "Chord and Fast-VerDi must reach half the vulnerable".to_string()),
    }
    if let (Some(tf), Some(tk)) = (t50(fast), t50(comp)) {
        out.check(tf < tk, || format!("Fast-VerDi ({tf}) must beat Compromise-VerDi ({tk})"));
    }
    out.check(comp.infected > secure.infected, || {
        format!(
            "Compromise-VerDi ({}) must spread past Secure-VerDi ({})",
            comp.infected, secure.infected
        )
    });
    for (label, r) in [("Verme", verme), ("Secure-VerDi", secure)] {
        out.check(t50(r).is_none(), || format!("{label} reached half the vulnerable"));
    }
    out
}
