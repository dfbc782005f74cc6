//! What one batch of a workload hands back, besides its spans.

use verme_sim::{EventProfile, NetStats};

use crate::stats::Digest;

/// Whether the runtimes of a batch count their events.
///
/// Counting reads the host clock around every event, so timed batches
/// leave it off and take their event counts from the batch that counted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Runtime event profiler on: exact event counts.
    Count,
    /// Nothing extra in the program.
    Plain,
}

/// The outcome of one batch.
#[derive(Clone, Debug, Default)]
pub struct BatchOut {
    /// One digest of simulated results per cell, in cell order.
    pub digests: Vec<(String, u64)>,
    /// One line of simulated results per cell, for the log.
    pub notes: Vec<String>,
    /// Output checks that failed, one message each.
    pub failures: Vec<String>,
    /// Cells run.
    pub cells: u64,
    /// Simulated operations attempted and failed.
    pub ops: u64,
    /// Simulated operations that failed.
    pub ops_failed: u64,
    /// Cells left out of the event rate: their events are not in
    /// `events`, and their run time is not in the rate's denominator.
    pub unrated: Vec<&'static str>,
    /// Simulated events processed (deliveries, timers and dead letters;
    /// worm scans in the worm workload). Zero unless counted.
    pub events: u64,
    /// Exact, wall-clock-free per-layer counts and ratios.
    pub counts: Vec<(&'static str, f64)>,
}

impl BatchOut {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds `v` to count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        match self.counts.iter_mut().find(|c| c.0 == name) {
            Some(c) => c.1 += v,
            None => self.counts.push((name, v)),
        }
    }

    /// Raises count `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        match self.counts.iter_mut().find(|c| c.0 == name) {
            Some(c) => c.1 = c.1.max(v),
            None => self.counts.push((name, v)),
        }
    }

    /// The value of count `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1)
    }

    /// Adds one Runtime cell's network statistics, event profile and
    /// virtual time to the `sim.*` counts.
    pub fn add_runtime(
        &mut self,
        stats: &NetStats,
        profile: Option<&EventProfile>,
        virtual_s: f64,
        pending_max: usize,
    ) {
        self.add("sim.deliveries", stats.messages_delivered as f64);
        self.add("sim.messages_sent", stats.messages_sent as f64);
        self.add("sim.bytes_sent", stats.bytes_sent as f64);
        self.add("sim.messages_dropped", stats.messages_dropped as f64);
        self.add("sim.virtual_s", virtual_s);
        self.max("sim.pending_events_max", pending_max as f64);
        if let Some(p) = profile {
            self.events += p.total_events();
            self.add("sim.events", p.total_events() as f64);
            self.add("sim.timers", p.timer_events as f64);
            self.add("sim.dead_letters", p.dead_letter_events as f64);
        }
    }
}

/// Feeds a Runtime cell's network statistics into `d`.
pub fn digest_stats(d: &mut Digest, stats: &NetStats, virtual_s: f64) {
    d.u64(stats.messages_sent)
        .u64(stats.bytes_sent)
        .u64(stats.messages_delivered)
        .u64(stats.messages_dropped)
        .f64(virtual_s);
}
