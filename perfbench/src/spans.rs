//! Spans recorded from outside the program.
//!
//! The benchmark wraps each call it makes into a layer (a product crate)
//! in a span named `<layer>.<op>`, and groups those calls under its own
//! spans: one per batch, per cell, and per phase of a cell (`setup`,
//! `run`, `collect`). Group spans are always recorded; they give the
//! end-to-end timings. Layer-call spans are recorded only in a traced
//! batch. Spans are kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<op>` for a layer call, or the group name.
    pub name: &'static str,
    /// The enclosing span, as an index into [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The cell the span belongs to (0 outside every cell).
    pub cell: usize,
    /// Host time since the tracer was made.
    pub start: Duration,
    /// Host time since the tracer was made.
    pub end: Duration,
    /// True for a call into a layer, false for a group.
    pub layer_call: bool,
}

impl Span {
    /// The span's host duration.
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// The span recorder.
pub struct Tracer {
    calls: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
    cells: Vec<String>,
}

impl Tracer {
    /// A recorder with layer-call spans off.
    pub fn new() -> Self {
        Tracer {
            calls: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            cells: vec![String::new()],
        }
    }

    /// Switches per-call layer spans on or off.
    pub fn record_calls(&mut self, on: bool) {
        self.calls = on;
    }

    /// Runs `f` inside a group span.
    pub fn group<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            cell: self.cell,
            start: now,
            end: now,
            layer_call: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Runs `f` as a new cell, labelled `label`, inside a `cell` group.
    pub fn cell<R>(&mut self, label: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let outer = self.cell;
        self.cell = self.cells.len();
        self.cells.push(label.to_string());
        let out = self.group("cell", f);
        self.cell = outer;
        out
    }

    /// Runs `f`, one call into a layer, inside a span named `name` when
    /// layer-call spans are on. `f` cannot reach the tracer, so layer
    /// calls never nest.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.calls {
            return f();
        }
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            cell: self.cell,
            start,
            end,
            layer_call: true,
        });
        out
    }

    /// Index of the next span, to delimit the spans of one batch.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans recorded since `mark`.
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// The label of cell `cell`.
    pub fn cell_label(&self, cell: usize) -> &str {
        &self.cells[cell]
    }

    /// The spans as JSON lines: a header naming the cells and fields,
    /// then one array per span. Group spans are always written; layer-call
    /// spans only when their index lies in `calls`, which keeps the file
    /// to one traced batch.
    pub fn to_json_lines(&self, calls: std::ops::Range<usize>) -> String {
        let cells: Vec<String> = self.cells.iter().map(|c| format!("\"{c}\"")).collect();
        let mut out = format!(
            "{{\"cells\": [{}], \"fields\": [\"id\", \"parent\", \"name\", \"cell\", \"start_ns\", \"end_ns\", \"layer_call\"]}}\n",
            cells.join(", ")
        );
        for (id, s) in self.spans.iter().enumerate() {
            if s.layer_call && !calls.contains(&id) {
                continue;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "[{id},{parent},\"{}\",{},{},{},{}]",
                s.name,
                s.cell,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.layer_call
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// The group spans a cell is split into, in the order they run.
const PHASES: [&str; 3] = ["setup", "run", "collect"];

/// Timings of one batch, read off its spans.
#[derive(Clone, Debug, Default)]
pub struct BatchTiming {
    /// The batch span's duration.
    pub wall: f64,
    /// Sum of the `setup` group spans.
    pub setup: f64,
    /// `run` group duration per cell label, in cell order.
    pub cell_run: Vec<(String, f64)>,
    /// The batch split into consecutive parts, as (cell label, phase,
    /// seconds): each `setup`, `run` and `collect` group in order, then
    /// `other`, the rest of the batch, with an empty label.
    pub parts: Vec<(String, &'static str, f64)>,
    /// Total duration and count per layer-call span name.
    pub calls: Vec<(&'static str, f64, u64)>,
    /// Sum of every layer-call duration (they never nest).
    pub covered: f64,
    /// Number of spans recorded.
    pub spans: usize,
}

impl BatchTiming {
    /// Reads the timings off the spans of one batch (the first span must
    /// be the batch group).
    pub fn of(tr: &Tracer, spans: &[Span]) -> Self {
        let mut t = BatchTiming { spans: spans.len(), ..Default::default() };
        t.wall = spans.first().map_or(0.0, |s| s.dur().as_secs_f64());
        for s in spans {
            let d = s.dur().as_secs_f64();
            if s.layer_call {
                t.covered += d;
                match t.calls.iter_mut().find(|c| c.0 == s.name) {
                    Some(c) => {
                        c.1 += d;
                        c.2 += 1;
                    }
                    None => t.calls.push((s.name, d, 1)),
                }
            } else if PHASES.contains(&s.name) {
                t.parts.push((tr.cell_label(s.cell).to_string(), s.name, d));
                if s.name == "setup" {
                    t.setup += d;
                } else if s.name == "run" {
                    t.cell_run.push((tr.cell_label(s.cell).to_string(), d));
                }
            }
        }
        let phases: f64 = t.parts.iter().map(|p| p.2).sum();
        t.parts.push((String::new(), "other", (t.wall - phases).max(0.0)));
        t
    }

    /// Total seconds in layer calls named `name`.
    pub fn call_s(&self, name: &str) -> f64 {
        self.calls.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1)
    }

    /// The run-phase seconds of cell `label`.
    pub fn run_s(&self, label: &str) -> f64 {
        self.cell_run.iter().find(|c| c.0 == label).map_or(0.0, |c| c.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_nest_and_calls_record_only_when_on() {
        let mut tr = Tracer::new();
        let m = tr.mark();
        tr.group("batch", |tr| {
            tr.cell("a", |tr| {
                tr.group("setup", |tr| tr.call("net.topology", || 1));
                tr.record_calls(true);
                tr.group("run", |tr| tr.call("sim.run", || 2));
            })
        });
        let spans = tr.since(m);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["batch", "cell", "setup", "run", "sim.run"]);
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].cell, 1);
        assert_eq!(tr.cell_label(1), "a");
        let t = BatchTiming::of(&tr, spans);
        assert_eq!(t.calls.len(), 1);
        assert_eq!(t.cell_run.len(), 1);
        assert!(t.wall >= t.setup + t.run_s("a"));
        let parts: Vec<(&str, &str)> = t.parts.iter().map(|p| (p.0.as_str(), p.1)).collect();
        assert_eq!(parts, [("a", "setup"), ("a", "run"), ("", "other")]);
        let sum: f64 = t.parts.iter().map(|p| p.2).sum();
        assert!((sum - t.wall).abs() < 1e-9);
        assert_eq!(tr.to_json_lines(0..5).lines().count(), 6);
        assert_eq!(tr.to_json_lines(0..0).lines().count(), 5);
    }
}
