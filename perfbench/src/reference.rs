//! A fixed reference kernel that measures how fast the host runs right now.
//!
//! On a shared host, other tenants slow the program for seconds to minutes
//! at a time, and the process's CPU time grows with its wall time, so the
//! slowdown cannot be subtracted. The kernel below does work of the same
//! kind as the simulations (an event heap, random reads of per-node tables
//! a few MiB large, hash-map updates, small allocations) but is part of the
//! benchmark, so no change to the program changes its cost. Timed beside
//! the batches, its fastest repeat tells how fast the host was at its
//! quietest during the run, and [`scale`] turns that into a factor for
//! host times.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// The kernel's time on an undisturbed host: its fastest repeat on a
/// 2-vCPU Xeon (Sapphire Rapids, 2.0 GHz) virtual machine.
pub const NOMINAL_S: f64 = 0.05;

/// The factor that brings host times measured in a run whose fastest
/// kernel repeat took `fastest` seconds to an undisturbed host.
///
/// The kernel reads more memory at random than the simulations do, and
/// contention slows it more: in ten runs per workload it was up to 1.7
/// times its undisturbed time where the workloads' fastest parts were 1.2
/// to 1.5 times theirs. Scaling by the whole slowdown overcorrects, so
/// the factor is its square root. Over those runs this kept the spread of
/// `wall_s` to 6 to 11% per workload, where no scaling left 9 to 24% and
/// full scaling 9 to 21%.
pub fn scale(fastest: f64) -> f64 {
    (NOMINAL_S / fastest).sqrt()
}

/// Nodes, each with a sorted table of random identifiers.
const NODES: usize = 24_576;
const TABLE: usize = 48;
/// Events popped per repeat.
const EVENTS: u64 = 95_000;
/// Events pending at any time.
const PENDING: u64 = 20_000;

/// The reference kernel's data, built once.
pub struct Reference {
    tables: Vec<Vec<u64>>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Builds the per-node tables (about 9 MiB).
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        let tables = (0..NODES)
            .map(|_| {
                let mut t: Vec<u64> = (0..TABLE).map(|_| xorshift(&mut x)).collect();
                t.sort_unstable();
                t
            })
            .collect();
        Reference { tables }
    }

    /// Runs the kernel once; returns its checksum, which is the same on
    /// every repeat.
    pub fn run(&self) -> u64 {
        let n = NODES as u64;
        let mut x = 12_345;
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
            (0..PENDING).map(|i| Reverse((i * 7919 % 100_000, i % n))).collect();
        let mut visits: HashMap<u64, u64> = HashMap::new();
        let mut acc = 0u64;
        for _ in 0..EVENTS {
            let Reverse((at, node)) = heap.pop().expect("the heap never drains");
            let key = xorshift(&mut x);
            let table = &self.tables[node as usize];
            let next = table[table.partition_point(|&v| v < key).min(TABLE - 1)] % n;
            *visits.entry(key & 0xffff).or_insert(0) += next;
            let head: Vec<u64> = table[..8].to_vec();
            acc = acc.wrapping_add(head[(key % 8) as usize]);
            heap.push(Reverse((at + 1 + (key & 1023), next)));
        }
        acc ^ visits.values().fold(0u64, |a, &v| a.wrapping_add(v))
    }

    /// Host seconds one run takes now.
    pub fn time(&self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(self.run());
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_repeats_exactly() {
        let r = Reference::new();
        assert_eq!(r.run(), r.run());
        assert_eq!(r.run(), Reference::new().run());
    }
}
