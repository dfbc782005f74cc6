//! The benchmark's own statistics: medians, quartiles, result digests and
//! the name rules every printed metric must satisfy.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones the acceptance check computes.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    // Python's integer arithmetic, where `delta` may be negative.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[j as usize - 1], v[j as usize]);
        (lo * (n as f64 - delta) + hi * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The fastest repeat of each part: `samples[b][k]` is part `k` of repeat
/// `b`, and the result holds, for each `k`, the least `samples[b][k]`.
///
/// # Panics
///
/// Panics if `samples` is empty or its repeats differ in length.
pub fn fastest_parts(samples: &[Vec<f64>]) -> Vec<f64> {
    let first = samples.first().expect("fastest parts of no repeats");
    let mut best = first.clone();
    for s in samples {
        assert_eq!(s.len(), best.len(), "repeats split into different parts");
        for (b, &x) in best.iter_mut().zip(s) {
            *b = b.min(x);
        }
    }
    best
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistics of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample holds a NaN"));
    v
}

/// FNV-1a over the exact simulated results of one cell. Floats are fed
/// by bit pattern, so two digests are equal only if every value is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds one integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds one float by its bit pattern.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit: 1 to 16 characters of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([3.5, 1.25, 9, 2, 7.75, 4, 6.5], n=4)
        //     == [2.0, 4.0, 7.75]
        assert_eq!(quartiles(&[3.5, 1.25, 9.0, 2.0, 7.75, 4.0, 6.5]), (2.0, 7.75));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn fastest_parts_takes_each_part_from_its_own_best_repeat() {
        let samples = vec![vec![1.0, 5.0, 2.0], vec![3.0, 4.0, 2.5], vec![2.0, 6.0, 1.5]];
        assert_eq!(fastest_parts(&samples), vec![1.0, 4.0, 1.5]);
        assert_eq!(fastest_parts(&samples[..1]), samples[0]);
    }

    #[test]
    #[should_panic(expected = "different parts")]
    fn fastest_parts_rejects_repeats_of_different_shape() {
        fastest_parts(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_of_nothing_panics() {
        median(&[]);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let d = |a: u64, b: f64| {
            let mut d = Digest::default();
            d.u64(a).f64(b);
            d.value()
        };
        assert_eq!(d(1, 0.5), d(1, 0.5));
        assert_ne!(d(1, 0.5), d(2, 0.5));
        assert_ne!(d(1, 0.5), d(1, 0.25));
        // 0.0 and -0.0 compare equal but are different results.
        assert_ne!(d(1, 0.0), d(1, -0.0));
        // Pinned: a digest must not change between builds or platforms.
        assert_eq!(Digest::default().u64(0).value(), 0xa8c7_f832_281a_39c5);
    }

    #[test]
    fn metric_names_and_units_follow_the_rules() {
        for ok in ["wall_s", "sim.events", "chord.stabilize.self_s", "worm.fast_verdi.s", "9a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "MB", "%", "count", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
