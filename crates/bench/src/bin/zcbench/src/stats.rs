//! Order statistics and the timed-loop helper.

use std::time::Instant;

/// Median of a sample (0 for an empty one). Even-sized samples average the
/// two middle values.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so the
/// spreads this benchmark reports match the ones computed from its output
/// with Python. A single value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        ld => {
            let q = |i: usize| {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` (in percent) of a sample: the smallest value
/// with at least `p`% of the sample at or below it. Infinite entries (the
/// refused or failed requests) sort last.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(p, s.len()).clamp(1, s.len()) - 1]
}

/// Nearest rank (1-based) of percentile `p` in a sample of `n`. The small
/// epsilon keeps `99.9 × 10000 / 100` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The highest of the conventional percentiles that still has at least ten
/// samples beyond it under nearest rank — the tail a sample of `n` can
/// support. `None` below 20 samples (not even the median qualifies).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0].into_iter().find(|&p| {
        let r = rank(p, n);
        r >= 1 && n >= r + 10
    })
}

/// Call `f` until `seconds` of wall time have passed and it ran at least
/// `min` times; collects what each call returns — the seconds of the part
/// it timed, so untimed work (set-up samples, checks) can share the loop.
pub fn timed_loop(seconds: f64, min: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || start.elapsed().as_secs_f64() < seconds {
        samples.push(f());
    }
    samples
}

/// Wall seconds of one call of `f`, and its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        // A refused request counts as an infinite latency and sorts last.
        assert_eq!(percentile(&[1.0, f64::INFINITY], 99.0), f64::INFINITY);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1100 samples: p99 is rank 1089, leaving 11 beyond it.
        assert_eq!(tail_percentile(1100), Some(99.0));
        // 1000: rank 990 leaves exactly 10.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999: p99 would leave 9, so p95 (rank 950, 49 beyond).
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-15);
    }

    #[test]
    fn timed_loop_honours_its_minimum() {
        let mut calls = 0;
        let s = timed_loop(0.0, 3, || {
            calls += 1;
            0.5
        });
        assert_eq!((calls, s), (3, vec![0.5; 3]));
    }
}
