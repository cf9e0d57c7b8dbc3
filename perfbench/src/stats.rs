//! Order statistics: nearest-rank percentiles and the tail rule.

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 8] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer per-mille arithmetic so that e.g. p99.9 of 10000 is exact.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    ((per_mille * n).div_ceil(1000)).clamp(1, n)
}

/// Nearest-rank percentile `p` of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// The median of `values` (nearest rank), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile(&v, 50.0))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] of `n`
/// samples ranked above it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .rev()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// The tail percentile reported whenever the rule allows it. Every op
/// stream of every workload has at least 200 samples at the benchmark's
/// run length, the count p95 needs; a fixed percentile keeps the tail
/// from jumping a ladder step when a run completes a few more or fewer
/// ops.
pub const TAIL: f64 = 95.0;

/// A latency summary: median and tail of one op type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// [`TAIL`], or the lower percentile [`tail_percentile`] allows when
    /// there are too few samples (100 = the maximum, when there are too
    /// few for any).
    pub tail_p: f64,
    /// The value at `tail_p`.
    pub tail: f64,
}

/// Summarize `samples`, or `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(v.len()).map_or(100.0, |p| p.min(TAIL));
    Some(Summary {
        n: v.len(),
        p50: percentile(&v, 50.0),
        tail_p,
        tail: percentile(&v, tail_p),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2000), Some(99.5));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.9));
        for n in 20..5000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn summary_reads_nearest_ranks() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail_p, 95.0);
        assert_eq!(s.tail, 190.0);
        // More samples keep the fixed tail; fewer fall back to the rule.
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(summarize(&many).unwrap().tail_p, TAIL);
        let few: Vec<f64> = (1..=150).map(f64::from).collect();
        let s = summarize(&few).unwrap();
        assert_eq!((s.tail_p, s.tail), (90.0, 135.0));
        let tiny = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((tiny.p50, tiny.tail_p, tiny.tail), (2.0, 100.0, 3.0));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), Some(2.0));
    }
}
