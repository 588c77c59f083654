//! Order statistics for the harness's timing samples.
//!
//! Every timing the harness prints goes through [`Summary`], so every number
//! carries its sample count and quartiles, and tails are only printed as far
//! out as the data supports (see [`tail_percentile`]).

/// Sorted copy of `values`; NaNs are a harness bug, not data.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an already sorted slice
/// (the "inclusive" method: q = 0 is the minimum, q = 1 the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Smallest value (∞ for an empty sample).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest percentile the sample can support: the largest of
/// p50/p90/p99/p99.9 that still leaves at least ten samples beyond it.  A
/// "p99" over 200 samples is the mean of two outliers; this rule refuses to
/// print it.
pub fn tail_percentile(samples: usize) -> f64 {
    // (percentile, how many samples it takes to leave ten beyond it)
    [(0.999, 10_000), (0.99, 1000), (0.9, 100)]
        .into_iter()
        .find(|&(_, needs)| samples >= needs)
        .map_or(0.5, |(p, _)| p)
}

/// Median of the `k` largest values — the estimator behind `stall_ms`: with
/// `k` checkpoints in a run, the `k` slowest commands are the ones that paid
/// for them.
pub fn top_k_median(values: &[f64], k: usize) -> f64 {
    assert!(k >= 1 && !values.is_empty(), "top-K of nothing");
    let v = sorted(values);
    let k = k.min(v.len());
    quantile_sorted(&v[v.len() - k..], 0.5)
}

/// What the harness prints for one timing: count, quartiles, and the
/// highest tail the count supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    pub p90: f64,
    /// Which percentile `tail` is ([`tail_percentile`] of `n`).
    pub tail_p: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample; `None` for an empty one (a layer the
    /// workload never exercised).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let v = sorted(values);
        let tail_p = tail_percentile(v.len());
        Some(Summary {
            n: v.len(),
            q1: quantile_sorted(&v, 0.25),
            p50: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            p90: quantile_sorted(&v, 0.9),
            tail_p,
            tail: quantile_sorted(&v, tail_p),
            max: *v.last().expect("non-empty"),
        })
    }

    /// Median, or 0 for a layer with no samples.
    pub fn p50_or_zero(summary: Option<Summary>) -> f64 {
        summary.map_or(0.0, |s| s.p50)
    }
}

/// Interquartile range as a share of the median — the spread the benchmark
/// contract gates on (`--repeat` prints it per metric).  Uses the exclusive
/// method of Python's `statistics.quantiles(values, n=4)` so the harness's
/// own verdict matches the driver's.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let exclusive = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    let med = quantile_sorted(&v, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (exclusive(0.75) - exclusive(0.25)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.q1, s.p50, s.q3, s.max), (5, 2.0, 3.0, 4.0, 5.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tails_need_ten_samples_beyond_them() {
        assert_eq!(tail_percentile(50), 0.5);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(999), 0.9);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(10_000), 0.999);
    }

    #[test]
    fn top_k_picks_the_stalls_not_the_bulk() {
        let mut v = vec![1.0; 100];
        v.extend([900.0, 1000.0, 1100.0, 1200.0, 1300.0]);
        assert_eq!(top_k_median(&v, 5), 1100.0);
        assert_eq!(top_k_median(&v, 4), 1150.0);
        // One inflated stall does not move it.
        v[104] = 9000.0;
        assert_eq!(top_k_median(&v, 5), 1100.0);
        assert_eq!(top_k_median(&[7.0], 4), 7.0);
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }
}
