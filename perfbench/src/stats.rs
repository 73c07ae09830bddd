//! Order statistics over raw samples: nearest-rank quantiles, the highest
//! quantile a sample count supports, medians.

/// A reported quantile needs at least this many samples beyond it.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of quantile `q` over `n` samples: the
/// `ceil(q·n)`-th smallest. The small epsilon keeps products such as
/// `0.99 × 1000` from rounding up past their exact integer.
pub fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n.max(1))
}

/// Samples strictly after the nearest-rank position of `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of `candidates` that leaves at least [`MIN_TAIL`] samples
/// beyond it, or `None` when even the lowest does not.
pub fn supported_quantile(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| samples_beyond(n, q) >= MIN_TAIL)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Quantile `across` of the windows' `q` quantiles (0 when there are no
/// windows). A low `across` reads the quieter windows: host stalls only
/// ever add latency.
pub fn quantile_of_windows(windows: &[&[f64]], q: f64, across: f64) -> f64 {
    let per_window: Vec<f64> = windows.iter().map(|w| quantile(w, q)).collect();
    quantile(&per_window, across)
}

/// Least-squares slope of `ys` against `xs` (0 when the `xs` do not
/// vary).
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mean = |v: &[f64]| v[..n].iter().sum::<f64>() / n as f64;
    let (mx, my) = (mean(xs), mean(ys));
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(ys).take(n) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

/// The median (mean of the two middle samples for even counts; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATES: &[f64] = &[0.5, 0.9, 0.99, 0.999];

    #[test]
    fn rank_is_exact_at_round_products() {
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(rank(100, 0.5), 50);
        assert_eq!(rank(1, 0.99), 1);
        assert_eq!(rank(7, 0.0), 1);
        assert_eq!(rank(7, 1.0), 7);
    }

    #[test]
    fn supported_quantile_picks_the_highest_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p999 only 1.
        assert_eq!(supported_quantile(1000, CANDIDATES), Some(0.99));
        assert_eq!(supported_quantile(999, CANDIDATES), Some(0.9));
        assert_eq!(supported_quantile(10_000, CANDIDATES), Some(0.999));
        assert_eq!(supported_quantile(100, CANDIDATES), Some(0.9));
        assert_eq!(supported_quantile(20, CANDIDATES), Some(0.5));
        assert_eq!(supported_quantile(19, CANDIDATES), None);
        assert_eq!(supported_quantile(0, CANDIDATES), None);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 500.0);
        assert_eq!(quantile(&values, 0.99), 990.0);
        assert_eq!(quantile(&values, 1.0), 1000.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quantile_of_windows_reads_the_quieter_windows() {
        let quiet: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        let mut stalled = quiet.clone();
        // A stall: 60 slow samples in a window.
        for v in &mut stalled[100..160] {
            *v = 1000.0;
        }
        let pooled: Vec<f64> = [quiet.as_slice(), &stalled, &stalled].concat();
        assert_eq!(
            quantile(&pooled, 0.99),
            1000.0,
            "pooled p99 sees the bursts"
        );
        let windows = [stalled.as_slice(), &quiet, &stalled, &stalled];
        assert_eq!(quantile_of_windows(&windows, 0.99, 0.25), 98.0);
        assert_eq!(quantile_of_windows(&windows, 0.99, 1.0), 1000.0);
        // The lower quartile of eight window medians is the second lowest,
        // so one lucky window does not set it.
        let medians: Vec<Vec<f64>> = [3.0, 9.0, 10.0, 10.0, 11.0, 11.0, 12.0, 20.0]
            .iter()
            .map(|&m| vec![m])
            .collect();
        let windows: Vec<&[f64]> = medians.iter().map(Vec::as_slice).collect();
        assert_eq!(quantile_of_windows(&windows, 0.5, 0.25), 9.0);
        assert_eq!(quantile_of_windows(&[], 0.5, 0.25), 0.0);
    }

    #[test]
    fn slope_recovers_backlog_growth_through_batch_bursts() {
        // Arrivals every millisecond; completions in bursts of 8 every 8 ms.
        let xs: Vec<f64> = (0..800).map(|i| f64::from(i) * 1e-3).collect();
        let bursty = |growth: f64| -> Vec<f64> {
            xs.iter()
                .map(|&t| {
                    let done = ((t * 1e3 / 8.0).floor() + 1.0) * 8e-3;
                    done - t + 0.01 + growth * t
                })
                .collect()
        };
        assert!(slope(&xs, &bursty(0.0)).abs() < 1e-3);
        assert!((slope(&xs, &bursty(0.25)) - 0.25).abs() < 1e-3);
        assert_eq!(slope(&[1.0, 1.0], &[2.0, 5.0]), 0.0);
        assert_eq!(slope(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
