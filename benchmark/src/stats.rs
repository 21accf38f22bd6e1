//! Order statistics and the small amount of arithmetic the ledger
//! reports: percentiles, median of rounds, round spread, least-squares
//! slope, history quintiles.

/// Nearest-rank percentile of an already sorted slice (`q` in 0..=1).
/// Empty input reads as 0 so a workload with no samples prints a row
/// instead of panicking; `correct` is what fails such a run.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Sort a sample in place (NaN-free by construction: all inputs are
/// measured durations or counts).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of a small set of per-round values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// (max − min) / median over rounds: how far apart the rounds of one
/// run landed.
pub fn round_spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Least-squares slope of `y` against its index, per index step.
pub fn slope(y: &[f64]) -> f64 {
    let n = y.len() as f64;
    if y.len() < 2 {
        return 0.0;
    }
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = y.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (i, v) in y.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxy += dx * (v - mean_y);
        sxx += dx * dx;
    }
    sxy / sxx
}

/// Split `n` items into five contiguous index ranges of near-equal
/// size (history quintiles of a round).
pub fn quintile_bounds(n: usize) -> [(usize, usize); 5] {
    let mut out = [(0, 0); 5];
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = (n * k / 5, n * (k + 1) / 5);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quintiles_cover_everything_once() {
        let b = quintile_bounds(13);
        assert_eq!(b[0].0, 0);
        assert_eq!(b[4].1, 13);
        for w in b.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
