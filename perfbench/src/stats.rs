//! Summary statistics over latency samples.

/// A tail percentile needs at least this many samples strictly beyond
/// its rank before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median with midpoint interpolation (Python's `statistics.median`).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The nearest-rank `p`-th percentile (`0 < p < 1`), or `Err` with the
/// number of samples beyond it when fewer than [`MIN_TAIL_SAMPLES`]
/// lie strictly above its rank: a tail figure read off a handful of
/// samples is one sample, not a percentile.
pub fn tail_percentile(xs: &[f64], p: f64) -> Result<f64, usize> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1)");
    let n = xs.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return Err(beyond);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_refuses_short_tails() {
        // p95 of 199 samples: rank 190, 9 beyond — refused.
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95), Err(9));
        // 200 samples: rank 190, exactly 10 beyond — reported.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.95), Ok(190.0));
        assert_eq!(tail_percentile(&[], 0.95), Err(0));
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=400).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 0.95), Ok(380.0));
        assert_eq!(tail_percentile(&xs, 0.5), Ok(200.0));
    }
}
