//! Order statistics over latency samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between closest
/// ranks; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Split `values` (in the order they were measured) into `batches` consecutive runs of
/// near-equal length and return `statistic` of each.
pub fn per_batch(values: &[f64], batches: usize, statistic: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let batches = batches.clamp(1, values.len().max(1));
    (0..batches)
        .map(|b| statistic(&values[b * values.len() / batches..(b + 1) * values.len() / batches]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }
}
