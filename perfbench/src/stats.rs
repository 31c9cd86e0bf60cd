//! Timing and the order statistics every metric the benchmark reports
//! is taken with.

use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` and returns its result with the seconds it took.
pub fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated
/// between the two nearest ranks; `None` when `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The median of a mix of kinds of sample: each kind's median, averaged
/// with the kind's share of the samples as its weight; `None` when there
/// are no samples. Unlike the median of all samples pooled, it moves
/// smoothly when one kind gets slower, instead of jumping from one
/// kind's cluster to the next wherever the mix's cumulative share
/// crosses one half.
pub fn mix_median<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> Option<f64> {
    let mut kinds: BTreeMap<K, Vec<f64>> = BTreeMap::new();
    for (kind, value) in samples {
        kinds.entry(kind).or_default().push(value);
    }
    let count: usize = kinds.values().map(Vec::len).sum();
    let weighted: f64 = kinds
        .values()
        .map(|v| v.len() as f64 * median(v).unwrap_or(0.0))
        .sum();
    (count > 0).then(|| weighted / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(11.0));
        assert_eq!(quantile(&v, 0.9), Some(10.0));
        assert_eq!(quantile(&v, 0.25), Some(3.5));
        let pair = [10.0, 20.0];
        assert_eq!(quantile(&pair, 0.99), Some(19.9));
    }

    #[test]
    fn mix_median_weights_each_kinds_median_by_its_count() {
        // Kind 0: median 10 over three samples; kind 1: median 100 over one.
        let mix = [(0, 9.0), (1, 100.0), (0, 10.0), (0, 50.0)];
        assert_eq!(mix_median(mix), Some((3.0 * 10.0 + 100.0) / 4.0));
        assert_eq!(mix_median([("a", 4.0), ("a", 2.0)]), median(&[4.0, 2.0]));
        assert_eq!(mix_median(Vec::<(u8, f64)>::new()), None);
    }

    #[test]
    fn quantile_ignores_input_order() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for q in [0.1, 0.5, 0.75, 0.99] {
            assert_eq!(quantile(&a, q), quantile(&b, q));
        }
    }
}
