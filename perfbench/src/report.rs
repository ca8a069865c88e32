//! Percentiles and the result line.

use std::fmt::Write as _;

/// The value at quantile `q` of `sorted` (nearest rank); 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5)
}

/// The tail a sample supports: the 99th percentile, or the highest
/// percentile that still has at least ten samples beyond it when there are
/// fewer than a thousand.  Returns `(value, percentile)`.
pub fn tail(sorted: &[u64]) -> (u64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0, 0.0);
    }
    let p99 = ((0.99 * n as f64).ceil() as usize).max(1) - 1;
    let index = if n > 10 { p99.min(n - 11) } else { n - 1 };
    (sorted[index], (index + 1) as f64 / n as f64 * 100.0)
}

/// Requests per slice of the open phase that [`sliced_tail`] takes a tail
/// over: enough for a true 99th percentile.
pub const TAIL_SLICE: usize = 1000;

/// The open-phase tail: `samples` (in sending order) are cut into
/// consecutive slices of at least [`TAIL_SLICE`] requests, the [`tail`] of
/// each slice is taken, and the median over slices is reported, so one
/// stall of the host moves it little.  With fewer than two slices' worth of
/// samples this is the plain [`tail`].  Returns `(value, percentile,
/// slices)`.
pub fn sliced_tail(samples: &[u64]) -> (f64, f64, usize) {
    let slices = (samples.len() / TAIL_SLICE).max(1);
    let len = samples.len() / slices;
    let mut tails: Vec<(u64, f64)> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                samples.len()
            } else {
                (i + 1) * len
            };
            let mut slice = samples[i * len..end].to_vec();
            slice.sort_unstable();
            tail(&slice)
        })
        .collect();
    tails.sort_by_key(|&(value, _)| value);
    let mid = tails.len() / 2;
    let (value, pct) = if tails.len() % 2 == 1 {
        (tails[mid].0 as f64, tails[mid].1)
    } else {
        (
            (tails[mid - 1].0 + tails[mid].0) as f64 / 2.0,
            (tails[mid - 1].1 + tails[mid].1) / 2.0,
        )
    };
    (value, pct, slices)
}

/// Median of unsorted durations given in nanoseconds, in microseconds.
pub fn median_us(samples_ns: &[u64]) -> f64 {
    median(samples_ns) as f64 / 1e3
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The last line of a run: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&thousand), (990, 99.0));
        let three_hundred: Vec<u64> = (1..=300).collect();
        let (value, pct) = tail(&three_hundred);
        assert_eq!(value, 290, "exactly ten samples lie beyond it");
        assert!((pct - 96.666).abs() < 0.01);
        assert_eq!(quantile(&thousand, 0.5), 500);
        assert_eq!(median(&[5, 1, 3]), 3);
    }

    #[test]
    fn sliced_tail_takes_the_median_slice() {
        // Three slices of 1000; one has a stall that fills its tail.
        let mut samples: Vec<u64> = (0..3000).map(|i| 100 + i % 1000).collect();
        for s in &mut samples[1000..1100] {
            *s = 1_000_000;
        }
        let (value, pct, slices) = sliced_tail(&samples);
        assert_eq!((value, slices), (1089.0, 3));
        assert_eq!(pct, 99.0);
        let few: Vec<u64> = (1..=300).collect();
        assert_eq!(sliced_tail(&few), (290.0, tail(&few).1, 1));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[metric("a_ms", 1.25, "ms"), metric("b", 2.0, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
