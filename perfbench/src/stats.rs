//! Order statistics over raw samples: nearest-rank percentiles with the
//! sample counts that say how much each one can be trusted.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` (0 < q ≤ 1) of all samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median and p90 of one latency population, with how many samples back
/// them: `beyond_p90` counts the samples strictly above the p90, so a p90
/// read off fewer than ten of them is visibly thin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    pub p90: u64,
    pub beyond_p90: usize,
}

/// Sorts `samples` in place and summarises them; `None` when empty.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    samples.sort_unstable();
    let p50 = percentile(samples, 0.50)?;
    let p90 = percentile(samples, 0.90)?;
    let beyond_p90 = samples.len() - samples.partition_point(|&s| s <= p90);
    Some(Summary {
        count: samples.len(),
        p50,
        p90,
        beyond_p90,
    })
}

/// Median of a few repeated measurements (mean of the middle pair when
/// the count is even).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(5));
        assert_eq!(percentile(&sorted, 0.9), Some(9));
        assert_eq!(percentile(&sorted, 0.91), Some(10));
        assert_eq!(percentile(&sorted, 1.0), Some(10));
        assert_eq!(percentile(&sorted, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.9), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_counts_samples_beyond_the_p90() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        let s = summarize(&mut samples).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!((s.p50, s.p90), (50, 90));
        assert_eq!(s.beyond_p90, 10);
        assert_eq!(samples[0], 1, "sorted in place");

        // Ties at the p90 are not "beyond" it.
        let mut flat = vec![3u64; 20];
        flat.push(9);
        let s = summarize(&mut flat).unwrap();
        assert_eq!((s.p90, s.beyond_p90), (3, 1));
        assert_eq!(summarize(&mut []), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
