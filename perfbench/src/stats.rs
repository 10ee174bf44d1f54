//! Order statistics over measured samples.

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the
/// smallest sample with at least `p`% of all samples at or below it.
/// `None` on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Nearest-rank median (0 on an empty slice).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Samples strictly above the nearest-rank `p`th percentile — the
/// support a reported tail percentile has.
#[must_use]
pub fn beyond(samples: &[f64], p: f64) -> usize {
    percentile(samples, p).map_or(0, |v| samples.iter().filter(|&&s| s > v).count())
}

/// Arithmetic mean (0 on an empty slice).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_examples() {
        // The classic five-sample example: 15, 20, 35, 40, 50.
        let s = [35.0, 20.0, 15.0, 50.0, 40.0];
        assert_eq!(percentile(&s, 5.0), Some(15.0));
        assert_eq!(percentile(&s, 30.0), Some(20.0));
        assert_eq!(percentile(&s, 40.0), Some(20.0));
        assert_eq!(percentile(&s, 50.0), Some(35.0));
        assert_eq!(percentile(&s, 100.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p95_of_two_hundred_samples_leaves_ten_beyond() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), Some(190.0));
        assert_eq!(beyond(&s, 95.0), 10);
        assert_eq!(median(&s), 100.0);
    }

    #[test]
    fn mean_and_ratio_guard_empty_input() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
