//! Order statistics for the reported metrics.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. Returns `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond that rank, so a tail figure is never read off a
/// handful of points.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100), got {p}");
    let n = samples.len();
    // p·n before the division: (90 / 100) · 100 rounds above 90 in f64.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
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

    #[test]
    fn nearest_rank_picks_a_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        // Rank ceil(0.8950 * 100) = 90: no interpolation between 89 and 90.
        assert_eq!(percentile(&samples, 89.5), Some(90.0));
    }

    #[test]
    fn refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&hundred, 90.0).is_some(), "exactly ten beyond");
        let ninety_nine = &hundred[..99];
        assert_eq!(percentile(ninety_nine, 90.0), None, "nine beyond");
        assert_eq!(percentile(&hundred[..19], 50.0), None);
        assert!(percentile(&hundred[..20], 50.0).is_some());
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
