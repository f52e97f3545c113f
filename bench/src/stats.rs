//! The statistics every reported number goes through: each step's
//! fastest time over the reps, medians, nearest-rank percentiles that
//! refuse thin tails, the contract's quartiles, and the closure
//! arithmetic of the per-layer ledger.

/// How many samples must lie beyond a reported percentile. Below this a
/// tail value is one scheduler hiccup, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN — every caller passes measured
/// durations or counts, so either is a bug in the benchmark.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Each step's fastest time over the reps: the element-wise minimum.
///
/// Every rep of a pass does the same work step for step (same seed,
/// same bytes out), so what differs between reps is interference, and
/// on the reference box interference only ever adds time: neighbours
/// on the host slow a memory-bound pass by up to 45 % for seconds at a
/// stretch, while a cache-resident loop beside it holds steady. The
/// minimum over reps is therefore the steadiest estimate of what a step
/// costs; a median still carries the neighbours.
///
/// # Panics
///
/// Panics when there is no rep or the reps differ in length — they ran
/// different work, which is a bug in the benchmark.
pub fn fastest<R: AsRef<[f64]>>(reps: impl IntoIterator<Item = R>) -> Vec<f64> {
    let mut reps = reps.into_iter();
    let mut least = reps.next().expect("fastest of no reps").as_ref().to_vec();
    for rep in reps {
        let rep = rep.as_ref();
        assert_eq!(rep.len(), least.len(), "reps differ in their steps");
        for (least, &value) in least.iter_mut().zip(rep) {
            *least = least.min(value);
        }
    }
    least
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`. The
/// [`fastest`] steps of several reps count once each: the reps repeat
/// the same steps, they are not further samples of the distribution.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_BEYOND`] samples lie beyond the
/// returned rank: the caller must measure more steps or report a lower
/// percentile instead.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize; // 1-based
    let beyond = n.saturating_sub(rank);
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; need at least {MIN_BEYOND}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Ok(sorted[rank - 1])
}

/// The quartiles of `values`, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the benchmark
/// contract's spread is the distance between the outer two).
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let n = values.len();
    assert!(n >= 2, "quartiles of fewer than two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The share of `wall` that `parts` leave unexplained:
/// `1 − Σ parts ÷ wall`. Negative when the parts overlap or were
/// measured on a slower pass than `wall`.
pub fn unattributed_share(parts: &[f64], wall: f64) -> f64 {
    assert!(wall > 0.0, "closure over a zero wall");
    1.0 - parts.iter().sum::<f64>() / wall
}

/// The ledger closes when the layers explain the traced wall to within
/// this window; outside it a layer is missing or double-counted.
pub const CLOSURE_WINDOW: (f64, f64) = (-0.05, 0.10);

/// `true` if `share` lies inside [`CLOSURE_WINDOW`].
pub fn closes(share: f64) -> bool {
    (CLOSURE_WINDOW.0..=CLOSURE_WINDOW.1).contains(&share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_is_the_element_wise_minimum() {
        let reps = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 2.0, 4.5],
        ];
        assert_eq!(fastest(&reps), [2.0, 1.0, 4.5]);
        assert_eq!(fastest(&reps[..1]), reps[0]);
    }

    #[test]
    #[should_panic(expected = "reps differ")]
    fn fastest_refuses_reps_of_different_work() {
        fastest([vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0).unwrap(), 50.0);
        assert_eq!(percentile(&samples, 90.0).unwrap(), 90.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p90 of 99 samples: rank 90, 9 beyond → refused; 100 → 10 beyond.
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = percentile(&samples, 90.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&samples, 90.0).is_ok());
        // p99 needs 1000 samples, p50 needs 20.
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&samples, 99.0).is_err());
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0).unwrap(), 990.0);
        assert!(percentile(&[1.0; 19], 50.0).is_err());
        assert!(percentile(&[1.0; 20], 50.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
        // The smallest workload's 41 epoch gaps carry p75 and no more.
        let gaps: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!(percentile(&gaps, 75.0).unwrap(), 31.0);
        assert!(percentile(&gaps, 76.0).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let values: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        assert_eq!(quartiles(&values), [3.5, 24.0, 160.0]);
        // statistics.quantiles([3, 1], n=4) extrapolates past both ends.
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
    }

    #[test]
    fn closure_arithmetic() {
        let share = unattributed_share(&[0.4, 0.3, 0.2], 1.0);
        assert!((share - 0.1).abs() < 1e-12);
        assert!(closes(share - 1e-9));
        assert!(!closes(0.11));
        // Parts measured slower than the wall overshoot it.
        let over = unattributed_share(&[0.6, 0.46], 1.0);
        assert!((over + 0.06).abs() < 1e-12);
        assert!(!closes(over));
        assert!(closes(-0.05) && closes(0.0) && closes(0.10));
    }
}
