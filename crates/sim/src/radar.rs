//! Figure 1's `[1, 5]` scale: "the maximum and minimum values across
//! all dimensions are normalized to 5 and 1, respectively", with
//! efficiency the reciprocal of overhead (the paper's footnote 3).

/// Maps raw *higher-is-better* values linearly to `[1, 5]`: max → 5,
/// min → 1; all-equal values map to 3.
pub(crate) fn normalise(values: [f64; 3]) -> [f64; 3] {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max <= min {
        return [3.0; 3];
    }
    values.map(|v| 1.0 + 4.0 * (v - min) / (max - min))
}

/// Inverts overheads (lower is better) into efficiencies.
///
/// # Panics
///
/// Panics if any overhead is not strictly positive.
pub(crate) fn efficiency(overheads: [f64; 3]) -> [f64; 3] {
    assert!(
        overheads.iter().all(|&v| v > 0.0),
        "overheads must be positive to invert"
    );
    overheads.map(|v| 1.0 / v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_1_5_range() {
        assert_eq!(normalise([10.0, 20.0, 30.0]), [1.0, 3.0, 5.0]);
    }

    #[test]
    fn equal_values_map_to_midpoint() {
        assert_eq!(normalise([7.0, 7.0, 7.0]), [3.0; 3]);
    }

    #[test]
    fn reciprocal_orientation() {
        // Overheads 1 and 4: efficiencies 1.0 and 0.25 -> 5 and 1.
        assert_eq!(normalise(efficiency([1.0, 4.0, 4.0])), [5.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_overhead_panics() {
        let _ = efficiency([0.0, 1.0, 1.0]);
    }
}
