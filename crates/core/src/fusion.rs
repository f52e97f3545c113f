//! Future-knowledge fusion (Equation 2).
//!
//! `Ψ^ν = (1 − β)·Ψ^ν_h + β·Ψ^ν_e` fuses the historical distribution
//! with the client's expected-future distribution, weighted by the
//! client's confidence `β` in its future knowledge.
//!
//! The two inputs are normalised to unit mass before fusing. Raw
//! interaction *counts* would make the fusion degenerate — a client with
//! months of history and one epoch of expectations would drown the
//! future term no matter the β — while the Potential (Equation 4) is
//! scale-invariant in Ψ, so normalisation changes no decision for pure
//! histories (β ∈ {0, 1}) and makes β meaningful in between.

/// Fuses historical and expected interaction distributions.
///
/// Either input may be all-zero (no history / no expectations); the
/// other side then carries full weight. If both are zero the result is
/// the zero vector (the "new account" case — Pilot falls back to the
/// workload term).
///
/// # Panics
///
/// Panics if the vectors have different lengths or `β ∉ [0, 1]`.
pub fn fuse(psi_h: &[f64], psi_e: &[f64], beta: f64) -> Vec<f64> {
    assert_eq!(psi_h.len(), psi_e.len(), "Ψ_h and Ψ_e length mismatch");
    assert!(
        (0.0..=1.0).contains(&beta),
        "beta must be in [0,1], got {beta}"
    );
    let h = normalize(psi_h);
    let e = normalize(psi_e);
    match (h, e) {
        (Some(h), Some(e)) => h
            .iter()
            .zip(&e)
            .map(|(a, b)| (1.0 - beta) * a + beta * b)
            .collect(),
        (Some(h), None) => h,
        (None, Some(e)) => e,
        (None, None) => vec![0.0; psi_h.len()],
    }
}

/// [`fuse`] in place over `psi` (holding `Ψ_h` on entry, `Ψ` on exit)
/// for callers that score many clients from reused buffers. The float
/// expressions are exactly [`fuse`]'s, so the result is bit-identical
/// (proptested below). `psi_e = None` means a client without
/// expectations and fuses like the all-zero `Ψ_e`; `β` is not
/// re-validated per call.
pub(crate) fn fuse_in_place(psi: &mut [f64], psi_e: Option<&[f64]>, beta: f64) {
    let total_h: f64 = psi.iter().sum();
    let expected = psi_e.and_then(|e| {
        let total_e: f64 = e.iter().sum();
        (total_e > 0.0).then_some((e, total_e))
    });
    match (total_h > 0.0, expected) {
        (true, Some((e, total_e))) => {
            for (h, e) in psi.iter_mut().zip(e) {
                *h = (1.0 - beta) * (*h / total_h) + beta * (e / total_e);
            }
        }
        (true, None) => psi.iter_mut().for_each(|h| *h /= total_h),
        (false, Some((e, total_e))) => {
            for (h, e) in psi.iter_mut().zip(e) {
                *h = e / total_e;
            }
        }
        // No signal on either side: `psi` is already the zero vector.
        (false, None) => {}
    }
}

/// Normalises to unit mass; `None` if the vector is all-zero.
fn normalize(v: &[f64]) -> Option<Vec<f64>> {
    let total: f64 = v.iter().sum();
    if total <= 0.0 {
        None
    } else {
        Some(v.iter().map(|x| x / total).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn beta_zero_is_pure_history() {
        let fused = fuse(&[3.0, 1.0], &[0.0, 10.0], 0.0);
        assert_eq!(fused, vec![0.75, 0.25]);
    }

    #[test]
    fn beta_one_is_pure_expectation() {
        let fused = fuse(&[3.0, 1.0], &[0.0, 10.0], 1.0);
        assert_eq!(fused, vec![0.0, 1.0]);
    }

    #[test]
    fn intermediate_beta_blends() {
        let fused = fuse(&[1.0, 0.0], &[0.0, 1.0], 0.25);
        assert_eq!(fused, vec![0.75, 0.25]);
    }

    #[test]
    fn missing_side_carries_full_weight() {
        assert_eq!(fuse(&[2.0, 2.0], &[0.0, 0.0], 0.9), vec![0.5, 0.5]);
        assert_eq!(fuse(&[0.0, 0.0], &[1.0, 3.0], 0.1), vec![0.25, 0.75]);
        assert_eq!(fuse(&[0.0, 0.0], &[0.0, 0.0], 0.5), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = fuse(&[1.0], &[1.0, 2.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_panics() {
        let _ = fuse(&[1.0], &[1.0], 1.5);
    }

    proptest! {
        /// The in-place form agrees with [`fuse`] to the bit, including
        /// when either side (or both) carries no mass, and treats a
        /// missing `Ψ_e` as the zero vector.
        #[test]
        fn prop_in_place_is_bit_identical(
            h in proptest::collection::vec(0u32..50, 5),
            e in proptest::collection::vec(0u32..50, 5),
            zero_h in any::<bool>(),
            zero_e in any::<bool>(),
            beta in 0.0f64..=1.0,
        ) {
            let side = |v: &[u32], zero: bool| -> Vec<f64> {
                v.iter().map(|&x| if zero { 0.0 } else { f64::from(x) }).collect()
            };
            let (h, e) = (side(&h, zero_h), side(&e, zero_e));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

            let mut fused = h.clone();
            fuse_in_place(&mut fused, Some(&e), beta);
            prop_assert_eq!(bits(&fused), bits(&fuse(&h, &e, beta)));

            let mut alone = h.clone();
            fuse_in_place(&mut alone, None, beta);
            prop_assert_eq!(bits(&alone), bits(&fuse(&h, &[0.0; 5], beta)));
        }

        /// The fused vector is a probability distribution whenever either
        /// input has mass.
        #[test]
        fn prop_fused_is_distribution(
            h in proptest::collection::vec(0.0f64..100.0, 4),
            e in proptest::collection::vec(0.0f64..100.0, 4),
            beta in 0.0f64..=1.0,
        ) {
            let fused = fuse(&h, &e, beta);
            let mass: f64 = fused.iter().sum();
            let has_input = h.iter().sum::<f64>() > 0.0 || e.iter().sum::<f64>() > 0.0;
            if has_input {
                prop_assert!((mass - 1.0).abs() < 1e-9, "mass = {mass}");
            } else {
                prop_assert_eq!(mass, 0.0);
            }
            prop_assert!(fused.iter().all(|&x| x >= 0.0));
        }
    }
}
