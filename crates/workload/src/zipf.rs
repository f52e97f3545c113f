//! Zipf-distributed rank sampling.
//!
//! Account activity in Ethereum is famously heavy-tailed: the busiest
//! accounts (exchanges, token contracts) send or receive orders of magnitude
//! more transactions than the median account. A Zipf law with exponent
//! around 0.8–1.2 is the standard model. This sampler draws ranks
//! `1..=n` with `P(rank = r) ∝ r^(−s)` by inverting a precomputed CDF.

use std::ops::Range;

use rand::Rng;

/// Table-based Zipf sampler over ranks `0..n` (zero-based).
///
/// Construction is `O(n)` time and memory. Sampling inverts the
/// cumulative table. Below 2^13 ranks it searches the whole table; from
/// there on it searches through a guide table (Chen & Asau's indexed
/// search): `guide[j]` is the first rank whose cumulative mass reaches
/// `j / m`, for `m` the largest power of two at most `n / 4`. A draw `u`
/// lands in bucket `j = ⌊u·m⌋`, and
/// the binary search runs only over the ranks between `guide[j]` and
/// `guide[j + 1]`: one guide slot and a few cumulative-table lines
/// instead of `log2 n` probes across a table that no longer fits in
/// cache. Scaling by a power of two is exact in binary floating point,
/// so the rank is exactly the one a search over the whole table returns.
/// Memory is the 8-byte cumulative entry per rank plus at most one byte
/// per rank of `u32` guide.
///
/// Inside the crate a draw's search comes in two halves, the guide slot
/// (`bucket`) and the cumulative-table search (`search`), so that the
/// trace generator can do the first for a whole run of draws before the
/// second and overlap their cache misses (see
/// [`GeneratedStream`](crate::GeneratedStream)).
///
/// # Example
///
/// ```
/// use mosaic_workload::ZipfSampler;
/// use rand::SeedableRng;
///
/// let zipf = ZipfSampler::new(100, 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// cdf[r] = P(rank <= r), monotonically nondecreasing, last entry 1.0.
    cdf: Vec<f64>,
    /// `m + 1` entries, guide[j] = first rank with `cdf >= j / m`; empty
    /// below [`GUIDED_RANKS`] ranks.
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s ≥ 0`.
    ///
    /// `s = 0` degenerates to the uniform distribution; larger `s` puts
    /// more mass on low ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 2^32` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one rank");
        assert!(
            n - 1 <= u32::MAX as usize,
            "zipf sampler supports at most 2^32 ranks"
        );
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let guide = if n >= GUIDED_RANKS {
            guide_table(&cdf)
        } else {
            Vec::new()
        };
        ZipfSampler { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always `false`: construction guarantees at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether draws search through a guide (tables from
    /// [`GUIDED_RANKS`] ranks on), i.e. the table is large enough that a
    /// draw's reads miss the cache.
    pub(crate) fn guided(&self) -> bool {
        !self.guide.is_empty()
    }

    /// Draws a zero-based rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose cumulative mass reaches `u ∈ [0, 1)`.
    pub(crate) fn rank_of(&self, u: f64) -> usize {
        self.search(u, self.bucket(u))
    }

    /// The first half of [`ZipfSampler::rank_of`]: the ranks `u`'s answer
    /// lies in, read from the guide alone. With a guide it is `u`'s
    /// bucket: `j / m ≤ u < (j + 1) / m` holds exactly, so the rank lies
    /// in `[guide[j], guide[j + 1]]`. Without one it is the whole table
    /// (its last rank is the answer whenever no earlier one is).
    ///
    /// Split from [`ZipfSampler::search`] so that a caller drawing many
    /// ranks can read every draw's guide slot before any draw's
    /// cumulative-table lines: the loads of one pass do not wait on each
    /// other, so their cache misses overlap.
    pub(crate) fn bucket(&self, u: f64) -> Range<usize> {
        if self.guide.is_empty() {
            return 0..self.cdf.len() - 1;
        }
        let buckets = self.guide.len() - 1;
        let j = ((u * buckets as f64) as usize).min(buckets - 1);
        self.guide[j] as usize..self.guide[j + 1] as usize
    }

    /// The second half of [`ZipfSampler::rank_of`]: the binary search of
    /// the cumulative table over `u`'s [`ZipfSampler::bucket`]. Debug
    /// builds check every answer against the search over the whole
    /// table.
    pub(crate) fn search(&self, u: f64, bucket: Range<usize>) -> usize {
        let rank = bucket.start + self.cdf[bucket].partition_point(|&c| c < u);
        debug_assert_eq!(rank, self.full_search(u), "guided search at u = {u}");
        rank
    }

    /// The search over the whole table, which [`ZipfSampler::rank_of`]
    /// must agree with.
    fn full_search(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Tables from this many ranks on (64 KiB of cumulative table) are
/// searched through a guide. Below it the whole table stays in cache and
/// the full search, whose depth is the same on every draw, beats the
/// guided one, whose bucket widths vary and so mispredict its loop exit
/// (on x86-64 the two cross between 8k and 10k ranks).
const GUIDED_RANKS: usize = 1 << 13;

/// The guide over `cdf`: `m + 1` entries for `m` the largest power of two
/// at most `cdf.len() / 4` (at least 1), `guide[j]` = the first rank with
/// `cdf >= j / m`. The thresholds are exact, and `cdf`'s last entry 1.0
/// reaches every one of them, so the scan never runs off the table.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    let buckets = 1usize << (cdf.len() / 4).max(1).ilog2();
    let mut guide = Vec::with_capacity(buckets + 1);
    let mut rank = 0usize;
    for j in 0..=buckets {
        let threshold = j as f64 / buckets as f64;
        while cdf[rank] < threshold {
            rank += 1;
        }
        guide.push(rank as u32);
    }
    guide
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EXPONENTS: [f64; 4] = [0.0, 0.8, 1.2, 4.0];

    /// A sampler that searches through a guide at any size, so the
    /// guided search is checked on tables too small to get one.
    fn guided(n: usize, s: f64) -> ZipfSampler {
        let mut z = ZipfSampler::new(n, s);
        z.guide = guide_table(&z.cdf);
        z
    }

    /// Every bucket threshold `j / m` and its two `f64` neighbours that
    /// a draw can take (inside `[0, 1)`).
    fn thresholds(z: &ZipfSampler) -> impl Iterator<Item = f64> {
        let m = z.guide.len() - 1;
        (0..=m)
            .flat_map(move |j| {
                let t = j as f64 / m as f64;
                [t.next_down(), t, t.next_up()]
            })
            .filter(|u| (0.0..1.0).contains(u))
    }

    /// Probability mass of rank `r`.
    fn pmf(z: &ZipfSampler, r: usize) -> f64 {
        if r == 0 {
            z.cdf[0]
        } else {
            z.cdf[r] - z.cdf[r - 1]
        }
    }

    fn assert_guided_exact(z: &ZipfSampler, s: f64, draws: impl IntoIterator<Item = f64>) {
        for u in draws.into_iter().chain(thresholds(z)) {
            assert_eq!(
                z.rank_of(u),
                z.full_search(u),
                "n = {}, s = {}, u = {u:e}",
                z.len(),
                s
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn guided_rank_is_the_full_search_rank(
            n in 1usize..=5000,
            s in 0usize..EXPONENTS.len(),
            bits in vec(any::<u64>(), 0..128),
        ) {
            // Each word read as a draw of `Rng::gen` and as the bit
            // pattern of an arbitrary f64 in [0, 1), subnormals included.
            let draws = bits.into_iter().flat_map(|x| {
                [
                    (x >> 11) as f64 / (1u64 << 53) as f64,
                    f64::from_bits(x % 1.0f64.to_bits()),
                ]
            });
            assert_guided_exact(&guided(n, EXPONENTS[s]), EXPONENTS[s], draws);
        }
    }

    #[test]
    fn guided_rank_is_exact_for_small_tables() {
        for n in 1..=64 {
            for s in EXPONENTS {
                assert_guided_exact(&guided(n, s), s, []);
            }
        }
    }

    /// Past 2^20 ranks, where the guide holds 2^18 buckets and a bucket in
    /// the tail spans dozens of ranks.
    #[test]
    fn guided_rank_is_exact_at_a_million_ranks() {
        let mut rng = StdRng::seed_from_u64(20);
        for n in [1 << 20, (1 << 20) + 1, 1_500_007] {
            for s in EXPONENTS {
                let z = ZipfSampler::new(n, s);
                let draws: Vec<f64> = (0..10_000).map(|_| rng.gen()).collect();
                assert_guided_exact(&z, s, draws);
            }
        }
    }

    #[test]
    fn guide_costs_at_most_one_byte_per_rank() {
        for n in [1, 3, 4, 7, 8, 100, GUIDED_RANKS - 1] {
            assert!(ZipfSampler::new(n, 0.8).guide.is_empty(), "n = {n}");
        }
        for n in [GUIDED_RANKS, GUIDED_RANKS * 3 + 5, 1 << 20, 1_000_000] {
            let z = ZipfSampler::new(n, 0.8);
            let m = z.guide.len() - 1;
            assert!(m.is_power_of_two(), "n = {n}: m = {m}");
            assert!(4 * m <= n && 8 * m > n, "n = {n}: m = {m}");
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfSampler::new(50, 1.2);
        let total: f64 = (0..50).map(|r| pmf(&z, r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn uniform_when_exponent_zero() {
        let z = ZipfSampler::new(10, 0.0);
        for r in 0..10 {
            assert!((pmf(&z, r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn low_ranks_dominate_with_positive_exponent() {
        let z = ZipfSampler::new(1000, 1.0);
        assert!(pmf(&z, 0) > pmf(&z, 1));
        assert!(pmf(&z, 1) > pmf(&z, 10));
        assert!(pmf(&z, 10) > pmf(&z, 999));
    }

    #[test]
    fn empirical_frequency_tracks_pmf() {
        let z = ZipfSampler::new(20, 1.0);
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let expected = pmf(&z, r) * n as f64;
            let got = count as f64;
            // 5-sigma-ish tolerance on a multinomial cell.
            let sigma = (expected.max(1.0)).sqrt();
            assert!(
                (got - expected).abs() < 6.0 * sigma + 10.0,
                "rank {r}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = ZipfSampler::new(1, 1.5);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let z = ZipfSampler::new(100, 0.9);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
