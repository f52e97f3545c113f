//! Reusable dense scratch for the per-node histograms of G-TxAllo's
//! community sweep.

use std::ops::AddAssign;

/// A weighted histogram over ids `< n`, accumulated into one `Vec`
/// indexed by id plus the list of ids touched since the last drain.
///
/// G-TxAllo's community detection builds one small histogram per node
/// (connectivity per neighbouring community, as `u64` edge-weight sums)
/// tens of thousands of times per allocation, and every key is a
/// community id, i.e. a node id below the node count. Indexing replaces
/// hashing, and [`DenseHistogram::drain_into`] re-zeroes only the slots
/// it reads out, so one instance serves a whole sweep with no clearing
/// pass and no allocation. Integer totals do not depend on the order of
/// the `add` calls, and the entries come out in first-touch order, so a
/// caller that must not depend on its neighbours' order compares
/// entries under a total order, not by position.
///
/// A slot equal to `W::default()` (zero) *means* untouched, so weights
/// must not be negative, and an id that only ever received zero weights
/// has no entry (graph edge weights are strictly positive).
#[derive(Debug, Clone)]
pub struct DenseHistogram<W> {
    slot: Vec<W>,
    touched: Vec<u32>,
}

impl<W: Copy + Default + PartialEq + AddAssign> DenseHistogram<W> {
    /// An empty histogram over ids `0..n`.
    pub fn new(n: usize) -> Self {
        DenseHistogram {
            slot: vec![W::default(); n],
            touched: Vec::new(),
        }
    }

    /// Adds `w` to `id`'s total. Per id, totals accumulate in call
    /// order, so a float histogram sums exactly as a map keyed by id
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `id >= n`.
    #[inline]
    pub fn add(&mut self, id: u32, w: W) {
        let slot = &mut self.slot[id as usize];
        if *slot == W::default() {
            if w == W::default() {
                return;
            }
            self.touched.push(id);
        }
        *slot += w;
    }

    /// Appends every `(id, total)` onto `out` in first-touch order and
    /// resets the histogram to empty.
    pub fn drain_into(&mut self, out: &mut Vec<(u32, W)>) {
        for id in self.touched.drain(..) {
            out.push((id, std::mem::take(&mut self.slot[id as usize])));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_id_and_resets_on_drain() {
        let mut h = DenseHistogram::<u64>::new(8);
        for (id, w) in [(5, 2), (1, 3), (5, 4), (7, 1), (1, 1)] {
            h.add(id, w);
        }
        let mut out = vec![(99, 99)];
        h.drain_into(&mut out);
        assert_eq!(out, vec![(99, 99), (5, 6), (1, 4), (7, 1)]);

        // Drained slots are empty again: the next node starts clean.
        h.add(5, 1);
        out.clear();
        h.drain_into(&mut out);
        assert_eq!(out, vec![(5, 1)]);
        out.clear();
        h.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_weights_never_duplicate_an_id() {
        let mut h = DenseHistogram::<f64>::new(4);
        h.add(2, 0.0);
        h.add(2, 1.5);
        h.add(2, 0.0);
        h.add(3, 0.0);
        let mut out = Vec::new();
        h.drain_into(&mut out);
        assert_eq!(out, vec![(2, 1.5)]);
    }
}
