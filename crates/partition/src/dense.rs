//! Reusable dense scratch for the per-node histograms of G-TxAllo's
//! community sweep and Metis's refinement.

/// A weighted histogram over ids `< n`, accumulated into one `Vec`
/// indexed by id plus the list of ids touched since the last drain.
///
/// G-TxAllo's community detection builds one small histogram per node
/// (connectivity per neighbouring community, as `u64` edge-weight sums)
/// tens of thousands of times per allocation, and every key is a
/// community id, i.e. a node id below the node count; Metis's
/// refinement does the same over part ids. Indexing replaces hashing,
/// and [`DenseHistogram::drain`] re-zeroes only the slots it
/// reads out, so one instance serves a whole sweep with no clearing
/// pass and no allocation. Integer totals do not depend on the order of
/// the adds, and the entries come out in first-touch order, so a caller
/// that must not depend on its neighbours' order compares entries under
/// a total order, not by position.
///
/// [`DenseHistogram::add_all`] sizes the touched list to the number of
/// adds up front, then writes every id into the next free place and
/// advances past it only if the id's slot was zero: one store and one
/// add per entry, and no branch on whether the id is new. A zero slot
/// *means* untouched, so a zero weight may list an id twice or with a
/// zero total; [`DenseHistogram::drain`] skips every read-out total of
/// zero, so each id with a positive total comes out exactly once and an
/// id that only ever received zero weights not at all.
#[derive(Debug, Clone)]
pub struct DenseHistogram {
    slot: Vec<u64>,
    touched: Vec<u32>,
    len: usize,
}

impl DenseHistogram {
    /// An empty histogram over ids `0..n`.
    pub fn new(n: usize) -> Self {
        DenseHistogram {
            slot: vec![0; n],
            touched: Vec::new(),
            len: 0,
        }
    }

    /// Adds each `(id, w)` to `id`'s total.
    ///
    /// # Panics
    ///
    /// Panics if an `id >= n`.
    #[inline]
    pub fn add_all(&mut self, entries: impl ExactSizeIterator<Item = (u32, u64)>) {
        let need = self.len + entries.len();
        if self.touched.len() < need {
            self.touched.resize(need, 0);
        }
        let touched = &mut self.touched[..need];
        let mut len = self.len;
        for (id, w) in entries {
            let slot = &mut self.slot[id as usize];
            touched[len] = id;
            len += usize::from(*slot == 0);
            *slot += w;
        }
        self.len = len;
    }

    /// Hands every `(id, total)` with a positive total to `f` in
    /// first-touch order and resets the histogram to empty.
    #[inline]
    pub fn drain(&mut self, mut f: impl FnMut(u32, u64)) {
        for &id in &self.touched[..self.len] {
            let total = std::mem::take(&mut self.slot[id as usize]);
            if total != 0 {
                f(id, total);
            }
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(h: &mut DenseHistogram) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        h.drain(|id, w| out.push((id, w)));
        out
    }

    #[test]
    fn accumulates_per_id_and_resets_on_drain() {
        let mut h = DenseHistogram::new(8);
        h.add_all([(5, 2), (1, 3), (5, 4)].into_iter());
        h.add_all([(7, 1), (1, 1)].into_iter());
        assert_eq!(drained(&mut h), vec![(5, 6), (1, 4), (7, 1)]);

        // Drained slots are empty again: the next node starts clean.
        h.add_all([(5, 1)].into_iter());
        assert_eq!(drained(&mut h), vec![(5, 1)]);
        assert!(drained(&mut h).is_empty());
    }

    #[test]
    fn zero_weights_never_duplicate_an_id() {
        let mut h = DenseHistogram::new(4);
        h.add_all([(2, 0), (2, 3), (2, 0), (3, 0), (2, 1)].into_iter());
        assert_eq!(drained(&mut h), vec![(2, 4)]);
        assert!(drained(&mut h).is_empty());
    }
}
