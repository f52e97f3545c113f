//! Dense account-id interning.
//!
//! Raw [`AccountId`]s are sparse `u64`s (Ethereum addresses dictionary-
//! encode to arbitrary integers, churned accounts keep growing the id
//! space). Algorithms that need per-account state over 10M+ accounts —
//! degree counting, distinct-account tracking across streamed epoch
//! windows — want a *dense* `u32` index instead, so state lives in flat
//! vectors rather than hash maps of counters: half the memory per entry
//! and cache-friendly sequential access.
//!
//! [`AccountInterner`] assigns dense ids in first-seen order (which makes
//! interning deterministic for a deterministic input order).

use crate::hash::FnvHashMap;
use crate::ids::AccountId;

/// Assigns dense `u32` ids to [`AccountId`]s in first-seen order.
///
/// # Example
///
/// ```
/// use mosaic_types::{AccountId, AccountInterner};
///
/// let mut interner = AccountInterner::new();
/// let a = interner.intern(AccountId::new(0xdead_beef));
/// let b = interner.intern(AccountId::new(7));
/// assert_eq!((a, b), (0, 1));
/// // Interning is idempotent.
/// assert_eq!(interner.intern(AccountId::new(0xdead_beef)), 0);
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccountInterner {
    map: FnvHashMap<AccountId, u32>,
}

impl AccountInterner {
    /// An empty interner.
    pub fn new() -> Self {
        AccountInterner::default()
    }

    /// Returns the dense id of `account`, assigning the next free one on
    /// first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct accounts are interned.
    pub fn intern(&mut self, account: AccountId) -> u32 {
        let next = u32::try_from(self.map.len()).expect("more than u32::MAX distinct accounts");
        *self.map.entry(account).or_insert(next)
    }

    /// The dense id of `account`, if it has been interned.
    pub fn get(&self, account: AccountId) -> Option<u32> {
        self.map.get(&account).copied()
    }

    /// Number of distinct accounts interned so far (equals the next free
    /// dense id).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no account has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut i = AccountInterner::new();
        assert!(i.is_empty());
        for (expect, raw) in [(0, 900), (1, 3), (2, 77), (1, 3), (0, 900)] {
            assert_eq!(i.intern(AccountId::new(raw)), expect);
        }
        assert_eq!(i.len(), 3);
        assert_eq!(i.get(AccountId::new(77)), Some(2));
        assert_eq!(i.get(AccountId::new(4)), None);
    }
}
