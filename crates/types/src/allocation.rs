//! The account-shard mapping ϕ (Definition 1).
//!
//! Definition 1 of the paper requires ϕ to be a *total* function from
//! accounts to shards satisfying:
//!
//! * **Uniqueness** — each account belongs to exactly one shard
//!   (`A_i ∩ A_j = ∅` for `i ≠ j`);
//! * **Completeness** — every account has a shard (`A = ∪ A_i`).
//!
//! [`AccountShardMap`] guarantees uniqueness structurally (it is a map) and
//! completeness by resolving accounts without an explicit assignment through
//! a deterministic [`DefaultRule`] — hash-based allocation, exactly how
//! conventional sharded blockchains place accounts that no allocation
//! algorithm has touched yet.
//!
//! # The dense table
//!
//! ϕ is a pure function of the account, so it is resolved once per
//! account rather than once per read. Next to the explicit assignments,
//! the map keeps a `Vec<u16>` indexed by [`AccountId::as_u64`]: slot `a`
//! holds ϕ(a), or `u16::MAX` while `a` is unresolved. The sentinel never
//! collides with a shard, because a shard is `< k ≤ 65535`. The table
//! grows on demand up to [`AccountShardMap::TABLE_CAP`] ids (at most
//! 32 MiB); ids at or past the cap have no slot and always take the map +
//! rule path.
//!
//! * [`AccountShardMap::assign`] and [`AccountShardMap::migrate`] write
//!   through to the slot, and [`AccountShardMap::unassign`] clears it, so
//!   a filled slot always equals ϕ(a).
//! * [`AccountShardMap::shard_of`] (`&self`) reads the slot first and falls
//!   back to the map, then the rule; it never fills a slot.
//! * [`AccountShardMap::resolve`] (`&mut self`) does the same and fills
//!   the slot on a miss, so the next read of that account is one load.
//!
//! The table is a cache, not state: the explicit assignments stay the
//! owner of what ϕ *is*. [`AccountShardMap::assigned_len`],
//! [`AccountShardMap::iter`], the counts and the inverse see only explicit
//! assignments, and `==` and `{:?}` ignore the table, so two maps that
//! resolve every account alike compare equal whatever each has cached.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::hash::{sha256_prefix_u64, FnvHashMap};
use crate::ids::{AccountId, ShardId};

/// Deterministic rule for accounts with no explicit assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DefaultRule {
    /// `SHA256(address) mod k` — Chainspace-style (the paper's "hash-based
    /// random allocation" baseline).
    #[default]
    Sha256Mod,
    /// Monoxide-style: the first bits of `SHA256(address)` scaled to `k`
    /// shards (exact when `k` is a power of two, range-partitioned
    /// otherwise).
    Sha256FirstBits,
}

impl DefaultRule {
    /// Resolves `account` to a shard under `k` shards.
    ///
    /// The 20-byte address pads to a single SHA-256 block, so this is one
    /// compression on the stack ([`sha256_prefix_u64`]'s one-block path)
    /// and a reduction: no allocation, no hasher state, no digest bytes.
    /// Through [`AccountShardMap::resolve`] it runs once per account below
    /// [`AccountShardMap::TABLE_CAP`] — the first transaction endpoint
    /// of that account in a Random cell, or a Pilot newcomer's first
    /// read — not once per endpoint; a `LOOKUP` of an account nothing
    /// has resolved yet and every id past the cap pay it per read.
    pub fn shard_of(&self, account: AccountId, k: u16) -> ShardId {
        debug_assert!(k > 0, "shard count must be positive");
        let prefix = sha256_prefix_u64(&account.address_bytes());
        match self {
            DefaultRule::Sha256Mod => ShardId::new((prefix % u64::from(k)) as u16),
            DefaultRule::Sha256FirstBits => {
                // Map the 64-bit prefix into [0, k): equivalent to taking
                // the first log2(k) bits when k is a power of two.
                let shard = ((u128::from(prefix) * u128::from(k)) >> 64) as u16;
                ShardId::new(shard.min(k - 1))
            }
        }
    }
}

/// The account-shard mapping ϕ.
///
/// A total function `A → [0, k)`: explicitly assigned accounts resolve to
/// their assignment, all others through the [`DefaultRule`]. Every miner in
/// the paper stores exactly this object and updates it from the beacon chain
/// during epoch reconfiguration.
///
/// Ids below [`AccountShardMap::TABLE_CAP`] are also cached in a dense
/// table (see the [module docs](crate::allocation)):
/// [`AccountShardMap::resolve`] fills an account's slot on its first read,
/// explicit assignments write through, and equality and `Debug` ignore the
/// table.
///
/// # Example
///
/// ```
/// use mosaic_types::{AccountId, AccountShardMap, ShardId};
/// # fn main() -> Result<(), mosaic_types::Error> {
/// let mut phi = AccountShardMap::new(4);
/// let a = AccountId::new(7);
/// phi.assign(a, ShardId::new(3))?;
/// assert_eq!(phi.shard_of(a), ShardId::new(3));
/// // Unassigned accounts still resolve (completeness); `resolve` also
/// // caches the rule's answer, which stays out of the explicit count.
/// let b = AccountId::new(1000);
/// assert_eq!(phi.resolve(b), phi.shard_of(b));
/// assert_eq!(phi.assigned_len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct AccountShardMap {
    shards: u16,
    rule: DefaultRule,
    assigned: FnvHashMap<AccountId, ShardId>,
    /// Slot `a` holds ϕ(a) as a `u16`, or [`UNRESOLVED`]; ids at or past
    /// [`AccountShardMap::TABLE_CAP`] have no slot.
    #[serde(skip)]
    table: Vec<u16>,
}

/// The empty slot of the dense table: never a shard, since `k ≤ 65535`.
const UNRESOLVED: u16 = u16::MAX;

/// The table slot of `account`, if its id can have one at all (the cap
/// fits a 32-bit `usize`, so the cast is exact).
fn slot(account: AccountId) -> Option<usize> {
    let id = account.as_u64();
    (id < AccountShardMap::TABLE_CAP).then_some(id as usize)
}

impl AccountShardMap {
    /// Ids below this have a slot in the dense table: 2^24 ids, at most
    /// 32 MiB per map. Ids at or above it resolve through the map + rule
    /// path on every read.
    pub const TABLE_CAP: u64 = 1 << 24;

    /// Creates an empty mapping over `shards` shards with the
    /// [`DefaultRule::Sha256Mod`] fallback.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: u16) -> Self {
        Self::with_rule(shards, DefaultRule::default())
    }

    /// Creates an empty mapping with an explicit fallback rule.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_rule(shards: u16, rule: DefaultRule) -> Self {
        assert!(shards > 0, "shard count must be positive");
        AccountShardMap {
            shards,
            rule,
            assigned: FnvHashMap::default(),
            table: Vec::new(),
        }
    }

    /// Number of shards `k`.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The fallback rule for unassigned accounts.
    pub fn default_rule(&self) -> DefaultRule {
        self.rule
    }

    /// Resolves the shard of `account` (total: never fails): its table
    /// slot if filled, else its explicit assignment, else the rule.
    pub fn shard_of(&self, account: AccountId) -> ShardId {
        self.cached(account)
            .unwrap_or_else(|| self.uncached_shard_of(account))
    }

    /// [`AccountShardMap::shard_of`] that also fills `account`'s table
    /// slot on a miss, so the rule runs once per account below
    /// [`AccountShardMap::TABLE_CAP`] however often it is read.
    pub fn resolve(&mut self, account: AccountId) -> ShardId {
        if let Some(shard) = self.cached(account) {
            return shard;
        }
        let shard = self.uncached_shard_of(account);
        self.store(account, shard);
        shard
    }

    fn cached(&self, account: AccountId) -> Option<ShardId> {
        let &s = self.table.get(slot(account)?)?;
        (s != UNRESOLVED).then(|| ShardId::new(s))
    }

    fn uncached_shard_of(&self, account: AccountId) -> ShardId {
        match self.assigned.get(&account) {
            Some(&s) => s,
            None => self.rule.shard_of(account, self.shards),
        }
    }

    /// Writes `shard` into `account`'s slot, growing the table to reach
    /// it; ids past the cap have no slot.
    fn store(&mut self, account: AccountId, shard: ShardId) {
        let Some(i) = slot(account) else {
            return;
        };
        if i >= self.table.len() {
            if i >= self.table.capacity() {
                // Amortised doubling, but the capacity never passes the cap.
                let cap = AccountShardMap::TABLE_CAP as usize;
                let target = (self.table.capacity() * 2).clamp(i + 1, cap);
                self.table.reserve_exact(target - self.table.len());
            }
            self.table.resize(i + 1, UNRESOLVED);
        }
        self.table[i] = shard.as_u16();
    }

    /// Returns the explicit assignment of `account`, if any.
    pub fn explicit(&self, account: AccountId) -> Option<ShardId> {
        self.assigned.get(&account).copied()
    }

    /// Returns `true` if `account` has an explicit assignment.
    pub fn is_assigned(&self, account: AccountId) -> bool {
        self.assigned.contains_key(&account)
    }

    /// Explicitly assigns `account` to `shard`, returning the previous
    /// *explicit* assignment if there was one.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShardOutOfRange`] if `shard ≥ k`.
    pub fn assign(&mut self, account: AccountId, shard: ShardId) -> Result<Option<ShardId>> {
        if shard.index() >= usize::from(self.shards) {
            return Err(Error::ShardOutOfRange {
                shard,
                shards: self.shards,
            });
        }
        self.store(account, shard);
        Ok(self.assigned.insert(account, shard))
    }

    /// Applies a committed migration: moves `account` to `to` and returns
    /// the shard it resolved to before the move.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShardOutOfRange`] if `to ≥ k`.
    pub fn migrate(&mut self, account: AccountId, to: ShardId) -> Result<ShardId> {
        let from = self.shard_of(account);
        self.assign(account, to)?;
        Ok(from)
    }

    /// Removes the explicit assignment of `account` (it falls back to the
    /// default rule) and clears its table slot. Returns the removed shard,
    /// if any.
    pub fn unassign(&mut self, account: AccountId) -> Option<ShardId> {
        if let Some(s) = slot(account).and_then(|i| self.table.get_mut(i)) {
            *s = UNRESOLVED;
        }
        self.assigned.remove(&account)
    }

    /// Number of explicitly assigned accounts; accounts the rule
    /// resolved (and the table cached) are not counted.
    pub fn assigned_len(&self) -> usize {
        self.assigned.len()
    }

    /// Returns `true` if no account is explicitly assigned.
    pub fn is_empty(&self) -> bool {
        self.assigned.is_empty()
    }

    /// Iterates over all explicit assignments in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (AccountId, ShardId)> + '_ {
        self.assigned.iter().map(|(&a, &s)| (a, s))
    }

    /// Counts explicitly assigned accounts per shard (`|A_i|` restricted to
    /// explicit assignments).
    pub fn explicit_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; usize::from(self.shards)];
        for &s in self.assigned.values() {
            counts[s.index()] += 1;
        }
        counts
    }

    /// Computes the inverse mapping `ϕ⁻¹` restricted to explicit
    /// assignments: for each shard, the list of accounts assigned to it.
    /// Lists are sorted for determinism.
    pub fn inverse_explicit(&self) -> Vec<Vec<AccountId>> {
        let mut inv = vec![Vec::new(); usize::from(self.shards)];
        for (&a, &s) in &self.assigned {
            inv[s.index()].push(a);
        }
        for bucket in &mut inv {
            bucket.sort_unstable();
        }
        inv
    }

    /// Checks Definition 1 where state could break it, else
    /// [`Error::Inconsistent`]: every explicit assignment is in `[0, k)`,
    /// and every filled table slot holds what the explicit map, else the
    /// rule, says. Uniqueness is structural. Fills no slot.
    pub fn check_invariants(&self) -> Result<()> {
        let k = self.shards;
        for (&account, &shard) in &self.assigned {
            crate::ensure!(shard.as_u16() < k, "phi", "{account} in {shard}, k = {k}");
        }
        let filled = self
            .table
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != UNRESOLVED);
        for (id, &slot) in filled {
            let (account, slot) = (AccountId::new(id as u64), ShardId::new(slot));
            let shard = self.uncached_shard_of(account);
            crate::ensure!(slot == shard, "phi", "{account}: slot {slot}, ϕ {shard}");
        }
        Ok(())
    }

    /// Bulk-loads assignments, replacing existing ones.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShardOutOfRange`] on the first invalid shard;
    /// assignments before the failure point are retained.
    pub fn extend_assignments<I>(&mut self, assignments: I) -> Result<()>
    where
        I: IntoIterator<Item = (AccountId, ShardId)>,
    {
        for (account, shard) in assignments {
            self.assign(account, shard)?;
        }
        Ok(())
    }
}

impl Extend<(AccountId, ShardId)> for AccountShardMap {
    /// Extends with `(account, shard)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a shard is out of range; use
    /// [`AccountShardMap::extend_assignments`] for a fallible version.
    fn extend<T: IntoIterator<Item = (AccountId, ShardId)>>(&mut self, iter: T) {
        for (account, shard) in iter {
            self.assign(account, shard)
                .expect("shard out of range in Extend");
        }
    }
}

/// Equal when every account resolves alike: the table is a cache of the
/// other three fields, so what each side has cached does not matter.
impl PartialEq for AccountShardMap {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards && self.rule == other.rule && self.assigned == other.assigned
    }
}

/// Leaves the table out: it can hold 2^24 slots.
impl fmt::Debug for AccountShardMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccountShardMap")
            .field("shards", &self.shards)
            .field("rule", &self.rule)
            .field("assigned", &self.assigned)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unassigned_resolves_via_default_rule() {
        let phi = AccountShardMap::new(16);
        let a = AccountId::new(12345);
        let expected = DefaultRule::Sha256Mod.shard_of(a, 16);
        assert_eq!(phi.shard_of(a), expected);
        assert!(!phi.is_assigned(a));
        assert_eq!(phi.explicit(a), None);
    }

    #[test]
    fn assign_overrides_default() {
        let mut phi = AccountShardMap::new(4);
        let a = AccountId::new(9);
        phi.assign(a, ShardId::new(2)).unwrap();
        assert_eq!(phi.shard_of(a), ShardId::new(2));
        assert_eq!(phi.explicit(a), Some(ShardId::new(2)));
        assert_eq!(phi.assigned_len(), 1);
    }

    #[test]
    fn assign_rejects_out_of_range() {
        let mut phi = AccountShardMap::new(4);
        let err = phi.assign(AccountId::new(1), ShardId::new(4)).unwrap_err();
        assert_eq!(
            err,
            Error::ShardOutOfRange {
                shard: ShardId::new(4),
                shards: 4
            }
        );
    }

    #[test]
    fn migrate_reports_previous_shard() {
        let mut phi = AccountShardMap::new(4);
        let a = AccountId::new(77);
        let before = phi.shard_of(a);
        let from = phi.migrate(a, ShardId::new(1)).unwrap();
        assert_eq!(from, before);
        assert_eq!(phi.shard_of(a), ShardId::new(1));
        let from2 = phi.migrate(a, ShardId::new(3)).unwrap();
        assert_eq!(from2, ShardId::new(1));
    }

    #[test]
    fn unassign_restores_default() {
        let mut phi = AccountShardMap::new(8);
        let a = AccountId::new(3);
        let default = phi.shard_of(a);
        phi.assign(a, ShardId::new(7)).unwrap();
        assert_eq!(phi.unassign(a), Some(ShardId::new(7)));
        assert_eq!(phi.shard_of(a), default);
        assert_eq!(phi.unassign(a), None);
    }

    #[test]
    fn inverse_and_counts_agree() {
        let mut phi = AccountShardMap::new(3);
        for i in 0..30u64 {
            phi.assign(AccountId::new(i), ShardId::new((i % 3) as u16))
                .unwrap();
        }
        let counts = phi.explicit_counts();
        assert_eq!(counts, vec![10, 10, 10]);
        let inv = phi.inverse_explicit();
        for (i, bucket) in inv.iter().enumerate() {
            assert_eq!(bucket.len(), counts[i]);
            for a in bucket {
                assert_eq!(phi.shard_of(*a).index(), i);
            }
            // Sorted for determinism.
            let mut sorted = bucket.clone();
            sorted.sort_unstable();
            assert_eq!(&sorted, bucket);
        }
    }

    #[test]
    fn check_invariants_flags_a_stale_table_slot() {
        let mut phi = AccountShardMap::new(4);
        let (a, b) = (AccountId::new(0), AccountId::new(1));
        phi.assign(a, ShardId::new(3)).unwrap();
        for i in 0..100 {
            phi.resolve(AccountId::new(i));
        }
        phi.check_invariants().unwrap();

        // A slot the write-through missed: ϕ says S4, the table S1.
        phi.table[0] = 0;
        let err = phi.check_invariants().unwrap_err();
        assert!(
            matches!(
                err,
                Error::Inconsistent {
                    component: "phi",
                    ..
                }
            ),
            "{err}"
        );
        phi.table[0] = 3;
        // A cached rule answer that no longer matches the rule.
        let wrong = (phi.shard_of(b).as_u16() + 1) % 4;
        phi.table[1] = wrong;
        assert!(phi.check_invariants().is_err());
        phi.unassign(b);
        phi.check_invariants().unwrap();
        // An explicit assignment out of range.
        phi.assigned
            .insert(AccountId::new(1 << 40), ShardId::new(4));
        assert!(phi.check_invariants().is_err());
    }

    #[test]
    fn first_bits_rule_power_of_two_matches_top_bits() {
        let k = 16u16;
        for i in 0..200u64 {
            let a = AccountId::new(i);
            let prefix = crate::hash::sha256_prefix_u64(&a.address_bytes());
            let expected = (prefix >> 60) as u16; // top 4 bits for k=16
            assert_eq!(
                DefaultRule::Sha256FirstBits.shard_of(a, k),
                ShardId::new(expected)
            );
        }
    }

    /// The rule itself, pinned: shards printed by the scalar-only build
    /// before the SHA-NI kernel and the one-block path existed. A digest
    /// slip in either kernel moves a row here before it moves a golden CSV.
    #[test]
    fn default_rules_match_pinned_shards() {
        const KS: [u16; 3] = [2, 16, 48];
        // (account, Sha256Mod shard per k, Sha256FirstBits shard per k)
        #[rustfmt::skip]
        let pinned: [(u64, [u16; 3], [u16; 3]); 32] = [
            (0x0, [0, 12, 28], [0, 6, 18]),
            (0x1, [1, 7, 39], [0, 5, 17]),
            (0x2, [0, 12, 12], [1, 14, 44]),
            (0x7, [1, 13, 13], [1, 10, 30]),
            (0xff, [1, 1, 1], [0, 7, 22]),
            (0x100, [0, 10, 26], [1, 8, 26]),
            (0xffff, [0, 0, 16], [0, 6, 18]),
            (0x10000, [0, 8, 40], [1, 14, 43]),
            (0xf423f, [1, 3, 3], [0, 7, 23]),
            (0xf4240, [0, 4, 4], [0, 2, 6]),
            (0xffffffff, [1, 1, 33], [1, 9, 29]),
            (0x100000000, [1, 5, 5], [0, 7, 23]),
            (0xfffffffffffffffe, [0, 14, 30], [1, 12, 36]),
            (0xffffffffffffffff, [1, 13, 45], [1, 12, 38]),
            (0x8000000000000000, [0, 0, 32], [0, 1, 5]),
            (0x7fffffffffffffff, [1, 9, 41], [0, 3, 9]),
            (0x6e789e6aa1b965f4, [1, 5, 21], [1, 13, 40]),
            (0x6c45d188009454f, [1, 5, 5], [0, 1, 5]),
            (0xf88bb8a8724c81ec, [1, 7, 39], [0, 7, 21]),
            (0x1b39896a51a8749b, [0, 10, 10], [0, 6, 20]),
            (0x53cb9f0c747ea2ea, [0, 12, 12], [1, 9, 27]),
            (0x2c829abe1f4532e1, [0, 2, 18], [1, 8, 25]),
            (0xc584133ac916ab3c, [1, 13, 29], [0, 6, 20]),
            (0x3ee5789041c98ac3, [1, 3, 19], [0, 3, 9]),
            (0xf3b8488c368cb0a6, [0, 4, 36], [1, 11, 34]),
            (0x657eecdd3cb13d09, [1, 1, 33], [0, 0, 0]),
            (0xc2d326e0055bdef6, [1, 1, 1], [1, 9, 27]),
            (0x8621a03fe0bbdb7b, [1, 13, 13], [1, 14, 43]),
            (0x8e1f7555983aa92f, [1, 9, 41], [0, 1, 5]),
            (0xb54e0f1600cc4d19, [1, 1, 1], [1, 12, 38]),
            (0x84bb3f97971d80ab, [0, 10, 10], [1, 10, 31]),
            (0x7d29825c75521255, [1, 13, 13], [0, 3, 9]),
        ];
        for (account, modulo, first_bits) in pinned {
            let a = AccountId::new(account);
            for (i, k) in KS.into_iter().enumerate() {
                assert_eq!(
                    DefaultRule::Sha256Mod.shard_of(a, k),
                    ShardId::new(modulo[i]),
                    "Sha256Mod, account {account:#x}, k = {k}"
                );
                assert_eq!(
                    DefaultRule::Sha256FirstBits.shard_of(a, k),
                    ShardId::new(first_bits[i]),
                    "Sha256FirstBits, account {account:#x}, k = {k}"
                );
            }
        }
    }

    #[test]
    fn hash_rules_spread_accounts_roughly_evenly() {
        let k = 8u16;
        for rule in [DefaultRule::Sha256Mod, DefaultRule::Sha256FirstBits] {
            let mut counts = vec![0usize; usize::from(k)];
            for i in 0..8000u64 {
                counts[rule.shard_of(AccountId::new(i), k).index()] += 1;
            }
            let expected = 1000.0;
            for c in counts {
                let dev = (c as f64 - expected).abs() / expected;
                assert!(dev < 0.15, "rule {rule:?} too skewed: {c} vs {expected}");
            }
        }
    }

    #[test]
    fn extend_panics_on_invalid_but_extend_assignments_errors() {
        let mut phi = AccountShardMap::new(2);
        let res = phi.extend_assignments([(AccountId::new(0), ShardId::new(5))]);
        assert!(res.is_err());
    }

    #[test]
    fn debug_leaves_the_table_out() {
        let mut phi = AccountShardMap::new(16);
        for i in 0..1_000_000 {
            phi.resolve(AccountId::new(i));
        }
        let printed = format!("{phi:?}");
        assert!(printed.len() < 1024, "{} bytes", printed.len());
        assert_eq!(phi, AccountShardMap::new(16));
    }

    #[test]
    fn table_grows_geometrically_up_to_the_cap() {
        let mut phi = AccountShardMap::new(4);
        for i in 0..1000 {
            phi.resolve(AccountId::new(i));
        }
        assert_eq!(phi.table.len(), 1000);
        assert!(phi.table.capacity() < 2048, "{}", phi.table.capacity());
        phi.resolve(AccountId::new(CAP - 1));
        phi.resolve(AccountId::new(CAP));
        assert_eq!(phi.table.len(), CAP as usize);
        assert!(phi.table.capacity() <= CAP as usize);
    }

    #[test]
    fn map_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AccountShardMap>();
    }

    /// Ids the table treats differently: the first slots, both sides of
    /// the cap, and the top of the id space.
    const CAP: u64 = AccountShardMap::TABLE_CAP;
    const EDGE_IDS: [u64; 11] = [
        0,
        1,
        2,
        1000,
        CAP - 2,
        CAP - 1,
        CAP,
        CAP + 1,
        1 << 40,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// The reference model: explicit assignments in a `BTreeMap`, every
    /// other account through the rule — no cache anywhere.
    struct Model {
        k: u16,
        rule: DefaultRule,
        assigned: std::collections::BTreeMap<u64, u16>,
    }

    impl Model {
        fn shard_of(&self, id: u64) -> ShardId {
            match self.assigned.get(&id) {
                Some(&s) => ShardId::new(s),
                None => self.rule.shard_of(AccountId::new(id), self.k),
            }
        }

        fn rebuilt(&self) -> AccountShardMap {
            let mut phi = AccountShardMap::with_rule(self.k, self.rule);
            phi.extend_assignments(
                self.assigned
                    .iter()
                    .map(|(&a, &s)| (AccountId::new(a), ShardId::new(s))),
            )
            .unwrap();
            phi
        }

        fn assert_matches(&self, phi: &AccountShardMap) {
            for id in EDGE_IDS {
                let a = AccountId::new(id);
                assert_eq!(phi.shard_of(a), self.shard_of(id), "shard_of({id})");
                assert_eq!(
                    phi.explicit(a),
                    self.assigned.get(&id).map(|&s| ShardId::new(s)),
                    "explicit({id})"
                );
            }
            assert_eq!(phi.assigned_len(), self.assigned.len());
            let mut counts = vec![0usize; usize::from(self.k)];
            for &s in self.assigned.values() {
                counts[usize::from(s)] += 1;
            }
            assert_eq!(phi.explicit_counts(), counts);
            assert_eq!(*phi, self.rebuilt());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The table is invisible: after every operation, whatever each
        /// slot holds, the map answers exactly like the cache-free model.
        #[test]
        fn prop_table_matches_reference_model(
            k_pick in 0usize..4,
            first_bits in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..7, 0usize..EDGE_IDS.len(), 0u16..8, any::<u16>()),
                1..24,
            ),
        ) {
            // k = 65535 puts shard 65534 right next to the sentinel.
            let k = [1u16, 2, 16, u16::MAX][k_pick];
            let rule = if first_bits {
                DefaultRule::Sha256FirstBits
            } else {
                DefaultRule::Sha256Mod
            };
            let mut phi = AccountShardMap::with_rule(k, rule);
            let mut model = Model { k, rule, assigned: Default::default() };
            for (op, pick, shard_pick, raw) in ops {
                let id = EDGE_IDS[pick];
                let a = AccountId::new(id);
                let shard = match shard_pick {
                    0 => k - 1,
                    1 => 0,
                    _ => raw % k,
                };
                match op {
                    0 if shard_pick == 7 => {
                        // Out of range: refused, and nothing changes.
                        prop_assert!(phi.assign(a, ShardId::new(k)).is_err());
                    }
                    0 => {
                        let previous = phi.assign(a, ShardId::new(shard)).unwrap();
                        let expected = model.assigned.insert(id, shard).map(ShardId::new);
                        prop_assert_eq!(previous, expected);
                    }
                    1 => {
                        let from = phi.migrate(a, ShardId::new(shard)).unwrap();
                        prop_assert_eq!(from, model.shard_of(id));
                        model.assigned.insert(id, shard);
                    }
                    2 => {
                        let removed = phi.unassign(a);
                        prop_assert_eq!(removed, model.assigned.remove(&id).map(ShardId::new));
                    }
                    3 => prop_assert_eq!(phi.resolve(a), model.shard_of(id)),
                    4 => prop_assert_eq!(phi.shard_of(a), model.shard_of(id)),
                    5 => {
                        let next = EDGE_IDS[(pick + 1) % EDGE_IDS.len()];
                        let other = raw.wrapping_add(1) % k;
                        phi.extend_assignments([
                            (a, ShardId::new(shard)),
                            (AccountId::new(next), ShardId::new(other)),
                        ])
                        .unwrap();
                        model.assigned.insert(id, shard);
                        model.assigned.insert(next, other);
                    }
                    _ => {
                        let copy = phi.clone();
                        prop_assert_eq!(&copy, &phi);
                        phi = copy;
                    }
                }
                model.assert_matches(&phi);
            }
        }
    }

    proptest! {
        /// Uniqueness + completeness: any sequence of assignments over a
        /// random universe still yields a valid partition whose counts sum
        /// to the universe size, and the table the reads fill agrees.
        #[test]
        fn prop_partition_invariants(
            assignments in proptest::collection::vec((0u64..500, 0u16..8), 0..300),
            universe_size in 1u64..600,
        ) {
            let mut phi = AccountShardMap::new(8);
            for (a, s) in assignments {
                phi.assign(AccountId::new(a), ShardId::new(s)).unwrap();
            }
            let mut counts = [0usize; 8];
            for a in 0..universe_size {
                counts[phi.resolve(AccountId::new(a)).index()] += 1;
            }
            prop_assert!(phi.check_invariants().is_ok());
            prop_assert_eq!(counts.iter().sum::<usize>(), universe_size as usize);
        }

        /// The default rules are deterministic and in-range for any k.
        #[test]
        fn prop_default_rules_in_range(account in any::<u64>(), k in 1u16..128) {
            for rule in [DefaultRule::Sha256Mod, DefaultRule::Sha256FirstBits] {
                let s = rule.shard_of(AccountId::new(account), k);
                prop_assert!(s.index() < usize::from(k));
                prop_assert_eq!(s, rule.shard_of(AccountId::new(account), k));
            }
        }

        /// Migration always reports the pre-move shard and lands on target.
        #[test]
        fn prop_migrate_roundtrip(account in any::<u64>(), s1 in 0u16..8, s2 in 0u16..8) {
            let mut phi = AccountShardMap::new(8);
            let a = AccountId::new(account);
            phi.assign(a, ShardId::new(s1)).unwrap();
            let from = phi.migrate(a, ShardId::new(s2)).unwrap();
            prop_assert_eq!(from, ShardId::new(s1));
            prop_assert_eq!(phi.shard_of(a), ShardId::new(s2));
        }
    }
}
