//! Strongly-typed identifiers.
//!
//! Using newtypes instead of raw integers prevents the classic confusion
//! between "shard 3" and "account 3" at compile time (C-NEWTYPE), and gives
//! each identifier a domain-appropriate `Display` form.

use std::fmt;

/// Identifier of an account (an address in the paper's account-based model).
///
/// The paper identifies accounts by their 160-bit Ethereum address; in the
/// simulation a dense `u64` is sufficient and far cheaper to hash and store.
/// [`AccountId::address_bytes`] provides a stable 20-byte "address" encoding
/// used by the hash-based allocation baseline so that `SHA256(ID) mod k`
/// behaves like it would on real addresses.
///
/// # Example
///
/// ```
/// use mosaic_types::AccountId;
/// let a = AccountId::new(42);
/// assert_eq!(a.as_u64(), 42);
/// assert_eq!(format!("{a}"), "acct:0x000000000000002a");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AccountId(u64);

impl AccountId {
    /// Creates an account identifier from a raw index.
    pub const fn new(raw: u64) -> Self {
        AccountId(raw)
    }

    /// Returns the raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns a stable 20-byte pseudo-address for this account.
    ///
    /// The layout mimics an Ethereum address: the raw id is placed in the
    /// low 8 bytes, the upper 12 bytes are a fixed tag. This is what the
    /// hash-based baseline feeds to SHA-256.
    pub fn address_bytes(self) -> [u8; 20] {
        let mut out = [0u8; 20];
        out[..12].copy_from_slice(b"mosaic-acct:");
        out[12..].copy_from_slice(&self.0.to_be_bytes());
        out
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct:0x{:016x}", self.0)
    }
}

impl From<u64> for AccountId {
    fn from(raw: u64) -> Self {
        AccountId(raw)
    }
}

/// Identifier of a shard, `i ∈ [0, k)`.
///
/// The paper numbers shards `1..=k`; we use the conventional zero-based
/// range `0..k` internally and render one-based in `Display` to match the
/// paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ShardId(u16);

impl ShardId {
    /// Creates a shard identifier from a zero-based index.
    pub const fn new(raw: u16) -> Self {
        ShardId(raw)
    }

    /// Returns the zero-based index as `usize`, suitable for array indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw zero-based value.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Iterates over all shard ids `0..k`.
    ///
    /// ```
    /// use mosaic_types::ShardId;
    /// let ids: Vec<_> = ShardId::all(3).collect();
    /// assert_eq!(ids, vec![ShardId::new(0), ShardId::new(1), ShardId::new(2)]);
    /// ```
    pub fn all(k: u16) -> impl Iterator<Item = ShardId> + Clone {
        (0..k).map(ShardId)
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // One-based, matching the paper's S_1..S_k notation.
        write!(f, "S{}", self.0 + 1)
    }
}

impl From<u16> for ShardId {
    fn from(raw: u16) -> Self {
        ShardId(raw)
    }
}

/// Height of a block in the transaction trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockHeight(u64);

impl BlockHeight {
    /// Creates a block height.
    pub const fn new(raw: u64) -> Self {
        BlockHeight(raw)
    }

    /// Returns the raw height.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next height.
    pub const fn next(self) -> Self {
        BlockHeight(self.0 + 1)
    }

    /// Returns the epoch this height falls in, for epoch length `tau` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `tau == 0`.
    pub fn epoch(self, tau: u32) -> EpochId {
        assert!(tau > 0, "epoch length tau must be positive");
        EpochId(self.0 / u64::from(tau))
    }
}

impl fmt::Display for BlockHeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for BlockHeight {
    fn from(raw: u64) -> Self {
        BlockHeight(raw)
    }
}

/// Identifier of an epoch (a window of `τ` beacon-chain blocks, §III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EpochId(u64);

impl EpochId {
    /// Creates an epoch identifier.
    pub const fn new(raw: u64) -> Self {
        EpochId(raw)
    }

    /// Returns the raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the next epoch.
    pub const fn next(self) -> Self {
        EpochId(self.0 + 1)
    }
}

impl fmt::Display for EpochId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "epoch {}", self.0)
    }
}

impl From<u64> for EpochId {
    fn from(raw: u64) -> Self {
        EpochId(raw)
    }
}

/// Identifier of a transaction within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TxId(u64);

impl TxId {
    /// Creates a transaction identifier.
    pub const fn new(raw: u64) -> Self {
        TxId(raw)
    }

    /// Returns the raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(raw: u64) -> Self {
        TxId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn account_display_and_roundtrip() {
        let a = AccountId::new(0xdead_beef);
        assert_eq!(a.as_u64(), 0xdead_beef);
        assert_eq!(format!("{a}"), "acct:0x00000000deadbeef");
        assert_eq!(AccountId::from(7u64), AccountId::new(7));
    }

    #[test]
    fn address_bytes_are_stable_and_distinct() {
        let a = AccountId::new(1).address_bytes();
        let b = AccountId::new(2).address_bytes();
        assert_ne!(a, b);
        assert_eq!(&a[..12], b"mosaic-acct:");
        assert_eq!(a, AccountId::new(1).address_bytes());
    }

    #[test]
    fn shard_display_is_one_based() {
        assert_eq!(format!("{}", ShardId::new(0)), "S1");
        assert_eq!(format!("{}", ShardId::new(15)), "S16");
    }

    #[test]
    fn shard_all_covers_range() {
        assert_eq!(ShardId::all(0).count(), 0);
        let v: Vec<_> = ShardId::all(4).collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[3].index(), 3);
    }

    #[test]
    fn block_height_epoch_mapping() {
        let tau = 300;
        assert_eq!(BlockHeight::new(0).epoch(tau), EpochId::new(0));
        assert_eq!(BlockHeight::new(299).epoch(tau), EpochId::new(0));
        assert_eq!(BlockHeight::new(300).epoch(tau), EpochId::new(1));
        assert_eq!(BlockHeight::new(899).epoch(tau), EpochId::new(2));
    }

    #[test]
    #[should_panic(expected = "tau must be positive")]
    fn block_height_epoch_zero_tau_panics() {
        let _ = BlockHeight::new(1).epoch(0);
    }

    #[test]
    fn next_increments() {
        assert_eq!(BlockHeight::new(7).next(), BlockHeight::new(8));
        assert_eq!(EpochId::new(7).next(), EpochId::new(8));
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(AccountId::new(1) < AccountId::new(2));
        assert!(ShardId::new(0) < ShardId::new(1));
        assert!(TxId::new(10) > TxId::new(9));
    }
}
