//! Blocks and header hashing.

use std::fmt;

use mosaic_types::hash::{sha256, Sha256};
use mosaic_types::{BlockHeight, EpochId, ShardId};

/// What a block commits: shard transactions or beacon migrations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockBody {
    /// A shard block: counts of committed intra- and cross-shard
    /// transactions (the simulation stores counts, not bodies — the
    /// trace itself is the canonical body).
    Transactions {
        /// Intra-shard transactions committed.
        intra: u32,
        /// Cross-shard transactions this shard participated in.
        cross: u32,
    },
    /// A beacon block: number of committed migration requests.
    Migrations {
        /// Migration requests committed.
        committed: u32,
    },
}

impl BlockBody {
    /// Number of payload items in the body.
    pub fn item_count(&self) -> u32 {
        match *self {
            BlockBody::Transactions { intra, cross } => intra + cross,
            BlockBody::Migrations { committed } => committed,
        }
    }
}

/// A block of a shard chain or the beacon chain.
///
/// Headers are hashed with the in-repo SHA-256; `parent` links make each
/// chain verifiable ([`crate::ShardChain::verify`],
/// [`crate::BeaconChain::verify`]), and
/// [`crate::Ledger::check_invariants`] verifies them all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Chain this block belongs to; `None` for the beacon chain.
    pub shard: Option<ShardId>,
    /// Height within its chain.
    pub height: BlockHeight,
    /// Epoch the block was produced in.
    pub epoch: EpochId,
    /// Hash of the parent block header (all zeroes for genesis).
    pub parent: [u8; 32],
    /// Committed payload summary.
    pub body: BlockBody,
}

impl Block {
    /// Creates the genesis block of a chain.
    pub fn genesis(shard: Option<ShardId>) -> Self {
        Block {
            shard,
            height: BlockHeight::new(0),
            epoch: EpochId::new(0),
            parent: [0u8; 32],
            body: match shard {
                Some(_) => BlockBody::Transactions { intra: 0, cross: 0 },
                None => BlockBody::Migrations { committed: 0 },
            },
        }
    }

    /// Header hash: SHA-256 over the canonical field encoding.
    pub fn hash(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        match self.shard {
            Some(s) => {
                h.update(b"shard");
                h.update(&s.as_u16().to_be_bytes());
            }
            None => h.update(b"beacon"),
        }
        h.update(&self.height.as_u64().to_be_bytes());
        h.update(&self.epoch.as_u64().to_be_bytes());
        h.update(&self.parent);
        match self.body {
            BlockBody::Transactions { intra, cross } => {
                h.update(b"tx");
                h.update(&intra.to_be_bytes());
                h.update(&cross.to_be_bytes());
            }
            BlockBody::Migrations { committed } => {
                h.update(b"mr");
                h.update(&committed.to_be_bytes());
            }
        }
        h.finalize()
    }

    /// Builds the successor of this block.
    pub fn child(&self, epoch: EpochId, body: BlockBody) -> Block {
        Block {
            shard: self.shard,
            height: self.height.next(),
            epoch,
            parent: self.hash(),
            body,
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let chain = match self.shard {
            Some(s) => s.to_string(),
            None => "BC".to_string(),
        };
        write!(
            f,
            "{chain}{} ({}, {} items)",
            self.height,
            self.epoch,
            self.body.item_count()
        )
    }
}

/// Convenience: hash arbitrary bytes with the chain's hash function.
pub fn chain_hash(data: &[u8]) -> [u8; 32] {
    sha256(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_shapes() {
        let g = Block::genesis(Some(ShardId::new(3)));
        assert_eq!(g.height, BlockHeight::new(0));
        assert_eq!(g.parent, [0u8; 32]);
        assert!(matches!(g.body, BlockBody::Transactions { .. }));
        let b = Block::genesis(None);
        assert!(matches!(b.body, BlockBody::Migrations { .. }));
    }

    #[test]
    fn child_links_to_parent() {
        let g = Block::genesis(Some(ShardId::new(0)));
        let c = g.child(
            EpochId::new(1),
            BlockBody::Transactions { intra: 5, cross: 2 },
        );
        assert_eq!(c.height, BlockHeight::new(1));
        assert_eq!(c.parent, g.hash());
        assert_eq!(c.body.item_count(), 7);
    }

    #[test]
    fn hash_is_sensitive_to_every_field() {
        let base = Block::genesis(Some(ShardId::new(0)));
        let mut other = base.clone();
        other.height = BlockHeight::new(1);
        assert_ne!(base.hash(), other.hash());
        let mut other = base.clone();
        other.epoch = EpochId::new(9);
        assert_ne!(base.hash(), other.hash());
        let mut other = base.clone();
        other.body = BlockBody::Transactions { intra: 1, cross: 0 };
        assert_ne!(base.hash(), other.hash());
        // Shard vs beacon domain separation.
        assert_ne!(
            Block::genesis(Some(ShardId::new(0))).hash(),
            Block::genesis(None).hash()
        );
    }

    #[test]
    fn hash_is_deterministic() {
        let b = Block::genesis(Some(ShardId::new(1)));
        assert_eq!(b.hash(), b.hash());
    }

    #[test]
    fn display_names_chains() {
        assert!(Block::genesis(None).to_string().starts_with("BC"));
        assert!(Block::genesis(Some(ShardId::new(0)))
            .to_string()
            .starts_with("S1"));
    }
}
