//! Per-shard block chains.

use mosaic_types::{EpochId, ShardId};

use crate::block::{Block, BlockBody};

/// One shard's chain `S_i = (B₁, B₂, …)`.
///
/// The simulation appends one block per epoch summarising the committed
/// transaction counts (the trace is the canonical transaction store). The
/// parent-hash links are real, so a chain can be integrity-checked with
/// [`ShardChain::verify`], which [`crate::Ledger::check_invariants`] runs
/// on every shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardChain {
    id: ShardId,
    blocks: Vec<Block>,
}

impl ShardChain {
    /// Creates the chain with its genesis block.
    pub fn new(id: ShardId) -> Self {
        ShardChain {
            id,
            blocks: vec![Block::genesis(Some(id))],
        }
    }

    /// The shard this chain belongs to.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// Number of blocks including genesis (`|S_i|`).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// A chain always contains at least its genesis block.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tip block.
    pub fn tip(&self) -> &Block {
        self.blocks.last().expect("chain contains genesis")
    }

    /// All blocks, genesis first.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Commits an epoch's transaction counts as a new block and returns a
    /// reference to it.
    pub fn commit_epoch(&mut self, epoch: EpochId, intra: u32, cross: u32) -> &Block {
        let block = self
            .tip()
            .child(epoch, BlockBody::Transactions { intra, cross });
        self.blocks.push(block);
        self.tip()
    }

    /// Total transactions committed over the chain's life (cross-shard
    /// transactions count once per participating shard, as in the paper's
    /// storage model `|T|/k` per shard).
    pub fn committed_txs(&self) -> u64 {
        self.blocks
            .iter()
            .map(|b| u64::from(b.body.item_count()))
            .sum()
    }

    /// Verifies parent links, heights, and shard tags for the whole chain.
    pub fn verify(&self) -> bool {
        for (i, block) in self.blocks.iter().enumerate() {
            if block.shard != Some(self.id) || block.height.as_u64() != i as u64 {
                return false;
            }
            if i == 0 {
                if block.parent != [0u8; 32] {
                    return false;
                }
            } else if block.parent != self.blocks[i - 1].hash() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_chain_has_genesis() {
        let c = ShardChain::new(ShardId::new(2));
        assert_eq!(c.len(), 1);
        assert!(c.verify());
        assert_eq!(c.tip().height.as_u64(), 0);
        assert!(!c.is_empty());
    }

    #[test]
    fn commit_extends_chain() {
        let mut c = ShardChain::new(ShardId::new(0));
        c.commit_epoch(EpochId::new(0), 10, 3);
        c.commit_epoch(EpochId::new(1), 7, 0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.committed_txs(), 20);
        assert!(c.verify());
    }

    #[test]
    fn verify_detects_tampering() {
        let mut c = ShardChain::new(ShardId::new(0));
        c.commit_epoch(EpochId::new(0), 10, 3);
        let mut tampered = c.clone();
        // Mutate a middle block's body: child link breaks.
        tampered.blocks[1].body = BlockBody::Transactions {
            intra: 99,
            cross: 0,
        };
        tampered.blocks.push(c.blocks[1].child(
            EpochId::new(1),
            BlockBody::Transactions { intra: 1, cross: 0 },
        ));
        // The appended block's parent is the *untampered* hash, so verify
        // must fail on the tampered copy.
        assert!(!tampered.verify());
        assert!(c.verify());
    }

    #[test]
    fn verify_detects_wrong_shard_tag() {
        let mut c = ShardChain::new(ShardId::new(0));
        c.commit_epoch(EpochId::new(0), 1, 1);
        c.blocks[1].shard = Some(ShardId::new(5));
        assert!(!c.verify());
    }
}
