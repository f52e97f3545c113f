//! Transactions and the accounts they modify.

use std::fmt;

use crate::ids::{AccountId, BlockHeight, TxId};

/// Category of a transaction.
///
/// The allocation algorithms only care about *which accounts interact*, but
/// the workload generator distinguishes plain transfers from contract calls
/// so that hub accounts (DEX routers, token contracts) receive realistic
/// traffic shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TxKind {
    /// Plain value transfer between two externally-owned accounts.
    #[default]
    Transfer,
    /// Call into a contract-like hub account.
    ContractCall,
}

impl fmt::Display for TxKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxKind::Transfer => f.write_str("transfer"),
            TxKind::ContractCall => f.write_str("call"),
        }
    }
}

/// A committed transaction `Tx` with its modified-account set `A_Tx`.
///
/// The paper's model (§III-A1) is binary: a transaction modifies the state
/// of its sender and its receiver. `A_Tx = {from, to}` (a single account for
/// self-transfers). A transaction is *cross-shard* iff ϕ maps its accounts
/// to different shards.
///
/// # Example
///
/// ```
/// use mosaic_types::{AccountId, BlockHeight, Transaction, TxId};
/// let tx = Transaction::new(
///     TxId::new(0),
///     AccountId::new(1),
///     AccountId::new(2),
///     BlockHeight::new(10),
/// );
/// assert_eq!(tx.accounts().count(), 2);
/// assert!(!tx.is_self_transfer());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transaction {
    /// Unique id within the trace (assigned in trace order).
    pub id: TxId,
    /// Sender account.
    pub from: AccountId,
    /// Receiver account.
    pub to: AccountId,
    /// Block in which the transaction was committed.
    pub block: BlockHeight,
    /// Transaction category.
    pub kind: TxKind,
}

impl Transaction {
    /// Creates a plain transfer.
    pub fn new(id: TxId, from: AccountId, to: AccountId, block: BlockHeight) -> Self {
        Transaction {
            id,
            from,
            to,
            block,
            kind: TxKind::Transfer,
        }
    }

    /// Creates a transaction with an explicit [`TxKind`].
    pub fn with_kind(
        id: TxId,
        from: AccountId,
        to: AccountId,
        block: BlockHeight,
        kind: TxKind,
    ) -> Self {
        Transaction {
            id,
            from,
            to,
            block,
            kind,
        }
    }

    /// Returns `true` if sender and receiver are the same account.
    pub fn is_self_transfer(&self) -> bool {
        self.from == self.to
    }

    /// Iterates over the distinct accounts modified by this transaction
    /// (`A_Tx` in the paper): two accounts, or one for a self-transfer.
    pub fn accounts(&self) -> TxAccounts {
        TxAccounts {
            first: Some(self.from),
            second: if self.is_self_transfer() {
                None
            } else {
                Some(self.to)
            },
        }
    }

    /// Returns the counterparty of `who` in this transaction, if `who`
    /// participates and the transaction is not a self-transfer.
    ///
    /// This is `A_Tx − {ν}` from Equation (1).
    pub fn counterparty(&self, who: AccountId) -> Option<AccountId> {
        if self.is_self_transfer() {
            None
        } else if self.from == who {
            Some(self.to)
        } else if self.to == who {
            Some(self.from)
        } else {
            None
        }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} -> {} @{}",
            self.id, self.kind, self.from, self.to, self.block
        )
    }
}

/// Iterator over the distinct accounts of a transaction.
///
/// Produced by [`Transaction::accounts`].
#[derive(Debug, Clone)]
pub struct TxAccounts {
    first: Option<AccountId>,
    second: Option<AccountId>,
}

impl Iterator for TxAccounts {
    type Item = AccountId;

    fn next(&mut self) -> Option<AccountId> {
        self.first.take().or_else(|| self.second.take())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.first.is_some()) + usize::from(self.second.is_some());
        (n, Some(n))
    }
}

impl ExactSizeIterator for TxAccounts {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(from: u64, to: u64) -> Transaction {
        Transaction::new(
            TxId::new(0),
            AccountId::new(from),
            AccountId::new(to),
            BlockHeight::new(0),
        )
    }

    #[test]
    fn accounts_of_normal_tx() {
        let t = tx(1, 2);
        let accts: Vec<_> = t.accounts().collect();
        assert_eq!(accts, vec![AccountId::new(1), AccountId::new(2)]);
        assert_eq!(t.accounts().len(), 2);
    }

    #[test]
    fn accounts_of_self_transfer() {
        let t = tx(5, 5);
        assert!(t.is_self_transfer());
        let accts: Vec<_> = t.accounts().collect();
        assert_eq!(accts, vec![AccountId::new(5)]);
        assert_eq!(t.accounts().len(), 1);
    }

    #[test]
    fn counterparty_resolution() {
        let t = tx(1, 2);
        assert_eq!(t.counterparty(AccountId::new(1)), Some(AccountId::new(2)));
        assert_eq!(t.counterparty(AccountId::new(2)), Some(AccountId::new(1)));
        assert_eq!(t.counterparty(AccountId::new(3)), None);
        assert_eq!(tx(4, 4).counterparty(AccountId::new(4)), None);
    }

    #[test]
    fn kind_display() {
        assert_eq!(TxKind::Transfer.to_string(), "transfer");
        assert_eq!(TxKind::ContractCall.to_string(), "call");
    }
}
