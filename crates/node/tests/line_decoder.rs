//! The line wire's reader under hostile bytes.
//!
//! `Wire::Line.read_request` decodes canonical `TX` / `LOOKUP` lines
//! where they lie in the reader's buffer, returns a buffered run of
//! `TX` lines as one batch, and reads every other line through
//! `Request::parse`. How much of the stream happens to be buffered must
//! never show: flattened (batches into their transactions), the decoded
//! stream is the same at every buffer capacity and equals a reference
//! that splits the bytes at newlines and parses each line on its own.

use std::io::{self, BufRead, BufReader, Read};

use mosaic_node::wire::Incoming;
use mosaic_node::{Request, Wire};
use mosaic_types::{AccountId, BlockHeight, Transaction, TxId, TxKind};
use proptest::prelude::*;

/// One decoded unit of a flattened stream.
#[derive(Debug, PartialEq)]
enum Item {
    Tx(Transaction),
    Request(Request),
    Malformed {
        message: String,
        fire_and_forget: bool,
    },
    /// The error that ended the stream.
    Failed(io::ErrorKind),
}

/// Everything `Wire::Line` decodes from `bytes` through a `BufReader`
/// of `capacity` bytes, flattened, up to the end of the stream or the
/// first error.
fn decode(bytes: &[u8], capacity: usize) -> Vec<Item> {
    let mut input = BufReader::with_capacity(capacity, bytes);
    let mut items = Vec::new();
    loop {
        match Wire::Line.read_request(&mut input) {
            Ok(None) => return items,
            Ok(Some(Incoming::Request(Request::TxBatch(txs)))) => {
                assert!(!txs.is_empty(), "an empty batch decoded from {bytes:?}");
                items.extend(txs.into_iter().map(Item::Tx));
            }
            Ok(Some(Incoming::Request(request))) => items.push(reference_item(request)),
            Ok(Some(Incoming::Malformed {
                message,
                fire_and_forget,
            })) => items.push(Item::Malformed {
                message,
                fire_and_forget,
            }),
            Err(e) => {
                items.push(Item::Failed(e.kind()));
                return items;
            }
        }
    }
}

fn reference_item(request: Request) -> Item {
    match request {
        Request::Tx(tx) => Item::Tx(tx),
        other => Item::Request(other),
    }
}

/// The per-line reference: split after each newline, skip blank lines,
/// and give every other line to `Request::parse`. A line that is not
/// UTF-8 ends the stream, as it ends a connection. (Inputs here stay
/// far below the wire's 4 KiB line cap.)
fn reference(bytes: &[u8]) -> Vec<Item> {
    let mut items = Vec::new();
    for chunk in bytes.split_inclusive(|&b| b == b'\n') {
        let Ok(line) = std::str::from_utf8(chunk) else {
            items.push(Item::Failed(io::ErrorKind::InvalidData));
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        items.push(match Request::parse(line) {
            Ok(request) => reference_item(request),
            Err(message) => Item::Malformed {
                message,
                fire_and_forget: !Request::line_expects_reply(line),
            },
        });
    }
    items
}

/// Asserts the decoder's flattened stream at every capacity equals the
/// reference.
fn check(bytes: &[u8]) -> Result<(), String> {
    assert!(bytes.len() < 4096, "inputs stay under the line cap");
    let expected = reference(bytes);
    for capacity in [1, 7, 64, 8192] {
        let got = decode(bytes, capacity);
        if got != expected {
            return Err(format!(
                "capacity {capacity} on {:?}:\n got {got:?}\nwant {expected:?}",
                String::from_utf8_lossy(bytes)
            ));
        }
    }
    Ok(())
}

const SEPARATORS: [&str; 5] = [" ", " ", " ", "  ", "\t"];
const FIELDS: [&str; 11] = [
    "0",
    "7",
    "42",
    "007",
    "18446744073709551615",
    "18446744073709551616",
    "00000000000000000000001",
    "+5",
    "-1",
    "x",
    "",
];
const KINDS: [&str; 8] = [
    "transfer",
    "call",
    "transfer",
    "call",
    "teleport",
    "transfer x",
    "Transfer",
    "",
];
const ENDINGS: [&str; 6] = ["\n", "\n", "\n", "\r\n", " \n", ""];
const VERBS: [&str; 10] = [
    "TX", "TX", "TX", "TX", "LOOKUP", "LOOKUP", "END", "BEGIN", "STATS", "TXX",
];

/// One request-like line built from `(shape, value, knobs)`: mostly
/// canonical `TX` and `LOOKUP` lines, with separators, fields, kinds
/// and endings drawn from lists that hold every near miss the fast path
/// must refuse, plus blank lines and raw bytes.
fn line(shape: u8, value: u64, knobs: u32) -> Vec<u8> {
    let pick = |list: &[&str], at: u32| list[(knobs >> at) as usize % list.len()].to_string();
    match shape {
        // Canonical: a TX line of fields of every width, or a LOOKUP.
        0..=5 => {
            let field = |shift: u32| (value >> (knobs.rotate_left(shift) % 64)).to_string();
            let kind = if value.is_multiple_of(2) {
                "transfer"
            } else {
                "call"
            };
            if shape == 5 {
                format!("LOOKUP {}\n", field(3))
            } else {
                format!(
                    "TX {} {} {} {} {kind}\n",
                    field(0),
                    field(7),
                    field(14),
                    field(21)
                )
            }
            .into_bytes()
        }
        // A near miss: a verb, 0–5 fields, maybe a kind, an ending.
        6..=9 => {
            let mut text = pick(&VERBS, 0);
            for i in 0..(knobs >> 4) % 6 {
                text += &pick(&SEPARATORS, 7 + i);
                text += &if (knobs >> (12 + i)).is_multiple_of(3) {
                    value.to_string()
                } else {
                    pick(&FIELDS, 12 + 2 * i)
                };
            }
            if !(knobs >> 24).is_multiple_of(4) {
                text += &pick(&SEPARATORS, 25);
                text += &pick(&KINDS, 27);
            }
            text += &pick(&ENDINGS, 29);
            text.into_bytes()
        }
        10 => pick(&["\n", "   \n", "\r\n", "\t\n"], 0).into_bytes(),
        // Raw bytes, UTF-8 or not.
        _ => value.to_le_bytes()[..(knobs % 9) as usize].to_vec(),
    }
}

/// Builds a stream from `lines`, then applies `edits` — `(op, at,
/// byte)`: overwrite, insert, delete, truncate — at positions modulo
/// the length.
fn stream(lines: &[(u8, u64, u32)], edits: &[(u8, u16, u8)]) -> Vec<u8> {
    let mut bytes: Vec<u8> = lines
        .iter()
        .flat_map(|&(shape, value, knobs)| line(shape, value, knobs))
        .collect();
    for &(op, at, byte) in edits {
        let at = usize::from(at) % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    bytes
}

/// An alphabet the request grammar is made of, so that random strings
/// over it sometimes form whole lines.
const ALPHABET: &[u8] = b"TX LOOKUP transfercall 0123456789\n\n\n\r\t+\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_bytes_decode_alike_at_every_buffer_capacity(
        lines in proptest::collection::vec((0u8..13, any::<u64>(), any::<u32>()), 0..40),
        edits in proptest::collection::vec((0u8..5, any::<u16>(), any::<u8>()), 0..4),
    ) {
        let bytes = stream(&lines, &edits);
        prop_assert!(check(&bytes).is_ok(), "{}", check(&bytes).unwrap_err());
    }

    #[test]
    fn arbitrary_bytes_decode_alike_at_every_buffer_capacity(
        raw in proptest::collection::vec(any::<u8>(), 0..600),
        from_alphabet in any::<bool>(),
    ) {
        let bytes: Vec<u8> = if from_alphabet {
            raw.iter().map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()]).collect()
        } else {
            raw
        };
        prop_assert!(check(&bytes).is_ok(), "{}", check(&bytes).unwrap_err());
    }
}

fn tx(id: u64) -> Transaction {
    Transaction::with_kind(
        TxId::new(id),
        AccountId::new(id * 31),
        AccountId::new(id + 5),
        BlockHeight::new(id / 3),
        if id.is_multiple_of(3) {
            TxKind::ContractCall
        } else {
            TxKind::Transfer
        },
    )
}

/// Serves its bytes from one buffer and fails any read past them: a
/// peer that sent `N` `TX` lines and a `LOOKUP` and now waits for the
/// `SHARD` reply.
struct Waiting {
    bytes: Vec<u8>,
    at: usize,
}

impl Read for Waiting {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.fill_buf()?.read(buf)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Waiting {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.at == self.bytes.len() {
            return Err(io::Error::other("read past what the peer sent"));
        }
        Ok(&self.bytes[self.at..])
    }
    fn consume(&mut self, amt: usize) {
        self.at += amt;
    }
}

/// The closed-loop client's guarantee: a query behind a run of `TX`
/// lines is answerable from what the node already holds. The reader
/// returns the run as one batch, then the `LOOKUP`, and never asks the
/// stream for more — which would block on a client that is waiting for
/// the reply.
#[test]
fn a_lookup_behind_a_tx_run_needs_no_further_read() {
    for n in [1, 2, 10, 300] {
        let txs: Vec<Transaction> = (0..n).map(tx).collect();
        let mut bytes = Vec::new();
        Wire::Line.write_tx_batch(&mut bytes, &txs).unwrap();
        bytes.extend_from_slice(b"LOOKUP 5\n");
        let mut input = Waiting { bytes, at: 0 };
        assert_eq!(
            Wire::Line.read_request(&mut input).unwrap(),
            Some(Incoming::Request(Request::TxBatch(txs)))
        );
        assert_eq!(
            Wire::Line.read_request(&mut input).unwrap(),
            Some(Incoming::Request(Request::Lookup(AccountId::new(5))))
        );
        assert_eq!(input.at, input.bytes.len());
    }
}

/// Canonical lines that would decode fine on their own still stop a
/// run where they come after a line the fast path refuses, so the
/// malformed `TX` keeps its place in the stream (its error is the one
/// `END` reports).
#[test]
fn a_refused_line_splits_a_run_in_order() {
    let bytes = b"TX 1 0 2 3 transfer\nTX 2 0 2 3 teleport\nTX 3 0 2 3 call\nEND\n";
    let items = decode(bytes, 8192);
    assert!(matches!(
        &items[..],
        [
            Item::Tx(_),
            Item::Malformed {
                fire_and_forget: true,
                ..
            },
            Item::Tx(_),
            Item::Request(Request::End)
        ]
    ));
    assert_eq!(items, reference(bytes));
}

/// A canonical `TX` line that a refill of the reader's buffer splits is
/// completed across the refill and decoded into a batch, never as a
/// lone `Tx`: over 250 000 `TX` lines with a `LOOKUP` after every tenth,
/// every capacity decodes the stream in order with no single-`Tx`
/// request, and at 8 KiB each refill splits at most one run, so the
/// batches number at most the runs plus the refills.
#[test]
fn a_tx_line_split_by_a_refill_stays_in_a_batch() {
    const LINES: u64 = 250_000;
    let mut bytes = Vec::new();
    let mut expected = Vec::new();
    for start in (0..LINES).step_by(10) {
        let txs: Vec<Transaction> = (start..start + 10).map(tx).collect();
        Wire::Line.write_tx_batch(&mut bytes, &txs).unwrap();
        expected.extend(txs.into_iter().map(Item::Tx));
        let account = AccountId::new(start % 977);
        Wire::Line
            .write_request(&mut bytes, &Request::Lookup(account))
            .unwrap();
        expected.push(Item::Request(Request::Lookup(account)));
    }
    for capacity in [1, 7, 64, 8192] {
        let mut input = BufReader::with_capacity(capacity, &bytes[..]);
        let (mut items, mut batches) = (Vec::new(), 0);
        while let Some(incoming) = Wire::Line.read_request(&mut input).unwrap() {
            match incoming {
                Incoming::Request(Request::TxBatch(txs)) => {
                    batches += 1;
                    items.extend(txs.into_iter().map(Item::Tx));
                }
                Incoming::Request(Request::Tx(tx)) => {
                    panic!("a lone {tx:?} at capacity {capacity}")
                }
                Incoming::Request(lookup) => items.push(Item::Request(lookup)),
                other => panic!("{other:?} at capacity {capacity}"),
            }
        }
        assert!(
            items == expected,
            "capacity {capacity} decodes out of order"
        );
        if capacity == 8192 {
            let (runs, refills) = (LINES / 10, bytes.len().div_ceil(capacity) as u64);
            assert!(
                batches <= runs + refills,
                "{batches} batches for {runs} runs"
            );
        }
    }
}
