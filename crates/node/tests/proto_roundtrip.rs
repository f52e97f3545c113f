//! Property test: the typed protocol round-trips exactly through
//! **both** codecs — every request and response via the line wire
//! (`encode`/`parse`, `write_to`/`read_from`) and via the binary frame
//! wire — for arbitrary field values. Also pins the line rendering of
//! `TX` batches: a batch flattens to plain `TX` lines, byte-identical
//! to sending the transactions one at a time and to the
//! `format!("TX {} {} {} {} {}")` rendering the line protocol was
//! defined by.

use std::io::Cursor;

use mosaic_node::wire::Incoming;
use mosaic_node::{Request, Response, Wire};
use mosaic_types::{AccountId, BlockHeight, Transaction, TxId, TxKind};
use proptest::prelude::*;

fn tx_from(a: u64, b: u64, c: u64, d: u64) -> Transaction {
    Transaction::with_kind(
        TxId::new(a),
        AccountId::new(b),
        AccountId::new(c),
        BlockHeight::new(d),
        if a.is_multiple_of(2) {
            TxKind::Transfer
        } else {
            TxKind::ContractCall
        },
    )
}

fn request_from(kind: u8, a: u64, b: u64, c: u64, d: u64) -> Request {
    match kind % 9 {
        0 => Request::Begin {
            cell: (a % 1024) as usize,
            blocks: b.max(1),
        },
        1 => Request::Tx(tx_from(a, b, c, d)),
        2 => Request::End,
        3 => Request::Lookup(AccountId::new(a)),
        4 => Request::Load,
        5 => Request::Csv,
        6 => Request::TxBatch(vec![tx_from(a, b, c, d), tx_from(d, c, b, a)]),
        7 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn response_from(kind: u8, a: u64, b: u64, lines: &[u64]) -> Response {
    let rendered: Vec<String> = lines
        .iter()
        .map(|&v| format!("shard {} {} {}", v % 64, v, v.wrapping_mul(3)))
        .collect();
    match kind % 6 {
        0 => Response::Ok(if a.is_multiple_of(2) {
            String::new()
        } else {
            format!("cell {a} ({b} epochs)")
        }),
        1 => Response::Error(format!("block {a} arrived after block {b}")),
        2 => Response::Shard((a % u64::from(u16::MAX)) as u16),
        3 => Response::Load(rendered),
        4 => Response::Csv(rendered),
        _ => Response::Stats(rendered),
    }
}

/// The line a `TX` request has always been on the wire.
fn format_line(tx: &Transaction) -> String {
    format!(
        "TX {} {} {} {} {}",
        tx.id.as_u64(),
        tx.block.as_u64(),
        tx.from.as_u64(),
        tx.to.as_u64(),
        tx.kind
    )
}

/// The transactions a decoded stream carries, batches flattened.
fn transactions(requests: &[Request]) -> Vec<Transaction> {
    let mut txs = Vec::new();
    for request in requests {
        match request {
            Request::Tx(tx) => txs.push(*tx),
            Request::TxBatch(batch) => txs.extend_from_slice(batch),
            _ => {}
        }
    }
    txs
}

/// Round-trips one request through `wire`, collecting every decoded
/// request it produces.
fn through(wire: Wire, request: &Request) -> Vec<Request> {
    let mut bytes = Vec::new();
    wire.write_request(&mut bytes, request).unwrap();
    let mut input = Cursor::new(&bytes[..]);
    let mut decoded = Vec::new();
    while let Some(incoming) = wire.read_request(&mut input).unwrap() {
        match incoming {
            Incoming::Request(request) => decoded.push(request),
            Incoming::Malformed { message, .. } => panic!("decoded as malformed: {message}"),
        }
    }
    decoded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn requests_roundtrip_through_both_codecs(
        kind in 0u8..9,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        c in 0u64..u64::MAX,
        d in 0u64..u64::MAX,
    ) {
        let request = request_from(kind, a, b, c, d);

        // Binary wire: every variant is exactly one frame.
        prop_assert_eq!(through(Wire::Binary, &request), vec![request.clone()]);

        // Line wire: transaction traffic comes back as the same
        // transactions, however the reader groups them (a `TX` and a
        // batch are the same lines on the wire, and the reader returns
        // a buffered run of them as one batch); everything else
        // round-trips as itself.
        let line_decoded = through(Wire::Line, &request);
        if let Request::Tx(_) | Request::TxBatch(_) = &request {
            prop_assert_eq!(
                transactions(&line_decoded),
                transactions(std::slice::from_ref(&request))
            );
            prop_assert!(line_decoded.iter().all(|r| !r.expects_reply()));
            let lines: Vec<String> = transactions(&line_decoded).iter().map(format_line).collect();
            prop_assert_eq!(request.encode(), lines.join("\n"));
        } else {
            prop_assert_eq!(&line_decoded, &vec![request.clone()]);

            // The line form is canonical: re-encoding is byte-stable,
            // and exactly the TX lines are fire-and-forget.
            let line = request.encode();
            prop_assert!(!line.contains('\n'), "single lines only: {line:?}");
            prop_assert_eq!(line_decoded[0].encode(), line.clone());
            prop_assert_eq!(Request::line_expects_reply(&line), request.expects_reply());
        }
    }

    #[test]
    fn tx_batches_flatten_to_individual_tx_lines(
        fields in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..16),
    ) {
        let txs: Vec<Transaction> = fields
            .iter()
            .map(|&(a, b, c, d)| tx_from(a, b, c, d))
            .collect();

        // Byte-level: one batch write == N single writes on the line wire.
        let mut batched = Vec::new();
        Wire::Line.write_tx_batch(&mut batched, &txs).unwrap();
        let mut singles = Vec::new();
        for tx in &txs {
            Wire::Line.write_request(&mut singles, &Request::Tx(*tx)).unwrap();
        }
        prop_assert_eq!(&batched, &singles);
        let formatted: String = txs.iter().map(|tx| format_line(tx) + "\n").collect();
        prop_assert_eq!(batched, formatted.into_bytes());

        // And the binary frame carries the whole batch intact.
        prop_assert_eq!(
            through(Wire::Binary, &Request::TxBatch(txs.clone())),
            vec![Request::TxBatch(txs)]
        );
    }

    /// The byte-level `TX` encoder against the `format!` rendering, on
    /// fields of every decimal width (a shifted `u64` has 1–20 digits).
    #[test]
    fn tx_lines_render_as_the_format_rendering(
        fields in proptest::collection::vec(((0u64..u64::MAX, 0u64..u64::MAX), (0u64..u64::MAX, 0u64..u64::MAX), 0u32..64), 1..16),
    ) {
        for &((a, b), (c, d), shift) in &fields {
            let tx = tx_from(a >> shift, b >> (shift / 2), c >> (63 - shift), d >> (shift % 7));
            let mut bytes = Vec::new();
            Wire::Line.write_request(&mut bytes, &Request::Tx(tx)).unwrap();
            prop_assert_eq!(bytes, (format_line(&tx) + "\n").into_bytes());
            prop_assert_eq!(Request::Tx(tx).encode(), format_line(&tx));
        }
    }

    #[test]
    fn responses_roundtrip_through_both_codecs(
        kind in 0u8..6,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        lines in proptest::collection::vec(0u64..u64::MAX, 0..8),
    ) {
        let response = response_from(kind, a, b, &lines);
        for wire in [Wire::Line, Wire::Binary] {
            let mut bytes = Vec::new();
            wire.write_response(&mut bytes, &response).unwrap();
            let back = wire.read_response(&mut Cursor::new(&bytes[..])).unwrap();
            prop_assert_eq!(&back, &response, "diverged through the {} wire", wire);
            // Canonical: writing the decoded response is byte-stable.
            let mut again = Vec::new();
            wire.write_response(&mut again, &back).unwrap();
            prop_assert_eq!(again, bytes);
        }
    }
}

/// The server sniffs a connection's first byte to pick the codec: `M`
/// means a `MOSB` binary hello, anything else is line mode. That only
/// works while no request's line encoding starts with `M` — pinned
/// here over every variant (including the new `STATS`, which starts
/// with `S`, not `M`) so a future verb cannot silently break
/// negotiation.
#[test]
fn no_request_line_collides_with_the_binary_hello() {
    let every_variant = [
        Request::Begin { cell: 0, blocks: 1 },
        Request::Tx(tx_from(1, 2, 3, 4)),
        Request::TxBatch(vec![tx_from(1, 2, 3, 4)]),
        Request::End,
        Request::Lookup(AccountId::new(5)),
        Request::Load,
        Request::Csv,
        Request::Stats,
        Request::Shutdown,
    ];
    for request in every_variant {
        let line = request.encode();
        assert!(
            !line.starts_with('M'),
            "{line:?} would be sniffed as a binary hello"
        );
        assert!(
            !line.starts_with("MOSB"),
            "{line:?} collides with the MOSB magic"
        );
    }
}
