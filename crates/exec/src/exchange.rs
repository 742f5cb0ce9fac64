//! Exchange and gather: moving rows between the parts of the chunk
//! pipeline, with bytes-over-the-wire metering.
//!
//! The pipeline (see [`crate::pipeline`]) keeps every intermediate
//! relation as one chunk stream per shard, the scan's already placed:
//! storage hands each part dense batches of its own rows
//! ([`gbj_storage::ScanSplit`]). An *exchange* re-routes each live row
//! of an intermediate relation to the part its key hashes to —
//! `GroupKey::shard` of the key, the low bits of the fixed-seed
//! [`gbj_types::stream_hash`] the key index and the sketches hash with,
//! so `=ⁿ` semantics apply and NULL keys land on one fixed part —
//! computed as one destination vector per chunk from the typed key view
//! ([`crate::key::KeyView::shards`], through the placement functions of
//! [`gbj_storage::place`] the scan split routes through too) without
//! building the key, and carried out by [`deal`]; a *gather*
//! concentrates all rows on part 0 for inherently global operators
//! (scalar aggregates, sorts).
//!
//! Only rows whose destination differs from their origin are metered as
//! shipped: co-located rows never cross the wire, which is precisely
//! what makes a combiner below the exchange (and declared partition
//! keys) measurable wins. The byte cost is a deterministic model —
//! estimated row payload ([`crate::guard::row_bytes`]) plus fixed
//! per-row framing, read off column widths and string lengths, no row
//! being built — not a measurement, so `shipped_bytes` is identical
//! across thread counts and runs.
//!
//! A movement is batch construction: both record their wall time as the
//! moving operator's `kernel_ns`, so moved rows belong to an operator's
//! timer like any other.
//!
//! Routing iterates origins in part order and rows in stream order, so
//! every destination receives rows in a deterministic
//! `(origin, position)` order at any thread count.

use gbj_storage::place;
use gbj_types::{Result, Value};

use crate::batch::{ColumnVector, ColumnarBatch};
use crate::key::{string_bytes, KeyView};
use crate::metrics::MetricsSink;
use crate::pipeline::{Chunk, Parts};

/// Fixed per-row wire framing overhead (length prefix + shard header)
/// in the deterministic byte model.
pub(crate) const ROW_FRAME_BYTES: u64 = 8;

/// Modelled wire size of the rows `rows` of `batch`, from column
/// widths: per row the framing, the row header and one cell per column,
/// plus the bytes of every string it holds — the row form's
/// `8 + row_bytes(row)`, which is why a moved input materializes every
/// column (a NULL placeholder would under-count a string).
fn wire_bytes(batch: &ColumnarBatch, rows: impl ExactSizeIterator<Item = usize> + Clone) -> u64 {
    let fixed = ROW_FRAME_BYTES as usize
        + std::mem::size_of::<Vec<Value>>()
        + batch.arity() * std::mem::size_of::<Value>();
    let strings: usize = batch
        .columns()
        .iter()
        .filter(|col| {
            matches!(
                col.as_ref(),
                ColumnVector::Str { .. } | ColumnVector::Dict { .. }
            )
        })
        .map(|col| rows.clone().map(|i| string_bytes(col, i)).sum::<usize>())
        .sum();
    (fixed * rows.len() + strings) as u64
}

/// Deal the live rows of `chunk` out to the streams of `out`: row `k`
/// (in live order) goes to `dests[k]`. Each destination gets the shared
/// batch under its own selection vector, rows keeping their order —
/// nothing is copied here; a row is materialized where an operator
/// needs it dense (a join's build side, the compaction of a join's
/// sparse probe windows, the result set). With a
/// single destination the chunk is handed over untouched and `dests` is
/// not read.
fn deal(chunk: Chunk, dests: &[u32], out: &mut [Vec<Chunk>]) -> Result<()> {
    if let [only] = out {
        only.push(chunk);
        return Ok(());
    }
    let sels = place::per_part(chunk.indices(), dests, out.len())?;
    for (stream, sel) in out.iter_mut().zip(sels) {
        if !sel.is_empty() {
            stream.push(Chunk {
                batch: chunk.batch.clone(),
                sel: Some(sel),
            });
        }
    }
    Ok(())
}

/// Route every live row to the part its key over `ords` hashes to — one
/// destination vector per batch, from the typed key view — metering
/// rows that leave their origin part into `sink`. Destinations receive
/// rows in `(origin part, origin position)` order.
pub(crate) fn exchange(parts: Parts, ords: &[usize], sink: &MetricsSink) -> Result<Parts> {
    let timer = sink.start_timer();
    let n = parts.len();
    let mut out: Parts = (0..n).map(|_| Vec::new()).collect();
    let (mut shipped_rows, mut shipped_bytes) = (0u64, 0u64);
    for (origin, chunks) in parts.into_iter().enumerate() {
        for chunk in chunks {
            let dests = KeyView::of(&chunk.batch, ords)?.shards(chunk.indices(), n);
            let leaving = chunk.indices().zip(&dests);
            let leaving: Vec<usize> = leaving
                .filter(|(_, dest)| **dest as usize != origin)
                .map(|(i, _)| i)
                .collect();
            shipped_rows += leaving.len() as u64;
            shipped_bytes += wire_bytes(&chunk.batch, leaving.iter().copied());
            deal(chunk, &dests, &mut out)?;
        }
    }
    sink.add_shipped(shipped_rows, shipped_bytes);
    sink.record_kernel(timer);
    Ok(out)
}

/// Concentrate all rows on one stream in part order (for scalar
/// aggregates and global sorts), metering everything that leaves a part
/// other than 0.
pub(crate) fn gather(parts: Parts, sink: &MetricsSink) -> Vec<Chunk> {
    let timer = sink.start_timer();
    let (mut shipped_rows, mut shipped_bytes) = (0u64, 0u64);
    let mut out = Vec::new();
    for (origin, chunks) in parts.into_iter().enumerate() {
        if origin != 0 {
            for chunk in &chunks {
                shipped_rows += chunk.out_len() as u64;
                shipped_bytes += wire_bytes(&chunk.batch, chunk.indices());
            }
        }
        out.extend(chunks);
    }
    sink.add_shipped(shipped_rows, shipped_bytes);
    sink.record_kernel(timer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{ColumnVector, StringDict, NULL_CODE};
    use crate::guard::row_bytes;
    use gbj_types::GroupKey;
    use std::sync::Arc;

    /// One column of every [`ColumnVector`] variant, six rows each, with
    /// NULLs everywhere a variant can hold one.
    fn every_variant() -> Vec<(&'static str, ColumnVector)> {
        let typed = |vals: [Value; 6]| ColumnVector::from_values(vals.iter()).unwrap();
        let mut dict = StringDict::default();
        let (x, long) = (
            dict.intern("x").unwrap(),
            dict.intern("a longer string").unwrap(),
        );
        let int = |i| Value::Int(i);
        vec![
            (
                "Int",
                typed([int(1), Value::Null, int(2), int(1), int(-7), int(2)]),
            ),
            (
                "Float",
                typed([
                    Value::Float(0.5),
                    Value::Float(0.5),
                    Value::Null,
                    Value::Float(-1.0),
                    Value::Float(2.0),
                    Value::Null,
                ]),
            ),
            (
                "Bool",
                typed([
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Bool(true),
                    Value::Null,
                    Value::Null,
                    Value::Bool(false),
                ]),
            ),
            (
                "Str",
                typed([
                    Value::str("p"),
                    Value::Null,
                    Value::str("quite long payload"),
                    Value::str(""),
                    Value::str("p"),
                    Value::str("q"),
                ]),
            ),
            (
                "Dict",
                ColumnVector::Dict {
                    codes: vec![x, long, NULL_CODE, x, long, NULL_CODE],
                    dict: Arc::new(dict),
                },
            ),
            ("all-NULL", ColumnVector::all_null(6)),
        ]
    }

    /// The chunk exchange against its row-form definition: every live
    /// row lands on `GroupKey(key values).shard(n)`, in `(origin,
    /// position)` order, and exactly the rows that change part are
    /// metered at `8 + row_bytes(row)`.
    #[test]
    fn chunk_exchange_matches_its_row_form_definition() {
        let variants = every_variant();
        for (key_name, key_col) in &variants {
            for (payload_name, payload_col) in &variants {
                let batch =
                    ColumnarBatch::from_columns(vec![key_col.clone(), payload_col.clone()], 6)
                        .unwrap();
                for sel in [None, Some(vec![5u32, 0, 3, 2])] {
                    for n in [1usize, 2, 4, 8] {
                        let ctx =
                            format!("key={key_name} payload={payload_name} sel={sel:?} n={n}");
                        // Origin `o` holds the chunk `o + 1` times, so
                        // position order within an origin is exercised.
                        let parts: Parts = (0..n)
                            .map(|o| {
                                (0..=o.min(1))
                                    .map(|_| Chunk {
                                        batch: batch.clone(),
                                        sel: sel.clone(),
                                    })
                                    .collect()
                            })
                            .collect();
                        let mut expect: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
                        let (mut rows, mut bytes) = (0u64, 0u64);
                        for (origin, chunks) in parts.iter().enumerate() {
                            for chunk in chunks {
                                for i in chunk.indices() {
                                    let row = chunk.batch.row(i);
                                    let dest = GroupKey(vec![row[0].clone()]).shard(n);
                                    if dest != origin {
                                        rows += 1;
                                        bytes += 8 + row_bytes(&row);
                                    }
                                    expect[dest].push(row);
                                }
                            }
                        }
                        let sink = MetricsSink::new();
                        let out = exchange(parts, &[0], &sink).unwrap();
                        let got: Vec<Vec<Vec<Value>>> = out
                            .iter()
                            .map(|chunks| crate::pipeline::chunk_rows(chunks))
                            .collect();
                        assert_eq!(got, expect, "{ctx}");
                        if *key_name == "all-NULL" {
                            let holders = got.iter().filter(|p| !p.is_empty()).count();
                            assert_eq!(holders, 1, "{ctx}: =ⁿ NULL keys must not spray");
                        }
                        let m = sink.finish(0, 0);
                        assert_eq!((m.shipped_rows, m.shipped_bytes), (rows, bytes), "{ctx}");
                        if n == 1 {
                            assert_eq!((rows, bytes), (0, 0), "{ctx}: one part ships nothing");
                        }
                    }
                }
            }
        }
    }

    /// Gather keeps `(origin, position)` order and meters every row that
    /// was not already on part 0; an out-of-range key ordinal is an
    /// error, not a panic.
    #[test]
    fn gather_meters_all_non_resident_rows_and_bad_ordinals_error() {
        let ints = |vals: &[i64]| -> Vec<Vec<Value>> {
            vals.iter().map(|&v| vec![Value::Int(v)]).collect()
        };
        let chunk = |vals: &[i64], sel: Option<Vec<u32>>| Chunk {
            batch: ColumnarBatch::from_rows(&ints(vals), 1).unwrap(),
            sel,
        };
        let parts = vec![
            vec![chunk(&[1], None)],
            vec![chunk(&[2, 9, 3], Some(vec![0, 2]))],
            vec![],
        ];
        let sink = MetricsSink::new();
        let out = crate::pipeline::chunk_rows(&gather(parts, &sink));
        assert_eq!(out, ints(&[1, 2, 3]), "origin order, live rows only");
        let m = sink.finish(3, 3);
        assert_eq!(m.shipped_rows, 2, "part 0's row stays home");
        assert_eq!(m.shipped_bytes, 2 * (8 + row_bytes(&[Value::Int(0)])));

        let parts = vec![vec![chunk(&[1], None)], vec![]];
        assert!(exchange(parts, &[3], &MetricsSink::new()).is_err());
    }
}
