//! Differential tests: the bounded, spilling [`BinaryWriter`] against the
//! reference writer, which holds every record byte in memory.
//!
//! Both writers take the same records in the same session and must report
//! the same counters after every record, then write the same bytes. The
//! inputs: random traces sized around the 64 KiB spill point (less than
//! one buffer, one, two and several, records straddling it, records larger
//! than the buffer), multi-MiB traces, version-2 footers, and records that
//! fail — an over-long symbol or too many operands. Both writers reject the
//! same record with the same error, and the bounded writer then carries on
//! as if it had never been offered: its file equals the reference's over
//! the other records. The property tests take their case count from
//! `PROPTEST_CASES` (64 by default).

use super::writer_reference::Reference;
use super::{BinaryWriter, MAX_OPERANDS, OPERAND_BYTES, RECORD_BYTES, SPILL_AT};
use crate::ctx::AnalysisCtx;
use crate::intern::SymId;
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use proptest::prelude::*;
use proptest::TestRng;
use std::io;

/// Symbol pool: the first names of a space, multi-byte UTF-8, the empty
/// string, and 300 generated names, so file-local indices pass 256 and
/// session ids arrive out of order.
fn symbols(ctx: &AnalysisCtx) -> Vec<SymId> {
    let mut names: Vec<String> = ["main", "conj_grad", "i", "", "héllo", "変数"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    names.extend((0..300).map(|i| format!("v{i}")));
    names.iter().map(|s| ctx.intern(s)).collect()
}

fn arb_operand(rng: &mut TestRng, syms: &[SymId]) -> Operand {
    Operand {
        tag: match rng.below(4) {
            0 => OpTag::Param,
            1 => OpTag::Result,
            _ => OpTag::Pos(1 + rng.below(255) as u8),
        },
        bits: rng.next_u64() as u16,
        value: match rng.below(4) {
            0 => TraceValue::I(rng.next_u64() as i64),
            1 => TraceValue::F(f64::from_bits(rng.next_u64())),
            2 => TraceValue::Ptr(rng.next_u64()),
            _ => TraceValue::None,
        },
        is_reg: rng.flip(),
        name: match rng.below(3) {
            0 => Name::None,
            1 => Name::Temp(rng.next_u64() as u32),
            // Skewed towards the first symbols, as traces are.
            _ => {
                let within = 1 + rng.below(syms.len() as u64);
                Name::Sym(syms[rng.below(within) as usize])
            }
        },
    }
}

/// A record with up to `max_ops` operands.
fn arb_record(rng: &mut TestRng, syms: &[SymId], max_ops: u64) -> Record {
    let sym = |rng: &mut TestRng| syms[rng.below(syms.len() as u64) as usize];
    Record {
        src_line: rng.next_u64() as i32,
        func: sym(rng),
        bb: (rng.next_u64() as u32, rng.next_u64() as u32),
        bb_label: sym(rng),
        opcode: rng.next_u64() as u16,
        dyn_id: rng.next_u64(),
        operands: (0..rng.below(max_ops + 1))
            .map(|_| arb_operand(rng, syms))
            .collect(),
        result: rng.flip().then(|| arb_operand(rng, syms)),
    }
}

/// Encoded size of `r`.
fn size(r: &Record) -> usize {
    RECORD_BYTES + (r.operands.len() + usize::from(r.result.is_some())) * OPERAND_BYTES
}

/// Random records until their encoding reaches `bytes`; one in 64 has
/// 4,000 operands (76 KB, more than the buffer) when `huge` is set.
fn records_of(rng: &mut TestRng, syms: &[SymId], bytes: usize, huge: bool) -> Vec<Record> {
    let mut out = Vec::new();
    let mut total = 0;
    while total < bytes {
        let max_ops = if huge && rng.below(64) == 0 { 4000 } else { 6 };
        let r = arb_record(rng, syms, max_ops);
        total += size(&r);
        out.push(r);
    }
    out
}

/// Write `records` through both writers, checking the counters after each,
/// with an optional version-2 footer; returns both files.
fn write_both(
    records: &[Record],
    ctx: &AnalysisCtx,
    footer: Option<Vec<u64>>,
) -> (Vec<u8>, Vec<u8>) {
    let mut new = BinaryWriter::with_ctx(Vec::new(), ctx);
    let mut old = Reference::with_ctx(Vec::new(), ctx);
    for r in records {
        new.write_record(r).unwrap();
        old.write_record(r).unwrap();
        assert_eq!(new.records_written(), old.records_written());
        assert_eq!(new.bytes_written(), old.bytes_written());
    }
    if let Some(bounds) = footer {
        new.set_iteration_index(bounds.clone());
        old.set_iteration_index(bounds);
        assert_eq!(new.bytes_written(), old.bytes_written());
    }
    (new.finish().unwrap(), old.finish().unwrap())
}

/// An error as the tests compare it.
fn error_of(e: io::Error) -> (io::ErrorKind, String) {
    (e.kind(), e.to_string())
}

proptest! {
    #[test]
    fn traces_around_the_spill_point_match_reference(
        seed in any::<u64>(),
        buffers in 0usize..4,
        slack in 0usize..400,
    ) {
        let mut rng = TestRng::new(seed);
        let ctx = AnalysisCtx::session();
        let syms = symbols(&ctx);
        // A trace ending within a few records either side of a multiple
        // of the buffer.
        let bytes = (buffers * SPILL_AT + slack).saturating_sub(200);
        let records = records_of(&mut rng, &syms, bytes, buffers > 0);
        let footer = rng.flip().then(|| {
            (1..records.len() as u64).filter(|_| rng.below(16) == 0).collect()
        });
        let (new, old) = write_both(&records, &ctx, footer);
        prop_assert!(new == old, "{} records, {} vs {} bytes", records.len(), new.len(), old.len());
    }

    #[test]
    fn failing_records_match_reference(seed in any::<u64>(), count in 1usize..3000) {
        let mut rng = TestRng::new(seed);
        let ctx = AnalysisCtx::session();
        let mut syms = symbols(&ctx);
        let long = ctx.intern(&"x".repeat(u16::MAX as usize + 1 + rng.below(8) as usize));
        let mut records: Vec<Record> =
            (0..count).map(|_| arb_record(&mut rng, &syms, 6)).collect();
        // Make a few records fail, each in one of the ways a record can,
        // and give the later ones symbols no earlier record used.
        let mut failing = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(count as u64) as usize;
            let r = &mut records[at];
            match rng.below(4) {
                0 => r.func = long,
                1 => r.bb_label = long,
                2 => {
                    let fresh = ctx.intern(&format!("fresh{}", syms.len()));
                    syms.push(fresh);
                    r.func = fresh;
                    r.operands.push(Operand::reg(OpTag::Pos(1), 64, TraceValue::I(1), Name::Sym(long)));
                }
                _ => r.operands = vec![Operand::imm(OpTag::Pos(1), 1, TraceValue::None); MAX_OPERANDS + 1],
            }
            failing.push(at);
        }
        failing.sort_unstable();
        failing.dedup();
        // Both writers reject the first failing record with the same error
        // after the same records.
        let mut new = BinaryWriter::with_ctx(Vec::new(), &ctx);
        let mut old = Reference::with_ctx(Vec::new(), &ctx);
        let first = failing[0];
        for r in &records[..first] {
            new.write_record(r).unwrap();
            old.write_record(r).unwrap();
        }
        let new_err = new.write_record(&records[first]).map_err(error_of);
        let old_err = old.write_record(&records[first]).map_err(error_of);
        prop_assert!(new_err.is_err());
        prop_assert_eq!(&new_err, &old_err);
        prop_assert_eq!(new.records_written(), old.records_written());
        // The bounded writer keeps nothing of a failed record: it goes on
        // as the reference does over the accepted records alone.
        let mut accepted = Vec::new();
        for (i, r) in records.iter().enumerate() {
            if failing.contains(&i) {
                if i > first {
                    prop_assert!(new.write_record(r).is_err(), "record {} must fail", i);
                }
            } else {
                if i > first {
                    new.write_record(r).unwrap();
                }
                accepted.push(r.clone());
            }
        }
        let mut reference = Reference::with_ctx(Vec::new(), &ctx);
        for r in &accepted {
            reference.write_record(r).unwrap();
        }
        prop_assert_eq!(new.bytes_written(), reference.bytes_written());
        prop_assert!(new.finish().unwrap() == reference.finish().unwrap());
    }
}

#[test]
fn multi_mib_traces_match_reference() {
    for seed in [1, 2] {
        let mut rng = TestRng::new(seed);
        let ctx = AnalysisCtx::session();
        let syms = symbols(&ctx);
        let records = records_of(&mut rng, &syms, 3 << 20, true);
        let footer = (seed == 2).then(|| (1..records.len() as u64).step_by(97).collect());
        let (new, old) = write_both(&records, &ctx, footer);
        assert!(new.len() > 3 << 20);
        assert!(
            new == old,
            "seed {seed}: {} vs {} bytes",
            new.len(),
            old.len()
        );
    }
}

#[test]
fn only_a_trace_past_one_buffer_spills() {
    let mut rng = TestRng::new(7);
    let ctx = AnalysisCtx::session();
    let syms = symbols(&ctx);
    let records = records_of(&mut rng, &syms, 2 * SPILL_AT, false);
    let mut w = BinaryWriter::with_ctx(Vec::new(), &ctx);
    let mut written = 0;
    for r in &records {
        let spills = written + size(r) > SPILL_AT;
        w.write_record(r).unwrap();
        written += size(r);
        assert_eq!(w.spill.is_some(), spills, "after {written} record bytes");
        if spills {
            break;
        }
    }
    assert!(w.spill.is_some(), "the records fill more than one buffer");
}
