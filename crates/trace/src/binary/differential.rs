//! Differential tests: the windowed streaming reader against the reference
//! reader, which takes each record with two `read_exact` calls.
//!
//! Both readers open the same bytes into fresh sessions with the same
//! limits, behind the same `trace-bytes` guard the trace source puts in
//! front of them, and must deliver the same records and then the same
//! error (message and byte offset). The inputs: random traces of both
//! versions, every truncation, bit flips, seeded fault plans, ceilings at
//! random offsets, a record larger than the read window, and trailing
//! garbage. The property tests take their case count from
//! `PROPTEST_CASES` (64 by default).

use super::reference::Reference;
use super::{
    to_bytes, to_bytes_with_index, BinaryStreamReader, OPERAND_BYTES, RECORD_BYTES, WINDOW_BYTES,
};
use crate::ctx::AnalysisCtx;
use crate::fault::FaultPlan;
use crate::limits::ResourceLimits;
use crate::name::Name;
use crate::reader::TraceReadError;
use crate::record::{OpTag, Operand, Record, TraceValue};
use crate::source::{unsmuggle_limit, ByteLimitReader};
use proptest::prelude::*;
use proptest::TestRng;
use std::io::Read;

/// Function, label and operand names, including the empty string and
/// multi-byte UTF-8.
const SYMBOLS: &[&str] = &[
    "main",
    "conj_grad",
    "i",
    "sum",
    "11",
    "0",
    "",
    "héllo",
    "変数",
];

fn arb_sym(rng: &mut TestRng, ctx: &AnalysisCtx) -> crate::intern::SymId {
    ctx.intern(SYMBOLS[rng.below(SYMBOLS.len() as u64) as usize])
}

fn arb_operand(rng: &mut TestRng, ctx: &AnalysisCtx) -> Operand {
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
            _ => Name::Sym(arb_sym(rng, ctx)),
        },
    }
}

/// A record with up to `max_ops` operands, its symbols interned in `ctx`.
fn arb_record(rng: &mut TestRng, ctx: &AnalysisCtx, max_ops: u64) -> Record {
    Record {
        src_line: rng.next_u64() as i32,
        func: arb_sym(rng, ctx),
        bb: (rng.next_u64() as u32, rng.next_u64() as u32),
        bb_label: arb_sym(rng, ctx),
        opcode: rng.next_u64() as u16,
        dyn_id: rng.next_u64(),
        operands: (0..rng.below(max_ops + 1))
            .map(|_| arb_operand(rng, ctx))
            .collect(),
        result: rng.flip().then(|| arb_operand(rng, ctx)),
    }
}

/// `count` random records from `seed`, written as a version-1 file or,
/// for half the seeds, as a version-2 file with a random iteration index.
fn trace(seed: u64, count: u64) -> Vec<u8> {
    let mut rng = TestRng::new(seed);
    let ctx = AnalysisCtx::session();
    let records: Vec<Record> = (0..count).map(|_| arb_record(&mut rng, &ctx, 5)).collect();
    if rng.flip() {
        let bounds = (1..count).filter(|_| rng.below(8) == 0).collect();
        to_bytes_with_index(&records, bounds, &ctx)
    } else {
        to_bytes(&records, &ctx)
    }
}

/// Records as both readers deliver them: symbols by id (each reader
/// interns the file's table into a fresh space, in file order) and floats
/// by bit pattern, so a flipped NaN still compares.
fn same_record(a: &Record, b: &Record) -> bool {
    let same_value = |x: &TraceValue, y: &TraceValue| match (x, y) {
        (TraceValue::F(x), TraceValue::F(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    };
    let same_op = |x: &Operand, y: &Operand| {
        x.tag == y.tag
            && x.bits == y.bits
            && x.is_reg == y.is_reg
            && x.name == y.name
            && same_value(&x.value, &y.value)
    };
    (a.src_line, a.func, a.bb, a.bb_label, a.opcode, a.dyn_id)
        == (b.src_line, b.func, b.bb, b.bb_label, b.opcode, b.dyn_id)
        && a.operands.len() == b.operands.len()
        && a.operands
            .iter()
            .zip(&b.operands)
            .all(|(x, y)| same_op(x, y))
        && match (&a.result, &b.result) {
            (Some(x), Some(y)) => same_op(x, y),
            (x, y) => x.is_none() && y.is_none(),
        }
}

/// What a reader delivered: each record, then the first error as shown.
type Outcome = Vec<Result<Record, String>>;

fn same_item(a: Option<&Result<Record, String>>, b: Option<&Result<Record, String>>) -> bool {
    match (a, b) {
        (Some(Ok(a)), Some(Ok(b))) => same_record(a, b),
        (a, b) => a == b,
    }
}

fn shown(e: TraceReadError) -> String {
    unsmuggle_limit(e).to_string()
}

/// The three ways to drain a trace: the windowed reader's step into one
/// reused slot (what `TraceStream` batches do), its `Iterator` impl, and
/// the reference reader.
#[derive(Clone, Copy, Debug)]
enum Drain {
    Lending,
    Owned,
    Reference,
}

fn drain(how: Drain, input: Box<dyn Read + '_>, ctx: &AnalysisCtx) -> Outcome {
    let owned = |item: Result<Record, TraceReadError>| item.map_err(shown);
    match how {
        Drain::Lending => match BinaryStreamReader::open(input, ctx) {
            Ok(mut r) => {
                let mut out = Vec::new();
                let mut slot = Record::blank();
                while let Some(step) = r.advance(&mut slot) {
                    out.push(step.map(|()| slot.clone()).map_err(shown));
                }
                out
            }
            Err(e) => vec![Err(shown(e))],
        },
        Drain::Owned => match BinaryStreamReader::open(input, ctx) {
            Ok(r) => r.map(owned).collect(),
            Err(e) => vec![Err(shown(e))],
        },
        Drain::Reference => match Reference::open(input, ctx) {
            Ok(r) => r.map(owned).collect(),
            Err(e) => vec![Err(shown(e))],
        },
    }
}

/// Drain `bytes` all three ways under `limits`, each through its own copy
/// of `plan`, and require one outcome.
fn check(
    bytes: &[u8],
    limits: ResourceLimits,
    plan: Option<&FaultPlan>,
) -> Result<(), TestCaseError> {
    let run = |how: Drain| {
        let ctx = AnalysisCtx::session().with_limits(limits);
        let input: Box<dyn Read + '_> = match plan {
            Some(plan) => Box::new(plan.clone().reader(bytes)),
            None => Box::new(bytes),
        };
        drain(how, ByteLimitReader::wrap(input, &ctx), &ctx)
    };
    let expected = run(Drain::Reference);
    for how in [Drain::Lending, Drain::Owned] {
        let got = run(how);
        let differs = |&i: &usize| !same_item(got.get(i), expected.get(i));
        if let Some(i) = (0..got.len().max(expected.len())).find(differs) {
            prop_assert!(
                false,
                "{how:?} reader differs at item {i} of {} bytes under {limits:?}, {plan:?}:\n got {:?}\nwant {:?}",
                bytes.len(),
                got.get(i),
                expected.get(i)
            );
        }
    }
    Ok(())
}

/// No ceiling, no faults.
fn unlimited() -> ResourceLimits {
    ResourceLimits::new()
}

proptest! {
    #[test]
    fn random_traces_match_reference(seed in any::<u64>(), count in 0u64..2000) {
        check(&trace(seed, count), unlimited(), None)?;
    }

    #[test]
    fn every_truncation_matches_reference(seed in any::<u64>(), count in 0u64..12) {
        let bytes = trace(seed, count);
        for cut in 0..=bytes.len() {
            check(&bytes[..cut], unlimited(), None)?;
        }
    }

    #[test]
    fn bit_flips_match_reference(seed in any::<u64>(), count in 1u64..1500, flips in 1u64..5) {
        let mut bytes = trace(seed, count);
        let mut rng = TestRng::new(!seed);
        for _ in 0..flips {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        check(&bytes, unlimited(), None)?;
    }

    #[test]
    fn fault_plans_match_reference(seed in any::<u64>(), count in 0u64..1500, plan in any::<u64>()) {
        let bytes = trace(seed, count);
        check(&bytes, unlimited(), Some(&FaultPlan::from_seed(plan, bytes.len() as u64)))?;
    }

    #[test]
    fn byte_ceilings_match_reference(
        seed in any::<u64>(),
        count in 0u64..1500,
        at in any::<u64>(),
        short_reads in any::<bool>(),
    ) {
        let bytes = trace(seed, count);
        let ceiling = at % (bytes.len() as u64 + 2);
        let plan = FaultPlan { seed, short_reads, ..FaultPlan::default() };
        check(&bytes, ResourceLimits::new().max_trace_bytes(ceiling), Some(&plan))?;
    }
}

/// Cuts, ceilings and flips at every byte around the end of the first
/// window, where the record that straddles it makes the first refill.
#[test]
fn the_first_refill_matches_reference() {
    let bytes = trace(7, 1_000);
    assert!(bytes.len() > WINDOW_BYTES + 200, "{} bytes", bytes.len());
    for at in WINDOW_BYTES - 100..=WINDOW_BYTES + 100 {
        check(&bytes[..at], unlimited(), None).unwrap();
        check(
            &bytes,
            ResourceLimits::new().max_trace_bytes(at as u64),
            None,
        )
        .unwrap();
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x10;
        check(&flipped, unlimited(), None).unwrap();
    }
}

/// One record of 4,000 operands (32 + 4,000 × 19 = 76,032 bytes) between
/// small ones: the window grows to hold it, under every fault.
#[test]
fn a_record_larger_than_the_window_matches_reference() {
    let ctx = AnalysisCtx::session();
    let mut rng = TestRng::new(11);
    let mut records: Vec<Record> = (0..40).map(|_| arb_record(&mut rng, &ctx, 5)).collect();
    let mut big = arb_record(&mut rng, &ctx, 0);
    big.operands = (0..4_000).map(|_| arb_operand(&mut rng, &ctx)).collect();
    big.result = None;
    let big_at = to_bytes(&records[..20], &ctx).len();
    let big_len = RECORD_BYTES + 4_000 * OPERAND_BYTES;
    assert!(big_len > WINDOW_BYTES);
    records.insert(20, big);
    for bytes in [
        to_bytes(&records, &ctx),
        to_bytes_with_index(&records, vec![3, 20, 21, 33], &ctx),
    ] {
        // The windowed reader decodes exactly what was written.
        let back: Vec<Record> = BinaryStreamReader::open(&bytes[..], &ctx)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert!(
            back.len() == records.len()
                && back.iter().zip(&records).all(|(a, b)| same_record(a, b))
        );
        let len = bytes.len() as u64;
        check(&bytes, unlimited(), None).unwrap();
        check(
            &bytes,
            unlimited(),
            Some(&FaultPlan::clean().with_short_reads()),
        )
        .unwrap();
        for inside in [
            0,
            1,
            RECORD_BYTES,
            WINDOW_BYTES - 1,
            WINDOW_BYTES,
            big_len - 1,
        ] {
            let at = big_at + inside;
            check(&bytes[..at], unlimited(), None).unwrap();
            check(
                &bytes,
                ResourceLimits::new().max_trace_bytes(at as u64),
                None,
            )
            .unwrap();
            check(
                &bytes,
                unlimited(),
                Some(&FaultPlan::clean().error_at(at as u64)),
            )
            .unwrap();
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x04;
            check(&flipped, unlimited(), None).unwrap();
        }
        for seed in 0..32 {
            check(&bytes, unlimited(), Some(&FaultPlan::from_seed(seed, len))).unwrap();
        }
    }
}

/// Bytes after the last record (or after the version-2 footer) fail at
/// the same offset, whether the window already holds them or the probe
/// has to read them, and under a ceiling at the valid length.
#[test]
fn trailing_garbage_after_v1_and_v2_matches_reference() {
    let ctx = AnalysisCtx::session();
    let mut rng = TestRng::new(5);
    let records: Vec<Record> = (0..60).map(|_| arb_record(&mut rng, &ctx, 5)).collect();
    for valid in [
        to_bytes(&records, &ctx),
        to_bytes_with_index(&records, vec![10, 30], &ctx),
    ] {
        check(&valid, unlimited(), None).unwrap();
        for garbage in [&b"\0"[..], b"junk", &[0xB7; 70_000]] {
            let mut bytes = valid.clone();
            bytes.extend_from_slice(garbage);
            check(&bytes, unlimited(), None).unwrap();
            for ceiling in [valid.len(), valid.len() + 1] {
                check(
                    &bytes,
                    ResourceLimits::new().max_trace_bytes(ceiling as u64),
                    None,
                )
                .unwrap();
            }
            check(
                &bytes,
                unlimited(),
                Some(&FaultPlan::clean().with_short_reads()),
            )
            .unwrap();
        }
    }
}
