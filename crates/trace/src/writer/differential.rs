//! Differential tests: the encode kernel against the reference formatter.
//!
//! Each case interns its symbols into a fresh session space, builds
//! records from a seeded generator and writes them through
//! [`to_string`], [`format_record`] and a [`TraceWriter`], and through the
//! reference formatter. All must produce the same bytes. The property
//! tests take their case count from `PROPTEST_CASES` (64 by default).

use super::reference;
use super::{
    format_record, push_f64, push_hex, push_i64, push_u64, to_string, TraceWriter, CACHE_SLOTS,
    FLUSH_AT,
};
use crate::intern::{SymId, SymbolSpace};
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use proptest::prelude::*;
use proptest::TestRng;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

/// Symbols for functions, labels and names: identifiers, digit strings,
/// blanks, punctuation and non-ASCII text of every UTF-8 width.
const SYMBOLS: &[&str] = &[
    "main",
    "conj_grad",
    "i",
    "sum",
    "11",
    "0",
    "",
    " ",
    "a:b",
    "x,y",
    "héllo",
    "κλειδί",
    "変数",
    "🦀",
];

/// Doubles where `{:.6}` is easy to get wrong: signed zeros, NaNs,
/// infinities, subnormals, the largest and smallest magnitudes, values
/// halfway between two six-decimal roundings, exact binary ties at the
/// seventh decimal, the edges of the integer path at 2^53 and 2^63, and
/// magnitudes from 1e15 to 1e19.
const SPECIAL_FLOATS: &[f64] = &[
    0.0,
    -0.0,
    f64::NAN,
    -f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    5e-324,
    -5e-324,
    f64::MAX,
    f64::MIN,
    1e300,
    -1e300,
    5e-7,
    -5e-7,
    1.5e-6,
    2.5e-6,
    0.0000005,
    0.1234565,
    0.5,
    2.5,
    9_007_199_254_740_993.0,
    // Exact binary ties at the seventh decimal: odd multiples of 1/128.
    0.0078125,
    -0.0078125,
    0.0234375,
    3.0078125,
    -3.0078125,
    1_048_576.0078125,
    // Around 2^53, where floats stop holding fractions.
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    4_503_599_627_370_495.5,
    // Around 2^63, where the integer path hands over to `fmt`.
    9_223_372_036_854_774_784.0,
    9_223_372_036_854_775_808.0,
    -9_223_372_036_854_775_808.0,
    9_223_372_036_854_777_856.0,
    // 1e15 to 1e19.
    1e15,
    1e16,
    1e17,
    1e18,
    1e19,
    -1e19,
    999_999_999_999_999.9,
];

fn arb_float(rng: &mut TestRng) -> f64 {
    let sign = if rng.flip() { 1.0 } else { -1.0 };
    match rng.below(9) {
        0 => f64::from_bits(rng.next_u64()),
        // Subnormals of either sign.
        1 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
        2 => SPECIAL_FLOATS[rng.below(SPECIAL_FLOATS.len() as u64) as usize],
        // One ulp either side of a halfway case.
        3 => {
            let half = (rng.below(2_000_000) as f64 + 0.5) * 1e-6;
            f64::from_bits((half.to_bits() as i64 + rng.below(3) as i64 - 1) as u64)
        }
        // An exact tie at the seventh decimal: an odd multiple of 1/128.
        4 => sign * (2 * rng.below(1 << 40) + 1) as f64 / 128.0,
        // Within a few ulps of 2^53 or 2^63.
        5 => {
            let pivot = [2f64.powi(53), 2f64.powi(63)][rng.below(2) as usize];
            let ulps = rng.below(17) as i64 - 8;
            sign * f64::from_bits((pivot.to_bits() as i64 + ulps) as u64)
        }
        // A magnitude from 1e15 to 1e19.
        6 => sign * 10f64.powf(15.0 + 4.0 * rng.below(1 << 20) as f64 / (1 << 20) as f64),
        _ => <f64 as Arbitrary>::arbitrary(rng),
    }
}

/// Integers at every decimal-width boundary, the extremes, and random
/// bit patterns of every width.
fn arb_i64(rng: &mut TestRng) -> i64 {
    match rng.below(5) {
        0 => [i64::MIN, i64::MAX, 0, -1, i64::MIN + 1][rng.below(5) as usize],
        1 => {
            let p = 10i64.pow(rng.below(19) as u32);
            (p + rng.below(3) as i64 - 1) * if rng.flip() { 1 } else { -1 }
        }
        _ => (rng.next_u64() >> rng.below(64)) as i64 * if rng.flip() { 1 } else { -1 },
    }
}

fn arb_value(rng: &mut TestRng) -> TraceValue {
    match rng.below(6) {
        0 | 1 => TraceValue::I(arb_i64(rng)),
        2 => TraceValue::Ptr(match rng.below(4) {
            0 => [0, u64::MAX, 1][rng.below(3) as usize],
            _ => rng.next_u64() >> rng.below(64),
        }),
        3 => TraceValue::None,
        _ => TraceValue::F(arb_float(rng)),
    }
}

/// A symbol from [`SYMBOLS`], or one of 600 generated names: more than
/// the cache has slots, so ids collide in it.
fn arb_sym(rng: &mut TestRng) -> SymId {
    if rng.flip() {
        SymId::intern(SYMBOLS[rng.below(SYMBOLS.len() as u64) as usize])
    } else {
        SymId::intern(&format!("v{}_ü", rng.below(600)))
    }
}

fn arb_name(rng: &mut TestRng) -> Name {
    match rng.below(4) {
        0 => {
            Name::Temp([0, u32::MAX, rng.next_u64() as u32 >> rng.below(32)][rng.below(3) as usize])
        }
        1 => Name::None,
        _ => Name::Sym(arb_sym(rng)),
    }
}

fn arb_operand(rng: &mut TestRng, tag: OpTag) -> Operand {
    Operand {
        tag,
        bits: rng.next_u64() as u16 >> rng.below(16),
        value: arb_value(rng),
        is_reg: rng.flip(),
        name: arb_name(rng),
    }
}

fn arb_tag(rng: &mut TestRng) -> OpTag {
    match rng.below(4) {
        0 => OpTag::Param,
        1 => OpTag::Result,
        _ => OpTag::Pos(rng.next_u64() as u8),
    }
}

/// One record, its symbols interned in the current space.
fn arb_record(rng: &mut TestRng) -> Record {
    let operands = (0..rng.below(5))
        .map(|_| {
            let tag = arb_tag(rng);
            arb_operand(rng, tag)
        })
        .collect();
    Record {
        src_line: match rng.below(4) {
            0 => [i32::MIN, i32::MAX, -1, 0][rng.below(4) as usize],
            _ => rng.next_u64() as i32 >> rng.below(32),
        },
        func: arb_sym(rng),
        bb: (
            rng.next_u64() as u32 >> rng.below(32),
            rng.next_u64() as u32 >> rng.below(32),
        ),
        bb_label: arb_sym(rng),
        opcode: rng.next_u64() as u16 >> rng.below(16),
        dyn_id: rng.next_u64() >> rng.below(64),
        operands,
        result: rng.flip().then(|| {
            let tag = arb_tag(rng);
            arb_operand(rng, tag)
        }),
    }
}

/// `count` records from `seed`, interned into the current space.
fn records(seed: u64, count: u64) -> Vec<Record> {
    let mut rng = TestRng::new(seed);
    (0..count).map(|_| arb_record(&mut rng)).collect()
}

/// A `Write` that keeps every write's length and shares its bytes.
#[derive(Clone, Default)]
struct Recorder {
    bytes: Rc<RefCell<Vec<u8>>>,
    writes: Rc<RefCell<Vec<usize>>>,
}

impl Write for Recorder {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.borrow_mut().extend_from_slice(buf);
        self.writes.borrow_mut().push(buf.len());
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #[test]
    fn to_string_matches_reference(seed in any::<u64>(), count in 0u64..64) {
        let space = SymbolSpace::new();
        let _guard = space.enter();
        let recs = records(seed, count);
        prop_assert_eq!(to_string(&recs), reference::to_string(&recs));
    }

    #[test]
    fn format_record_appends_like_reference(seed in any::<u64>(), count in 0u64..16) {
        let space = SymbolSpace::new();
        let _guard = space.enter();
        let recs = records(seed, count);
        let (mut ours, mut theirs) = ("préfixe\n".to_string(), "préfixe\n".to_string());
        for r in &recs {
            format_record(r, &mut ours);
            reference::format_record(r, &mut theirs);
            prop_assert_eq!(&ours, &theirs);
        }
    }

    #[test]
    fn writer_matches_reference_across_flushes(seed in any::<u64>(), count in 0u64..1500) {
        let space = SymbolSpace::new();
        let _guard = space.enter();
        let recs = records(seed, count);
        let out = Recorder::default();
        let mut w = TraceWriter::new(out.clone());
        for r in &recs {
            w.write_record(r).unwrap();
        }
        prop_assert_eq!(w.records_written(), count);
        let written = w.bytes_written();
        w.finish().unwrap();
        let expected = reference::to_string(&recs);
        prop_assert_eq!(written, expected.len() as u64);
        prop_assert_eq!(&*out.bytes.borrow(), expected.as_bytes());
        // Every write but the last carries at least `FLUSH_AT` bytes.
        let writes = out.writes.borrow();
        if let Some((_, full)) = writes.split_last() {
            prop_assert!(full.iter().all(|&n| n >= FLUSH_AT), "writes: {:?}", writes);
        }
    }
}

#[test]
fn every_op_tag_and_extreme_value_matches_reference() {
    let space = SymbolSpace::new();
    let _guard = space.enter();
    let tags = (0..=255u8)
        .map(OpTag::Pos)
        .chain([OpTag::Param, OpTag::Result]);
    let values = [
        TraceValue::I(i64::MIN),
        TraceValue::I(i64::MAX),
        TraceValue::I(0),
        TraceValue::Ptr(0),
        TraceValue::Ptr(u64::MAX),
        TraceValue::None,
    ]
    .into_iter()
    .chain(SPECIAL_FLOATS.iter().map(|&f| TraceValue::F(f)));
    let names = [
        Name::Temp(0),
        Name::Temp(u32::MAX),
        Name::None,
        Name::sym("変数"),
        Name::sym("🦀"),
        Name::sym(""),
    ];
    let mut operands: Vec<Operand> = Vec::new();
    for (i, tag) in tags.enumerate() {
        operands.push(Operand {
            tag,
            bits: [0, 1, 64, u16::MAX][i % 4],
            value: TraceValue::I(i as i64),
            is_reg: i % 2 == 0,
            name: names[i % names.len()],
        });
    }
    for (i, value) in values.enumerate() {
        operands.push(Operand::reg(
            OpTag::Result,
            64,
            value,
            names[i % names.len()],
        ));
    }
    let recs: Vec<Record> = operands
        .chunks(3)
        .enumerate()
        .map(|(i, ops)| Record {
            src_line: [i32::MIN, -1, 0, i32::MAX][i % 4],
            func: SymId::intern("κλειδί"),
            bb: (u32::MAX, 0),
            bb_label: SymId::intern(""),
            opcode: u16::MAX,
            dyn_id: [0, u64::MAX][i % 2],
            operands: ops.to_vec(),
            result: None,
        })
        .collect();
    assert_eq!(to_string(&recs), reference::to_string(&recs));
}

proptest! {
    #[test]
    fn float_kernel_matches_fmt(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let mut out = Vec::new();
        for _ in 0..1000 {
            let v = arb_float(&mut rng);
            out.clear();
            push_f64(&mut out, v);
            prop_assert_eq!(std::str::from_utf8(&out).unwrap(), format!("{v:.6}"), "{:#x}", v.to_bits());
        }
    }
}

#[test]
fn float_kernel_matches_fmt_on_special_values() {
    for &v in SPECIAL_FLOATS {
        for v in [v, -v] {
            let mut out = Vec::new();
            push_f64(&mut out, v);
            assert_eq!(out, format!("{v:.6}").as_bytes(), "{:#x}", v.to_bits());
        }
    }
}

#[test]
fn digit_kernels_match_fmt_at_every_width() {
    let mut unsigned = vec![0, 1, 9, u64::MAX, u64::MAX - 1];
    for k in 1..=19 {
        let p = 10u64.pow(k);
        unsigned.extend([p - 1, p, p + 1]);
    }
    for k in 0..64 {
        unsigned.extend([1u64 << k, (1u64 << k) - 1]);
    }
    for v in unsigned {
        let mut out = Vec::new();
        push_u64(&mut out, v);
        assert_eq!(out, v.to_string().as_bytes());
        out.clear();
        push_hex(&mut out, v);
        assert_eq!(out, format!("{v:x}").as_bytes());
        for s in [v as i64, (v as i64).wrapping_neg()] {
            out.clear();
            push_i64(&mut out, s);
            assert_eq!(out, s.to_string().as_bytes());
        }
    }
}

#[test]
fn colliding_ids_never_share_a_cache_slot_entry() {
    // Ids `k` and `k + CACHE_SLOTS` land in one slot: each must still
    // print its own string, in either order.
    let space = SymbolSpace::new();
    let _guard = space.enter();
    let ids: Vec<SymId> = (0..=2 * CACHE_SLOTS)
        .map(|i| SymId::intern(&format!("sym{i}")))
        .collect();
    let rec = |func: SymId, label: SymId| Record {
        src_line: 1,
        func,
        bb: (1, 1),
        bb_label: label,
        opcode: 2,
        dyn_id: 0,
        operands: vec![],
        result: None,
    };
    let recs = vec![
        rec(ids[0], ids[CACHE_SLOTS]),
        rec(ids[CACHE_SLOTS], ids[0]),
        rec(ids[2 * CACHE_SLOTS], ids[CACHE_SLOTS]),
        rec(ids[0], ids[0]),
    ];
    assert_eq!(to_string(&recs), reference::to_string(&recs));
}
