//! Differential tests: the decode kernel against the reference parser.
//!
//! Both parsers read the same lines, each into a fresh session space. Every
//! line's outcome (nothing, a finished record, or a [`ParseError`]), the
//! final flush, and the space's symbols in id order must be equal. Equal
//! ids in fresh spaces mean equal interning order. Parsing goes on past
//! errors, so the parsers' state after a failed line is compared too.

use super::reference::Reference;
use super::{find_newline, lines, parse_str_core, slot_of, ParseError, TraceParser};
use crate::ctx::AnalysisCtx;
use crate::intern::SymId;
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use crate::writer;
use proptest::prelude::*;
use proptest::strategy::fn_strategy;
use proptest::TestRng;

/// The two parsers, behind one interface.
trait LineParser {
    fn feed(&mut self, line: &str) -> Result<Option<Record>, ParseError>;
    fn flush(&mut self) -> Option<Record>;
}

impl LineParser for TraceParser {
    fn feed(&mut self, line: &str) -> Result<Option<Record>, ParseError> {
        self.feed_line(line)
    }
    fn flush(&mut self) -> Option<Record> {
        self.finish()
    }
}

impl LineParser for Reference {
    fn feed(&mut self, line: &str) -> Result<Option<Record>, ParseError> {
        self.feed_line(line)
    }
    fn flush(&mut self) -> Option<Record> {
        self.finish()
    }
}

/// A record with ids as indices and floats as bits: comparable across
/// spaces, and NaN equals itself.
fn canon(r: &Record) -> String {
    fn value(v: &TraceValue) -> String {
        match v {
            TraceValue::F(f) => format!("F({:#x})", f.to_bits()),
            other => format!("{other:?}"),
        }
    }
    fn name(n: &Name) -> String {
        match n {
            Name::Sym(s) => format!("Sym#{}", s.index()),
            other => format!("{other:?}"),
        }
    }
    fn operand(o: &Operand) -> String {
        format!(
            "{:?} {} {} {} {}",
            o.tag,
            o.bits,
            value(&o.value),
            o.is_reg,
            name(&o.name)
        )
    }
    let ops: Vec<String> = r.operands.iter().map(operand).collect();
    format!(
        "{} #{} {:?} #{} {} {} {:?} {:?}",
        r.src_line,
        r.func.index(),
        r.bb,
        r.bb_label.index(),
        r.opcode,
        r.dyn_id,
        ops,
        r.result.as_ref().map(operand)
    )
}

/// Every line's outcome, the final flush, then the space's symbols.
fn outcome<P: LineParser>(text: &str, make: impl FnOnce(AnalysisCtx) -> P) -> Vec<String> {
    let ctx = AnalysisCtx::session();
    let mut parser = make(ctx.clone());
    let mut out = Vec::new();
    for line in text.lines() {
        out.push(match parser.feed(line) {
            Ok(None) => String::new(),
            Ok(Some(r)) => canon(&r),
            Err(e) => format!("error {e}"),
        });
    }
    out.push(format!("flush {:?}", parser.flush().as_ref().map(canon)));
    out.extend(
        ctx.space()
            .symbols()
            .iter()
            .map(|s| format!("symbol {s:?}")),
    );
    out
}

fn kernel(text: &str) -> Vec<String> {
    outcome(text, TraceParser::with_ctx)
}

fn reference(text: &str) -> Vec<String> {
    outcome(text, Reference::with_ctx)
}

/// Panic with the first differing line unless the parsers agree on `text`.
fn assert_agree(text: &str) {
    let (k, r) = (kernel(text), reference(text));
    if let Some(i) = (0..k.len().max(r.len())).find(|&i| k.get(i) != r.get(i)) {
        panic!(
            "kernel and reference differ at entry {i} for input {text:?}:\n kernel: {:?}\n    ref: {:?}",
            k.get(i),
            r.get(i)
        );
    }
}

/// The first error the kernel reports for `text` when parsed whole.
fn first_error(text: &str) -> ParseError {
    let mut p = TraceParser::with_ctx(AnalysisCtx::session());
    for line in text.lines() {
        if let Err(e) = p.feed_line(line) {
            return e;
        }
    }
    panic!("{text:?} parsed without error")
}

/// Parse `text` with the kernel, which must accept it, resolving symbols
/// inside its session.
fn parse_ok(text: &str) -> (Vec<Record>, AnalysisCtx) {
    let ctx = AnalysisCtx::session();
    let mut p = TraceParser::with_ctx(ctx.clone());
    let mut recs = Vec::new();
    for line in text.lines() {
        if let Some(r) = p.feed_line(line).unwrap() {
            recs.push(r);
        }
    }
    recs.extend(p.finish());
    (recs, ctx)
}

// ---------------------------------------------------------------------------
// Generated traces
// ---------------------------------------------------------------------------

/// Symbols for functions, labels and names: plain identifiers, digit
/// strings (some beyond `u32`), blanks, signs and non-ASCII text.
const SYMBOLS: &[&str] = &[
    "main",
    "foo",
    "conj_grad",
    "i",
    "it",
    "sum",
    "x",
    "11",
    "7",
    "0",
    "00",
    "4294967295",
    "4294967296",
    "99999999999999999999999",
    "",
    " ",
    "+5",
    "-3",
    "a:b",
    "héllo",
    "0x10",
    "1.5",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

fn arb_i64(rng: &mut TestRng) -> i64 {
    match rng.below(5) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => rng.below(200) as i64 - 100,
        _ => rng.next_u64() as i64,
    }
}

fn arb_value(rng: &mut TestRng) -> TraceValue {
    match rng.below(6) {
        0 => TraceValue::I(arb_i64(rng)),
        1 => TraceValue::Ptr(rng.next_u64() >> rng.below(64)),
        2 => TraceValue::None,
        3 => TraceValue::F(-0.0),
        _ => TraceValue::F(<f64 as Arbitrary>::arbitrary(rng)),
    }
}

fn arb_name(rng: &mut TestRng) -> Name {
    match rng.below(3) {
        0 => Name::Temp(rng.next_u64() as u32 >> rng.below(32)),
        1 => Name::None,
        _ => Name::sym(pick(rng, SYMBOLS)),
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

fn arb_record(rng: &mut TestRng) -> Record {
    let mut operands = Vec::new();
    for i in 0..rng.below(4) {
        let tag = if rng.below(4) == 0 {
            OpTag::Param
        } else {
            OpTag::Pos((i as u8 + 1).max(rng.next_u64() as u8))
        };
        operands.push(arb_operand(rng, tag));
    }
    Record {
        src_line: match rng.below(4) {
            0 => i32::MIN,
            1 => -1,
            _ => rng.next_u64() as i32 >> rng.below(32),
        },
        func: SymId::intern(pick(rng, SYMBOLS)),
        bb: (
            rng.next_u64() as u32 >> rng.below(32),
            rng.next_u64() as u32 >> rng.below(32),
        ),
        bb_label: SymId::intern(pick(rng, SYMBOLS)),
        opcode: rng.next_u64() as u16 >> rng.below(16),
        dyn_id: rng.next_u64() >> rng.below(64),
        operands,
        result: rng.flip().then(|| arb_operand(rng, OpTag::Result)),
    }
}

/// A writer-produced trace of up to 12 records.
fn arb_trace() -> impl Strategy<Value = String> {
    fn_strategy(|rng: &mut TestRng| {
        let records: Vec<Record> = (0..rng.below(13)).map(|_| arb_record(rng)).collect();
        writer::to_string(&records)
    })
}

/// Bytes the mutations write: field and number syntax, line ends, and
/// letters that `str::parse::<f64>` reads.
const MUTATION_BYTES: &[u8] = b"0123456789,,,:-+x.eEnNaAfFrIiy \r\n";

/// `text` with 1 to 4 single-byte flips, insertions and deletions, made
/// valid UTF-8 again where a change split a character.
fn mutate(text: &str, rng: &mut TestRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.below(4) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let byte = MUTATION_BYTES[rng.below(MUTATION_BYTES.len() as u64) as usize];
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_reference_on_writer_traces(text in arb_trace()) {
        let (k, r) = (kernel(&text), reference(&text));
        prop_assert_eq!(k, r, "input: {:?}", text);
    }

    #[test]
    fn kernel_matches_reference_on_mutated_traces(
        text in arb_trace(),
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::new(seed);
        for _ in 0..8 {
            let mutated = mutate(&text, &mut rng);
            let (k, r) = (kernel(&mutated), reference(&mutated));
            prop_assert_eq!(k, r, "input: {:?}", mutated);
        }
    }

    #[test]
    fn line_splitter_matches_str_lines(text in arb_trace(), seed in any::<u64>()) {
        // Equal up to the trailing `\r`s that `feed_line` trims.
        let mut rng = TestRng::new(seed);
        let mutated = mutate(&text, &mut rng).replace(',', "\r");
        for t in [text.as_str(), mutated.as_str()] {
            let ours: Vec<&str> = lines(t).map(|l| l.trim_end_matches('\r')).collect();
            let std: Vec<&str> = t.lines().map(|l| l.trim_end_matches('\r')).collect();
            prop_assert_eq!(ours, std, "input: {:?}", t);
        }
    }

    #[test]
    fn whole_text_parse_matches_line_by_line(text in arb_trace(), seed in any::<u64>()) {
        let mutated = mutate(&text, &mut TestRng::new(seed));
        let ctx = AnalysisCtx::session();
        let mut p = TraceParser::with_ctx(ctx.clone());
        let by_line = mutated
            .lines()
            .filter_map(|l| p.feed_line(l).transpose())
            .collect::<Result<Vec<Record>, ParseError>>()
            .map(|mut v| {
                v.extend(p.finish());
                v
            });
        let whole = parse_str_core(&mutated, &ctx);
        prop_assert_eq!(
            whole.map(|v| v.iter().map(canon).collect::<Vec<_>>()),
            by_line.map(|v| v.iter().map(canon).collect::<Vec<_>>()),
            "input: {:?}",
            mutated
        );
    }
}

#[test]
fn newline_search_at_every_offset() {
    for len in 0..40 {
        for nl in 0..=len {
            let mut b = vec![b'a'; len];
            if nl < len {
                b[nl] = b'\n';
            }
            // A byte one above `\n` in the lane after it must not register.
            if nl + 1 < len {
                b[nl + 1] = b'\n' + 1;
            }
            for from in 0..=len {
                let want = b[from..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(len, |k| from + k);
                assert_eq!(
                    find_newline(&b, from),
                    want,
                    "len {len} newline {nl} from {from}"
                );
            }
        }
    }
}

#[test]
fn kernel_matches_reference_on_the_hostile_corpus() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/hostile");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 10, "hostile corpus went missing: {files:?}");
    for path in files {
        let bytes = std::fs::read(&path).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        let (k, r) = (kernel(&text), reference(&text));
        assert!(k == r, "kernel and reference differ on {}", path.display());
    }
}

// ---------------------------------------------------------------------------
// Named cases
// ---------------------------------------------------------------------------

const HEADER: &str = "0,3,foo,6:1,11,27,215,";

#[test]
fn leading_plus_on_integers() {
    let text = "0,+3,foo,+6:+1,11,+27,+215,\n+1,+64,+5,1,+8,\nr,64,0x+ff,1,+9,\n";
    assert_agree(text);
    let (recs, _ctx) = parse_ok(text);
    let r = &recs[0];
    assert_eq!((r.src_line, r.bb, r.opcode, r.dyn_id), (3, (6, 1), 27, 215));
    assert_eq!(r.operands[0].tag, OpTag::Pos(1));
    assert_eq!(r.operands[0].bits, 64);
    assert_eq!(r.operands[0].value, TraceValue::I(5));
    // A signed name is a symbol, not a temporary.
    assert!(r.operands[0].name.is_sym());
    assert_eq!(r.result.as_ref().unwrap().value, TraceValue::Ptr(0xff));
}

#[test]
fn long_decimals_and_hex() {
    let lines = [
        // 20 digits: beyond i64, so a float.
        "1,64,12345678901234567890,0,,",
        // Leading zeros past 19 digits still name a small integer.
        "1,64,00000000000000000000042,0,,",
        "1,64,-00000000000000000000042,0,,",
        // 17 and 19 hex digits: one overflows, one is zero-padded.
        "1,64,0x1ffffffffffffffff,1,p,",
        "1,64,0x00000000000000000ff,1,p,",
        "1,64,0xFFFFFFFFFFFFFFFF,1,p,",
        "1,64,0x,1,p,",
    ];
    for line in lines {
        assert_agree(&format!("{HEADER}\n{line}\n"));
    }
    let (recs, _ctx) = parse_ok(&format!(
        "{HEADER}\n{}\n{}\n{}\n",
        lines[0], lines[1], lines[4]
    ));
    let values: Vec<_> = recs[0].operands.iter().map(|o| o.value).collect();
    assert_eq!(
        values,
        [
            TraceValue::F(12345678901234567890.0),
            TraceValue::I(42),
            TraceValue::Ptr(0xff)
        ]
    );
    let e = first_error(&format!("{HEADER}\n{}\n", lines[3]));
    assert_eq!(e.message, "bad operand value `0x1ffffffffffffffff`");
    // Dynamic ids: u64::MAX has 20 digits; one more overflows.
    for dyn_id in [
        "18446744073709551615",
        "18446744073709551616",
        "000000000000000000000007",
    ] {
        assert_agree(&format!("0,3,foo,6:1,11,27,{dyn_id},\n"));
    }
    assert_eq!(
        first_error("0,3,foo,6:1,11,27,18446744073709551616,\n").message,
        "bad dyn id `18446744073709551616`"
    );
}

#[test]
fn negative_zero_and_extremes() {
    let text = format!(
        "0,-0,foo,6:1,11,27,1,\n1,64,-0,0,,\n2,64,{},0,,\n3,64,{},0,,\n\
         0,-2147483648,foo,6:1,11,27,2,\n1,64,-9223372036854775809,0,,\n",
        i64::MIN,
        i64::MAX
    );
    assert_agree(&text);
    let (recs, _ctx) = parse_ok(&text);
    assert_eq!(recs[0].src_line, 0);
    let values: Vec<_> = recs[0].operands.iter().map(|o| o.value).collect();
    assert_eq!(
        values,
        [
            TraceValue::I(0),
            TraceValue::I(i64::MIN),
            TraceValue::I(i64::MAX)
        ]
    );
    assert_eq!(recs[1].src_line, i32::MIN);
    // One past i64::MIN is not an integer, so it reads as a float.
    assert_eq!(
        recs[1].operands[0].value,
        TraceValue::F(-9223372036854775809.0)
    );
    for bad in [
        "0,-2147483649,foo,6:1,11,27,1,",
        "0,2147483648,foo,6:1,11,27,1,",
        "0,-,foo,6:1,11,27,1,",
        "0,3,foo,-6:1,11,27,1,",
        "0,3,foo,6:1,11,-27,1,",
        "0,3,foo,6:1,11,70000,1,",
        "0,3,foo,6:1,11,27,-1,",
        "0,3,foo,4294967296:1,11,27,1,",
        "0,3,foo,6:4294967296,11,27,1,",
    ] {
        assert_agree(bad);
    }
    assert_eq!(
        first_error("0,-2147483649,foo,6:1,11,27,1,\n").message,
        "bad src line `-2147483649`"
    );
}

#[test]
fn empty_function_and_label_symbols() {
    let text = "0,3,,6:1,,27,1,\n1,64,5,1,,\n";
    assert_agree(text);
    let (recs, ctx) = parse_ok(text);
    let _g = ctx.enter();
    assert_eq!(recs[0].func.as_str(), "");
    assert_eq!(recs[0].bb_label, recs[0].func);
}

#[test]
fn empty_and_blank_value_and_name_fields() {
    let text = format!("{HEADER}\n1,64,,1,,\n2,64, ,0, ,\nr,64,,1, \n");
    assert_agree(&text);
    let (recs, _ctx) = parse_ok(&text);
    for op in recs[0].operands.iter().chain(&recs[0].result) {
        assert_eq!(op.value, TraceValue::None);
        assert_eq!(op.name, Name::None);
    }
    assert_eq!(
        first_error("0,3,foo,6:1,11,27,1,\n1,64,\n").message,
        "missing operand value"
    );
}

#[test]
fn missing_trailing_comma_and_extra_fields() {
    let with = format!("{HEADER}\n1,64,0x10,1,p,\n");
    let bare = "0,3,foo,6:1,11,27,215\n1,64,0x10,1,p\n";
    let extra = "0,3,foo,6:1,11,27,215,x,y,\n1,64,0x10,1,p,q,,r,\n";
    for text in [with.as_str(), bare, extra] {
        assert_agree(text);
    }
    let (a, _a) = parse_ok(&with);
    let (b, _b) = parse_ok(bare);
    let (c, _c) = parse_ok(extra);
    assert_eq!(canon(&a[0]), canon(&b[0]));
    assert_eq!(canon(&a[0]), canon(&c[0]));
    // Cut anywhere, a header or operand line fails like the reference.
    for text in [HEADER, "1,64,0x10,1,p,"] {
        for cut in 0..text.len() {
            assert_agree(&format!("{HEADER}\n{}\n", &text[..cut]));
        }
    }
}

#[test]
fn crlf_and_repeated_carriage_returns() {
    let unix = format!("{HEADER}\n1,64,0x10,1,p,\n");
    let dos = format!("{HEADER}\r\n1,64,0x10,1,p,\r\n");
    let many = format!("{HEADER}\r\r\r\n1,64,0x10,1,p\r\r\n\r\n");
    for text in [&unix, &dos, &many] {
        assert_agree(text);
    }
    let (a, _a) = parse_ok(&unix);
    let (b, _b) = parse_ok(&many);
    assert_eq!(canon(&a[0]), canon(&b[0]));
}

#[test]
fn zero_and_odd_operand_tags() {
    for tag in ["00", "+0", "0x1", "256", "-1", "r1", "", " ", "01", "255"] {
        assert_agree(&format!("{HEADER}\n{tag},64,1,0,,\n"));
    }
    assert_eq!(
        first_error(&format!("{HEADER}\n00,64,1,0,,\n")).message,
        "operand id 0 is reserved for headers"
    );
}

#[test]
fn all_digit_names_beyond_u32_are_symbols() {
    let text = format!(
        "{HEADER}\n1,64,1,1,4294967295,\n2,64,1,1,4294967296,\n3,64,1,1,00000000000000000000001,\n"
    );
    assert_agree(&text);
    let (recs, ctx) = parse_ok(&text);
    let _g = ctx.enter();
    let names: Vec<_> = recs[0].operands.iter().map(|o| o.name).collect();
    assert_eq!(names[0], Name::Temp(u32::MAX));
    assert_eq!(names[1].as_sym().unwrap().as_str(), "4294967296");
    assert_eq!(names[2], Name::Temp(1));
}

#[test]
fn a_thousand_symbols_in_one_cache_slot_keep_their_ids() {
    // Same length, first byte and last byte: one slot for all of them.
    let names: Vec<String> = (0..1000).map(|i| format!("s{i:04}z")).collect();
    let slot = slot_of(names[0].as_bytes());
    assert!(names.iter().all(|n| slot_of(n.as_bytes()) == slot));
    let mut text = String::new();
    // Twice round, so every lookup of the second pass evicts a neighbour.
    for pass in 0..2 {
        for (i, n) in names.iter().enumerate() {
            text.push_str(&format!(
                "0,1,{n},1:1,{n},27,{},\n1,64,0x10,1,{n},\n",
                pass * 1000 + i
            ));
        }
    }
    assert_agree(&text);
    let (recs, ctx) = parse_ok(&text);
    let _g = ctx.enter();
    assert_eq!(recs.len(), 2000);
    let mut ids = std::collections::HashSet::new();
    for (i, r) in recs.iter().enumerate() {
        let name = &names[i % 1000];
        assert_eq!(r.func.as_str(), name.as_str());
        assert_eq!(r.bb_label, r.func);
        assert_eq!(r.operands[0].name, Name::Sym(r.func));
        assert_eq!(r.func, recs[i % 1000].func, "one id per symbol");
        ids.insert(r.func);
    }
    assert_eq!(ids.len(), 1000);
    assert_eq!(ctx.space().len(), 1000);
}
