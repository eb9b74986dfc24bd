//! Differential tests: the windowed text reader against the reference
//! line parser.
//!
//! The reference side reads the same input stack as the reader (the
//! `trace-bytes` guard the trace source puts in front of it, and any fault
//! plan) the way the reader reads: one read of the window size at a time.
//! It feeds each complete line, one at a time, to `reference.rs`, which
//! checks no UTF-8 of its own, so a line that is not valid UTF-8 fails
//! there instead of being fed. A record is delivered when the reference
//! returns it, once its successor's header has parsed, or at the final
//! flush; the first error ends the stream. The reader, drained through its
//! lending step and through its `Iterator`, must deliver the same records,
//! then the same error (kind, line and message), and leave the same
//! symbols, in the same order, in its fresh session space. Equal ids in
//! fresh spaces mean equal interning order.
//!
//! Every property runs at windows of 1, 7, 64, 4096 and 65536 bytes. The
//! property tests take their case count from `PROPTEST_CASES` (at least
//! 256).
//!
//! The decoder reads each field with a byte scanner for the writer's
//! spelling and falls back to `str::parse` of the field's text, so every
//! check here covers both paths. The scanners' own tests add
//! near-canonical traces, which take one field of a writer line across
//! each edge of what the scanners accept, and hold every line the writer
//! writes for the tracer's records to the scanners alone.

use super::reference::Reference;
use super::{find_newline, slot_of, Line, ParseError, TextDecoder};
use crate::ctx::AnalysisCtx;
use crate::fault::FaultPlan;
use crate::intern::SymId;
use crate::limits::ResourceLimits;
use crate::name::Name;
use crate::reader::{split_lines, TextStreamReader, TraceReadError, DEFAULT_CHUNK_BYTES};
use crate::record::{OpTag, Operand, Record, TraceValue};
use crate::source::{unsmuggle_limit, ByteLimitReader};
use crate::writer;
use proptest::prelude::*;
use proptest::strategy::fn_strategy;
use proptest::TestRng;
use std::io::Read;

/// The windows every check reads through.
const WINDOWS: [usize; 5] = [1, 7, 64, 4096, DEFAULT_CHUNK_BYTES];

/// The `trace-bytes` ceilings the corpus runs under.
const CEILINGS: [u64; 7] = [1, 24, 1000, 1983, 4096, 65536, 65537];

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

fn shown(e: TraceReadError) -> String {
    let e = unsmuggle_limit(e);
    let kind = match &e {
        TraceReadError::Io(_) => "io",
        TraceReadError::Parse(_) => "parse",
        TraceReadError::Binary(_) => "binary",
        TraceReadError::Resource(_) => "resource",
    };
    format!("{kind}: {e}")
}

/// The ways to drain a trace: the reader's step into one reused slot (what
/// `TraceStream` batches do), its `Iterator` impl, and the reference.
#[derive(Clone, Copy, Debug)]
enum Drain {
    Lending,
    Owned,
    Reference,
}

/// Each delivered record, then how the stream ended, then the session's
/// symbols in id order.
fn drain(how: Drain, input: Box<dyn Read + '_>, ctx: &AnalysisCtx, chunk: usize) -> Vec<String> {
    let mut out = Vec::new();
    let end = match how {
        Drain::Lending => {
            let mut r = TextStreamReader::with_chunk_size(input, ctx, chunk);
            let mut slot = Record::blank();
            let end = loop {
                match r.advance(&mut slot) {
                    Some(Ok(())) => out.push(canon(&slot)),
                    Some(Err(e)) => break Some(e),
                    None => break None,
                }
            };
            assert!(r.advance(&mut slot).is_none(), "the stream fuses");
            end
        }
        Drain::Owned => {
            let mut end = None;
            for item in TextStreamReader::with_chunk_size(input, ctx, chunk) {
                match item {
                    Ok(r) => out.push(canon(&r)),
                    Err(e) => end = Some(e),
                }
            }
            end
        }
        Drain::Reference => reference(input, ctx, chunk, &mut out),
    };
    out.push(end.map_or_else(|| "end".to_string(), |e| format!("error {}", shown(e))));
    out.extend(
        ctx.space()
            .symbols()
            .iter()
            .map(|s| format!("symbol {s:?}")),
    );
    out
}

/// The reference drain: `chunk`-byte reads, each complete line fed to the
/// reference parser in turn, the final unterminated line at the end of
/// input. Pushes each record onto `out`; returns the error that ended it.
fn reference(
    mut input: impl Read,
    ctx: &AnalysisCtx,
    chunk: usize,
    out: &mut Vec<String>,
) -> Option<TraceReadError> {
    let mut parser = Reference::with_ctx(ctx.clone());
    let mut fed = 0u64;
    let mut feed = |line: &[u8], out: &mut Vec<String>| -> Result<(), ParseError> {
        fed += 1;
        let line = std::str::from_utf8(line).map_err(|_| ParseError {
            line: fed,
            message: "trace is not valid UTF-8".into(),
        })?;
        out.extend(parser.feed_line(line)?.as_ref().map(canon));
        Ok(())
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut start = 0;
    loop {
        buf.drain(..start);
        start = 0;
        let end = buf.len();
        buf.resize(end + chunk, 0);
        let n = match input.read(&mut buf[end..]) {
            Ok(n) => n,
            Err(e) => return Some(TraceReadError::Io(e)),
        };
        buf.truncate(end + n);
        if n == 0 {
            if !buf.is_empty() {
                if let Err(e) = feed(&buf, out) {
                    return Some(e.into());
                }
            }
            break;
        }
        let mut from = end;
        while let Some(nl) = buf[from..].iter().position(|&b| b == b'\n') {
            if let Err(e) = feed(&buf[start..from + nl], out) {
                return Some(e.into());
            }
            start = from + nl + 1;
            from = start;
        }
    }
    out.extend(parser.finish().as_ref().map(canon));
    None
}

/// Drain `bytes` every way at window `chunk`, under `limits` and each
/// through its own copy of `plan`, and require one outcome.
fn check(
    bytes: &[u8],
    limits: ResourceLimits,
    plan: Option<&FaultPlan>,
    chunk: usize,
) -> Result<(), TestCaseError> {
    let run = |how: Drain| {
        let ctx = AnalysisCtx::session().with_limits(limits);
        let input: Box<dyn Read + '_> = match plan {
            Some(plan) => Box::new(plan.clone().reader(bytes)),
            None => Box::new(bytes),
        };
        drain(how, ByteLimitReader::wrap(input, &ctx), &ctx, chunk)
    };
    let expected = run(Drain::Reference);
    for how in [Drain::Lending, Drain::Owned] {
        let got = run(how);
        if let Some(i) = (0..got.len().max(expected.len())).find(|&i| got.get(i) != expected.get(i))
        {
            prop_assert!(
                false,
                "{how:?} reader differs at entry {i} at window {chunk} under {limits:?}, {plan:?}, input {:?}:\n got {:?}\nwant {:?}",
                String::from_utf8_lossy(bytes),
                got.get(i),
                expected.get(i)
            );
        }
    }
    Ok(())
}

/// [`check`] at every window.
fn check_windows(
    bytes: &[u8],
    limits: ResourceLimits,
    plan: Option<&FaultPlan>,
) -> Result<(), TestCaseError> {
    for chunk in WINDOWS {
        check(bytes, limits, plan, chunk)?;
    }
    Ok(())
}

fn unlimited() -> ResourceLimits {
    ResourceLimits::new()
}

/// Panic with the first difference unless the reader and the reference
/// agree on `text` at every window.
fn assert_agree(text: &str) {
    check_windows(text.as_bytes(), unlimited(), None).unwrap_or_else(|e| panic!("{e}"));
}

/// The first error the reader reports for `text`.
fn first_error(text: &str) -> ParseError {
    match TextStreamReader::new(text.as_bytes(), &AnalysisCtx::session()).read_all() {
        Err(TraceReadError::Parse(e)) => e,
        other => panic!("{text:?} gave {other:?}, not a parse error"),
    }
}

/// Decode `text` with the reader, which must accept it, resolving symbols
/// inside its session.
fn parse_ok(text: &str) -> (Vec<Record>, AnalysisCtx) {
    let ctx = AnalysisCtx::session();
    let recs = TextStreamReader::new(text.as_bytes(), &ctx)
        .read_all()
        .unwrap();
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
    match rng.below(7) {
        0 => TraceValue::I(arb_i64(rng)),
        1 => TraceValue::Ptr(rng.next_u64() >> rng.below(64)),
        2 => TraceValue::None,
        3 => TraceValue::F(-0.0),
        // Around the float scanner's 15-digit bound: `%.6f` of values
        // below and above 10⁹, either sign.
        4 => {
            let v = (rng.next_u64() >> rng.below(64)) as f64 / 1e6;
            TraceValue::F(if rng.flip() { -v } else { v })
        }
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

/// `text` with 1 to 3 bytes that break UTF-8 (a lone continuation byte,
/// a cut-off lead byte, `0xff`) put anywhere, as raw bytes.
fn break_utf8(text: &str, rng: &mut TestRng) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        bytes.insert(at, [0x80, 0xc3, 0xe2, 0xff][rng.below(4) as usize]);
    }
    bytes
}

/// Spellings around the edges of what the scanners accept, for each field
/// of a header line (its tag first).
const HEADER_EDGES: [&[&str]; 7] = [
    &["0", "00", "+0", "1", "r", " 0", ""],
    &[
        "2147483647",
        "2147483648",
        "-2147483648",
        "-2147483649",
        "007",
        "+3",
        "-0",
        "-",
        "",
        " ",
    ],
    &["", " ", "main", "0", "4294967296", "-3", "héllo", "a\r"],
    &[
        "4294967295:4294967295",
        "4294967296:1",
        "1:4294967296",
        "01:01",
        "+1:1",
        "1:+1",
        "-1:1",
        "1:",
        ":1",
        "1",
        "1:1:1",
        " 1:1",
    ],
    &["", " ", "0", "entry", "4294967295"],
    &["65535", "65536", "027", "+27", "-1", "", "1e2"],
    &[
        "9999999999999999999",
        "10000000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "0000000000000000000001",
        "+1",
        "-0",
        "",
    ],
];

/// Spellings around the edges of what the scanners accept, for each field
/// of an operand line (its tag first).
const OPERAND_EDGES: [&[&str]; 5] = [
    &[
        "1", "9", "10", "01", "00", "0", "99", "255", "256", "r", "f", "r1", "+1", " ", "", "R",
    ],
    &["65535", "65536", "064", "+64", "-1", "", " "],
    &[
        "0xffffffffffffffff",
        "0x1ffffffffffffffff",
        "0x0ffffffffffffffff",
        "0x00000000000000000ff",
        "0xFF",
        "0Xff",
        "0x",
        "0x+1",
        "0x-1",
        "123456789.012345",
        "1234567890.123456",
        "-123456789.012345",
        "-1234567890.123456",
        "99999999999999.9",
        "0.000000",
        "-0.000000",
        "00.5",
        "1.",
        ".5",
        "1.5e3",
        "1.5.5",
        "1234567890123456789",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "9999999999999999999",
        "12345678901234567890",
        "007",
        "-007",
        "+5",
        "+1.5",
        "-0",
        "-",
        " ",
        "",
        "  ",
        "inf",
        "NaN",
    ],
    &["0", "1", "2", "01", "+1", "", " "],
    &[
        "",
        " ",
        "0",
        "4294967295",
        "4294967296",
        "0004294967295",
        "007",
        "+5",
        "-3",
        "1a",
        "a1",
        "  ",
        "9999999999999999999",
        "99999999999999999999",
    ],
];

/// `line` without its line end, and the line end (`\n`, `\r\n`, ...).
fn split_end(line: &str) -> (&str, &str) {
    let body = line.trim_end_matches(['\r', '\n']);
    (body, &line[body.len()..])
}

/// `line` with one field set to a spelling from the edge tables.
fn edge_field(line: &str, rng: &mut TestRng) -> String {
    let (body, end) = split_end(line);
    let mut fields: Vec<&str> = body.split(',').collect();
    let edges: &[&[&str]] = if fields[0] == "0" {
        &HEADER_EDGES
    } else {
        &OPERAND_EDGES
    };
    let at = rng.below(fields.len().min(edges.len()) as u64) as usize;
    fields[at] = pick(rng, edges[at]);
    format!("{}{end}", fields.join(","))
}

/// A writer trace of 1 to 8 records with 1 to 3 of its lines taken across
/// an edge of what the scanners accept: a field from the edge tables, the
/// trailing comma dropped, an extra field, another line end, the line
/// ended after one of its commas, or the input cut inside the line, at a
/// window edge where the line has one.
fn arb_near_canonical() -> impl Strategy<Value = Vec<u8>> {
    fn_strategy(|rng: &mut TestRng| {
        let records: Vec<Record> = (0..=rng.below(8)).map(|_| arb_record(rng)).collect();
        let mut lines: Vec<String> = writer::to_string(&records)
            .lines()
            .map(|l| format!("{l}\n"))
            .collect();
        let mut cut = None;
        for _ in 0..=rng.below(3) {
            let at = rng.below(lines.len() as u64) as usize;
            let (body, end) = split_end(&lines[at]);
            lines[at] = match rng.below(7) {
                0 | 1 => edge_field(&lines[at], rng),
                2 => format!("{}{end}", body.strip_suffix(',').unwrap_or(body)),
                3 => format!("{body}{}{end}", pick(rng, &["x,", ",", ",,", " ,"])),
                4 => format!("{body}{}", pick(rng, &["\r\n", "\r\r\n", "\r", "\n\n"])),
                5 => {
                    let commas: Vec<usize> = body.match_indices(',').map(|(i, _)| i).collect();
                    let keep = commas[rng.below(commas.len() as u64) as usize];
                    format!("{}{end}", &body[..=keep])
                }
                _ => {
                    cut = Some(at);
                    continue;
                }
            };
        }
        let mut bytes = lines.concat().into_bytes();
        if let Some(at) = cut {
            let start: usize = lines[..at].iter().map(String::len).sum();
            let len = lines[at].len();
            let window = [7, 64][rng.below(2) as usize];
            let edge = start.next_multiple_of(window);
            bytes.truncate(if edge < start + len {
                edge
            } else {
                start + rng.below(len as u64) as usize
            });
        }
        bytes
    })
}

/// Symbols as the tracer names functions, blocks and variables.
const IDENTIFIERS: &[&str] = &[
    "main",
    "foo",
    "conj_grad",
    "i",
    "it",
    "sum",
    "x.addr",
    "héllo",
];

/// A trace of up to 12 records as the tracer writes them: operand tags 1
/// to 9, dynamic ids of at most 19 digits, identifier symbols, and floats
/// that are finite and below 10⁹.
fn arb_tracer_trace() -> impl Strategy<Value = String> {
    fn_strategy(|rng: &mut TestRng| {
        let records: Vec<Record> = (0..rng.below(13))
            .map(|_| {
                let mut r = arb_record(rng);
                r.func = SymId::intern(pick(rng, IDENTIFIERS));
                r.bb_label = SymId::intern(pick(rng, IDENTIFIERS));
                r.dyn_id %= 10u64.pow(19);
                for op in r.operands.iter_mut().chain(r.result.as_mut()) {
                    if let OpTag::Pos(i) = op.tag {
                        op.tag = OpTag::Pos(i % 9 + 1);
                    }
                    if let TraceValue::F(v) = op.value {
                        op.value = TraceValue::F(if v.is_finite() { v % 1e9 } else { 0.5 });
                    }
                    if op.name.is_sym() {
                        op.name = Name::sym(pick(rng, IDENTIFIERS));
                    }
                }
                r
            })
            .collect();
        writer::to_string(&records)
    })
}

/// The fallbacks `text` costs a fresh decoder with a record open, fed the
/// rest of the text at each line the way the reader feeds it; `None` when
/// a line fails.
fn fallbacks(text: &[u8]) -> Option<u64> {
    let mut decoder = TextDecoder::with_ctx(AnalysisCtx::session());
    let (mut slot, mut at) = (Record::blank(), 0);
    while at < text.len() {
        let (len, line) = decoder.decode(&text[at..], &mut slot, true).ok()?;
        if let Line::Header(header) = line {
            header.start(&mut slot);
        }
        at += len;
    }
    Some(decoder.fallbacks)
}

/// The case count: `PROPTEST_CASES`, but never fewer than 256.
fn cases() -> ProptestConfig {
    ProptestConfig::with_cases(ProptestConfig::default().cases.max(256))
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn kernel_matches_reference_on_writer_traces(text in arb_trace()) {
        check_windows(text.as_bytes(), unlimited(), None)?;
    }

    #[test]
    fn kernel_matches_reference_on_mutated_traces(
        text in arb_trace(),
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::new(seed);
        for _ in 0..8 {
            let mutated = mutate(&text, &mut rng);
            check_windows(mutated.as_bytes(), unlimited(), None)?;
        }
        check_windows(&break_utf8(&text, &mut rng), unlimited(), None)?;
    }

    #[test]
    fn kernel_matches_reference_on_near_canonical_traces(bytes in arb_near_canonical()) {
        check_windows(&bytes, unlimited(), None)?;
    }

    #[test]
    fn the_scanners_take_every_line_the_writer_writes(text in arb_tracer_trace()) {
        check_windows(text.as_bytes(), unlimited(), None)?;
        prop_assert_eq!(fallbacks(text.as_bytes()), Some(0), "input: {:?}", text);
    }

    #[test]
    fn reader_matches_reference_under_byte_ceilings(
        text in arb_trace(),
        seed in any::<u64>(),
        at in any::<u64>(),
        short_reads in any::<bool>(),
    ) {
        let mut rng = TestRng::new(seed);
        let bytes = match rng.below(3) {
            0 => text.into_bytes(),
            1 => mutate(&text, &mut rng).into_bytes(),
            _ => break_utf8(&text, &mut rng),
        };
        let ceiling = at % (bytes.len() as u64 + 2);
        let plan = FaultPlan { seed, short_reads, ..FaultPlan::default() };
        check_windows(&bytes, ResourceLimits::new().max_trace_bytes(ceiling), Some(&plan))?;
    }

    #[test]
    fn reader_matches_reference_under_fault_plans(
        text in arb_trace(),
        seed in any::<u64>(),
        plan in any::<u64>(),
    ) {
        let mut rng = TestRng::new(seed);
        let bytes = if rng.flip() { text.into_bytes() } else { mutate(&text, &mut rng).into_bytes() };
        let plan = FaultPlan::from_seed(plan, bytes.len() as u64);
        check_windows(&bytes, unlimited(), Some(&plan))?;
    }

    #[test]
    fn line_splitter_matches_str_lines(text in arb_trace(), seed in any::<u64>()) {
        // Equal up to the trailing `\r`s that the decoder trims.
        let mut rng = TestRng::new(seed);
        let mutated = mutate(&text, &mut rng).replace(',', "\r");
        for t in [text.as_str(), mutated.as_str()] {
            let std: Vec<&str> = t.lines().map(|l| l.trim_end_matches('\r')).collect();
            for chunk in WINDOWS {
                let ours: Vec<String> = split_lines(t.as_bytes(), chunk)
                    .into_iter()
                    .map(|l| String::from_utf8(l).unwrap().trim_end_matches('\r').to_string())
                    .collect();
                prop_assert_eq!(&ours, &std, "input: {:?}", t);
            }
        }
    }

    #[test]
    fn whole_text_parse_matches_line_by_line(text in arb_trace(), seed in any::<u64>()) {
        // `records()` on in-memory text, against the reference fed the
        // whole input's lines.
        let mutated = mutate(&text, &mut TestRng::new(seed));
        let ctx = AnalysisCtx::session();
        let mut p = Reference::with_ctx(ctx.clone());
        let by_line = mutated
            .lines()
            .filter_map(|l| p.feed_line(l).transpose())
            .collect::<Result<Vec<Record>, ParseError>>()
            .map(|mut v| {
                v.extend(p.finish());
                v
            });
        let whole = crate::TraceSource::from_str(&mutated)
            .ctx(&AnalysisCtx::session())
            .records()
            .map_err(|e| match e {
                TraceReadError::Parse(e) => e,
                other => panic!("not a parse error: {other}"),
            });
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

/// The checked-in hostile corpus, and fig4's trace as text (from its
/// checked-in binary golden).
fn corpus() -> Vec<(String, Vec<u8>)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("tests/hostile");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(files.len() >= 10, "hostile corpus went missing: {files:?}");
    let mut corpus: Vec<_> = files
        .into_iter()
        .map(|p| (p.display().to_string(), std::fs::read(&p).unwrap()))
        .collect();
    let ctx = AnalysisCtx::session();
    let fig4 = std::fs::read(root.join("tests/golden/fig4_v2.bin")).unwrap();
    let records = crate::TraceSource::from_bytes(&fig4)
        .ctx(&ctx)
        .records()
        .unwrap();
    let _space = ctx.enter();
    corpus.push(("fig4".into(), writer::to_string(&records).into_bytes()));
    corpus
}

#[test]
fn kernel_matches_reference_on_the_hostile_corpus() {
    for (name, bytes) in corpus() {
        check_windows(&bytes, unlimited(), None).unwrap_or_else(|e| panic!("{name}: {e}"));
        for ceiling in CEILINGS {
            let limits = ResourceLimits::new().max_trace_bytes(ceiling);
            check_windows(&bytes, limits, None).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn the_corpus_matches_reference_under_64_fault_seeds() {
    for (name, bytes) in corpus() {
        let len = bytes.len() as u64;
        for seed in 0..64 {
            let plan = FaultPlan::from_seed(seed, len);
            check(&bytes, unlimited(), Some(&plan), DEFAULT_CHUNK_BYTES)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

/// Cuts, ceilings and flips at every byte around the end of the first
/// read, where the line that straddles it makes the first refill.
#[test]
fn the_first_refill_matches_reference() {
    let mut rng = TestRng::new(3);
    let records: Vec<Record> = (0..2000).map(|_| arb_record(&mut rng)).collect();
    let text = writer::to_string(&records);
    let bytes = text.as_bytes();
    let w = DEFAULT_CHUNK_BYTES;
    assert!(bytes.len() > 2 * w, "{} bytes", bytes.len());
    for at in (w - 40..=w + 40).chain(2 * w - 3..=2 * w + 3) {
        check(&bytes[..at], unlimited(), None, w).unwrap();
        check(
            bytes,
            ResourceLimits::new().max_trace_bytes(at as u64),
            None,
            w,
        )
        .unwrap();
        check(
            bytes,
            unlimited(),
            Some(&FaultPlan::clean().error_at(at as u64)),
            w,
        )
        .unwrap();
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0x04;
        check(&flipped, unlimited(), None, w).unwrap();
        let mut broken = bytes.to_vec();
        broken[at] = 0xff;
        check(&broken, unlimited(), None, w).unwrap();
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
fn float_fast_path_edges() {
    let values = [
        "0.000000",
        "-0.000000",
        "44.000000",
        "-1.500000",
        "999999999.999999",
        "-999999999.999999",
        "1000000000.000000",
        "123456789012345.6",
        "1234567890123456.7",
        "0.1",
        "00.500000",
        "1.",
        ".5",
        "-.5",
        "+1.5",
        "1.5e3",
        "1.5.5",
        "0.30000000000000004",
        "NaN",
        "inf",
        "-",
        "-0",
        "1e5",
    ];
    for v in values {
        assert_agree(&format!("{HEADER}\n1,64,{v},0,,\n"));
    }
    let (recs, _ctx) = parse_ok(&format!(
        "{HEADER}\n1,64,-0.000000,0,,\n2,64,999999999.999999,0,,\n3,64,0.1,0,,\n"
    ));
    let values: Vec<_> = recs[0].operands.iter().map(|o| o.value).collect();
    let TraceValue::F(neg_zero) = values[0] else {
        panic!("{values:?}");
    };
    assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
    assert_eq!(values[1], TraceValue::F(999_999_999.999_999));
    assert_eq!(values[2], TraceValue::F(0.1));
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

// ---------------------------------------------------------------------------
// The scanners
// ---------------------------------------------------------------------------

#[test]
fn every_edge_spelling_in_every_field_matches_reference() {
    let operand = "1,64,0x10,1,p,";
    for (line, edges) in [(HEADER, &HEADER_EDGES[..]), (operand, &OPERAND_EDGES[..])] {
        for (at, spellings) in edges.iter().enumerate() {
            for spelling in *spellings {
                let mut fields: Vec<&str> = line.split(',').collect();
                fields[at] = spelling;
                let edited = fields.join(",");
                let text = if line == HEADER {
                    format!("{edited}\n{operand}\n")
                } else {
                    format!("{HEADER}\n{edited}\n")
                };
                assert_agree(&text);
                assert_agree(&text.replace('\n', "\r\n"));
            }
        }
    }
}

#[test]
fn what_the_scanners_take_and_what_falls_back() {
    let taken = [
        "0,3,foo,6:1,11,27,215,\n",
        "0,-2147483648,f,4294967295:4294967295,l,65535,9999999999999999999,\n",
        "1,64,0x7ffcf3f25a70,1,p,\n",
        "9,65535,0xFFFFFFFFFFFFFFFF,0,,\n",
        "f,64,-9223372036854775808,1,4294967295,\n",
        "r,32,9223372036854775807,1,8,\n",
        "2,64,-0.000000,0,,\n",
        "2,64,123456789.012345,0,,\n",
        "2,64,007,0,007,\n",
        "2,64, ,0,-3,\n",
        "2,64, ,0, ,\n",
        "2,64,1,0,h\u{e9}llo,\n",
        "1,64,0x10,1,p,\r\n",
        // Without the trailing comma, the last field ends at the line end.
        "0,3,foo,6:1,11,27,215\n",
        "1,64,0x10,1,p\n",
        "1,64,0x10,1,8\r\n",
        "1,64,1,0,\n",
        "1,64,0x10,1,p\r\r\n",
        // One line, whatever follows it.
        "1,64,5,1,p,\n0,zz,\n",
    ];
    for line in taken {
        let first = &line[..=line.find('\n').unwrap()];
        assert_eq!(fallbacks(first.as_bytes()), Some(0), "{line:?}");
    }
    // Each of these reads one field or line end with `str::parse` or a
    // search, and decodes as the reference does.
    let fall_back = [
        // Other tags, and numbers past the scanners' edges.
        "00,64,1,0,,\n",
        "10,64,1,0,,\n",
        "0,2147483648,foo,6:1,11,27,1,\n",
        "0,3,foo,6:1,11,27,18446744073709551615,\n",
        "0,3,foo,4294967296:1,11,27,1,\n",
        "1,65536,1,0,,\n",
        "1,64,0x1ffffffffffffffff,0,,\n",
        "1,64,0x00000000000000000ff,0,,\n",
        "1,64,1234567890.123456,0,,\n",
        "1,64,9223372036854775808,0,,\n",
        "1,64,12345678901234567890,0,,\n",
        "1,64,1,0,4294967296,\n",
        // Signs and spellings `str::parse` takes and the writer never writes.
        "0,+3,foo,6:1,11,27,1,\n",
        "1,+64,1,0,,\n",
        "1,64,+5,0,,\n",
        "1,64,1.5e3,0,,\n",
        "1,64,,0,,\n",
        "1,64,1,01,,\n",
        // Empty function and label symbols.
        "0,3,,6:1,0,27,1,\n",
        "0,3,foo,6:1,,27,1,\n",
        // Line shapes.
        "1,64,1,0,p,x,\n",
        "1,64,1,0,p,\r\r\n",
        "1,64,1,0,p,\r",
        "1,64,1,0,p,",
        "0,3,foo,6:1,11,27,215,",
        "0,3,foo,6:1,11,27,215",
        "\n",
    ];
    for line in fall_back {
        let text = format!("{HEADER}\n{line}");
        assert_agree(&text);
        assert!(fallbacks(line.as_bytes()).is_none_or(|n| n > 0), "{line:?}");
    }
    // fig4 as the writer writes it, from the corpus.
    let (_, fig4) = corpus().pop().unwrap();
    assert_eq!(fallbacks(&fig4), Some(0));
}

#[test]
fn a_line_cut_short_after_an_empty_symbol_interns_it_nowhere() {
    // The line's trailing comma ends the empty function or label, so the
    // reference never reaches that field and fails without interning it.
    for cut in ["0,-1,,\n", "0,3,foo,6:1,,\n", "0,3,foo,6:1,,\r\n"] {
        assert_agree(cut);
        assert_agree(&format!("{HEADER}\n{cut}"));
    }
}

#[test]
fn operands_that_cannot_be_placed_fail_once_their_fields_decode() {
    // With no record open, and a second result: the name interns first.
    for text in [
        "1,64,5,1,p,\n".to_string(),
        format!("{HEADER}\nr,64,5,1,8,\nr,64,6,1,q,\n"),
    ] {
        assert_agree(&text);
    }
    let ctx = AnalysisCtx::session();
    let e = TextStreamReader::new(&b"1,64,5,1,p,\n"[..], &ctx)
        .read_all()
        .unwrap_err();
    assert_eq!(
        e.to_string(),
        "trace parse error at line 1: operand line before any header"
    );
    assert_eq!(ctx.space().len(), 1);
    assert_eq!(
        first_error(&format!("{HEADER}\nr,64,5,1,8,\nr,64,6,1,9,\n")).message,
        "duplicate result line"
    );
}
