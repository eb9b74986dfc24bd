//! Streaming parser for the textual trace format.
//!
//! The parser is written for throughput: it works line-by-line over borrowed
//! bytes, splits fields manually (no regex), and interns every symbol
//! (function names, block labels, operand names) through its
//! [`AnalysisCtx`]'s [`SymbolSpace`](crate::SymbolSpace) — the default
//! ctx's global space unless the parser was built for a session — so the
//! canonical allocation per distinct symbol happens once per space, not
//! (as the old per-parser interner did) twice per symbol for a separate
//! `String` key and `Arc<str>` value.
//!
//! # Decode kernel
//!
//! [`TraceParser::feed_line`] works through each line's bytes front to
//! back. Fields end at a byte search for `,`. The header's source line,
//! block id, opcode and dynamic id, and each operand's tag, width, integer
//! and `0x` values and temporary names are decoded by overflow-checked
//! decimal and hex scanners as the scan passes over them. A scanner accepts only the
//! plain spellings a tracer writes (an optional `-`, at most 19 decimal or
//! 16 hex digits, then the field's end). Anything else — floats, a leading
//! `+`, surplus leading zeros, out-of-range numbers, malformed fields —
//! goes to `str::parse` and [`parse_value`] with the field's text, which
//! decide the value or word the error exactly as a plain `str::parse` of
//! every field would. Fields are read, and symbols interned, in line
//! order, so a space's symbol ids come out in the same order too.
//!
//! # Symbol memo and cache
//!
//! The space's table sits behind a lock, so each parser keeps a private
//! *memo* (`str → SymId`): symbols repeat millions of times in real traces,
//! and the memo turns all repeat lookups into a private hash probe —
//! parallel-parse workers touch the shared table only on first sight of a
//! symbol, which is what keeps parallel parsing off the space's lock.
//!
//! In front of the memo sits a fixed-size, direct-mapped *symbol cache*:
//! 256 slots, each holding the last symbol seen whose length, first byte
//! and last byte map to that slot, with its id. A lookup picks the slot
//! from those three bytes, whatever the symbol's length, and hits only
//! when the slot's symbol is byte-for-byte equal. A miss asks the memo and
//! overwrites the slot. Traces name few distinct symbols (63 in the
//! 1M-record cg benchmark trace, where 99.4% of lookups hit), so nearly
//! every lookup skips hashing the string.
//!
//! The memo and the space's table hash with SipHash, because symbols are
//! untrusted input and a predictable hash lets a crafted trace flood one
//! bucket. The cache can afford a predictable slot function because it is
//! bounded and direct-mapped: it never holds more than 256 entries (6 KiB
//! per parser), never probes or chains, and never grows. The worst a
//! crafted trace can do is make every lookup miss, and a miss costs one
//! failed comparison plus the SipHash memo lookup every lookup cost before
//! the cache existed.

use crate::ctx::AnalysisCtx;
use crate::intern::{SymId, SymStr};
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// A parse failure, with the 1-based line number where it occurred.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: u64,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Slots in each parser's symbol cache (see the module docs). A power of
/// two; each slot takes 24 bytes.
const CACHE_SLOTS: usize = 256;

/// The cache slot for a symbol: a multiplicative hash of its length, first
/// byte and last byte. Cheap and predictable on purpose — the module docs
/// say why that is safe.
#[inline]
fn slot_of(s: &[u8]) -> usize {
    let (first, last) = match s {
        [] => (0, 0),
        [only] => (*only, *only),
        [first, .., last] => (*first, *last),
    };
    let key = (s.len() as u32) << 16 | u32::from(first) << 8 | u32::from(last);
    (key.wrapping_mul(0x9e37_79b1) >> (32 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// Incremental trace parser. Feed it lines; finished records come out.
pub struct TraceParser {
    /// The session this parser interns into (default: the thread's
    /// current space — the global one unless a session guard is live).
    ctx: AnalysisCtx,
    /// Parser-private memo onto the ctx's space (see module docs). Keyed by
    /// the refcounted [`SymStr`] the space hands back, so the memo shares
    /// the space's allocation per symbol instead of copying. SipHash (std
    /// default), not FxHash: these are untrusted strings straight from the
    /// trace, the same reason the space's table avoids Fx (see `intern.rs`).
    memo: HashMap<SymStr, SymId>,
    /// The direct-mapped cache in front of `memo` (see module docs):
    /// `CACHE_SLOTS` slots, slot `slot_of(s)` holding the last symbol
    /// looked up there.
    cache: [Option<(SymStr, SymId)>; CACHE_SLOTS],
    current: Option<Record>,
    /// The in-flight record's operands. They move into an exactly sized
    /// `Vec` when the record completes, so each record makes one
    /// allocation and carries no spare slots: a materialized trace, and the
    /// memory its ingest touches, stay small.
    operands: Vec<Operand>,
    line_no: u64,
}

impl Default for TraceParser {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceParser {
    /// A fresh parser interning into the thread's current space.
    pub fn new() -> Self {
        Self::with_ctx(AnalysisCtx::current())
    }

    /// A parser interning into `ctx`'s symbol space.
    pub fn with_ctx(ctx: AnalysisCtx) -> Self {
        TraceParser {
            ctx,
            memo: HashMap::new(),
            cache: [const { None }; CACHE_SLOTS],
            current: None,
            // Room for every record the bundled apps trace (at most 15
            // operands), so this buffer is allocated once per parser.
            operands: Vec::with_capacity(16),
            line_no: 0,
        }
    }

    /// Intern through the cache, then the memo: repeat symbols never touch
    /// the space lock, and most are never hashed.
    fn intern(&mut self, s: &str) -> SymId {
        let slot = &mut self.cache[slot_of(s.as_bytes())];
        if let Some((cached, id)) = slot {
            if cached.as_bytes() == s.as_bytes() {
                return *id;
            }
        }
        let (sym, id) = match self.memo.get_key_value(s) {
            Some((sym, &id)) => (sym.clone(), id),
            None => {
                let id = self.ctx.intern(s);
                let sym = self.ctx.resolve(id);
                self.memo.insert(sym.clone(), id);
                (sym, id)
            }
        };
        *slot = Some((sym, id));
        id
    }

    /// Like [`Name::parse`], but interning through the parser's cache.
    fn parse_name(&mut self, s: &str) -> Name {
        if s.is_empty() || s == " " {
            Name::None
        } else if s.bytes().all(|b| b.is_ascii_digit()) {
            match s.parse::<u32>() {
                Ok(n) => Name::Temp(n),
                Err(_) => Name::Sym(self.intern(s)),
            }
        } else {
            Name::Sym(self.intern(s))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// Feed one line. Returns a completed record when the line *starts a new
    /// block* and a previous block was in flight.
    pub fn feed_line(&mut self, line: &str) -> Result<Option<Record>, ParseError> {
        self.line_no += 1;
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            return Ok(None);
        }
        let mut fields = Fields::new(line);
        let tag = fields.next().ok_or_else(|| self.err("empty line"))?;
        if tag == "0" {
            let done = self.finish();
            let rec = self.parse_header(&mut fields)?;
            self.current = Some(rec);
            Ok(done)
        } else {
            let op = self.parse_operand(tag, &mut fields)?;
            if self.current.is_none() {
                return Err(self.err("operand line before any header"));
            }
            if op.tag == OpTag::Result && self.current.as_ref().is_some_and(|c| c.result.is_some())
            {
                return Err(self.err("duplicate result line"));
            }
            // The is_none check above returned already, so a record is in
            // flight — no unwrap on the hostile-input path.
            if let Some(current) = self.current.as_mut() {
                if op.tag == OpTag::Result {
                    current.result = Some(op);
                } else {
                    self.operands.push(op);
                }
            }
            Ok(None)
        }
    }

    /// Flush the final in-flight record at end of input.
    pub fn finish(&mut self) -> Option<Record> {
        let mut done = self.current.take()?;
        done.operands = self.operands.drain(..).collect();
        Some(done)
    }

    fn parse_header(&mut self, fields: &mut Fields<'_>) -> Result<Record, ParseError> {
        let src_line = self.number(fields.decimal(), "src line")?;
        let func = {
            let f = fields.next().ok_or_else(|| self.err("missing function"))?;
            self.intern(f)
        };
        let bb = match fields.block_id() {
            Scan::Hit(bb) => bb,
            Scan::Missing => return Err(self.err("missing bb id")),
            Scan::Miss(bb_str) => {
                let (l, c) = bb_str
                    .split_once(':')
                    .ok_or_else(|| self.err(format!("malformed bb id `{bb_str}`")))?;
                (
                    l.parse::<u32>()
                        .map_err(|_| self.err(format!("bad bb line `{l}`")))?,
                    c.parse::<u32>()
                        .map_err(|_| self.err(format!("bad bb col `{c}`")))?,
                )
            }
        };
        let bb_label = {
            let l = fields.next().ok_or_else(|| self.err("missing bb label"))?;
            self.intern(l)
        };
        let opcode = self.number(fields.decimal(), "opcode")?;
        let dyn_id = self.number(fields.decimal(), "dyn id")?;
        Ok(Record {
            src_line,
            func,
            bb,
            bb_label,
            opcode,
            dyn_id,
            operands: Vec::new(),
            result: None,
        })
    }

    /// A scanned number, or `str::parse` of the text the scanner refused.
    fn number<T: FromStr>(&self, scan: Scan<'_, T>, what: &str) -> Result<T, ParseError> {
        match scan {
            Scan::Hit(v) => Ok(v),
            Scan::Missing => Err(self.err(format!("missing {what}"))),
            Scan::Miss(f) => f
                .parse::<T>()
                .map_err(|_| self.err(format!("bad {what} `{f}`"))),
        }
    }

    fn parse_operand(&mut self, tag: &str, fields: &mut Fields<'_>) -> Result<Operand, ParseError> {
        let tag = match tag.as_bytes() {
            b"r" => OpTag::Result,
            b"f" => OpTag::Param,
            &[d @ b'1'..=b'9'] => OpTag::Pos(d - b'0'),
            _ => {
                let i: u8 = tag
                    .parse()
                    .map_err(|_| self.err(format!("bad operand tag `{tag}`")))?;
                if i == 0 {
                    return Err(self.err("operand id 0 is reserved for headers"));
                }
                OpTag::Pos(i)
            }
        };
        let bits = self.number(fields.decimal(), "operand bits")?;
        let value = match fields.value() {
            Scan::Hit(v) => v,
            Scan::Missing => return Err(self.err("missing operand value")),
            Scan::Miss(f) => {
                parse_value(f).ok_or_else(|| self.err(format!("bad operand value `{f}`")))?
            }
        };
        let is_reg = match fields.next() {
            Some("1") => true,
            Some("0") => false,
            Some(other) => return Err(self.err(format!("bad is_reg `{other}`"))),
            None => return Err(self.err("missing is_reg")),
        };
        let name = match fields.decimal() {
            Scan::Hit(n) => Name::Temp(n),
            Scan::Missing => Name::None,
            Scan::Miss(f) => self.parse_name(f),
        };
        Ok(Operand {
            tag,
            bits,
            value,
            is_reg,
            name,
        })
    }
}

/// What a byte scanner made of one field.
enum Scan<'a, T> {
    /// The line has no fields left.
    Missing,
    /// The scanner decoded the field.
    Hit(T),
    /// The scanner refused the field: its text, for `str::parse`.
    Miss(&'a str),
}

/// The integer types the decimal scanner decodes.
trait Decimal: FromStr {
    /// Largest magnitude after a `-`; 0 for unsigned types, which take no
    /// sign.
    const NEG_MAX: u64;
    /// Largest value.
    const MAX: u64;
    /// The value of a scanned field whose magnitude is within the bounds.
    fn from_scan(negative: bool, magnitude: u64) -> Self;
}

macro_rules! unsigned_decimal {
    ($($t:ty),*) => {$(
        impl Decimal for $t {
            const NEG_MAX: u64 = 0;
            const MAX: u64 = <$t>::MAX as u64;
            #[inline]
            fn from_scan(_: bool, magnitude: u64) -> $t {
                magnitude as $t
            }
        }
    )*};
}
unsigned_decimal!(u16, u32, u64);

macro_rules! signed_decimal {
    ($($t:ty),*) => {$(
        impl Decimal for $t {
            const NEG_MAX: u64 = <$t>::MIN.unsigned_abs() as u64;
            const MAX: u64 = <$t>::MAX as u64;
            #[inline]
            fn from_scan(negative: bool, magnitude: u64) -> $t {
                if negative {
                    (magnitude as $t).wrapping_neg()
                } else {
                    magnitude as $t
                }
            }
        }
    )*};
}
signed_decimal!(i32, i64);

/// Decimal digits from `i` up to `end`, at most 19 of them so the value
/// cannot overflow: the index after the run, and its value.
#[inline]
fn digit_run(b: &[u8], mut i: usize, end: usize) -> (usize, u64) {
    let stop = end.min(i + 19);
    let mut v = 0u64;
    while i < stop && b[i].is_ascii_digit() {
        v = v * 10 + u64::from(b[i] - b'0');
        i += 1;
    }
    (i, v)
}

/// Hex digits from `i` up to `end`, at most 16 of them: the index after the
/// run, and its value.
#[inline]
fn hex_run(b: &[u8], mut i: usize, end: usize) -> (usize, u64) {
    let stop = end.min(i + 16);
    let mut v = 0u64;
    while i < stop {
        let d = match b[i] {
            c @ b'0'..=b'9' => c - b'0',
            c @ b'a'..=b'f' => c - b'a' + 10,
            c @ b'A'..=b'F' => c - b'A' + 10,
            _ => break,
        };
        v = v << 4 | u64::from(d);
        i += 1;
    }
    (i, v)
}

/// Cursor over one line's comma-separated fields. A single trailing comma
/// is ignored and an empty rest of the line holds no field, so `a,,b,`
/// splits into `a`, an empty field and `b`.
struct Fields<'a> {
    line: &'a str,
    /// Start of the next field.
    pos: usize,
    /// End of the last field: the line's length, less a trailing comma.
    end: usize,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str) -> Self {
        Fields {
            line,
            pos: 0,
            end: line.len() - usize::from(line.ends_with(',')),
        }
    }

    /// The next raw field, or `None` when the line has none left.
    fn next(&mut self) -> Option<&'a str> {
        (self.pos < self.end).then(|| self.take_from(self.pos))
    }

    /// The field starting at `start`; moves the cursor past it.
    fn take_from(&mut self, start: usize) -> &'a str {
        let stop = self.line.as_bytes()[start..self.end]
            .iter()
            .position(|&b| b == b',')
            .map_or(self.end, |i| start + i);
        self.pos = (stop + 1).min(self.end);
        &self.line[start..stop]
    }

    /// True when a scan that stopped at `i` read a whole field; moves the
    /// cursor past it.
    #[inline]
    fn ends_field(&mut self, i: usize) -> bool {
        if i == self.end || self.line.as_bytes()[i] == b',' {
            self.pos = (i + 1).min(self.end);
            true
        } else {
            false
        }
    }

    /// The next field as a decimal `T`: a `-` (signed types only), then 1
    /// to 19 digits, within `T`'s range.
    #[inline]
    fn decimal<T: Decimal>(&mut self) -> Scan<'a, T> {
        let start = self.pos;
        if start >= self.end {
            return Scan::Missing;
        }
        let b = self.line.as_bytes();
        let negative = T::NEG_MAX > 0 && b[start] == b'-';
        let first = start + usize::from(negative);
        let (i, magnitude) = digit_run(b, first, self.end);
        let max = if negative { T::NEG_MAX } else { T::MAX };
        if i > first && magnitude <= max && self.ends_field(i) {
            Scan::Hit(T::from_scan(negative, magnitude))
        } else {
            Scan::Miss(self.take_from(start))
        }
    }

    /// The next field as a block id `line:col`, each a decimal `u32`.
    #[inline]
    fn block_id(&mut self) -> Scan<'a, (u32, u32)> {
        let start = self.pos;
        if start >= self.end {
            return Scan::Missing;
        }
        let b = self.line.as_bytes();
        let (colon, line) = digit_run(b, start, self.end);
        if colon > start && colon < self.end && b[colon] == b':' {
            let (i, col) = digit_run(b, colon + 1, self.end);
            let max = u64::from(u32::MAX);
            if i > colon + 1 && line <= max && col <= max && self.ends_field(i) {
                return Scan::Hit((line as u32, col as u32));
            }
        }
        Scan::Miss(self.take_from(start))
    }

    /// The next field as an operand value: `0x` then 1 to 16 hex digits, or
    /// a decimal `i64`. Floats and empty values are refused, for
    /// [`parse_value`].
    #[inline]
    fn value(&mut self) -> Scan<'a, TraceValue> {
        let start = self.pos;
        if start >= self.end {
            return Scan::Missing;
        }
        let b = self.line.as_bytes();
        if !b[start..self.end].starts_with(b"0x") {
            return match self.decimal() {
                Scan::Hit(v) => Scan::Hit(TraceValue::I(v)),
                Scan::Miss(f) => Scan::Miss(f),
                Scan::Missing => Scan::Missing,
            };
        }
        let (i, v) = hex_run(b, start + 2, self.end);
        if i > start + 2 && self.ends_field(i) {
            Scan::Hit(TraceValue::Ptr(v))
        } else {
            Scan::Miss(self.take_from(start))
        }
    }
}

/// Parse an operand value field.
pub fn parse_value(s: &str) -> Option<TraceValue> {
    if s.is_empty() || s == " " {
        return Some(TraceValue::None);
    }
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).ok().map(TraceValue::Ptr);
    }
    if s.bytes()
        .all(|b| b.is_ascii_digit() || b == b'-' || b == b'+')
    {
        if let Ok(i) = s.parse::<i64>() {
            return Some(TraceValue::I(i));
        }
    }
    s.parse::<f64>().ok().map(TraceValue::F)
}

/// The lines of `text`, split at each `\n` as [`str::lines`] splits them
/// (no final empty line after a closing `\n`), but keeping any `\r` before
/// it, which [`TraceParser::feed_line`] trims. Line ends are found eight
/// bytes at a time.
pub(crate) fn lines(text: &str) -> impl Iterator<Item = &str> {
    let mut start = 0;
    std::iter::from_fn(move || {
        if start >= text.len() {
            return None;
        }
        let end = find_newline(text.as_bytes(), start);
        let line = &text[start..end];
        start = end + 1;
        Some(line)
    })
}

/// Index of the first `\n` in `b` at or after `i`, or `b.len()`. Tests a
/// word at a time: `(w - 0x01..) & !w & 0x80..` flags the zero bytes of `w`
/// (the newline bytes, once `w` is XORed with a word of them), and its
/// lowest flag is always exact.
fn find_newline(b: &[u8], mut i: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_le_bytes([b'\n'; 8]);
    while let Some(word) = b.get(i..i + 8).and_then(|w| <[u8; 8]>::try_from(w).ok()) {
        let w = u64::from_le_bytes(word) ^ NEWLINES;
        let zeros = w.wrapping_sub(ONES) & !w & HIGHS;
        if zeros != 0 {
            return i + (zeros.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    b[i..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |k| i + k)
}

/// Parse a complete trace held in a string (default/global symbol space).
#[deprecated(since = "0.6.0", note = "use TraceSource::from_str(input).records()")]
pub fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
    parse_str_core(input, &AnalysisCtx::current())
}

/// Parse a complete trace held in a string, interning symbols into `ctx`'s
/// space.
#[deprecated(
    since = "0.6.0",
    note = "use TraceSource::from_str(input).ctx(ctx).records()"
)]
pub fn parse_str_in(input: &str, ctx: &AnalysisCtx) -> Result<Vec<Record>, ParseError> {
    parse_str_core(input, ctx)
}

/// The serial in-memory text parse behind [`crate::TraceSource`] and the
/// parallel chunk workers.
pub(crate) fn parse_str_core(input: &str, ctx: &AnalysisCtx) -> Result<Vec<Record>, ParseError> {
    let mut p = TraceParser::with_ctx(ctx.clone());
    let mut out = Vec::new();
    for line in lines(input) {
        if let Some(r) = p.feed_line(line)? {
            out.push(r);
        }
    }
    if let Some(r) = p.finish() {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::opcodes;
    use crate::writer;

    /// Test shorthand for the current-space serial parse (shadows the
    /// deprecated free function of the same name).
    fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
        parse_str_core(input, &AnalysisCtx::current())
    }

    const FIG1: &str = "0,3,foo,6:1,11,27,215,\n1,64,0x7ffcf3f25a70,1,p,\nr,32,1,1,8,\n0,3,foo,6:1,12,12,216,\n1,32,2,1,8,\n2,32,2,0,,\nr,32,4,1,9,\n";

    #[test]
    fn parses_fig1_blocks() {
        let recs = parse_str(FIG1).unwrap();
        assert_eq!(recs.len(), 2);
        let load = &recs[0];
        assert_eq!(load.opcode, opcodes::LOAD);
        assert_eq!(load.func.as_str(), "foo");
        assert_eq!(load.bb, (6, 1));
        assert_eq!(load.dyn_id, 215);
        assert_eq!(load.op1().unwrap().name, Name::sym("p"));
        assert_eq!(load.op1().unwrap().value, TraceValue::Ptr(0x7ffcf3f25a70));
        assert_eq!(load.result.as_ref().unwrap().name, Name::Temp(8));

        let mul = &recs[1];
        assert_eq!(mul.opcode, opcodes::MUL);
        assert!(mul.is_arithmetic());
        assert!(!mul.op2().unwrap().is_reg);
        assert_eq!(mul.result.as_ref().unwrap().name, Name::Temp(9));
    }

    #[test]
    fn write_then_parse_round_trips() {
        let recs = parse_str(FIG1).unwrap();
        let text = writer::to_string(&recs);
        let again = parse_str(&text).unwrap();
        assert_eq!(recs, again);
    }

    #[test]
    fn interner_shares_function_names() {
        let recs = parse_str(FIG1).unwrap();
        // Repeated function names intern to the same id — and resolve to
        // literally the same shared allocation.
        assert_eq!(recs[0].func, recs[1].func);
        assert!(std::sync::Arc::ptr_eq(
            &recs[0].func.as_str().into_arc(),
            &recs[1].func.as_str().into_arc()
        ));
    }

    #[test]
    fn rejects_operand_before_header() {
        let err = parse_str("1,64,0x10,1,p,\n").unwrap_err();
        assert!(err.message.contains("before any header"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_garbage_header() {
        let err = parse_str("0,xx,foo,1:1,0,27,1,\n").unwrap_err();
        assert!(err.message.contains("src line"));
    }

    #[test]
    fn rejects_duplicate_result() {
        let input = "0,3,foo,6:1,11,27,215,\nr,32,1,1,8,\nr,32,1,1,9,\n";
        let err = parse_str(input).unwrap_err();
        assert!(err.message.contains("duplicate result"));
    }

    #[test]
    fn value_parsing_variants() {
        assert_eq!(parse_value("42"), Some(TraceValue::I(42)));
        assert_eq!(parse_value("-7"), Some(TraceValue::I(-7)));
        assert_eq!(parse_value("0x10"), Some(TraceValue::Ptr(16)));
        assert_eq!(parse_value("44.000000"), Some(TraceValue::F(44.0)));
        assert_eq!(parse_value(""), Some(TraceValue::None));
        assert_eq!(parse_value(" "), Some(TraceValue::None));
        assert_eq!(parse_value("0xzz"), None);
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert_eq!(parse_str("").unwrap(), vec![]);
        assert_eq!(parse_str("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn call_form2_param_lines() {
        // Paper Fig. 6(b): call with two args + two `f`-tagged params.
        let input = "0,17,main,21:1,49,49,199,\n\
                     1,64,0x7ffec14b0db0,1,6,\n\
                     2,64,0x7ffec14b0d80,1,7,\n\
                     f,64,0x7ffec14b0db0,1,p,\n\
                     f,64,0x7ffec14b0d80,1,q,\n";
        let recs = parse_str(input).unwrap();
        assert_eq!(recs.len(), 1);
        let call = &recs[0];
        assert_eq!(call.opcode, opcodes::CALL);
        assert_eq!(call.positional().count(), 2);
        let params: Vec<_> = call.params().collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, Name::sym("p"));
        assert_eq!(params[1].name, Name::sym("q"));
    }
}
