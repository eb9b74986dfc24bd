//! The decode kernel for the textual trace format.
//!
//! [`TextStreamReader`](crate::TextStreamReader) splits its read window into
//! lines and hands each one, as bytes, to the kernel here, which decodes it
//! straight into the record the reader lends out: a header line starts the
//! record, each operand line adds to it. Every symbol (function names,
//! block labels, operand names) interns through the reader's
//! [`AnalysisCtx`]'s [`SymbolSpace`](crate::SymbolSpace) — the default
//! ctx's global space unless the reader was built for a session — so the
//! canonical allocation per distinct symbol happens once per space.
//!
//! # Decode kernel
//!
//! The kernel works through each line's bytes front to back. Fields end at
//! a byte search for `,`. The header's source line, block id, opcode and
//! dynamic id, and each operand's tag, width, integer, float and `0x`
//! values and temporary names are decoded by overflow-checked decimal and
//! hex scanners as the scan passes over them. A scanner accepts only the
//! plain spellings a tracer writes (an optional `-`, at most 19 decimal or
//! 16 hex digits, then the field's end; a float as digits, `.` and digits,
//! at most 15 digits in all). Anything else — a leading `+`, surplus
//! leading zeros, out-of-range numbers, exponents, malformed fields — goes
//! to `str::parse` and [`parse_value`] with the field's text, which decide
//! the value or word the error exactly as a plain `str::parse` of every
//! field would. Fields are read, and symbols interned, in line order, so a
//! space's symbol ids come out in the same order too.
//!
//! A float field of `n` digits, `k` of them after the point, spells the
//! exact value `N / 10^k` for the integer `N` its digits make. With at most
//! 15 digits, `N` and `10^k` are exact `f64`s, so one IEEE division rounds
//! that value correctly: the same `f64` `str::parse` returns, `-0.0`
//! included. Every `%.6f` value below 10⁹ takes this path.
//!
//! # Symbol memo and cache
//!
//! The space's table sits behind a lock, so each decoder keeps a private
//! *memo* (`str → SymId`): symbols repeat millions of times in real traces,
//! and the memo turns all repeat lookups into a private hash probe — a
//! decoder touches the shared table only on first sight of a symbol, so
//! concurrent sessions rarely contend for the space's lock.
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
//! per decoder), never probes or chains, and never grows. The worst a
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

/// The message of a line that is not valid UTF-8.
const NOT_UTF8: &str = "trace is not valid UTF-8";

/// Slots in each decoder's symbol cache (see the module docs). A power of
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

/// A parsed block header: every field of a record but its operands.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Header {
    src_line: i32,
    func: SymId,
    bb: (u32, u32),
    bb_label: SymId,
    opcode: u16,
    dyn_id: u64,
}

impl Header {
    /// Start this header's record in `slot`, keeping the slot's operand
    /// buffer for its operands.
    #[inline]
    pub(crate) fn start(self, slot: &mut Record) {
        slot.src_line = self.src_line;
        slot.func = self.func;
        slot.bb = self.bb;
        slot.bb_label = self.bb_label;
        slot.opcode = self.opcode;
        slot.dyn_id = self.dyn_id;
        slot.operands.clear();
        slot.result = None;
    }
}

/// What one decoded line held.
pub(crate) enum Line {
    /// Nothing: the line is empty once its line-end bytes are trimmed.
    Blank,
    /// A block header. It is not applied yet: the record in flight is
    /// complete only now that its successor's header has parsed.
    Header(Header),
    /// An operand or result line, already added to the record in flight.
    Operand,
}

/// The decode kernel's state: the session, the symbol memo and cache, and
/// the number of lines decoded so far.
pub(crate) struct TextDecoder {
    /// The session this decoder interns into.
    ctx: AnalysisCtx,
    /// Decoder-private memo onto the ctx's space (see module docs). Keyed
    /// by the refcounted [`SymStr`] the space hands back, so the memo
    /// shares the space's allocation per symbol instead of copying. SipHash
    /// (std default), not FxHash: these are untrusted strings straight
    /// from the trace, the same reason the space's table avoids Fx (see
    /// `intern.rs`).
    memo: HashMap<SymStr, SymId>,
    /// The direct-mapped cache in front of `memo` (see module docs):
    /// `CACHE_SLOTS` slots, slot `slot_of(s)` holding the last symbol
    /// looked up there.
    cache: [Option<(SymStr, SymId)>; CACHE_SLOTS],
    line_no: u64,
}

impl TextDecoder {
    /// A decoder interning into `ctx`'s symbol space.
    pub(crate) fn with_ctx(ctx: AnalysisCtx) -> Self {
        TextDecoder {
            ctx,
            memo: HashMap::new(),
            cache: [const { None }; CACHE_SLOTS],
            line_no: 0,
        }
    }

    /// Count a line that is not valid UTF-8, and the error it fails with.
    pub(crate) fn not_utf8(&mut self) -> ParseError {
        self.line_no += 1;
        self.err(NOT_UTF8)
    }

    /// Intern through the cache, then the memo: repeat symbols never touch
    /// the space lock, and most are never hashed.
    #[inline(always)]
    fn intern(&mut self, s: &[u8]) -> Result<SymId, ParseError> {
        let slot = slot_of(s);
        if let Some((cached, id)) = &self.cache[slot] {
            if cached.as_bytes() == s {
                return Ok(*id);
            }
        }
        let s = self.text(s)?;
        let (sym, id) = match self.memo.get_key_value(s) {
            Some((sym, &id)) => (sym.clone(), id),
            None => {
                let id = self.ctx.intern(s);
                let sym = self.ctx.resolve(id);
                self.memo.insert(sym.clone(), id);
                (sym, id)
            }
        };
        self.cache[slot] = Some((sym, id));
        Ok(id)
    }

    /// Like [`Name::parse`], but interning through the decoder's cache.
    fn parse_name(&mut self, s: &[u8]) -> Result<Name, ParseError> {
        Ok(if s.is_empty() || s == b" " {
            Name::None
        } else if s.iter().all(u8::is_ascii_digit) {
            match self.text(s)?.parse::<u32>() {
                Ok(n) => Name::Temp(n),
                Err(_) => Name::Sym(self.intern(s)?),
            }
        } else {
            Name::Sym(self.intern(s)?)
        })
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// A field's text, for `str::parse` and messages. The reader checked
    /// the line's UTF-8 already, so this never fails on its bytes.
    fn text<'b>(&self, b: &'b [u8]) -> Result<&'b str, ParseError> {
        std::str::from_utf8(b).map_err(|_| self.err(NOT_UTF8))
    }

    /// Decode one line (without its `\n`). An operand line goes straight
    /// into `slot`, which holds the record in flight when `open` is set; a
    /// header comes back unapplied.
    // This and the per-field helpers it calls (`parse_header`,
    // `parse_operand`, `intern`) are forced inline: the calls cost about 5%
    // of decoding the cg-text benchmark trace.
    #[inline(always)]
    pub(crate) fn decode_line(
        &mut self,
        line: &[u8],
        slot: &mut Record,
        open: bool,
    ) -> Result<Line, ParseError> {
        self.line_no += 1;
        let trimmed = line
            .iter()
            .rposition(|&b| b != b'\r' && b != b'\n')
            .map_or(0, |i| i + 1);
        if trimmed == 0 {
            return Ok(Line::Blank);
        }
        let mut fields = Fields::new(&line[..trimmed]);
        let tag = fields.next().ok_or_else(|| self.err("empty line"))?;
        if tag == b"0" {
            return self.parse_header(&mut fields).map(Line::Header);
        }
        let op = self.parse_operand(tag, &mut fields)?;
        if !open {
            return Err(self.err("operand line before any header"));
        }
        if op.tag == OpTag::Result {
            if slot.result.is_some() {
                return Err(self.err("duplicate result line"));
            }
            slot.result = Some(op);
        } else {
            slot.operands.push(op);
        }
        Ok(Line::Operand)
    }

    #[inline(always)]
    fn parse_header(&mut self, fields: &mut Fields<'_>) -> Result<Header, ParseError> {
        let src_line = self.number(fields.decimal(), "src line")?;
        let func = {
            let f = fields.next().ok_or_else(|| self.err("missing function"))?;
            self.intern(f)?
        };
        let bb = match fields.block_id() {
            Scan::Hit(bb) => bb,
            Scan::Missing => return Err(self.err("missing bb id")),
            Scan::Miss(bb_str) => {
                let bb_str = self.text(bb_str)?;
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
            self.intern(l)?
        };
        let opcode = self.number(fields.decimal(), "opcode")?;
        let dyn_id = self.number(fields.decimal(), "dyn id")?;
        Ok(Header {
            src_line,
            func,
            bb,
            bb_label,
            opcode,
            dyn_id,
        })
    }

    /// A scanned number, or `str::parse` of the text the scanner refused.
    fn number<T: FromStr>(&self, scan: Scan<'_, T>, what: &str) -> Result<T, ParseError> {
        match scan {
            Scan::Hit(v) => Ok(v),
            Scan::Missing => Err(self.err(format!("missing {what}"))),
            Scan::Miss(f) => {
                let f = self.text(f)?;
                f.parse::<T>()
                    .map_err(|_| self.err(format!("bad {what} `{f}`")))
            }
        }
    }

    #[inline(always)]
    fn parse_operand(
        &mut self,
        tag: &[u8],
        fields: &mut Fields<'_>,
    ) -> Result<Operand, ParseError> {
        let tag = match tag {
            b"r" => OpTag::Result,
            b"f" => OpTag::Param,
            &[d @ b'1'..=b'9'] => OpTag::Pos(d - b'0'),
            _ => {
                let tag = self.text(tag)?;
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
                let f = self.text(f)?;
                parse_value(f).ok_or_else(|| self.err(format!("bad operand value `{f}`")))?
            }
        };
        let is_reg = match fields.next() {
            Some(b"1") => true,
            Some(b"0") => false,
            Some(other) => {
                let other = self.text(other)?;
                return Err(self.err(format!("bad is_reg `{other}`")));
            }
            None => return Err(self.err("missing is_reg")),
        };
        let name = match fields.decimal() {
            Scan::Hit(n) => Name::Temp(n),
            Scan::Missing => Name::None,
            Scan::Miss(f) => self.parse_name(f)?,
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
    /// The scanner refused the field: its bytes, for `str::parse`.
    Miss(&'a [u8]),
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

/// Most digits a float field may have for the scanner to divide it out
/// exactly (see the module docs): below 2⁵³, every integer of 15 digits is
/// an exact `f64`.
const FLOAT_DIGITS: usize = 15;

/// `10^k` for every fraction length the float scanner takes; all exact.
const POW10: [f64; FLOAT_DIGITS] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
];

/// Cursor over one line's comma-separated fields. A single trailing comma
/// is ignored and an empty rest of the line holds no field, so `a,,b,`
/// splits into `a`, an empty field and `b`.
struct Fields<'a> {
    line: &'a [u8],
    /// Start of the next field.
    pos: usize,
    /// End of the last field: the line's length, less a trailing comma.
    end: usize,
}

impl<'a> Fields<'a> {
    fn new(line: &'a [u8]) -> Self {
        Fields {
            line,
            pos: 0,
            end: line.len() - usize::from(line.ends_with(b",")),
        }
    }

    /// The next raw field, or `None` when the line has none left.
    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        (self.pos < self.end).then(|| self.take_from(self.pos))
    }

    /// The field starting at `start`; moves the cursor past it.
    #[inline]
    fn take_from(&mut self, start: usize) -> &'a [u8] {
        let stop = self.line[start..self.end]
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
        if i == self.end || self.line[i] == b',' {
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
        let b = self.line;
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
        let b = self.line;
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

    /// The next field as an operand value: `0x` then 1 to 16 hex digits, a
    /// decimal `i64`, or a float of digits, `.` and digits (at most
    /// [`FLOAT_DIGITS`] in all) after an optional `-`. Everything else,
    /// empty values included, is refused, for [`parse_value`].
    #[inline]
    fn value(&mut self) -> Scan<'a, TraceValue> {
        let start = self.pos;
        if start >= self.end {
            return Scan::Missing;
        }
        let b = self.line;
        if b[start..self.end].starts_with(b"0x") {
            let (i, v) = hex_run(b, start + 2, self.end);
            if i > start + 2 && self.ends_field(i) {
                return Scan::Hit(TraceValue::Ptr(v));
            }
            return Scan::Miss(self.take_from(start));
        }
        let negative = b[start] == b'-';
        let first = start + usize::from(negative);
        let (i, int) = digit_run(b, first, self.end);
        if i > first {
            let max = if negative {
                <i64 as Decimal>::NEG_MAX
            } else {
                <i64 as Decimal>::MAX
            };
            if int <= max && self.ends_field(i) {
                return Scan::Hit(TraceValue::I(i64::from_scan(negative, int)));
            }
            if i < self.end && b[i] == b'.' {
                let (j, frac) = digit_run(b, i + 1, self.end);
                let k = j - (i + 1);
                if k > 0 && (i - first) + k <= FLOAT_DIGITS && self.ends_field(j) {
                    let n = int * 10u64.pow(k as u32) + frac;
                    let v = n as f64 / POW10[k];
                    return Scan::Hit(TraceValue::F(if negative { -v } else { v }));
                }
            }
        }
        Scan::Miss(self.take_from(start))
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

/// Index of the first `\n` in `b` at or after `i`, or `b.len()`. Tests a
/// word at a time: `(w - 0x01..) & !w & 0x80..` flags the zero bytes of `w`
/// (the newline bytes, once `w` is XORed with a word of them), and its
/// lowest flag is always exact.
#[inline]
pub(crate) fn find_newline(b: &[u8], mut i: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{TextStreamReader, TraceReadError};
    use crate::record::opcodes;
    use crate::writer;

    /// Test shorthand: decode `input` whole into the current space.
    fn parse_str(input: &str) -> Result<Vec<Record>, ParseError> {
        TextStreamReader::new(input.as_bytes(), &AnalysisCtx::current())
            .read_all()
            .map_err(|e| match e {
                TraceReadError::Parse(e) => e,
                other => panic!("not a parse error: {other}"),
            })
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
