//! The decoder for the textual trace format.
//!
//! [`TextStreamReader`](crate::TextStreamReader) hands the whole lines of
//! its read window to the decoder here, which decodes the first of them
//! straight into the record the reader lends out: a header line starts the
//! record, each operand line adds to it. Every symbol (function names,
//! block labels, operand names) interns through the reader's
//! [`AnalysisCtx`]'s [`SymbolSpace`](crate::SymbolSpace) — the default
//! ctx's global space unless the reader was built for a session — so the
//! canonical allocation per distinct symbol happens once per space.
//!
//! # One pass, two ways to read a field
//!
//! The decoder reads a line's fields front to back, straight from the
//! read window, with no separate search for the line's end, and interns
//! each symbol as it reaches it. Each field first meets a byte scanner for
//! the spelling the trace writer, like LLVM-Tracer, writes:
//!
//! - A header is
//!   `0,<src line>,<function>,<bb line>:<bb col>,<label>,<opcode>,<dyn id>,`
//!   and an operand `<tag>,<bits>,<value>,<is_reg>,<name>,`, whose tag is
//!   one character: `r`, `f` or a digit from `1` to `9`.
//! - Every number is plain decimal: a `-` for the signed source line and
//!   values only, then 1 to 19 digits, within the field's type.
//! - A value is one of four spellings: such a decimal `i64`; `0x` and 1 to
//!   16 hex digits; a fixed-point float of digits, `.` and digits, at most
//!   15 of them in all, after an optional `-`; or ` ` for no value.
//! - A function, block label or name is a symbol: its bytes, at least one,
//!   up to the next comma. A name that starts with a digit is a decimal
//!   `u32`, a temporary.
//! - `is_reg` is `0` or `1`.
//! - Every field ends with a comma, and the line with `\n` or `\r\n`
//!   after its last field's comma. Without that comma, the last field ends
//!   at the line end and still takes its scanner.
//!
//! A field its scanner refuses is read as the text up to its comma, or up
//! to the line's end, and parsed in place with `str::parse`,
//! [`parse_value`] or the name rules, which decide the value or word the
//! error; the pass then goes on with the next field. Those are the fields
//! of the line split at commas: trailing `\r`s and a single trailing comma
//! are dropped, an empty field right before that comma is no field, a
//! missing name is an empty one, and fields past the last are skipped with
//! the rest of the line. A scanner's spelling is one `str::parse` reads to
//! the same value, so the input alone chooses a field's path, and a line
//! decodes to the same record, error, line number and symbols, interned in
//! the same order, whichever path each field took. An operand line with no
//! record open, or a second result line, fails once its fields have
//! decoded. Every line the trace writer writes takes the scanners
//! throughout, as long as its operand tags are at most 9, its dynamic ids
//! have at most 19 digits, its symbols are not empty and do not start with
//! a digit, and its floats are finite and below 10⁹.
//!
//! A float field of `n` digits, `k` of them after the point, spells the
//! exact value `N / 10^k` for the integer `N` its digits make. With at most
//! 15 digits, `N` and `10^k` are exact `f64`s, so one IEEE division rounds
//! that value correctly: the same `f64` `str::parse` returns, `-0.0`
//! included. Every `%.6f` value below 10⁹ takes the scanner.
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

/// The decoder's state: the session, the symbol memo and cache, and the
/// number of lines decoded so far.
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
    /// Fields and line ends the scanners refused so far, for the tests
    /// that hold the writer's lines to the scanners.
    #[cfg(test)]
    fallbacks: u64,
}

impl TextDecoder {
    /// A decoder interning into `ctx`'s symbol space.
    pub(crate) fn with_ctx(ctx: AnalysisCtx) -> Self {
        TextDecoder {
            ctx,
            memo: HashMap::new(),
            cache: [const { None }; CACHE_SLOTS],
            line_no: 0,
            #[cfg(test)]
            fallbacks: 0,
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

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line_no,
            message: message.into(),
        }
    }

    /// Bytes as text, for `str::parse` and messages. The reader checked the
    /// line's UTF-8 already, so this never fails on its bytes.
    fn text<'b>(&self, b: &'b [u8]) -> Result<&'b str, ParseError> {
        std::str::from_utf8(b).map_err(|_| self.err(NOT_UTF8))
    }

    /// Decode the line at the front of `b`, which holds whole lines from
    /// the read window, in one pass (see the module docs). An operand goes
    /// straight into `slot`, which holds the record in flight when `open`
    /// is set; a header comes back unapplied. Returns the line's length
    /// with its line end, and what it held.
    // This and the field readers it calls are forced inline, and every
    // fallback is cold: the scanners are the whole per-line cost of a
    // trace as the writer writes it.
    #[inline(always)]
    pub(crate) fn decode(
        &mut self,
        b: &[u8],
        slot: &mut Record,
        open: bool,
    ) -> Result<(usize, Line), ParseError> {
        self.line_no += 1;
        let (tag, i) = match b {
            [b'0', b',', ..] => return self.header(b, 2),
            [b'r', b',', ..] => (OpTag::Result, 2),
            [b'f', b',', ..] => (OpTag::Param, 2),
            [d @ b'1'..=b'9', b',', ..] => (OpTag::Pos(d - b'0'), 2),
            _ => match self.parse_tag(b)? {
                Tag::Blank(len) => return Ok((len, Line::Blank)),
                Tag::Header(i) => return self.header(b, i),
                Tag::Operand(tag, i) => (tag, i),
            },
        };
        let (bits, i) = self.decimal_field(b, i, "operand bits")?;
        let (value, i) = match scan_value(b, i) {
            Some(v) => v,
            None => self.parse_value_field(b, i)?,
        };
        let (is_reg, i) = match b.get(i..i + 2) {
            Some(b"1,") => (true, i + 2),
            Some(b"0,") => (false, i + 2),
            _ => self.parse_is_reg(b, i)?,
        };
        let (name, i) = self.name_field(b, i)?;
        let len = self.line_end(b, i);
        if !open {
            return Err(self.err("operand line before any header"));
        }
        let op = Operand {
            tag,
            bits,
            value,
            is_reg,
            name,
        };
        if tag == OpTag::Result {
            if slot.result.is_some() {
                return Err(self.err("duplicate result line"));
            }
            slot.result = Some(op);
        } else {
            slot.operands.push(op);
        }
        Ok((len, Line::Operand))
    }

    /// The header whose fields start at `b[i..]`, and the line's length.
    #[inline(always)]
    fn header(&mut self, b: &[u8], i: usize) -> Result<(usize, Line), ParseError> {
        let (src_line, i) = self.decimal_field(b, i, "src line")?;
        let (func, i) = self.symbol_field(b, i, "missing function")?;
        let (bb, i) = match block_id(b, i) {
            Some(bb) => bb,
            None => self.parse_block_id(b, i)?,
        };
        let (bb_label, i) = self.symbol_field(b, i, "missing bb label")?;
        let (opcode, i) = self.decimal_field(b, i, "opcode")?;
        let (dyn_id, i) = self.decimal_field(b, i, "dyn id")?;
        let header = Header {
            src_line,
            func,
            bb,
            bb_label,
            opcode,
            dyn_id,
        };
        Ok((self.line_end(b, i), Line::Header(header)))
    }

    /// A number field at `b[i..]` and the index after it.
    #[inline(always)]
    fn decimal_field<T: Decimal>(
        &mut self,
        b: &[u8],
        i: usize,
        what: &str,
    ) -> Result<(T, usize), ParseError> {
        match decimal(b, i, b',') {
            Some(v) => Ok(v),
            None => self.parse_number(b, i, what),
        }
    }

    /// A function or block label symbol at `b[i..]`, interned, and the
    /// index after it.
    #[inline(always)]
    fn symbol_field(
        &mut self,
        b: &[u8],
        i: usize,
        missing: &str,
    ) -> Result<(SymId, usize), ParseError> {
        let (s, next) = match symbol(b, i) {
            Some(s) => s,
            None => self.field(b, i).ok_or_else(|| self.err(missing))?,
        };
        Ok((self.intern(s)?, next))
    }

    /// A name field at `b[i..]` and the index after it.
    #[inline(always)]
    fn name_field(&mut self, b: &[u8], i: usize) -> Result<(Name, usize), ParseError> {
        let fast = match b.get(i) {
            Some(b',') => Some((Name::None, i + 1)),
            Some(b'\n') => Some((Name::None, i)),
            Some(b'0'..=b'9') => decimal(b, i, b',').map(|(n, end)| (Name::Temp(n), end)),
            _ => match symbol(b, i) {
                Some((b" ", end)) => Some((Name::None, end)),
                Some((s, end)) => Some((Name::Sym(self.intern(s)?), end)),
                None => None,
            },
        };
        match fast {
            Some(name) => Ok(name),
            None => self.parse_name_field(b, i),
        }
    }

    /// The length of the line whose last field ends before `b[i]`: up to
    /// its `\n` or `\r\n`, or, past any fields the line has left, up to its
    /// line end or the end of `b`.
    #[inline(always)]
    fn line_end(&mut self, b: &[u8], i: usize) -> usize {
        match b.get(i) {
            Some(b'\n') => i + 1,
            Some(b'\r') if b.get(i + 1) == Some(&b'\n') => i + 2,
            _ => self.skip_line(b, i),
        }
    }

    // -----------------------------------------------------------------------
    // The fallbacks: `str::parse` of a field's text
    // -----------------------------------------------------------------------

    /// The field at `b[i..]` as splitting the line at commas reads it (see
    /// the module docs): its text and the index after it, or `None` when
    /// the line has no field left there.
    #[cold]
    fn field<'b>(&mut self, b: &'b [u8], i: usize) -> Option<(&'b [u8], usize)> {
        #[cfg(test)]
        {
            self.fallbacks += 1;
        }
        let end = b[i..]
            .iter()
            .position(|&c| c == b',' || c == b'\n')
            .map_or(b.len(), |k| i + k);
        if b.get(end) == Some(&b',') {
            // An empty field right before the line's trailing comma is no
            // field: the trailing comma ends the line's fields.
            return (end > i || !only_line_end(b, end + 1)).then(|| (&b[i..end], end + 1));
        }
        let text = trim_cr(&b[i..end]);
        (!text.is_empty()).then_some((text, end))
    }

    /// The line's length from `b[i..]`: through its `\n`, or to the end of
    /// `b` when the line has none.
    #[cold]
    fn skip_line(&mut self, b: &[u8], i: usize) -> usize {
        #[cfg(test)]
        {
            self.fallbacks += 1;
        }
        (find_newline(b, i) + 1).min(b.len())
    }

    /// The tag field of a line the scanners refused: a blank line, a header
    /// with its fields from an index on, or an operand tag.
    #[cold]
    fn parse_tag(&mut self, b: &[u8]) -> Result<Tag, ParseError> {
        if only_line_end(b, 0) {
            return Ok(Tag::Blank(self.skip_line(b, 0)));
        }
        let (tag, next) = self.field(b, 0).ok_or_else(|| self.err("empty line"))?;
        let tag = match tag {
            b"0" => return Ok(Tag::Header(next)),
            b"r" => OpTag::Result,
            b"f" => OpTag::Param,
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
        Ok(Tag::Operand(tag, next))
    }

    /// The number field at `b[i..]`, parsed as a `T`.
    #[cold]
    fn parse_number<T: Decimal>(
        &mut self,
        b: &[u8],
        i: usize,
        what: &str,
    ) -> Result<(T, usize), ParseError> {
        if let Some(v) = decimal_at_line_end(b, i) {
            return Ok(v);
        }
        let (f, next) = self
            .field(b, i)
            .ok_or_else(|| self.err(format!("missing {what}")))?;
        let f = self.text(f)?;
        let v = f
            .parse::<T>()
            .map_err(|_| self.err(format!("bad {what} `{f}`")))?;
        Ok((v, next))
    }

    /// The block id field at `b[i..]`: `line:col`, each a `u32`.
    #[cold]
    fn parse_block_id(&mut self, b: &[u8], i: usize) -> Result<((u32, u32), usize), ParseError> {
        let (f, next) = self.field(b, i).ok_or_else(|| self.err("missing bb id"))?;
        let f = self.text(f)?;
        let (l, c) = f
            .split_once(':')
            .ok_or_else(|| self.err(format!("malformed bb id `{f}`")))?;
        let bb = (
            l.parse::<u32>()
                .map_err(|_| self.err(format!("bad bb line `{l}`")))?,
            c.parse::<u32>()
                .map_err(|_| self.err(format!("bad bb col `{c}`")))?,
        );
        Ok((bb, next))
    }

    /// The value field at `b[i..]`, parsed with [`parse_value`].
    #[cold]
    fn parse_value_field(&mut self, b: &[u8], i: usize) -> Result<(TraceValue, usize), ParseError> {
        let (f, next) = self
            .field(b, i)
            .ok_or_else(|| self.err("missing operand value"))?;
        let f = self.text(f)?;
        let v = parse_value(f).ok_or_else(|| self.err(format!("bad operand value `{f}`")))?;
        Ok((v, next))
    }

    /// The `is_reg` field at `b[i..]`: `1` or `0`.
    #[cold]
    fn parse_is_reg(&mut self, b: &[u8], i: usize) -> Result<(bool, usize), ParseError> {
        match self.field(b, i) {
            Some((b"1", next)) => Ok((true, next)),
            Some((b"0", next)) => Ok((false, next)),
            Some((other, _)) => {
                let other = self.text(other)?;
                Err(self.err(format!("bad is_reg `{other}`")))
            }
            None => Err(self.err("missing is_reg")),
        }
    }

    /// The name field at `b[i..]`, read like [`Name::parse`] but interning
    /// through the decoder's cache. A missing name is an empty one.
    #[cold]
    fn parse_name_field(&mut self, b: &[u8], i: usize) -> Result<(Name, usize), ParseError> {
        if let Some((n, next)) = decimal_at_line_end(b, i) {
            return Ok((Name::Temp(n), next));
        }
        let (f, next) = self.field(b, i).unwrap_or((&[], i));
        let name = if f.is_empty() || f == b" " {
            Name::None
        } else if f.iter().all(u8::is_ascii_digit) {
            match self.text(f)?.parse::<u32>() {
                Ok(n) => Name::Temp(n),
                Err(_) => Name::Sym(self.intern(f)?),
            }
        } else {
            Name::Sym(self.intern(f)?)
        };
        Ok((name, next))
    }
}

/// What the tag field of a line the scanners refused held.
enum Tag {
    /// A blank line of this length.
    Blank(usize),
    /// A header, whose fields start at this index.
    Header(usize),
    /// An operand with this tag, whose fields start at this index.
    Operand(OpTag, usize),
}

/// True when `b[i..]` holds nothing but `\r`s before its line end.
fn only_line_end(b: &[u8], i: usize) -> bool {
    b[i..]
        .iter()
        .find(|&&c| c != b'\r')
        .is_none_or(|&c| c == b'\n')
}

/// `s` without its trailing `\r`s.
fn trim_cr(s: &[u8]) -> &[u8] {
    let end = s.iter().rposition(|&c| c != b'\r').map_or(0, |k| k + 1);
    &s[..end]
}

/// The integer types the decimal scanner decodes.
trait Decimal: FromStr {
    /// Largest magnitude after a `-`; 0 for unsigned types, which take no
    /// sign.
    const NEG_MAX: u64;
    /// Largest value.
    const MAX: u64;
    /// The value of a decoded field whose magnitude is within the bounds.
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

/// Decimal digits from `i` on, at most 19 of them so the value cannot
/// overflow: the index after the run, and its value.
#[inline(always)]
fn digit_run(b: &[u8], mut i: usize) -> (usize, u64) {
    let stop = b.len().min(i + 19);
    let mut v = 0u64;
    while i < stop && b[i].is_ascii_digit() {
        v = v * 10 + u64::from(b[i] - b'0');
        i += 1;
    }
    (i, v)
}

/// Hex digits from `i` on, at most 16 of them: the index after the run, and
/// its value.
#[inline(always)]
fn hex_run(b: &[u8], mut i: usize) -> (usize, u64) {
    let stop = b.len().min(i + 16);
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

/// The decimal scanner: a `T` at `b[i..]` ended by `sep`, spelled as a `-`
/// (signed types only), then 1 to 19 digits, within `T`'s range. The value
/// and the index after `sep`.
#[inline(always)]
fn decimal<T: Decimal>(b: &[u8], i: usize, sep: u8) -> Option<(T, usize)> {
    let negative = T::NEG_MAX > 0 && b.get(i) == Some(&b'-');
    let first = i + usize::from(negative);
    let (end, magnitude) = digit_run(b, first);
    let max = if negative { T::NEG_MAX } else { T::MAX };
    (end > first && magnitude <= max && b.get(end) == Some(&sep))
        .then(|| (T::from_scan(negative, magnitude), end + 1))
}

/// The block id scanner: `<line>:<col>` at `b[i..]`, each a decimal `u32`,
/// and the index after its comma.
#[inline(always)]
fn block_id(b: &[u8], i: usize) -> Option<((u32, u32), usize)> {
    let (line, i) = decimal(b, i, b':')?;
    let (col, i) = decimal(b, i, b',')?;
    Some(((line, col), i))
}

/// The decimal scanner on a number that the line end, `\n` or `\r\n`,
/// ends: the last field of a line without its trailing comma. The value and
/// the index of that line end.
#[inline]
fn decimal_at_line_end<T: Decimal>(b: &[u8], i: usize) -> Option<(T, usize)> {
    match decimal(b, i, b'\r') {
        Some((v, next)) => (b.get(next) == Some(&b'\n')).then_some((v, next - 1)),
        None => decimal(b, i, b'\n').map(|(v, next)| (v, next - 1)),
    }
}

/// The value scanner: a value field at `b[i..]` and the index after its
/// comma, spelled as `0x` then 1 to 16 hex digits, a decimal `i64`, a float
/// of digits, `.` and digits (at most [`FLOAT_DIGITS`] in all) after an
/// optional `-`, or ` `.
#[inline(always)]
fn scan_value(b: &[u8], i: usize) -> Option<(TraceValue, usize)> {
    let first = *b.get(i)?;
    if first == b'0' && b.get(i + 1) == Some(&b'x') {
        let (end, v) = hex_run(b, i + 2);
        return (end > i + 2 && b.get(end) == Some(&b',')).then_some((TraceValue::Ptr(v), end + 1));
    }
    if first == b' ' {
        return (b.get(i + 1) == Some(&b',')).then_some((TraceValue::None, i + 2));
    }
    let negative = first == b'-';
    let first = i + usize::from(negative);
    let (point, int) = digit_run(b, first);
    if point == first {
        return None;
    }
    match *b.get(point)? {
        b',' => {
            let max = if negative {
                <i64 as Decimal>::NEG_MAX
            } else {
                <i64 as Decimal>::MAX
            };
            (int <= max).then(|| (TraceValue::I(i64::from_scan(negative, int)), point + 1))
        }
        b'.' => {
            let (end, frac) = digit_run(b, point + 1);
            let k = end - (point + 1);
            if k == 0 || (point - first) + k > FLOAT_DIGITS || b.get(end) != Some(&b',') {
                return None;
            }
            let v = (int * 10u64.pow(k as u32) + frac) as f64 / POW10[k];
            Some((TraceValue::F(if negative { -v } else { v }), end + 1))
        }
        _ => None,
    }
}

/// The symbol scanner: a symbol field at `b[i..]`, its bytes, at least one,
/// up to the next comma or the line's `\n`, without the `\r`s before that
/// `\n`, and where the line goes on after it. `None` when the field is
/// empty or the input ends first.
#[inline(always)]
fn symbol(b: &[u8], i: usize) -> Option<(&[u8], usize)> {
    let mut end = i;
    loop {
        match *b.get(end)? {
            b',' => return (end > i).then(|| (&b[i..end], end + 1)),
            b'\n' => {
                let s = trim_cr(&b[i..end]);
                return (!s.is_empty()).then_some((s, end));
            }
            _ => end += 1,
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
