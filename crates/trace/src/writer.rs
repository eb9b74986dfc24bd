//! Serializing records into the textual trace format.
//!
//! # Encode kernel
//!
//! Every record is encoded byte by byte into a reusable `Vec<u8>`: a single
//! decimal digit is pushed alone, longer decimal and hex numbers are written
//! into a fixed-size array, which is appended whole and then cut to length,
//! and the fixed punctuation of each line is copied as literal bytes.
//! Floats print as `%.6f` does (as LLVM-Tracer prints them), computed
//! exactly in integer arithmetic; only NaN, ±∞ and magnitudes of 2^63 and
//! more go through `fmt`'s `{:.6}`. [`TraceWriter`], [`format_record`] and
//! [`to_string`] all use the same kernel, so they write the same bytes.
//!
//! # Symbol cache
//!
//! A record names its function, its block label and up to one symbol per
//! operand, and traces repeat the same few symbols millions of times.
//! Resolving one through the space takes a lock and a refcount, so each
//! encoder keeps a direct-mapped cache of 256 slots: slot `id % 256` holds
//! the last symbol resolved there, with its id. Ids are dense per space,
//! so a space's first 256 symbols never evict each other. The cache is
//! bounded whatever the input: at most 256 entries, no probing, no growth.
//!
//! Symbols resolve in the space that is thread-current when a record is
//! written, as `SymId`'s `Display` does, so a writer may be built before
//! its session's guard is entered. Each record checks the current space's
//! tag first and empties the cache when the space has changed.

use crate::intern::{SymId, SymStr, SymbolSpace};
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use std::io::{self, Write};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// A [`TraceWriter`] hands its buffer to the inner writer once it holds at
/// least this many bytes, so `W` sees large writes: an 8 KiB `BufWriter`
/// passes them straight through.
const FLUSH_AT: usize = 64 * 1024;

/// Slots in each encoder's symbol cache (see the module docs).
const CACHE_SLOTS: usize = 256;

/// Append the first `n` bytes of `digits`: the whole fixed-size array is
/// copied, then the excess cut, so the copy has a constant length.
#[inline]
fn push_digits<const N: usize>(out: &mut Vec<u8>, digits: &[u8; N], n: usize) {
    let len = out.len();
    out.extend_from_slice(digits);
    out.truncate(len + n);
}

/// Append the decimal digits of `v`. A single digit, the commonest field
/// (operand positions, block columns, small integers), is pushed alone.
#[inline]
fn push_u64(out: &mut Vec<u8>, v: u64) {
    if v < 10 {
        out.push(b'0' + v as u8);
        return;
    }
    let n = v.ilog10() as usize + 1;
    let mut digits = [0u8; 20];
    let mut rest = v;
    for d in digits[..n].iter_mut().rev() {
        *d = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    push_digits(out, &digits, n);
}

/// Append `v` in decimal, with a `-` when negative.
#[inline]
fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append the lowercase hex digits of `v`, without leading zeros.
#[inline]
fn push_hex(out: &mut Vec<u8>, v: u64) {
    let n = (v.checked_ilog2().unwrap_or(0) / 4 + 1) as usize;
    let mut digits = [0u8; 16];
    let mut rest = v;
    for d in digits[..n].iter_mut().rev() {
        *d = b"0123456789abcdef"[(rest & 0xf) as usize];
        rest >>= 4;
    }
    push_digits(out, &digits, n);
}

/// Append `v` as `{:.6}` prints it (`%.6f`).
///
/// A finite `v` below 2^63 in magnitude is m·2^e with a 53-bit m. With
/// e < 0, its integer part is m >> -e, and its fraction f/2^-e scales to
/// millionths as ⌊f·10⁶/2^-e⌋ with an exact remainder, in `u128` without
/// a division: the last digit is rounded half to even on the exact value,
/// as `fmt` rounds it. NaN, ±∞ and larger magnitudes go through `fmt`.
#[inline]
fn push_f64(out: &mut Vec<u8>, v: f64) {
    const MILLION: u64 = 1_000_000;
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased >= 1023 + 63 {
        // NaN, ±∞ and |v| ≥ 2^63; writing to a `Vec` cannot fail.
        let _ = write!(out, "{v:.6}");
        return;
    }
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let (int, millionths) = if e >= 0 {
        // An integer below 2^63.
        (m << e, 0)
    } else if e <= -100 {
        // Below 2^53 · 2^-100: rounds to zero.
        (0, 0)
    } else {
        let shift = e.unsigned_abs();
        let (int, f) = if shift < 64 {
            (m >> shift, m & ((1 << shift) - 1))
        } else {
            (0, m)
        };
        let product = f as u128 * MILLION as u128;
        let mut q = (product >> shift) as u64;
        let rem = product & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        // q's parity is the whole value's: 10⁶ is even.
        if rem > half || (rem == half && q & 1 == 1) {
            q += 1;
        }
        if q == MILLION {
            (int + 1, 0)
        } else {
            (int, q)
        }
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    push_u64(out, int);
    let mut rest = millionths;
    let mut digits = [b'.', 0, 0, 0, 0, 0, 0];
    for d in digits[1..].iter_mut().rev() {
        *d = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.extend_from_slice(&digits);
}

/// The encode kernel: record text appended to a byte buffer, symbols
/// through the cache (see the module docs).
struct Encoder {
    /// Tag of the space the cached symbols were resolved in; `None` before
    /// the first record.
    space: Option<u64>,
    /// Slot `id % CACHE_SLOTS` holds the last symbol resolved there.
    cache: Box<[Option<(SymId, SymStr)>]>,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            space: None,
            cache: vec![None; CACHE_SLOTS].into_boxed_slice(),
        }
    }

    /// Append the bytes of `id`, resolved in the thread's current space.
    #[inline]
    fn push_sym(&mut self, out: &mut Vec<u8>, id: SymId) {
        let slot = &mut self.cache[id.index() % CACHE_SLOTS];
        match slot {
            Some((cached, text)) if *cached == id => out.extend_from_slice(text.as_bytes()),
            _ => {
                let text = id.as_str();
                out.extend_from_slice(text.as_bytes());
                *slot = Some((id, text));
            }
        }
    }

    /// Append the text of `r` to `out`: ASCII, `{:.6}` float text and the
    /// symbols' `str` bytes, so only whole UTF-8 sequences.
    fn encode(&mut self, r: &Record, out: &mut Vec<u8>) {
        let space = SymbolSpace::current_tag();
        if self.space != Some(space) {
            self.cache.fill(None);
            self.space = Some(space);
        }
        // Header: 0,<line>,<func>,<bb_line>:<bb_col>,<label>,<opcode>,<dyn_id>,
        out.extend_from_slice(b"0,");
        push_i64(out, r.src_line.into());
        out.push(b',');
        self.push_sym(out, r.func);
        out.push(b',');
        push_u64(out, r.bb.0.into());
        out.push(b':');
        push_u64(out, r.bb.1.into());
        out.push(b',');
        self.push_sym(out, r.bb_label);
        out.push(b',');
        push_u64(out, r.opcode.into());
        out.push(b',');
        push_u64(out, r.dyn_id);
        out.extend_from_slice(b",\n");
        for op in &r.operands {
            self.operand(out, op);
        }
        if let Some(res) = &r.result {
            self.operand(out, res);
        }
    }

    /// `<tag>,<bits>,<value>,<is_reg>,<name>,` and a newline.
    fn operand(&mut self, out: &mut Vec<u8>, op: &Operand) {
        match op.tag {
            OpTag::Pos(i) => push_u64(out, i.into()),
            OpTag::Param => out.push(b'f'),
            OpTag::Result => out.push(b'r'),
        }
        out.push(b',');
        push_u64(out, op.bits.into());
        out.push(b',');
        match op.value {
            TraceValue::I(v) => push_i64(out, v),
            TraceValue::F(v) => push_f64(out, v),
            TraceValue::Ptr(p) => {
                out.extend_from_slice(b"0x");
                push_hex(out, p);
            }
            TraceValue::None => out.push(b' '),
        }
        out.extend_from_slice(if op.is_reg { b",1," } else { b",0," });
        match op.name {
            Name::Temp(n) => push_u64(out, n.into()),
            Name::Sym(s) => self.push_sym(out, s),
            Name::None => {}
        }
        out.extend_from_slice(b",\n");
    }
}

/// Streaming trace writer over any [`io::Write`].
///
/// Records are encoded into one reusable buffer (see the module docs),
/// which goes to the inner writer in writes of at least 64 KiB. Like a
/// `BufWriter`, a writer dropped without [`finish`](Self::finish) hands
/// what it holds to the inner writer, ignoring errors, so an interrupted
/// run leaves every record written so far.
pub struct TraceWriter<W: Write> {
    /// The inner writer; taken by [`finish`](Self::finish).
    out: Option<W>,
    buf: Vec<u8>,
    /// Length of `buf` up to the end of the last whole record: a record
    /// whose encoding panicked is never handed on.
    whole: usize,
    encoder: Encoder,
    records: u64,
    bytes: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `out`.
    pub fn new(out: W) -> Self {
        TraceWriter {
            out: Some(out),
            buf: Vec::with_capacity(FLUSH_AT + 4096),
            whole: 0,
            encoder: Encoder::new(),
            records: 0,
            bytes: 0,
        }
    }

    /// Serialize one record. An error comes from handing a full buffer to
    /// the inner writer; the buffered bytes are dropped with it.
    pub fn write_record(&mut self, r: &Record) -> io::Result<()> {
        self.encoder.encode(r, &mut self.buf);
        self.bytes += (self.buf.len() - self.whole) as u64;
        self.whole = self.buf.len();
        self.records += 1;
        if self.buf.len() >= FLUSH_AT {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Hand the whole records in the buffer to the inner writer.
    fn flush_buf(&mut self) -> io::Result<()> {
        // Taken out first: if the inner writer panics, the drop that
        // follows does not hand the same bytes over again.
        let mut buf = std::mem::take(&mut self.buf);
        let result = match &mut self.out {
            Some(out) => out.write_all(&buf[..self.whole]),
            None => Ok(()),
        };
        buf.clear();
        self.buf = buf;
        self.whole = 0;
        result
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Number of bytes written so far, including those still buffered.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_buf()?;
        let mut out = self
            .out
            .take()
            .expect("a writer holds its output until finish");
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

/// Append the textual form of `r` to `buf`.
pub fn format_record(r: &Record, buf: &mut String) {
    buf.push_str(&to_string(std::slice::from_ref(r)));
}

/// Serialize a slice of records to a `String` (convenience for tests and
/// small traces).
pub fn to_string(records: &[Record]) -> String {
    let mut encoder = Encoder::new();
    let mut bytes = Vec::new();
    for r in records {
        encoder.encode(r, &mut bytes);
    }
    String::from_utf8(bytes).expect("the encoder writes only whole UTF-8 sequences")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::opcodes;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The `Load` block from paper Fig. 1, transliterated to our canonical
    /// field order.
    #[test]
    fn formats_load_block() {
        let r = Record {
            src_line: 3,
            func: SymId::intern("foo"),
            bb: (6, 1),
            bb_label: SymId::intern("11"),
            opcode: opcodes::LOAD,
            dyn_id: 215,
            operands: vec![Operand::reg(
                OpTag::Pos(1),
                64,
                TraceValue::Ptr(0x7ffc_f3f2_5a70),
                Name::sym("p"),
            )],
            result: Some(Operand::reg(
                OpTag::Result,
                32,
                TraceValue::I(1),
                Name::Temp(8),
            )),
        };
        let mut s = String::new();
        format_record(&r, &mut s);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "0,3,foo,6:1,11,27,215,");
        assert_eq!(lines[1], "1,64,0x7ffcf3f25a70,1,p,");
        assert_eq!(lines[2], "r,32,1,1,8,");
    }

    #[test]
    fn formats_immediate_operand_with_empty_name() {
        let r = Record {
            src_line: 12,
            func: SymId::intern("foo"),
            bb: (6, 1),
            bb_label: SymId::intern("12"),
            opcode: opcodes::MUL,
            dyn_id: 216,
            operands: vec![
                Operand::reg(OpTag::Pos(1), 32, TraceValue::I(2), Name::Temp(8)),
                Operand::imm(OpTag::Pos(2), 32, TraceValue::I(2)),
            ],
            result: Some(Operand::reg(
                OpTag::Result,
                32,
                TraceValue::I(4),
                Name::Temp(9),
            )),
        };
        let mut s = String::new();
        format_record(&r, &mut s);
        assert!(s.contains("2,32,2,0,,\n"), "immediate line malformed: {s}");
    }

    #[test]
    fn writer_counts_records_and_bytes() {
        let r = Record {
            src_line: 1,
            func: SymId::intern("main"),
            bb: (1, 1),
            bb_label: SymId::intern("0"),
            opcode: opcodes::BR,
            dyn_id: 0,
            operands: vec![],
            result: None,
        };
        let mut w = TraceWriter::new(Vec::new());
        w.write_record(&r).unwrap();
        w.write_record(&r).unwrap();
        assert_eq!(w.records_written(), 2);
        let bytes = w.bytes_written();
        let inner = w.finish().unwrap();
        assert_eq!(inner.len() as u64, bytes);
    }

    /// A `Write` whose bytes stay readable after the writer is gone.
    #[derive(Clone, Default)]
    struct Shared(Rc<RefCell<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A load record of `func`/`label` naming `var`, `dyn_id` `i`.
    fn load(func: SymId, label: SymId, var: Name, i: u64) -> Record {
        Record {
            src_line: 7,
            func,
            bb: (6, 1),
            bb_label: label,
            opcode: opcodes::LOAD,
            dyn_id: i,
            operands: vec![Operand::reg(
                OpTag::Pos(1),
                64,
                TraceValue::Ptr(0x1000 + 8 * i),
                var,
            )],
            result: Some(Operand::reg(
                OpTag::Result,
                64,
                TraceValue::F(i as f64 / 3.0),
                Name::Temp(i as u32),
            )),
        }
    }

    #[test]
    fn writer_built_before_the_guard_resolves_at_write_time() {
        // Built while the global space is current, then used under two
        // session guards in turn, as the service tests build their sinks.
        // Id 0 names a different string in each space, so a cache kept
        // across the switch would print the wrong one.
        let mut w = TraceWriter::new(Vec::new());
        let a = SymbolSpace::new();
        let b = SymbolSpace::new();
        let mut expected = String::new();
        for (space, func) in [(&a, "alpha"), (&b, "βeta"), (&a, "alpha")] {
            let _guard = space.enter();
            let id = SymId::intern(func);
            assert_eq!(id.index(), 0);
            let r = load(id, id, Name::Sym(id), 1);
            w.write_record(&r).unwrap();
            reference::format_record(&r, &mut expected);
        }
        assert!(expected.contains("0,7,βeta,6:1,βeta,27,1,\n1,64,0x1008,1,βeta,\n"));
        assert_eq!(w.finish().unwrap(), expected.as_bytes());
    }

    #[test]
    fn bytes_written_equals_the_final_length() {
        let out = Shared::default();
        let mut w = TraceWriter::new(out.clone());
        let (func, label) = (SymId::intern("main"), SymId::intern("loop"));
        let mut flushes = 0;
        for i in 0..5000 {
            let before = out.0.borrow().len();
            w.write_record(&load(func, label, Name::sym("sum"), i))
                .unwrap();
            let on_wire = out.0.borrow().len();
            flushes += usize::from(on_wire != before);
            assert!(on_wire as u64 <= w.bytes_written());
        }
        assert!(flushes >= 3, "the records span several flushes");
        let bytes = w.bytes_written();
        w.finish().unwrap();
        assert_eq!(out.0.borrow().len() as u64, bytes);
    }

    #[test]
    fn dropped_writer_hands_over_every_whole_record() {
        let out = Shared::default();
        let mut w = TraceWriter::new(out.clone());
        let (func, label) = (SymId::intern("main"), SymId::intern("loop"));
        let recs: Vec<Record> = (0..2000)
            .map(|i| load(func, label, Name::Temp(3), i))
            .collect();
        for r in &recs {
            w.write_record(r).unwrap();
        }
        // A record naming an id the current space never interned panics
        // half-way through its encoding; none of its bytes may follow.
        let space = SymbolSpace::new();
        let bogus = space.intern("only_in_space");
        let fresh = SymbolSpace::new();
        let _guard = fresh.enter();
        let half = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.write_record(&load(bogus, bogus, Name::None, 0))
        }));
        assert!(half.is_err());
        drop(_guard);
        drop(w);
        assert_eq!(*out.0.borrow(), to_string(&recs).into_bytes());
    }
}
