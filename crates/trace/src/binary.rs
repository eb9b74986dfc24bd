//! The binary trace format: fixed-width records behind a per-file symbol
//! table.
//!
//! The textual format (see the crate docs) spends most of its ingest budget
//! re-tokenizing and re-hashing the same handful of strings millions of
//! times. The binary format removes both costs:
//!
//! * **every symbol appears exactly once**, in a string table at the head
//!   of the file, and is interned into the session's
//!   [`SymbolSpace`](crate::SymbolSpace) once at open — records refer to
//!   symbols by dense file-local index, resolved with an array lookup;
//! * **records are fixed-width** (a 32-byte header plus 19 bytes per
//!   operand), so decoding is a handful of `from_le_bytes` copies straight
//!   out of the read window — no per-record string materialization at all.
//!
//! # Layout
//!
//! All integers are little-endian.
//!
//! ```text
//! header (24 bytes)
//!   0   4  magic           B7 41 43 54  ("\xB7ACT"; 0xB7 is never a
//!                          valid leading UTF-8 byte, so text traces can
//!                          never collide and auto-detection is one byte)
//!   4   2  version         currently 1
//!   6   2  reserved        0
//!   8   8  record count
//!   16  4  string count
//!   20  4  string-table length in bytes
//! string table (one entry per symbol, in first-use order)
//!   0   2  byte length
//!   2   n  UTF-8 bytes
//! records (record count of them, then end of file)
//!   0   4  src_line (i32)
//!   4   4  func            (string-table index)
//!   8   4  bb line
//!   12  4  bb col
//!   16  4  bb_label        (string-table index)
//!   20  2  opcode
//!   22  2  bit 15: has-result flag; bits 0–14: operand count
//!   24  8  dyn_id
//! operand entries (operand count + has-result of them, 19 bytes each;
//! the result entry, when present, comes last)
//!   0   1  tag kind        0 = positional, 1 = param (`f`), 2 = result (`r`)
//!   1   1  position        1-based operand id for positional tags, else 0
//!   2   2  bits
//!   4   1  is_reg          0 or 1
//!   5   1  name kind       0 = none, 1 = temp, 2 = symbol
//!   6   4  name payload    temp number or string-table index, else 0
//!   10  1  value kind      0 = none, 1 = int, 2 = float, 3 = pointer
//!   11  8  value payload   i64 / f64 bit pattern / u64, else 0
//! iteration-index footer (version 2 only, after the last record)
//!   0   4  index magic     41 49 58 31 ("AIX1")
//!   4   4  boundary count  u32
//!   8   8n boundaries      record indices where a new region iteration
//!                          starts, u64 each, strictly increasing,
//!                          each in (0, record count)
//!   ..  4  boundary count  repeated (backward parse)
//!   ..  4  index magic     repeated (backward parse)
//! ```
//!
//! Earlier releases wrote the footer to plan iteration-aligned shards
//! without a scan; nothing reads the index any more, but version-2 files
//! stay valid input. The reader consumes the footer after the declared
//! records and rejects a malformed one. The writer emits version 1 (no
//! footer) — only this module's tests still build version-2 files.
//!
//! # Writing in bounded memory
//!
//! The string table lives *ahead* of the records, so a reader interns
//! every symbol once up front, but a writer discovers symbols as it goes.
//! [`BinaryWriter`] therefore writes nothing to its output until
//! [`BinaryWriter::finish`], without holding the records in memory: each
//! record is encoded at its fixed size into one 64 KiB buffer, and a full
//! buffer is appended to a spill file in [`std::env::temp_dir`], created
//! with `create_new` and unlinked at once, so no file is left behind
//! however the writer ends. `finish` writes the header and the string
//! table, copies the spill file in (with a `BufWriter<File>` output, Linux
//! copies in the kernel), then the buffered tail. A trace under 64 KiB
//! never touches disk. The writer holds the buffer, the string table and
//! a table of 4 bytes per session symbol, whatever the trace's length.
//!
//! Readers validate everything before trusting it: magic, version, that
//! the declared string table fits its section, that every symbol index is
//! in range, and that exactly the declared record count is present.
//! Allocations are bounded by bytes actually read, never by header-declared
//! sizes — a hostile header cannot make a reader over-allocate (the
//! `--untrusted-trace` hardening contract; see the fuzz tests).

use crate::ctx::AnalysisCtx;
use crate::intern::{SymId, SymStr};
use crate::limits::ResourceKind;
use crate::name::Name;
use crate::reader::TraceReadError;
use crate::record::{OpTag, Operand, Record, TraceValue};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;
#[cfg(test)]
mod writer_differential;
#[cfg(test)]
mod writer_reference;

/// The four magic bytes opening every binary trace file.
pub const MAGIC: [u8; 4] = [0xB7, b'A', b'C', b'T'];

/// The current format version.
pub const VERSION: u16 = 1;

/// Format version for files carrying the optional iteration-index footer
/// (see the module docs). Files without a footer keep [`VERSION`] and stay
/// byte-identical to what older writers produced; version-1 readers reject
/// version-2 files rather than misread the footer as trailing garbage.
pub const VERSION_INDEXED: u16 = 2;

/// Magic bytes framing the iteration-index footer at **both** ends, so it
/// parses forward (streaming readers, after the declared records) and
/// backward (seekable readers, from end of file) without a scan.
pub const INDEX_MAGIC: [u8; 4] = *b"AIX1";

/// Fixed footer overhead: leading magic + count, trailing count + magic.
#[cfg(test)]
const INDEX_FRAME_BYTES: usize = 16;

/// Header size in bytes.
pub const HEADER_BYTES: usize = 24;

/// Fixed record-header size in bytes.
pub const RECORD_BYTES: usize = 32;

/// Fixed per-operand entry size in bytes.
pub const OPERAND_BYTES: usize = 19;

/// Largest encodable operand count (bits 0–14 of the packed field).
const MAX_OPERANDS: usize = 0x7FFF;

/// A malformed binary trace, with the byte offset where decoding stopped.
#[derive(Clone, Debug, PartialEq)]
pub struct BinaryError {
    /// Byte offset into the file/stream where the problem was found.
    pub offset: u64,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "binary trace error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for BinaryError {}

fn berr(offset: u64, message: impl Into<String>) -> TraceReadError {
    TraceReadError::Binary(BinaryError {
        offset,
        message: message.into(),
    })
}

/// True when `bytes` begin with the binary-trace magic (the auto-detection
/// probe used by [`crate::TraceSource`] and the CLIs).
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Record bytes the writer holds before it spills them to its temporary
/// file (see the module docs).
const SPILL_AT: usize = 64 * 1024;

/// Attempts at a fresh spill-file name before giving up.
const SPILL_NAME_TRIES: u32 = 64;

/// The string table a [`BinaryWriter`] builds as records name symbols.
struct StringTable {
    ctx: AnalysisCtx,
    /// Entries in first-use order (= file-local index order). Owned
    /// handles — the writer stays valid even if the session space that
    /// interned them drops first.
    strings: Vec<SymStr>,
    /// Bytes the entries take in the file: a 2-byte length and the text
    /// each.
    bytes: usize,
    /// Slot `i` holds the file-local index of session symbol `i`, or
    /// [`NO_INDEX`]. Ids are dense per space, so the table is bounded by
    /// the session's symbol count.
    index: Vec<u32>,
}

/// A [`StringTable::index`] slot whose symbol has no entry yet.
const NO_INDEX: u32 = u32::MAX;

impl StringTable {
    /// The file-local index of `id`, adding its entry on first use.
    #[inline]
    fn file_sym(&mut self, id: SymId) -> io::Result<u32> {
        match self.index.get(id.index()) {
            Some(&ix) if ix != NO_INDEX => Ok(ix),
            _ => self.add(id),
        }
    }

    #[cold]
    fn add(&mut self, id: SymId) -> io::Result<u32> {
        let s = self.ctx.resolve(id);
        if s.len() > u16::MAX as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "symbol of {} bytes exceeds the format's 64 KiB cap",
                    s.len()
                ),
            ));
        }
        let ix = u32::try_from(self.strings.len())
            .ok()
            .filter(|&ix| ix != NO_INDEX)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "too many symbols"))?;
        if self.index.len() <= id.index() {
            self.index.resize(id.index() + 1, NO_INDEX);
        }
        self.index[id.index()] = ix;
        self.bytes += 2 + s.len();
        self.strings.push(s);
        Ok(ix)
    }

    /// Drop the entries from `len` on: those a failed record added.
    fn truncate(&mut self, len: usize) {
        for s in self.strings.drain(len..) {
            self.bytes -= 2 + s.len();
        }
        for ix in &mut self.index {
            if *ix != NO_INDEX && *ix as usize >= len {
                *ix = NO_INDEX;
            }
        }
    }
}

/// Binary trace writer over any [`Write`], in bounded memory.
///
/// Mirrors [`TraceWriter`](crate::TraceWriter)'s API (write records,
/// counters, `finish`). Symbols resolve through the writer's
/// [`AnalysisCtx`], so records must come from the same session. Records
/// encode into one 64 KiB buffer, which spills to an unlinked temporary
/// file when full; nothing reaches the underlying writer until
/// [`finish`](Self::finish), and a writer dropped without it writes
/// nothing there — see the module docs for why.
pub struct BinaryWriter<W: Write> {
    out: W,
    table: StringTable,
    /// `buf[..filled]` holds whole encoded records; `buf.len()` is the
    /// buffer's size (64 KiB, or the largest record when that is bigger).
    buf: Vec<u8>,
    filled: usize,
    /// The spill file, created by the first spill.
    spill: Option<File>,
    /// Bytes in the spill file.
    spilled: u64,
    /// Set when a spill failed part-way: the spill file's contents are
    /// unknown, so every later call fails.
    broken: bool,
    record_count: u64,
    /// Iteration boundaries to emit as a version-2 footer, when set.
    #[cfg(test)]
    index: Option<Vec<u64>>,
}

impl<W: Write> BinaryWriter<W> {
    /// Wrap `out`, resolving symbols through the thread's current space.
    pub fn new(out: W) -> Self {
        Self::with_ctx(out, &AnalysisCtx::current())
    }

    /// Wrap `out`, resolving symbols through `ctx`'s space.
    pub fn with_ctx(out: W, ctx: &AnalysisCtx) -> Self {
        BinaryWriter {
            out,
            table: StringTable {
                ctx: ctx.clone(),
                strings: Vec::new(),
                bytes: 0,
                index: Vec::new(),
            },
            buf: vec![0; SPILL_AT],
            filled: 0,
            spill: None,
            spilled: 0,
            broken: false,
            record_count: 0,
            #[cfg(test)]
            index: None,
        }
    }

    /// Emit an iteration-index footer at [`finish`](Self::finish) and stamp
    /// the file [`VERSION_INDEXED`]. `bounds` are the record indices where
    /// a new region iteration starts — strictly increasing, each within
    /// the records actually written (checked at `finish`, where the final
    /// record count is known).
    #[cfg(test)]
    fn set_iteration_index(&mut self, bounds: Vec<u64>) {
        self.index = Some(bounds);
    }

    /// The iteration-index footer [`finish`](Self::finish) appends, checked
    /// against the records written.
    #[cfg(test)]
    fn footer(&self) -> io::Result<Option<Vec<u8>>> {
        let Some(bounds) = &self.index else {
            return Ok(None);
        };
        check_boundaries(bounds, self.record_count, 0).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("iteration index: {e}"))
        })?;
        Ok(Some(encode_footer(bounds)))
    }

    /// Outside the tests the writer emits version-1 files: no footer.
    #[cfg(not(test))]
    fn footer(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(None)
    }

    /// Serialize one record. On error nothing of it is kept: no bytes and
    /// no string-table entry, as if it had never been written.
    pub fn write_record(&mut self, r: &Record) -> io::Result<()> {
        self.check_unbroken()?;
        if r.operands.len() > MAX_OPERANDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record with {} operands exceeds the format's cap",
                    r.operands.len()
                ),
            ));
        }
        let size =
            RECORD_BYTES + (r.operands.len() + usize::from(r.result.is_some())) * OPERAND_BYTES;
        if self.filled + size > self.buf.len() {
            self.spill_buf()?;
            if size > self.buf.len() {
                self.buf.resize(size, 0);
            }
        }
        let symbols = self.table.strings.len();
        let at = self.filled;
        match encode_record(r, &mut self.buf[at..at + size], &mut self.table) {
            Ok(()) => {
                self.filled += size;
                self.record_count += 1;
                Ok(())
            }
            Err(e) => {
                self.table.truncate(symbols);
                Err(e)
            }
        }
    }

    /// Append the buffered records to the spill file, creating it first.
    fn spill_buf(&mut self) -> io::Result<()> {
        if self.filled == 0 {
            return Ok(());
        }
        let file = match &mut self.spill {
            Some(file) => file,
            None => self.spill.insert(spill_file(&std::env::temp_dir())?),
        };
        if let Err(e) = file.write_all(&self.buf[..self.filled]) {
            self.broken = true;
            return Err(e);
        }
        self.spilled += self.filled as u64;
        self.filled = 0;
        Ok(())
    }

    fn check_unbroken(&self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other(
                "an earlier write to the binary trace's spill file failed",
            ));
        }
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.record_count
    }

    /// Size the file would have if finished now (header, string table,
    /// spilled and buffered records), in bytes.
    pub fn bytes_written(&self) -> u64 {
        let footer = self.footer().ok().flatten().map_or(0, |f| f.len());
        (HEADER_BYTES + self.table.bytes + footer + self.filled) as u64 + self.spilled
    }

    /// Emit header and string table, copy the spilled records in, then the
    /// buffered ones; flush; return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.check_unbroken()?;
        let footer = self.footer()?;
        let strtab_len = u32::try_from(self.table.bytes).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "string table exceeds 4 GiB")
        })?;
        let version = if footer.is_some() {
            VERSION_INDEXED
        } else {
            VERSION
        };
        let mut head = Vec::with_capacity(HEADER_BYTES + strtab_len as usize);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&version.to_le_bytes());
        head.extend_from_slice(&0u16.to_le_bytes());
        head.extend_from_slice(&self.record_count.to_le_bytes());
        head.extend_from_slice(&(self.table.strings.len() as u32).to_le_bytes());
        head.extend_from_slice(&strtab_len.to_le_bytes());
        for s in &self.table.strings {
            head.extend_from_slice(&(s.len() as u16).to_le_bytes());
            head.extend_from_slice(s.as_bytes());
        }
        self.out.write_all(&head)?;
        if let Some(file) = &mut self.spill {
            file.rewind()?;
            // With a `BufWriter<File>` as `out`, Linux copies in the kernel.
            let copied = io::copy(file, &mut self.out)?;
            if copied != self.spilled {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("spill file holds {copied} of {} record bytes", self.spilled),
                ));
            }
        }
        self.out.write_all(&self.buf[..self.filled])?;
        if let Some(footer) = &footer {
            self.out.write_all(footer)?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Encode `r` into `out`, which is exactly its size, adding the symbols it
/// names to `table`.
#[inline]
fn encode_record(r: &Record, out: &mut [u8], table: &mut StringTable) -> io::Result<()> {
    let (head, entries) = out.split_at_mut(RECORD_BYTES);
    let packed = r.operands.len() as u16 | if r.result.is_some() { 0x8000 } else { 0 };
    head[0..4].copy_from_slice(&r.src_line.to_le_bytes());
    head[4..8].copy_from_slice(&table.file_sym(r.func)?.to_le_bytes());
    head[8..12].copy_from_slice(&r.bb.0.to_le_bytes());
    head[12..16].copy_from_slice(&r.bb.1.to_le_bytes());
    head[16..20].copy_from_slice(&table.file_sym(r.bb_label)?.to_le_bytes());
    head[20..22].copy_from_slice(&r.opcode.to_le_bytes());
    head[22..24].copy_from_slice(&packed.to_le_bytes());
    head[24..32].copy_from_slice(&r.dyn_id.to_le_bytes());
    let ops = r.operands.iter().chain(&r.result);
    for (op, entry) in ops.zip(entries.chunks_exact_mut(OPERAND_BYTES)) {
        let (kind, pos) = match op.tag {
            OpTag::Pos(i) => (0u8, i),
            OpTag::Param => (1, 0),
            OpTag::Result => (2, 0),
        };
        let (name_kind, name_payload) = match op.name {
            Name::None => (0u8, 0u32),
            Name::Temp(n) => (1, n),
            Name::Sym(s) => (2, table.file_sym(s)?),
        };
        let (value_kind, value_payload) = match op.value {
            TraceValue::None => (0u8, 0u64),
            TraceValue::I(v) => (1, v as u64),
            TraceValue::F(v) => (2, v.to_bits()),
            TraceValue::Ptr(p) => (3, p),
        };
        entry[0] = kind;
        entry[1] = pos;
        entry[2..4].copy_from_slice(&op.bits.to_le_bytes());
        entry[4] = op.is_reg as u8;
        entry[5] = name_kind;
        entry[6..10].copy_from_slice(&name_payload.to_le_bytes());
        entry[10] = value_kind;
        entry[11..19].copy_from_slice(&value_payload.to_le_bytes());
    }
    Ok(())
}

/// Create a spill file in `dir` and unlink it at once: the open handle is
/// all that refers to it, so it goes away however the writer ends —
/// finished, failed, dropped or killed. An error names `dir`.
fn spill_file(dir: &Path) -> io::Result<File> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut tries = 0;
    let result = loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{SPILL_PREFIX}{}-{n}", std::process::id()));
        match OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => break std::fs::remove_file(&path).map(|()| file),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists && tries < SPILL_NAME_TRIES => {
                tries += 1;
            }
            Err(e) => break Err(e),
        }
    };
    result.map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot create a spill file in {}: {e}", dir.display()),
        )
    })
}

/// The name prefix of spill files: `<prefix><pid>-<n>` in the temporary
/// directory, each unlinked as soon as it is created.
const SPILL_PREFIX: &str = "autocheck-spill-";

/// Serialize a slice of records to a complete binary trace (convenience
/// mirror of [`crate::writer::to_string`]).
pub fn to_bytes(records: &[Record], ctx: &AnalysisCtx) -> Vec<u8> {
    // SAFETY of the expects: the sink is a `Vec<u8>`, whose `Write` impl is
    // infallible — no untrusted input is involved on the encode path.
    let mut w = BinaryWriter::with_ctx(Vec::new(), ctx);
    for r in records {
        w.write_record(r).expect("in-memory binary encode");
    }
    w.finish().expect("in-memory binary encode")
}

/// Like [`to_bytes`], with an iteration-index footer (version-2 file).
/// Panics on an invalid index.
#[cfg(test)]
pub(crate) fn to_bytes_with_index(
    records: &[Record],
    bounds: Vec<u64>,
    ctx: &AnalysisCtx,
) -> Vec<u8> {
    let mut w = BinaryWriter::with_ctx(Vec::new(), ctx);
    for r in records {
        w.write_record(r).expect("in-memory binary encode");
    }
    w.set_iteration_index(bounds);
    w.finish().expect("in-memory binary encode")
}

// ---------------------------------------------------------------------------
// Shared decode helpers
// ---------------------------------------------------------------------------

fn parse_header_fields(h: &[u8; HEADER_BYTES]) -> Result<(u16, u64, u32, u32), TraceReadError> {
    if h[..4] != MAGIC {
        return Err(berr(0, "not a binary trace (bad magic bytes)"));
    }
    let version = u16::from_le_bytes([h[4], h[5]]);
    if version != VERSION && version != VERSION_INDEXED {
        return Err(berr(4, format!("unsupported format version {version}")));
    }
    // SAFETY of unwraps: `h` is a fixed `[u8; HEADER_BYTES]` array, so these
    // constant subranges always have exactly the width the conversion needs —
    // no hostile input reaches them with a different length.
    let record_count = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let string_count = u32::from_le_bytes(h[16..20].try_into().unwrap());
    let strtab_len = u32::from_le_bytes(h[20..24].try_into().unwrap());
    // Every entry takes at least its 2-byte length prefix, so a count that
    // cannot fit the declared section is a lie — reject it before any
    // count-derived work happens.
    if (string_count as u64) * 2 > strtab_len as u64 {
        return Err(berr(16, "string count does not fit the string table"));
    }
    Ok((version, record_count, string_count, strtab_len))
}

/// Validate one decoded boundary sequence (shared by both parse
/// directions): strictly increasing record indices in `(0, record_count)`.
fn check_boundaries(bounds: &[u64], record_count: u64, offset: u64) -> Result<(), TraceReadError> {
    let mut prev = 0u64;
    for &b in bounds {
        if b <= prev {
            return Err(berr(offset, "iteration index is not strictly increasing"));
        }
        if b >= record_count {
            return Err(berr(
                offset,
                format!("iteration boundary {b} outside (0, {record_count})"),
            ));
        }
        prev = b;
    }
    Ok(())
}

/// Parse the iteration-index footer **backward** from the end of `bytes`
/// (the tests' check of what the writer emits).
/// `floor` is the first byte offset the footer may occupy (just past the
/// string table — a hostile footer may not swallow header bytes). Returns
/// the boundaries and the footer's total length.
#[cfg(test)]
fn parse_footer_tail(
    bytes: &[u8],
    floor: usize,
    record_count: u64,
) -> Result<(Vec<u64>, usize), TraceReadError> {
    let len = bytes.len();
    if len < floor + INDEX_FRAME_BYTES {
        return Err(berr(len as u64, "file too short for the iteration index"));
    }
    if bytes[len - 4..] != INDEX_MAGIC {
        return Err(berr(
            (len - 4) as u64,
            "missing iteration-index trailer magic",
        ));
    }
    // SAFETY of the unwraps: constant-width subranges of a slice whose
    // length was checked above.
    let count = u32::from_le_bytes(bytes[len - 8..len - 4].try_into().unwrap()) as usize;
    let footer_len = INDEX_FRAME_BYTES + count * 8;
    if len < floor + footer_len {
        return Err(berr(
            (len - 8) as u64,
            "iteration-index count overruns the file",
        ));
    }
    let start = len - footer_len;
    if bytes[start..start + 4] != INDEX_MAGIC {
        return Err(berr(start as u64, "missing iteration-index header magic"));
    }
    let lead = u32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap()) as usize;
    if lead != count {
        return Err(berr(
            (start + 4) as u64,
            "iteration-index counts disagree front to back",
        ));
    }
    let mut bounds = Vec::with_capacity(count);
    let mut at = start + 8;
    for _ in 0..count {
        bounds.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
        at += 8;
    }
    check_boundaries(&bounds, record_count, (start + 8) as u64)?;
    Ok((bounds, footer_len))
}

/// Encode the iteration-index footer.
#[cfg(test)]
fn encode_footer(bounds: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(INDEX_FRAME_BYTES + bounds.len() * 8);
    out.extend_from_slice(&INDEX_MAGIC);
    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
    for &b in bounds {
        out.extend_from_slice(&b.to_le_bytes());
    }
    out.extend_from_slice(&(bounds.len() as u32).to_le_bytes());
    out.extend_from_slice(&INDEX_MAGIC);
    out
}

/// Read the iteration-index footer off a complete in-memory binary trace
/// without decoding any record: `Ok(Some(...))` for version-2 files,
/// `Ok(None)` for version-1 files (no footer). O(footer), no symbol
/// interning.
#[cfg(test)]
fn iteration_index(bytes: &[u8]) -> Result<Option<Vec<u64>>, TraceReadError> {
    let head: &[u8; HEADER_BYTES] = bytes
        .get(..HEADER_BYTES)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| berr(bytes.len() as u64, "truncated header"))?;
    let (version, record_count, _, strtab_len) = parse_header_fields(head)?;
    if version != VERSION_INDEXED {
        return Ok(None);
    }
    let floor = HEADER_BYTES + strtab_len as usize;
    let (bounds, _) = parse_footer_tail(bytes, floor, record_count)?;
    Ok(Some(bounds))
}

/// Decode + intern one string-table section. `base` is the section's byte
/// offset (error reporting only). Allocation is bounded by `bytes.len()`,
/// which callers guarantee is real data, not a header claim.
fn intern_strtab(
    bytes: &[u8],
    string_count: u32,
    base: u64,
    ctx: &AnalysisCtx,
) -> Result<Vec<SymId>, TraceReadError> {
    let mut syms = Vec::with_capacity(string_count as usize);
    let mut at = 0usize;
    for _ in 0..string_count {
        let off = base + at as u64;
        let len = bytes
            .get(at..at + 2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]) as usize)
            .ok_or_else(|| berr(off, "truncated string table"))?;
        let s = bytes
            .get(at + 2..at + 2 + len)
            .ok_or_else(|| berr(off, "string entry overruns the string table"))?;
        let s = std::str::from_utf8(s).map_err(|_| berr(off, "string entry is not UTF-8"))?;
        syms.push(ctx.intern(s));
        at += 2 + len;
    }
    if at != bytes.len() {
        return Err(berr(
            base + at as u64,
            "trailing bytes after the last string-table entry",
        ));
    }
    Ok(syms)
}

/// Decode the record whose header starts at `bytes[at..]` into `rec`,
/// reusing its operand buffer; returns the offset just past the record.
/// Every field of `rec` is overwritten on success; on error `rec` holds a
/// partial decode. Errors name the first problem in file order (a bad
/// entry before a truncated one), with `base` rebasing offsets onto the
/// whole file.
#[inline(always)]
fn decode_record_into(
    bytes: &[u8],
    at: usize,
    base: u64,
    syms: &[SymId],
    rec: &mut Record,
) -> Result<usize, TraceReadError> {
    let off = |rel: usize| base + (at + rel) as u64;
    // SAFETY of the `try_into().unwrap()`s below: `h` here and `o` in
    // `decode_operand` are fixed-size arrays, so every constant subrange is
    // in bounds with exactly the converted width. Truncated input fails the
    // `get`/`next`, never a conversion.
    let h: &[u8; RECORD_BYTES] = bytes
        .get(at..at + RECORD_BYTES)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| berr(off(0), "truncated record header"))?;
    let sym = |rel: usize, what: &str| -> Result<SymId, TraceReadError> {
        let ix = u32::from_le_bytes(h[rel..rel + 4].try_into().unwrap());
        syms.get(ix as usize)
            .copied()
            .ok_or_else(|| berr(off(rel), format!("{what} index {ix} out of range")))
    };
    let packed = u16::from_le_bytes([h[22], h[23]]);
    let n_ops = (packed & 0x7FFF) as usize;
    let entries = n_ops + (packed >> 15) as usize;
    rec.src_line = i32::from_le_bytes(h[0..4].try_into().unwrap());
    rec.func = sym(4, "function symbol")?;
    rec.bb = (
        u32::from_le_bytes(h[8..12].try_into().unwrap()),
        u32::from_le_bytes(h[12..16].try_into().unwrap()),
    );
    rec.bb_label = sym(16, "block-label symbol")?;
    rec.opcode = u16::from_le_bytes([h[20], h[21]]);
    rec.dyn_id = u64::from_le_bytes(h[24..32].try_into().unwrap());
    rec.operands.clear();
    rec.operands.reserve_exact(n_ops);
    rec.result = None;
    let body = at + RECORD_BYTES;
    let mut chunks = bytes[body..].chunks_exact(OPERAND_BYTES);
    for i in 0..entries {
        let entry = body + i * OPERAND_BYTES;
        let o = chunks
            .next()
            .ok_or_else(|| berr(base + entry as u64, "truncated operand entry"))?;
        let o = o.try_into().expect("chunks_exact yields OPERAND_BYTES");
        let op = decode_operand(o, base + entry as u64, syms)?;
        if i < n_ops {
            rec.operands.push(op);
        } else {
            rec.result = Some(op);
        }
    }
    Ok(body + entries * OPERAND_BYTES)
}

/// Decode one operand entry; `off` is its byte offset in the file.
#[inline(always)]
fn decode_operand(
    o: &[u8; OPERAND_BYTES],
    off: u64,
    syms: &[SymId],
) -> Result<Operand, TraceReadError> {
    let tag = match (o[0], o[1]) {
        (0, p) if p >= 1 => OpTag::Pos(p),
        (0, _) => return Err(berr(off + 1, "positional operand id 0")),
        (1, _) => OpTag::Param,
        (2, _) => OpTag::Result,
        (k, _) => return Err(berr(off, format!("unknown operand tag kind {k}"))),
    };
    let is_reg = match o[4] {
        0 => false,
        1 => true,
        b => return Err(berr(off + 4, format!("bad is_reg byte {b}"))),
    };
    let name_payload = u32::from_le_bytes(o[6..10].try_into().unwrap());
    let name = match o[5] {
        0 => Name::None,
        1 => Name::Temp(name_payload),
        2 => Name::Sym(syms.get(name_payload as usize).copied().ok_or_else(|| {
            berr(
                off + 6,
                format!("name symbol index {name_payload} out of range"),
            )
        })?),
        b => return Err(berr(off + 5, format!("unknown name kind {b}"))),
    };
    let value_payload = u64::from_le_bytes(o[11..19].try_into().unwrap());
    let value = match o[10] {
        0 => TraceValue::None,
        1 => TraceValue::I(value_payload as i64),
        2 => TraceValue::F(f64::from_bits(value_payload)),
        3 => TraceValue::Ptr(value_payload),
        b => return Err(berr(off + 10, format!("unknown value kind {b}"))),
    };
    Ok(Operand {
        tag,
        bits: u16::from_le_bytes([o[2], o[3]]),
        value,
        is_reg,
        name,
    })
}

/// Byte length of the record starting at `bytes[at..]` without decoding it
/// (header peek only), used to size the streaming reader's next fill.
fn record_len(bytes: &[u8], at: usize, base: u64) -> Result<usize, TraceReadError> {
    let h = bytes
        .get(at..at + RECORD_BYTES)
        .ok_or_else(|| berr(base + at as u64, "truncated record header"))?;
    let packed = u16::from_le_bytes([h[22], h[23]]);
    let entries = (packed & 0x7FFF) as usize + (packed >> 15) as usize;
    Ok(RECORD_BYTES + entries * OPERAND_BYTES)
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

/// Bytes the streaming reader asks its input for at once. A record takes
/// 32 bytes plus 19 per operand entry, so one refill serves about a
/// thousand typical records; a larger record grows the window to fit.
const WINDOW_BYTES: usize = 64 * 1024;

/// Streaming binary trace reader over any [`Read`], with bounded memory:
/// the string table (read and interned once at open) plus one read window
/// (64 KiB, or the largest record when that is bigger).
///
/// Records decode in place out of the window into the caller's slot:
/// [`TraceStream`](crate::TraceStream) fills a batch of reused slots and
/// lends them, and the [`Iterator`] impl hands each record over by value.
/// The window refills only when
/// the next record or footer field needs more bytes than it holds, and no
/// refill reads past the session's `trace-bytes` ceiling. At the ceiling
/// it asks for one byte, so a crossed ceiling, the end of input or an I/O
/// error shows at the byte where a reader taking each record exactly would
/// meet it. The input must start at the trace's first byte.
///
/// The counterpart of the text format's [`TextStreamReader`](crate::TextStreamReader);
/// [`crate::TraceSource::stream`] picks between the two by magic bytes.
pub struct BinaryStreamReader<R: Read> {
    inner: R,
    syms: Vec<SymId>,
    record_count: u64,
    /// Format version (2 = an iteration-index footer follows the records).
    version: u16,
    /// Footer already consumed and validated.
    footer_done: bool,
    yielded: u64,
    /// The read window: `window[start..end]` is read but not yet decoded.
    window: Vec<u8>,
    start: usize,
    end: usize,
    /// Absolute byte offset of `window[start]`, the next undecoded byte.
    offset: u64,
    /// Bytes left to read before the `trace-bytes` ceiling (`u64::MAX`
    /// without one).
    budget: u64,
    failed: bool,
}

impl<R: Read> BinaryStreamReader<R> {
    /// Read the header and string table; intern every symbol once.
    pub fn open(inner: R, ctx: &AnalysisCtx) -> Result<BinaryStreamReader<R>, TraceReadError> {
        let mut r = BinaryStreamReader {
            inner,
            syms: Vec::new(),
            record_count: 0,
            version: VERSION,
            footer_done: false,
            yielded: 0,
            window: vec![0; WINDOW_BYTES],
            start: 0,
            end: 0,
            offset: 0,
            budget: ctx
                .limits()
                .get(ResourceKind::TraceBytes)
                .unwrap_or(u64::MAX),
            failed: false,
        };
        let head: [u8; HEADER_BYTES] = r.peek("header")?;
        let (version, record_count, string_count, strtab_len) = parse_header_fields(&head)?;
        r.consume(HEADER_BYTES);
        // Copy the string table out a window at a time: allocation tracks
        // bytes the stream actually delivers, so a hostile length cannot
        // force an up-front over-allocation.
        let mut strtab = Vec::new();
        let mut remaining = strtab_len as usize;
        while remaining > 0 {
            r.fill(1, "string table")?;
            let n = remaining.min(r.end - r.start);
            strtab.extend_from_slice(&r.window[r.start..r.start + n]);
            r.consume(n);
            remaining -= n;
        }
        r.syms = intern_strtab(&strtab, string_count, HEADER_BYTES as u64, ctx)?;
        r.version = version;
        r.record_count = record_count;
        Ok(r)
    }

    /// Records the header declares.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Byte offset of the next undecoded byte: the header, the string
    /// table and every record delivered so far, not what the window has
    /// read ahead.
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// The one decode step behind [`TraceStream`](crate::TraceStream)'s
    /// batches and the [`Iterator`] impl: the next record into `slot`,
    /// reusing its operand buffer, or the end of the stream checked. `None`
    /// once the records and any footer are consumed and the input has
    /// ended, and after an error.
    #[inline]
    pub(crate) fn advance(&mut self, slot: &mut Record) -> Option<Result<(), TraceReadError>> {
        if self.failed {
            return None;
        }
        let step = if self.yielded == self.record_count {
            match self.end_of_records() {
                Ok(()) => return None,
                Err(e) => Err(e),
            }
        } else {
            self.decode_next(slot)
        };
        match step {
            Ok(()) => {
                self.yielded += 1;
                Some(Ok(()))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    #[inline]
    fn decode_next(&mut self, slot: &mut Record) -> Result<(), TraceReadError> {
        self.fill(RECORD_BYTES, "record header")?;
        let total = record_len(&self.window[self.start..self.end], 0, self.offset)?;
        self.fill(total, "operand entries")?;
        let record = &self.window[self.start..self.start + total];
        decode_record_into(record, 0, self.offset, &self.syms, slot)?;
        self.consume(total);
        Ok(())
    }

    /// After the last declared record: consume a version-2 footer, then
    /// require the end of input.
    fn end_of_records(&mut self) -> Result<(), TraceReadError> {
        if self.version == VERSION_INDEXED && !self.footer_done {
            self.read_footer()?;
            self.footer_done = true;
        }
        if self.refill(1)? {
            return Err(berr(self.offset, "trailing bytes after the last record"));
        }
        Ok(())
    }

    /// Consume and validate the version-2 iteration-index footer after the
    /// last declared record. Allocation is capped by the record count (a
    /// valid index can never hold more boundaries than records), so a
    /// hostile count cannot force an over-allocation.
    fn read_footer(&mut self) -> Result<(), TraceReadError> {
        let frame: [u8; 8] = self.peek("index header")?;
        if frame[..4] != INDEX_MAGIC {
            return Err(berr(self.offset, "missing iteration-index header magic"));
        }
        let count = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as u64;
        if count > self.record_count {
            return Err(berr(
                self.offset + 4,
                "iteration-index count exceeds the record count",
            ));
        }
        self.consume(8);
        let mut bounds = Vec::with_capacity(count as usize);
        for _ in 0..count {
            bounds.push(u64::from_le_bytes(self.peek("index entry")?));
            self.consume(8);
        }
        check_boundaries(&bounds, self.record_count, self.offset)?;
        let frame: [u8; 8] = self.peek("index trailer")?;
        let tail_count = u32::from_le_bytes(frame[..4].try_into().unwrap()) as u64;
        if tail_count != count {
            return Err(berr(
                self.offset,
                "iteration-index counts disagree front to back",
            ));
        }
        if frame[4..] != INDEX_MAGIC {
            return Err(berr(
                self.offset + 4,
                "missing iteration-index trailer magic",
            ));
        }
        self.consume(8);
        Ok(())
    }

    /// Copy the next `N` undecoded bytes out of the window without
    /// consuming them.
    fn peek<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TraceReadError> {
        self.fill(N, what)?;
        Ok(self.window[self.start..self.start + N]
            .try_into()
            .expect("fill leaves N bytes at start"))
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        self.offset += n as u64;
    }

    /// Make the window hold `need` undecoded bytes, or fail with
    /// "truncated {what}" at the byte where the input ended.
    #[inline]
    fn fill(&mut self, need: usize, what: &str) -> Result<(), TraceReadError> {
        if self.end - self.start >= need || self.refill(need)? {
            return Ok(());
        }
        Err(berr(
            self.offset + (self.end - self.start) as u64,
            format!("truncated {what}"),
        ))
    }

    /// Read until the window holds `need` undecoded bytes; false when the
    /// input ends first. Each read fills as much of the window as the
    /// ceiling allows; a read at the ceiling asks for one byte, which
    /// crosses it.
    fn refill(&mut self, need: usize) -> Result<bool, TraceReadError> {
        while self.end - self.start < need {
            if self.start > 0 {
                self.window.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            if self.window.len() < need {
                self.window.resize(need, 0);
            }
            let room = (self.window.len() - self.end) as u64;
            let want = room.min(self.budget).max(1) as usize;
            let n = read_some(&mut self.inner, &mut self.window[self.end..self.end + want])?;
            if n == 0 {
                return Ok(false);
            }
            self.end += n;
            self.budget = self.budget.saturating_sub(n as u64);
        }
        Ok(true)
    }
}

impl<R: Read> Iterator for BinaryStreamReader<R> {
    type Item = Result<Record, TraceReadError>;

    /// The decode step into a fresh record, handed over by value.
    fn next(&mut self) -> Option<Self::Item> {
        let mut record = Record::blank();
        Some(self.advance(&mut record)?.map(|()| record))
    }
}

/// `read` retrying on `Interrupted`.
fn read_some<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TraceReadError> {
    loop {
        match r.read(buf) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceReadError::Io(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::opcodes;
    use crate::writer;

    /// Every record of `bytes`, read in `ctx`.
    fn read_all(bytes: &[u8], ctx: &AnalysisCtx) -> Result<Vec<Record>, TraceReadError> {
        BinaryStreamReader::open(bytes, ctx)?.collect()
    }

    fn sample_records(ctx: &AnalysisCtx) -> Vec<Record> {
        let mut recs = Vec::new();
        for i in 0..50u64 {
            recs.push(Record {
                src_line: if i % 7 == 0 { -1 } else { i as i32 },
                func: ctx.intern(if i % 3 == 0 { "main" } else { "foo" }),
                bb: (i as u32 % 9, 1),
                bb_label: ctx.intern("11"),
                opcode: if i % 2 == 0 {
                    opcodes::LOAD
                } else {
                    opcodes::CALL
                },
                dyn_id: i,
                operands: vec![
                    Operand::reg(OpTag::Pos(1), 64, TraceValue::Ptr(0x1000 + i * 8), {
                        let _g = ctx.enter();
                        Name::sym("p")
                    }),
                    Operand::imm(OpTag::Pos(2), 32, TraceValue::I(i as i64 - 3)),
                    Operand {
                        tag: OpTag::Param,
                        bits: 64,
                        value: TraceValue::F(0.25 * i as f64),
                        is_reg: true,
                        name: Name::Sym(ctx.intern("q")),
                    },
                ],
                result: (i % 4 != 0).then(|| {
                    Operand::reg(
                        OpTag::Result,
                        64,
                        TraceValue::I(i as i64),
                        Name::Temp(i as u32),
                    )
                }),
            });
        }
        recs
    }

    #[test]
    fn round_trips_through_bytes() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        assert!(is_binary(&bytes));
        let reader = BinaryStreamReader::open(&bytes[..], &ctx).unwrap();
        assert_eq!(reader.record_count(), recs.len() as u64);
        let back: Vec<Record> = reader.collect::<Result<_, _>>().unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn round_trips_through_a_fresh_session() {
        // Decoding into a *different* space still resolves to the same
        // strings (ids differ, resolved text matches).
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let other = AnalysisCtx::session();
        let back = read_all(&bytes, &other).unwrap();
        assert_eq!(recs.len(), back.len());
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(ctx.resolve(a.func), other.resolve(b.func));
            assert_eq!(ctx.resolve(a.bb_label), other.resolve(b.bb_label));
            assert_eq!(a.dyn_id, b.dyn_id);
        }
    }

    #[test]
    fn streaming_reader_round_trips_through_one_byte_reads() {
        /// Hands over one byte per `read`.
        struct ByteAtATime<'a>(&'a [u8]);
        impl Read for ByteAtATime<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let Some((&b, rest)) = self.0.split_first() else {
                    return Ok(0);
                };
                let Some(first) = buf.first_mut() else {
                    return Ok(0);
                };
                *first = b;
                self.0 = rest;
                Ok(1)
            }
        }
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let streamed: Vec<Record> = BinaryStreamReader::open(ByteAtATime(&bytes), &ctx)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(recs, streamed);
    }

    #[test]
    fn symbols_intern_exactly_once_at_open() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let fresh = AnalysisCtx::session();
        let reader = BinaryStreamReader::open(&bytes[..], &fresh).unwrap();
        // Only the file's distinct symbols: main, foo, "11", p, q.
        assert_eq!(fresh.space().len(), 5);
        let _ = reader.collect::<Result<Vec<_>, _>>().unwrap();
        // Decoding interned nothing further.
        assert_eq!(fresh.space().len(), 5);
    }

    #[test]
    fn floats_are_bit_exact() {
        // The textual format prints floats lossily (`%.6f`); the binary
        // format must not.
        let ctx = AnalysisCtx::session();
        let v = 1.000000001234_f64;
        let rec = Record {
            src_line: 1,
            func: ctx.intern("main"),
            bb: (1, 1),
            bb_label: ctx.intern("0"),
            opcode: opcodes::FADD,
            dyn_id: 0,
            operands: vec![Operand::imm(OpTag::Pos(1), 64, TraceValue::F(v))],
            result: None,
        };
        let bytes = to_bytes(std::slice::from_ref(&rec), &ctx);
        let back = read_all(&bytes, &ctx).unwrap();
        assert_eq!(back[0].operands[0].value, TraceValue::F(v));
    }

    #[test]
    fn text_and_binary_decode_identically() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let text = {
            let _g = ctx.enter();
            writer::to_string(&recs)
        };
        let bytes = to_bytes(&recs, &ctx);
        let from_text = crate::reader::TextStreamReader::new(text.as_bytes(), &ctx)
            .read_all()
            .unwrap();
        let from_bin = read_all(&bytes, &ctx).unwrap();
        // Floats in this sample are representable in %.6f, so even the
        // lossy text path agrees.
        assert_eq!(from_text, from_bin);
    }

    #[test]
    fn empty_trace_round_trips() {
        let ctx = AnalysisCtx::session();
        let bytes = to_bytes(&[], &ctx);
        assert_eq!(bytes.len(), HEADER_BYTES);
        let back = read_all(&bytes, &ctx).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let ctx = AnalysisCtx::session();
        let good = to_bytes(&sample_records(&ctx), &ctx);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'0';
        assert!(read_all(&bad_magic, &ctx).is_err());

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        let e = read_all(&bad_version, &ctx).unwrap_err();
        assert!(e.to_string().contains("version"));

        for cut in [0, 3, HEADER_BYTES - 1, good.len() - 1, good.len() - 20] {
            assert!(read_all(&good[..cut], &ctx).is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let ctx = AnalysisCtx::session();
        let mut bytes = to_bytes(&sample_records(&ctx), &ctx);
        bytes.extend_from_slice(b"junk");
        let e = read_all(&bytes, &ctx).unwrap_err();
        assert!(e.to_string().contains("trailing"));
    }

    #[test]
    fn hostile_string_count_cannot_over_allocate() {
        // Header claims u32::MAX strings in a tiny table: the count/length
        // cross-check fires before any count-derived allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        let ctx = AnalysisCtx::session().untrusted();
        let e = BinaryStreamReader::open(&bytes[..], &ctx)
            .map(|_| ())
            .unwrap_err();
        assert!(e.to_string().contains("string count"));
    }

    #[test]
    fn writer_counters_track_output() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let mut w = BinaryWriter::with_ctx(Vec::new(), &ctx);
        for r in &recs {
            w.write_record(r).unwrap();
        }
        assert_eq!(w.records_written(), recs.len() as u64);
        let predicted = w.bytes_written();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len() as u64, predicted);
    }

    #[test]
    fn iteration_index_round_trips_on_every_reader() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bounds = vec![7u64, 19, 23, 41];
        let bytes = to_bytes_with_index(&recs, bounds.clone(), &ctx);
        // O(footer) standalone probe.
        assert_eq!(iteration_index(&bytes).unwrap(), Some(bounds.clone()));
        // Both front doors decode every record past the footer.
        let source = crate::TraceSource::from_bytes(&bytes).ctx(&ctx);
        assert_eq!(source.records().unwrap(), recs);
        // The reader consumes and validates the footer, then EOF.
        let streamed: Vec<Record> = BinaryStreamReader::open(&bytes[..], &ctx)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, recs);
    }

    #[test]
    fn version1_files_carry_no_index_and_stay_byte_identical() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
        assert_eq!(iteration_index(&bytes).unwrap(), None);
        assert_eq!(read_all(&bytes, &ctx).unwrap(), recs);
    }

    #[test]
    fn empty_iteration_index_is_valid() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes_with_index(&recs, Vec::new(), &ctx);
        assert_eq!(iteration_index(&bytes).unwrap(), Some(Vec::new()));
        assert_eq!(read_all(&bytes, &ctx).unwrap(), recs);
        let streamed: Vec<Record> = BinaryStreamReader::open(&bytes[..], &ctx)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, recs);
    }

    #[test]
    fn writer_rejects_invalid_iteration_index() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        for bad in [vec![5u64, 5], vec![9, 3], vec![0], vec![recs.len() as u64]] {
            let mut w = BinaryWriter::with_ctx(Vec::new(), &ctx);
            for r in &recs {
                w.write_record(r).unwrap();
            }
            w.set_iteration_index(bad.clone());
            assert!(w.finish().is_err(), "index {bad:?} must be rejected");
        }
    }

    #[test]
    fn hostile_footers_are_rejected_by_both_readers() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let good = to_bytes_with_index(&recs, vec![7, 19], &ctx);
        let footer_start = good.len() - (INDEX_FRAME_BYTES + 2 * 8);

        let mut bad_magic = good.clone();
        bad_magic[footer_start] ^= 0xFF;
        let mut bad_tail_magic = good.clone();
        let n = bad_tail_magic.len();
        bad_tail_magic[n - 1] ^= 0xFF;
        let mut count_mismatch = good.clone();
        count_mismatch[footer_start + 4] = 1;
        let mut not_increasing = good.clone();
        // Overwrite the second boundary with the first.
        not_increasing[footer_start + 16..footer_start + 24].copy_from_slice(&7u64.to_le_bytes());
        let mut out_of_range = good.clone();
        out_of_range[footer_start + 16..footer_start + 24]
            .copy_from_slice(&(recs.len() as u64).to_le_bytes());
        // A count claiming more entries than the file holds.
        let mut count_overrun = good.clone();
        let n = count_overrun.len();
        count_overrun[n - 8..n - 4].copy_from_slice(&u32::MAX.to_le_bytes());

        for (what, bytes) in [
            ("bad header magic", &bad_magic),
            ("bad trailer magic", &bad_tail_magic),
            ("count mismatch", &count_mismatch),
            ("not increasing", &not_increasing),
            ("out of range", &out_of_range),
            ("count overrun", &count_overrun),
        ] {
            let ctx = AnalysisCtx::session().untrusted();
            assert!(
                crate::TraceSource::from_bytes(bytes)
                    .ctx(&ctx)
                    .records()
                    .is_err(),
                "records() must reject: {what}"
            );
            assert!(
                BinaryStreamReader::open(&bytes[..], &ctx)
                    .and_then(|r| r.collect::<Result<Vec<_>, _>>())
                    .is_err(),
                "streaming reader must reject: {what}"
            );
        }
    }

    #[test]
    fn a_spill_file_error_names_the_directory() {
        let dir = std::env::temp_dir().join("autocheck-no-such-dir");
        let e = spill_file(&dir).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert!(
            e.to_string().starts_with(&format!(
                "cannot create a spill file in {}: ",
                dir.display()
            )),
            "{e}"
        );
    }

    #[test]
    fn file_size_is_exactly_the_documented_layout() {
        let ctx = AnalysisCtx::session();
        let recs = sample_records(&ctx);
        let bytes = to_bytes(&recs, &ctx);
        let strtab: usize = ["main", "foo", "11", "p", "q"]
            .iter()
            .map(|s| 2 + s.len())
            .sum();
        let entries: usize = recs
            .iter()
            .map(|r| r.operands.len() + r.result.is_some() as usize)
            .sum();
        assert_eq!(
            bytes.len(),
            HEADER_BYTES + strtab + recs.len() * RECORD_BYTES + entries * OPERAND_BYTES
        );
    }
}
