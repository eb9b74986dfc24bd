//! The reference streaming reader the windowed
//! [`BinaryStreamReader`](super::BinaryStreamReader) is tested against:
//! two `read_exact` calls per record into a scratch buffer, a decode that
//! allocates every record and bounds-checks every operand entry on its
//! own, and the footer read eight bytes at a time. Test-only;
//! `differential.rs` holds the windowed reader to this reader's records and
//! errors.

use super::{
    berr, check_boundaries, intern_strtab, parse_header_fields, HEADER_BYTES, INDEX_MAGIC,
    OPERAND_BYTES, RECORD_BYTES, VERSION_INDEXED,
};
use crate::ctx::AnalysisCtx;
use crate::intern::SymId;
use crate::name::Name;
use crate::reader::TraceReadError;
use crate::record::{OpTag, Operand, Record, TraceValue};
use std::io::{self, Read};

/// The reference reader: the string table plus one record in memory.
pub(super) struct Reference<R: Read> {
    inner: R,
    syms: Vec<SymId>,
    record_count: u64,
    version: u16,
    footer_done: bool,
    yielded: u64,
    /// Absolute byte offset of the next unread byte.
    offset: u64,
    scratch: Vec<u8>,
    failed: bool,
}

impl<R: Read> Reference<R> {
    /// Read the header and string table; intern every symbol once.
    pub(super) fn open(mut inner: R, ctx: &AnalysisCtx) -> Result<Reference<R>, TraceReadError> {
        let mut head = [0u8; HEADER_BYTES];
        read_exact_at(&mut inner, &mut head, 0, "header")?;
        let (version, record_count, string_count, strtab_len) = parse_header_fields(&head)?;
        let mut strtab = Vec::new();
        let mut remaining = strtab_len as usize;
        let mut chunk = [0u8; 4096];
        while remaining > 0 {
            let want = remaining.min(chunk.len());
            let n = read_some(&mut inner, &mut chunk[..want])?;
            if n == 0 {
                return Err(berr(
                    HEADER_BYTES as u64 + strtab.len() as u64,
                    "truncated string table",
                ));
            }
            strtab.extend_from_slice(&chunk[..n]);
            remaining -= n;
        }
        let syms = intern_strtab(&strtab, string_count, HEADER_BYTES as u64, ctx)?;
        Ok(Reference {
            inner,
            syms,
            record_count,
            version,
            footer_done: false,
            yielded: 0,
            offset: HEADER_BYTES as u64 + strtab_len as u64,
            scratch: Vec::new(),
            failed: false,
        })
    }

    fn read_footer(&mut self) -> Result<(), TraceReadError> {
        let mut frame = [0u8; 8];
        read_exact_at(&mut self.inner, &mut frame, self.offset, "index header")?;
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
        self.offset += 8;
        let mut bounds = Vec::with_capacity(count as usize);
        let mut entry = [0u8; 8];
        for _ in 0..count {
            read_exact_at(&mut self.inner, &mut entry, self.offset, "index entry")?;
            bounds.push(u64::from_le_bytes(entry));
            self.offset += 8;
        }
        check_boundaries(&bounds, self.record_count, self.offset)?;
        read_exact_at(&mut self.inner, &mut frame, self.offset, "index trailer")?;
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
        self.offset += 8;
        Ok(())
    }

    fn read_record(&mut self) -> Result<Record, TraceReadError> {
        self.scratch.resize(RECORD_BYTES, 0);
        let mut tmp = std::mem::take(&mut self.scratch);
        let r = (|| {
            read_exact_at(
                &mut self.inner,
                &mut tmp[..RECORD_BYTES],
                self.offset,
                "record header",
            )?;
            let packed = u16::from_le_bytes([tmp[22], tmp[23]]);
            let entries = (packed & 0x7FFF) as usize + (packed >> 15) as usize;
            let total = RECORD_BYTES + entries * OPERAND_BYTES;
            tmp.resize(total, 0);
            read_exact_at(
                &mut self.inner,
                &mut tmp[RECORD_BYTES..total],
                self.offset + RECORD_BYTES as u64,
                "operand entries",
            )?;
            let (rec, end) = decode_record(&tmp[..total], 0, self.offset, &self.syms)?;
            debug_assert_eq!(end, total);
            self.offset += total as u64;
            Ok(rec)
        })();
        self.scratch = tmp;
        r
    }
}

impl<R: Read> Iterator for Reference<R> {
    type Item = Result<Record, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if self.yielded == self.record_count {
            if self.version == VERSION_INDEXED && !self.footer_done {
                if let Err(e) = self.read_footer() {
                    self.failed = true;
                    return Some(Err(e));
                }
                self.footer_done = true;
            }
            let mut probe = [0u8; 1];
            return match read_some(&mut self.inner, &mut probe) {
                Ok(0) => None,
                Ok(_) => {
                    self.failed = true;
                    Some(Err(berr(
                        self.offset,
                        "trailing bytes after the last record",
                    )))
                }
                Err(e) => {
                    self.failed = true;
                    Some(Err(e))
                }
            };
        }
        match self.read_record() {
            Ok(rec) => {
                self.yielded += 1;
                Some(Ok(rec))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

/// The allocating decode, one bounds-checked `get` per operand entry.
fn decode_record(
    bytes: &[u8],
    at: usize,
    base: u64,
    syms: &[SymId],
) -> Result<(Record, usize), TraceReadError> {
    let off = |rel: usize| base + (at + rel) as u64;
    let h = bytes
        .get(at..at + RECORD_BYTES)
        .ok_or_else(|| berr(off(0), "truncated record header"))?;
    let sym = |rel: usize, what: &str| -> Result<SymId, TraceReadError> {
        let ix = u32::from_le_bytes(h[rel..rel + 4].try_into().unwrap());
        syms.get(ix as usize)
            .copied()
            .ok_or_else(|| berr(off(rel), format!("{what} index {ix} out of range")))
    };
    let packed = u16::from_le_bytes([h[22], h[23]]);
    let n_ops = (packed & 0x7FFF) as usize;
    let has_result = packed & 0x8000 != 0;
    let mut rec = Record {
        src_line: i32::from_le_bytes(h[0..4].try_into().unwrap()),
        func: sym(4, "function symbol")?,
        bb: (
            u32::from_le_bytes(h[8..12].try_into().unwrap()),
            u32::from_le_bytes(h[12..16].try_into().unwrap()),
        ),
        bb_label: sym(16, "block-label symbol")?,
        opcode: u16::from_le_bytes([h[20], h[21]]),
        dyn_id: u64::from_le_bytes(h[24..32].try_into().unwrap()),
        operands: Vec::with_capacity(n_ops),
        result: None,
    };
    let mut at = at + RECORD_BYTES;
    for i in 0..n_ops + has_result as usize {
        let o = bytes
            .get(at..at + OPERAND_BYTES)
            .ok_or_else(|| berr(base + at as u64, "truncated operand entry"))?;
        let ooff = |rel: usize| base + (at + rel) as u64;
        let tag = match (o[0], o[1]) {
            (0, p) if p >= 1 => OpTag::Pos(p),
            (0, _) => return Err(berr(ooff(1), "positional operand id 0")),
            (1, _) => OpTag::Param,
            (2, _) => OpTag::Result,
            (k, _) => return Err(berr(ooff(0), format!("unknown operand tag kind {k}"))),
        };
        let is_reg = match o[4] {
            0 => false,
            1 => true,
            b => return Err(berr(ooff(4), format!("bad is_reg byte {b}"))),
        };
        let name_payload = u32::from_le_bytes(o[6..10].try_into().unwrap());
        let name = match o[5] {
            0 => Name::None,
            1 => Name::Temp(name_payload),
            2 => Name::Sym(syms.get(name_payload as usize).copied().ok_or_else(|| {
                berr(
                    ooff(6),
                    format!("name symbol index {name_payload} out of range"),
                )
            })?),
            b => return Err(berr(ooff(5), format!("unknown name kind {b}"))),
        };
        let value_payload = u64::from_le_bytes(o[11..19].try_into().unwrap());
        let value = match o[10] {
            0 => TraceValue::None,
            1 => TraceValue::I(value_payload as i64),
            2 => TraceValue::F(f64::from_bits(value_payload)),
            3 => TraceValue::Ptr(value_payload),
            b => return Err(berr(ooff(10), format!("unknown value kind {b}"))),
        };
        let op = Operand {
            tag,
            bits: u16::from_le_bytes([o[2], o[3]]),
            value,
            is_reg,
            name,
        };
        if has_result && i == n_ops {
            rec.result = Some(op);
        } else {
            rec.operands.push(op);
        }
        at += OPERAND_BYTES;
    }
    Ok((rec, at))
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

/// `read_exact` that reports truncation as a binary error at `offset`.
fn read_exact_at<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    offset: u64,
    what: &str,
) -> Result<(), TraceReadError> {
    let mut done = 0;
    while done < buf.len() {
        let n = read_some(r, &mut buf[done..])?;
        if n == 0 {
            return Err(berr(offset + done as u64, format!("truncated {what}")));
        }
        done += n;
    }
    Ok(())
}
