//! The reference binary writer the bounded [`BinaryWriter`](super::BinaryWriter)
//! is tested against: the previous writer, which encodes each record by
//! `Vec` pushes into one in-memory record section, maps symbols through a
//! hash map, and writes header, string table and records at `finish`.
//! Test-only; `writer_differential.rs` holds the bounded writer to this
//! writer's bytes, counters and errors.

use super::{
    check_boundaries, encode_footer, HEADER_BYTES, MAGIC, MAX_OPERANDS, VERSION, VERSION_INDEXED,
};
use crate::ctx::AnalysisCtx;
use crate::intern::{SymId, SymStr};
use crate::name::Name;
use crate::record::{OpTag, Operand, Record, TraceValue};
use fxhash::FxHashMap;
use std::io::{self, Write};

/// The previous binary writer: every record byte held in memory until
/// [`finish`](Self::finish). A failed `write_record` may leave part of the
/// record and its first symbols behind, so the tests compare only the
/// output of the records it accepted.
pub(super) struct Reference<W: Write> {
    out: W,
    ctx: AnalysisCtx,
    /// String-table entries in first-use order (= file-local index order).
    /// Owned handles — the writer stays valid even if the session space
    /// that interned them drops first.
    strings: Vec<SymStr>,
    /// Session `SymId` index → file-local string-table index.
    sym_index: FxHashMap<usize, u32>,
    /// Accumulated record-section bytes.
    records: Vec<u8>,
    record_count: u64,
    /// Iteration boundaries to emit as a version-2 footer, when set.
    index: Option<Vec<u64>>,
}

impl<W: Write> Reference<W> {
    /// Wrap `out`, resolving symbols through `ctx`'s space.
    pub(super) fn with_ctx(out: W, ctx: &AnalysisCtx) -> Self {
        Reference {
            out,
            ctx: ctx.clone(),
            strings: Vec::new(),
            sym_index: FxHashMap::default(),
            records: Vec::new(),
            record_count: 0,
            index: None,
        }
    }

    /// Emit an iteration-index footer at [`finish`](Self::finish) and stamp
    /// the file [`VERSION_INDEXED`]. `bounds` are the record indices where
    /// a new region iteration starts — strictly increasing, each within
    /// the records actually written (checked at `finish`, where the final
    /// record count is known).
    pub(super) fn set_iteration_index(&mut self, bounds: Vec<u64>) {
        self.index = Some(bounds);
    }

    /// The iteration-index footer [`finish`](Self::finish) appends, checked
    /// against the records written.
    fn footer(&self) -> io::Result<Option<Vec<u8>>> {
        let Some(bounds) = &self.index else {
            return Ok(None);
        };
        check_boundaries(bounds, self.record_count, 0).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("iteration index: {e}"))
        })?;
        Ok(Some(encode_footer(bounds)))
    }

    fn file_sym(&mut self, id: SymId) -> io::Result<u32> {
        if let Some(&ix) = self.sym_index.get(&id.index()) {
            return Ok(ix);
        }
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
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many symbols"))?;
        self.strings.push(s);
        self.sym_index.insert(id.index(), ix);
        Ok(ix)
    }

    fn encode_operand(&mut self, op: &Operand) -> io::Result<()> {
        let (kind, pos) = match op.tag {
            OpTag::Pos(i) => (0u8, i),
            OpTag::Param => (1, 0),
            OpTag::Result => (2, 0),
        };
        let (name_kind, name_payload) = match op.name {
            Name::None => (0u8, 0u32),
            Name::Temp(n) => (1, n),
            Name::Sym(s) => (2, self.file_sym(s)?),
        };
        let (value_kind, value_payload) = match op.value {
            TraceValue::None => (0u8, 0u64),
            TraceValue::I(v) => (1, v as u64),
            TraceValue::F(v) => (2, v.to_bits()),
            TraceValue::Ptr(p) => (3, p),
        };
        let b = &mut self.records;
        b.push(kind);
        b.push(pos);
        b.extend_from_slice(&op.bits.to_le_bytes());
        b.push(op.is_reg as u8);
        b.push(name_kind);
        b.extend_from_slice(&name_payload.to_le_bytes());
        b.push(value_kind);
        b.extend_from_slice(&value_payload.to_le_bytes());
        Ok(())
    }

    /// Serialize one record (into the writer's buffer).
    pub(super) fn write_record(&mut self, r: &Record) -> io::Result<()> {
        if r.operands.len() > MAX_OPERANDS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record with {} operands exceeds the format's cap",
                    r.operands.len()
                ),
            ));
        }
        let func = self.file_sym(r.func)?;
        let label = self.file_sym(r.bb_label)?;
        let packed = r.operands.len() as u16 | if r.result.is_some() { 0x8000 } else { 0 };
        let b = &mut self.records;
        b.extend_from_slice(&r.src_line.to_le_bytes());
        b.extend_from_slice(&func.to_le_bytes());
        b.extend_from_slice(&r.bb.0.to_le_bytes());
        b.extend_from_slice(&r.bb.1.to_le_bytes());
        b.extend_from_slice(&label.to_le_bytes());
        b.extend_from_slice(&r.opcode.to_le_bytes());
        b.extend_from_slice(&packed.to_le_bytes());
        b.extend_from_slice(&r.dyn_id.to_le_bytes());
        for op in &r.operands {
            self.encode_operand(op)?;
        }
        if let Some(res) = &r.result {
            self.encode_operand(res)?;
        }
        self.record_count += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub(super) fn records_written(&self) -> u64 {
        self.record_count
    }

    /// Size of the complete file as buffered so far (header + string table
    /// + records), in bytes.
    pub(super) fn bytes_written(&self) -> u64 {
        let strtab: usize = self.strings.iter().map(|s| 2 + s.len()).sum();
        let footer = self.footer().ok().flatten().map_or(0, |f| f.len());
        (HEADER_BYTES + strtab + self.records.len() + footer) as u64
    }

    /// Emit header, string table and records; flush; return the inner
    /// writer.
    pub(super) fn finish(mut self) -> io::Result<W> {
        let footer = self.footer()?;
        let strtab_len: usize = self.strings.iter().map(|s| 2 + s.len()).sum();
        let strtab_len = u32::try_from(strtab_len).map_err(|_| {
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
        head.extend_from_slice(&(self.strings.len() as u32).to_le_bytes());
        head.extend_from_slice(&strtab_len.to_le_bytes());
        for s in &self.strings {
            head.extend_from_slice(&(s.len() as u16).to_le_bytes());
            head.extend_from_slice(s.as_bytes());
        }
        self.out.write_all(&head)?;
        self.out.write_all(&self.records)?;
        if let Some(footer) = &footer {
            self.out.write_all(footer)?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}
