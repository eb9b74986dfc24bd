//! The reference formatter the byte-level writer is tested against: one
//! `writeln!` per line, every field through its `Display` impl, symbols
//! resolved through the thread's current space. Test-only;
//! `differential.rs` holds [`super::to_string`] and
//! [`super::TraceWriter`] to this formatter's bytes.

use crate::record::{Operand, Record};
use std::fmt::Write as FmtWrite;

/// Append the textual form of `r` to `buf`.
pub(super) fn format_record(r: &Record, buf: &mut String) {
    // Header: 0,<line>,<func>,<bb_line>:<bb_col>,<label>,<opcode>,<dyn_id>,
    let _ = writeln!(
        buf,
        "0,{},{},{}:{},{},{},{},",
        r.src_line, r.func, r.bb.0, r.bb.1, r.bb_label, r.opcode, r.dyn_id
    );
    for op in &r.operands {
        format_operand(op, buf);
    }
    if let Some(res) = &r.result {
        format_operand(res, buf);
    }
}

fn format_operand(op: &Operand, buf: &mut String) {
    let _ = writeln!(
        buf,
        "{},{},{},{},{},",
        op.tag,
        op.bits,
        op.value,
        if op.is_reg { 1 } else { 0 },
        op.name
    );
}

/// Serialize a slice of records to a `String`.
pub(super) fn to_string(records: &[Record]) -> String {
    let mut s = String::new();
    for r in records {
        format_record(r, &mut s);
    }
    s
}
