//! Building trace records from executed instructions.
//!
//! The emitted shapes follow the paper's figures:
//!
//! * Fig. 1 — `Load`/arithmetic blocks: positional operands then an `r`
//!   result line;
//! * Fig. 6(a) — "Call form 1" (builtins): callee operand, argument
//!   operands, `r` result;
//! * Fig. 6(b) — "Call form 2" (defined functions): callee operand,
//!   argument operands, then `f`-tagged parameter lines; the callee's body
//!   records follow, and its `Ret` closes the invocation;
//! * Fig. 6(c) — `Alloca`: the block-label field carries the *variable
//!   name*, and the result line holds the variable's address.

use crate::rtvalue::RtValue;
use autocheck_ir::SrcLoc;
use autocheck_trace::{Name, OpTag, Operand, Record, SymId};

/// A fully-resolved dynamic operand, ready for serialization.
#[derive(Clone, Debug)]
pub struct DynOperand {
    /// Register/variable name (`Name::None` for immediates).
    pub name: Name,
    /// Dynamic value.
    pub value: RtValue,
    /// Whether the operand is a register.
    pub is_reg: bool,
}

impl DynOperand {
    /// A register operand.
    pub fn reg(name: Name, value: RtValue) -> Self {
        DynOperand {
            name,
            value,
            is_reg: true,
        }
    }

    /// An immediate operand.
    pub fn imm(value: RtValue) -> Self {
        DynOperand {
            name: Name::None,
            value,
            is_reg: false,
        }
    }

    fn to_operand(&self, tag: OpTag) -> Operand {
        Operand {
            tag,
            bits: self.value.bit_size(),
            value: self.value.to_trace(),
            is_reg: self.is_reg,
            name: self.name,
        }
    }
}

/// Fill `rec` with one executed instruction, in place: every field is
/// overwritten and the operand buffer is cleared and refilled, so a slot
/// reused across instructions allocates only when an instruction has more
/// operands than any before it.
///
/// `params` and `args` pair up into the `f`-tagged parameter lines of Call
/// form 2 (both empty otherwise); `label` is the basic-block label except
/// for `Alloca`, where the caller passes the variable name.
#[allow(clippy::too_many_arguments)]
pub fn fill_record(
    rec: &mut Record,
    func: SymId,
    bb_loc: SrcLoc,
    label: SymId,
    opcode: u16,
    loc: SrcLoc,
    dyn_id: u64,
    operands: &[DynOperand],
    params: &[SymId],
    args: &[RtValue],
    result: Option<DynOperand>,
) {
    rec.src_line = loc.trace_line();
    rec.func = func;
    rec.bb = (bb_loc.line, bb_loc.col);
    rec.bb_label = label;
    rec.opcode = opcode;
    rec.dyn_id = dyn_id;
    rec.operands.clear();
    for (i, op) in operands.iter().enumerate() {
        rec.operands.push(op.to_operand(OpTag::Pos((i + 1) as u8)));
    }
    for (&pname, pval) in params.iter().zip(args) {
        rec.operands.push(Operand {
            tag: OpTag::Param,
            bits: pval.bit_size(),
            value: pval.to_trace(),
            is_reg: true,
            name: Name::Sym(pname),
        });
    }
    rec.result = result.map(|r| r.to_operand(OpTag::Result));
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocheck_trace::{writer, TraceValue};

    /// [`fill_record`] into a fresh slot.
    #[allow(clippy::too_many_arguments)]
    fn build_record(
        func: SymId,
        bb_loc: SrcLoc,
        label: SymId,
        opcode: u16,
        loc: SrcLoc,
        dyn_id: u64,
        operands: &[DynOperand],
        params: &[(SymId, RtValue)],
        result: Option<DynOperand>,
    ) -> Record {
        let (names, args): (Vec<SymId>, Vec<RtValue>) = params.iter().copied().unzip();
        let mut rec = Record::blank();
        fill_record(
            &mut rec, func, bb_loc, label, opcode, loc, dyn_id, operands, &names, &args, result,
        );
        rec
    }

    #[test]
    fn load_record_matches_fig1_shape() {
        let r = build_record(
            SymId::intern("foo"),
            SrcLoc::new(6, 1),
            SymId::intern("11"),
            27,
            SrcLoc::new(3, 1),
            215,
            &[DynOperand::reg(
                Name::sym("p"),
                RtValue::P(0x7ffc_f3f2_5a70),
            )],
            &[],
            Some(DynOperand::reg(Name::Temp(8), RtValue::I(1))),
        );
        let mut s = String::new();
        writer::format_record(&r, &mut s);
        assert!(s.starts_with("0,3,foo,6:1,11,27,215,\n"));
        assert!(s.contains("1,64,0x7ffcf3f25a70,1,p,\n"));
        assert!(s.contains("r,64,1,1,8,\n"));
    }

    #[test]
    fn call_form2_record_has_param_lines() {
        let r = build_record(
            SymId::intern("main"),
            SrcLoc::new(21, 1),
            SymId::intern("49"),
            49,
            SrcLoc::new(17, 1),
            199,
            &[
                DynOperand::reg(Name::sym("foo"), RtValue::P(0x4009e0)),
                DynOperand::reg(Name::Temp(6), RtValue::P(0x7ffe_c14b_0db0)),
                DynOperand::reg(Name::Temp(7), RtValue::P(0x7ffe_c14b_0d80)),
            ],
            &[
                (SymId::intern("p"), RtValue::P(0x7ffe_c14b_0db0)),
                (SymId::intern("q"), RtValue::P(0x7ffe_c14b_0d80)),
            ],
            None,
        );
        assert_eq!(r.positional().count(), 3);
        let params: Vec<_> = r.params().collect();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].name, Name::sym("p"));
        assert_eq!(params[0].value, TraceValue::Ptr(0x7ffe_c14b_0db0));
        assert!(r.result.is_none());
    }

    #[test]
    fn refilling_a_slot_overwrites_every_field() {
        let call = build_record(
            SymId::intern("main"),
            SrcLoc::new(21, 1),
            SymId::intern("49"),
            49,
            SrcLoc::new(17, 1),
            199,
            &[DynOperand::reg(Name::sym("foo"), RtValue::P(0x4009e0))],
            &[(SymId::intern("p"), RtValue::I(3))],
            Some(DynOperand::reg(Name::Temp(2), RtValue::I(0))),
        );
        let mut slot = call.clone();
        let ops = [DynOperand::imm(RtValue::F(0.5))];
        fill_record(
            &mut slot,
            SymId::intern("foo"),
            SrcLoc::new(6, 1),
            SymId::intern("11"),
            2,
            SrcLoc::new(3, 1),
            200,
            &ops,
            &[],
            &[],
            None,
        );
        let fresh = build_record(
            SymId::intern("foo"),
            SrcLoc::new(6, 1),
            SymId::intern("11"),
            2,
            SrcLoc::new(3, 1),
            200,
            &ops,
            &[],
            None,
        );
        assert_eq!(slot, fresh);
    }

    #[test]
    fn alloca_record_carries_var_name_in_label() {
        let r = build_record(
            SymId::intern("main"),
            SrcLoc::new(0, 0),
            SymId::intern("sum"),
            26,
            SrcLoc::synthetic(),
            51,
            &[DynOperand::imm(RtValue::I(8))],
            &[],
            Some(DynOperand::reg(
                Name::sym("sum"),
                RtValue::P(0x7ffe_11de_09bc),
            )),
        );
        assert_eq!(r.src_line, -1);
        assert_eq!(r.bb_label.as_str(), "sum");
        assert_eq!(
            r.result.as_ref().unwrap().value,
            TraceValue::Ptr(0x7ffe_11de_09bc)
        );
    }
}
