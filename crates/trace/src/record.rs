//! In-memory representation of trace records.

use crate::intern::SymId;
use crate::name::Name;
use std::fmt;

/// A dynamic operand value as traced.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceValue {
    /// Integer (also used for booleans: 0/1).
    I(i64),
    /// Double, printed as `%.6f` like LLVM-Tracer (lossy — the analysis
    /// never depends on float payloads).
    F(f64),
    /// Pointer / memory address, printed `0x…`.
    Ptr(u64),
    /// No value (e.g. a `void` call result placeholder).
    None,
}

impl TraceValue {
    /// The address payload, if this is a pointer.
    #[inline]
    pub fn as_ptr(&self) -> Option<u64> {
        match self {
            TraceValue::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// The integer payload, if any.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            TraceValue::I(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for TraceValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceValue::I(v) => write!(f, "{v}"),
            TraceValue::F(v) => write!(f, "{v:.6}"),
            TraceValue::Ptr(p) => write!(f, "0x{p:x}"),
            TraceValue::None => write!(f, " "),
        }
    }
}

/// Which line of the block an operand appeared on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpTag {
    /// Positional operand `1..=n`.
    Pos(u8),
    /// Function-parameter line (`f` tag, Call form 2).
    Param,
    /// Result line (`r` tag).
    Result,
}

impl fmt::Display for OpTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpTag::Pos(i) => write!(f, "{i}"),
            OpTag::Param => write!(f, "f"),
            OpTag::Result => write!(f, "r"),
        }
    }
}

/// One operand line.
#[derive(Clone, Debug, PartialEq)]
pub struct Operand {
    /// Line tag.
    pub tag: OpTag,
    /// Operand width in bits (64/32/1).
    pub bits: u16,
    /// Dynamic value.
    pub value: TraceValue,
    /// True when the operand names a register.
    pub is_reg: bool,
    /// Register/variable name (`Name::None` for immediates).
    pub name: Name,
}

impl Operand {
    /// A register operand.
    pub fn reg(tag: OpTag, bits: u16, value: TraceValue, name: Name) -> Operand {
        Operand {
            tag,
            bits,
            value,
            is_reg: true,
            name,
        }
    }

    /// An immediate operand.
    pub fn imm(tag: OpTag, bits: u16, value: TraceValue) -> Operand {
        Operand {
            tag,
            bits,
            value,
            is_reg: false,
            name: Name::None,
        }
    }
}

/// One trace block: an executed dynamic instruction.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Source line (−1 for synthetic instructions).
    pub src_line: i32,
    /// Enclosing function name (interned).
    pub func: SymId,
    /// Basic block id (`line:col` of the block's first statement).
    pub bb: (u32, u32),
    /// Basic block label (interned). For `Alloca` records this carries the
    /// variable name instead, as in paper Fig. 6(c).
    pub bb_label: SymId,
    /// Numeric LLVM 3.4 opcode.
    pub opcode: u16,
    /// Dynamic instruction id (execution order, 0-based).
    pub dyn_id: u64,
    /// Positional operands followed by any `f`-tagged parameter operands.
    pub operands: Vec<Operand>,
    /// The `r`-tagged result operand, if the instruction produces a value.
    pub result: Option<Operand>,
}

impl Record {
    /// Positional operands only (excluding `f`-tagged parameter lines).
    #[inline]
    pub fn positional(&self) -> impl Iterator<Item = &Operand> + '_ {
        self.operands
            .iter()
            .filter(|o| matches!(o.tag, OpTag::Pos(_)))
    }

    /// The `f`-tagged parameter operands (Call form 2).
    #[inline]
    pub fn params(&self) -> impl Iterator<Item = &Operand> + '_ {
        self.operands
            .iter()
            .filter(|o| matches!(o.tag, OpTag::Param))
    }

    /// True for the arithmetic opcode family (LLVM binary operators 8–25).
    pub fn is_arithmetic(&self) -> bool {
        (8..=25).contains(&self.opcode)
    }

    /// Convenience: the first positional operand.
    #[inline]
    pub fn op1(&self) -> Option<&Operand> {
        self.positional().next()
    }

    /// Convenience: the second positional operand.
    #[inline]
    pub fn op2(&self) -> Option<&Operand> {
        self.positional().nth(1)
    }

    /// A slot to decode or fill records into: the first decode (or the
    /// interpreter's first fill) overwrites every field. Its symbols name
    /// nothing until then, so never read a blank record.
    pub fn blank() -> Record {
        Record {
            src_line: 0,
            func: SymId::placeholder(),
            bb: (0, 0),
            bb_label: SymId::placeholder(),
            opcode: 0,
            dyn_id: 0,
            operands: Vec::new(),
            result: None,
        }
    }
}

/// Well-known opcode numbers, re-declared here so the trace crate does not
/// depend on the IR crate (the analysis pipeline consumes traces alone).
pub mod opcodes {
    /// `Ret`.
    pub const RET: u16 = 1;
    /// `Br`.
    pub const BR: u16 = 2;
    /// `Add`.
    pub const ADD: u16 = 8;
    /// `FAdd`.
    pub const FADD: u16 = 9;
    /// `Sub`.
    pub const SUB: u16 = 10;
    /// `FSub`.
    pub const FSUB: u16 = 11;
    /// `Mul`.
    pub const MUL: u16 = 12;
    /// `FMul`.
    pub const FMUL: u16 = 13;
    /// `UDiv`.
    pub const UDIV: u16 = 14;
    /// `SDiv`.
    pub const SDIV: u16 = 15;
    /// `FDiv`.
    pub const FDIV: u16 = 16;
    /// `Alloca`.
    pub const ALLOCA: u16 = 26;
    /// `Load`.
    pub const LOAD: u16 = 27;
    /// `Store`.
    pub const STORE: u16 = 28;
    /// `GetElementPtr`.
    pub const GETELEMENTPTR: u16 = 29;
    /// `ZExt`.
    pub const ZEXT: u16 = 34;
    /// `FPToSI`.
    pub const FPTOSI: u16 = 37;
    /// `SIToFP`.
    pub const SITOFP: u16 = 39;
    /// `BitCast`.
    pub const BITCAST: u16 = 44;
    /// `ICmp`.
    pub const ICMP: u16 = 46;
    /// `FCmp`.
    pub const FCMP: u16 = 47;
    /// `Call`.
    pub const CALL: u16 = 49;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
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
        }
    }

    #[test]
    fn positional_vs_param_split() {
        let mut r = sample();
        r.operands.push(Operand::reg(
            OpTag::Param,
            64,
            TraceValue::Ptr(0xdead),
            Name::sym("q"),
        ));
        assert_eq!(r.positional().count(), 1);
        assert_eq!(r.params().count(), 1);
        assert_eq!(r.op1().unwrap().name, Name::sym("p"));
        assert!(r.op2().is_none());
    }

    #[test]
    fn arithmetic_family() {
        let mut r = sample();
        assert!(!r.is_arithmetic());
        r.opcode = opcodes::FMUL;
        assert!(r.is_arithmetic());
    }

    #[test]
    fn trace_value_accessors() {
        assert_eq!(TraceValue::Ptr(16).as_ptr(), Some(16));
        assert_eq!(TraceValue::I(5).as_ptr(), None);
        assert_eq!(TraceValue::I(5).as_int(), Some(5));
    }

    #[test]
    fn value_display_matches_paper_style() {
        assert_eq!(TraceValue::F(44.0).to_string(), "44.000000");
        assert_eq!(TraceValue::Ptr(0x4009e0).to_string(), "0x4009e0");
        assert_eq!(TraceValue::I(-3).to_string(), "-3");
    }
}
