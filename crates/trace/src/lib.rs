//! The dynamic instruction execution trace format.
//!
//! AutoCheck consumes a *dynamic trace*: one text block per executed
//! instruction, carrying its source location, function, basic block, opcode,
//! dynamic instruction id, and the dynamic values/names of its operands.
//! This crate defines that format — mirroring the LLVM-Tracer output shown
//! in the paper's Figures 1 and 6 — together with a writer, a streaming
//! parser, a compact binary encoding, and [`TraceSource`], the one front
//! door for reading either format. Ingest is serial: the paper's §V-A
//! parallel pre-processing is deliberately not reproduced, because on the
//! hosts measured every single-trace parallel mode was slower than the
//! serial path (see the README's "Concurrency" section).
//!
//! # Format
//!
//! Each executed instruction produces one *block* of comma-terminated lines:
//!
//! ```text
//! 0,<line>,<function>,<bb_line>:<bb_col>,<bb_label>,<opcode>,<dyn_id>,
//! <op_id>,<bits>,<value>,<is_reg>,<name>,
//! ...
//! f,<bits>,<value>,<is_reg>,<name>,        (parameter lines, Call form 2 only)
//! r,<bits>,<value>,<is_reg>,<name>,        (result line, if any)
//! ```
//!
//! * the header always starts with `0` (operand ids start at 1, so a leading
//!   `0,` unambiguously marks a block boundary: a record is complete once
//!   the next header has parsed);
//! * `<opcode>` is the numeric LLVM 3.4 opcode (`Load` = 27, `Alloca` = 26,
//!   `Call` = 49, ...);
//! * `<line>` is `-1` for compiler-generated instructions (entry-block
//!   allocas, Fig. 6(c));
//! * `f`-tagged lines carry the *parameters* of a called function, following
//!   the argument operands — the "parameter indicator" of Fig. 6(b);
//! * `<value>` is a decimal integer, a `%.6f` float, or a `0x…` pointer;
//!   `<is_reg>` is `1` when the operand names a register (then `<name>` is
//!   the register/variable name) and `0` for immediates (empty name).

pub mod binary;
pub mod ctx;
pub mod fault;
pub mod intern;
pub mod limits;
pub mod name;
pub mod namemap;
pub mod nodeindex;
pub mod parser;
pub mod reader;
pub mod record;
pub mod source;
pub mod stats;
pub mod writer;

pub use binary::{BinaryError, BinaryStreamReader, BinaryWriter};
pub use ctx::AnalysisCtx;
pub use fault::{FaultPlan, FaultReader};
pub use intern::{SpaceGuard, SymId, SymStr, SymbolSpace};
pub use limits::{parse_limit_arg, ResourceExceeded, ResourceKind, ResourceLimits};
pub use name::Name;
pub use namemap::{NameMap, NameSet};
pub use nodeindex::NodeIndex;
pub use parser::ParseError;
pub use reader::{TextStreamReader, TraceReadError};
pub use record::{OpTag, Operand, Record, TraceValue};
pub use source::{TraceFormat, TraceSource, TraceStream, BATCH_RECORDS};
pub use writer::TraceWriter;
