//! Umbrella crate for the AutoCheck reproduction workspace.
//!
//! Re-exports every layer of the system so downstream users can depend on a
//! single crate:
//!
//! * [`minilang`] — compile C-like benchmark sources to the mini-IR;
//! * [`ir`] — the IR itself plus CFG/dominator/loop analyses;
//! * [`interp`] — execute modules, emit LLVM-Tracer-style dynamic traces,
//!   hook iterations, inject failures;
//! * [`trace`] — the trace formats (text and binary): writers, the
//!   bounded streaming readers, session contexts and resource ceilings;
//! * [`stream`] — the online analysis engine: incremental state machines
//!   with O(live window) memory;
//! * [`core`] — AutoCheck: identify the variables to checkpoint, through
//!   its one analyzer, `StreamAnalyzer` (also named `Analyzer`), or many
//!   sessions at once through `MultiAnalyzer`;
//! * [`checkpoint`] — FTI-style C/R, BLCR-style images, restart validation;
//! * [`apps`] — the paper's 14 evaluation benchmarks.
//!
//! ```
//! use autocheck_suite::{core::{Analyzer, Region, index_variables_of}, interp, minilang};
//!
//! let module = minilang::compile("int main() { return 0; }").unwrap();
//! let mut sink = interp::VecSink::default();
//! interp::Machine::new(&module, interp::ExecOptions::default())
//!     .run(&mut sink, &mut interp::NoHook)
//!     .unwrap();
//! let region = Region::new("main", 13, 21);
//! let report = Analyzer::new(region.clone())
//!     .with_index_vars(index_variables_of(&module, &region))
//!     .analyze(&sink.records)
//!     .expect("no ceilings set");
//! println!("{report}");
//! ```
pub use autocheck_apps as apps;
pub use autocheck_checkpoint as checkpoint;
pub use autocheck_core as core;
pub use autocheck_interp as interp;
pub use autocheck_ir as ir;
pub use autocheck_minilang as minilang;
pub use autocheck_stream as stream;
pub use autocheck_trace as trace;
