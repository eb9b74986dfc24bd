//! AutoCheck — automatic identification of variables for checkpointing by
//! data-dependency analysis.
//!
//! This crate is the paper's primary contribution. Given
//!
//! 1. a **dynamic instruction execution trace** (crate `autocheck-trace`),
//! 2. the **main computation loop's location** (function + start/end source
//!    lines, the "MCLR" of the paper's Table II), and
//! 3. the loop's **control variables** (from the IR loop pass, crate
//!    `autocheck-ir` — the paper's "llvm-pass-loop API"),
//!
//! it reports the **critical variables** that must be checkpointed for the
//! program to restart correctly from the last completed iteration, each
//! labelled with its dependency class (Fig. 7 of the paper):
//!
//! * **WAR** — the variable carries state across iterations: it is read
//!   before being (fully) overwritten, so a failure loses the last written
//!   value;
//! * **RAPO** — an array that is only *partially* overwritten per iteration
//!   while also being read, so unwritten elements cannot be reconstructed;
//! * **Outcome** — the main loop's output, read after the loop;
//! * **Index** — the loop's induction/control variables.
//!
//! # Pipeline
//!
//! [`region`] splits the trace into *before/inside/after* the main loop and
//! numbers iterations; [`preprocess`] collects and matches variables into
//! the MLI (main-loop-input) set; [`ddg`] folds the records through the
//! shared streaming `DdgBuilder` — the single DDG construction in the
//! workspace — yielding the frozen CSR dependency graph plus the
//! time-ordered R/W event sequence; [`contract`] reduces the complete DDG
//! to MLI variables (Algorithm 1, over the CSR parent slices);
//! [`mod@classify`] applies the four heuristics. Each is a separate pass
//! over a materialized record slice, kept for the DOT goldens, `--dot`
//! and the staged reference the parity suites check the engine against.
//!
//! The analysis itself is one online pass: [`stream`] drives those stages'
//! shared state machines over records pushed from the interpreter or
//! pulled from a trace source, in O(live window) memory. [`Analyzer`]
//! ([`pipeline`]) and [`StreamAnalyzer`] are two configurations of that
//! pass — the first reports with the paper's Table III timing breakdown —
//! so they produce identical reports (same classification decisions via
//! [`decide`]).
//!
//! ```no_run
//! use autocheck_core::{Analyzer, Region};
//!
//! let records = autocheck_trace::TraceSource::from_str("...").records().unwrap();
//! let region = Region::new("main", 13, 21);
//! let report = Analyzer::new(region)
//!     .with_index_vars(vec!["it".into()])
//!     .analyze(&records);
//! for cv in &report.critical {
//!     println!("{} ({:?})", cv.name, cv.dep);
//! }
//! ```

pub mod classify;
pub mod contract;
pub mod ddg;
pub mod observe;
pub mod pipeline;
pub mod preprocess;
pub mod region;
pub mod report;
pub mod service;
pub mod stream;

pub use classify::{classify, decide, ClassifyConfig};
pub use contract::{contract_ddg, contract_for_mli, contract_for_mli_in, ContractedDdg};
pub use ddg::{DdgAnalysis, DdgOptions, NodeKind, RwEvent, RwKind};
pub use observe::capture_ledger;
pub use pipeline::{index_variables_of, Analyzer, PipelineConfig};
pub use preprocess::{find_mli_vars, CollectMode, MliVar};
pub use region::{Phase, Phases, Region};
pub use report::{CriticalVariable, DdgSummary, DepType, Report, SkipReason, Timings};
pub use service::{
    AnalysisJob, BatchOutcome, JobInput, MultiAnalyzer, SessionFailure, SessionReport,
};
pub use stream::{
    StreamAnalyzer, StreamConfig, StreamError, StreamRun, StreamSession, StreamStats,
};
// Re-exported so `decide`'s parameter type is nameable from this crate
// alone, without a direct autocheck-stream dependency. The shared graph
// core (one growable graph, one frozen CSR form, one DOT writer) likewise
// surfaces here: `DdgAnalysis.graph` *is* a `CsrGraph`.
pub use autocheck_stream::{
    boundaries_from_annots, CsrGraph, DotWriter, Graph, VarStats, VarStatsBuilder,
};
