//! Online AutoCheck analysis — the engine behind both front doors of
//! `autocheck-core`.
//!
//! A staged analysis materializes the entire dynamic trace (as a file,
//! then as a `Vec<Record>`), walks it three times (region partitioning, MLI
//! identification, dependency analysis), and only then classifies. Dynamic
//! traces grow to GBs, so that design's peak memory is O(trace). This crate
//! inverts the control flow: records are consumed **one at a time**, all
//! analysis state machines advance **in a single pass**, and per-iteration
//! classification state is **retired at iteration boundaries** — peak
//! memory is O(live window): the distinct variables/registers of the
//! program plus the elements touched by the current loop iteration, never
//! the trace length.
//!
//! The crate sits *below* `autocheck-core` in the dependency graph (it
//! depends only on `autocheck-trace`); `autocheck-core`'s `Analyzer` and
//! `StreamAnalyzer` both drive its [`engine::Engine`], and its staged
//! reference folds a materialized slice through the same state machines.
//! The pieces:
//!
//! * [`region::RegionTracker`] — incremental trace partitioning: phase
//!   (before/inside/after the main loop), iteration number, and
//!   region-level discrimination per record, with the one-record call
//!   lookahead of the batch implementation replaced by a deferred
//!   stack operation;
//! * [`mli::MliCollector`] — incremental Main-Loop-Input identification
//!   (collect part-A and part-B occurrences as they fly past, match at
//!   finish);
//! * [`graph`] — the shared dependency-graph core: the growable
//!   [`graph::Graph`], its frozen CSR form [`graph::CsrGraph`]
//!   (sorted parent/child slices, the substrate for Algorithm 1
//!   contraction), and the one DOT writer;
//! * [`ddg::DdgBuilder`] — the **single** DDG construction: incremental
//!   reg-var/reg-reg maps over [`graph::Graph`], emitting one read/write
//!   [`ddg::AccessEvent`] per memory access instead of accumulating an
//!   O(trace) event vector; the staged batch passes fold a record slice
//!   through this same builder;
//! * [`stats::VarStatsBuilder`] — folds a variable's access events into the
//!   bounded [`stats::VarStats`] summary the classification heuristics
//!   need, retiring the per-iteration element window at each iteration
//!   boundary;
//! * [`engine::Engine`] — glues the four together, tracks the live-record
//!   window (observable, and optionally bounded by
//!   [`engine::EngineConfig::max_live_records`]).
//!
//! Classification *decisions* (WAR / RAPO / Outcome / Index and the skip
//! reasons) deliberately do **not** live here: `autocheck-core` makes them
//! from [`stats::VarStats`] through one shared function, so the engine and
//! the staged reference cannot drift apart.

pub mod ddg;
pub mod engine;
pub mod graph;
pub mod mli;
pub mod prov;
pub mod region;
pub mod shard;
pub mod stats;

pub use ddg::{AccessEvent, DdgBuilder};
pub use engine::{
    Engine, EngineConfig, EngineError, EngineOutcome, EngineShardState, LiveBoundExceeded,
};
pub use graph::{CsrGraph, DotWriter, Graph, NodeKind};
pub use mli::{Collect, MliCollector, MliEntry};
pub use prov::{relevant_opcode, resolve_alias, Provenance};
pub use region::{Phase, RegionTracker, StreamAnnot};
pub use shard::{
    boundaries_from_annots, fold_ddg_sharded, iteration_boundaries, merge_shard_states,
    merge_var_stats, run_planned, run_sharded,
};
pub use stats::{VarStats, VarStatsBuilder};
// The dense node-id interner moved next to `NameMap` in `autocheck-trace`;
// re-exported here for continuity.
pub use autocheck_trace::NodeIndex;
