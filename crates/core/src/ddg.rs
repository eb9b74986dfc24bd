//! Data-dependency analysis over a materialized record slice: the staged
//! reference's adapter over the shared streaming [`DdgBuilder`]. No
//! production path runs it; the engine folds the same builder online.
//!
//! The analysis *selectively iterates* the trace (paper §IV-B / Table I):
//! only `Load`/`Store`/`GetElementPtr`/`BitCast` (reg-var map), the
//! arithmetic family plus compares/casts (reg-reg map), `Alloca` (local
//! discrimination), and `Call`/`Ret` (cross-function bridging) are
//! examined; everything else is skipped. All of that logic lives in
//! **one place** — `autocheck_stream::ddg::DdgBuilder` — and this module
//! folds the materialized record slice through it, the same way
//! `classify`/`find_mli_vars`/`Phases::compute` fold through their shared
//! stream stages.
//!
//! Two artifacts come out:
//!
//! * the **complete DDG** (a frozen [`CsrGraph`]) over variables *and*
//!   temporary registers — Fig. 5(c) of the paper — which
//!   [`crate::contract`] then reduces to MLI variables only (Fig. 5(d)).
//!   [`DdgBuilder::finish`] freezes it exactly as the engine does: the MLI
//!   variables numbered first, in MLI order, so the staged and the engine
//!   DOT are the same bytes;
//! * the **R/W event sequence** ([`RwEvent`]) — Fig. 5(e) — each event
//!   carrying the element address and the loop iteration it occurred in,
//!   which is what the classification heuristics consume. Retention is
//!   opt-out ([`DdgOptions::retain_events`]): the pipeline folds events
//!   into per-variable statistics on the fly instead of holding the
//!   O(trace) vector.
//!
//! Cross-function dependencies follow the paper's two call forms: lone
//! `Call` records (builtins) are treated as arithmetic (inputs → result in
//! the reg-reg map); `Call` records followed by the callee body contribute
//! *argument/parameter triplets* to the reg-var map, so accesses through a
//! parameter resolve to the caller's variable. Return values are linked
//! through the callee's `Ret` record.

use crate::preprocess::MliVar;
use crate::region::{Phase, Phases};
use autocheck_stream::{AccessEvent, CsrGraph, DdgBuilder};
use autocheck_trace::{AnalysisCtx, Record};

pub use autocheck_stream::NodeKind;

/// Read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RwKind {
    /// The variable's value was consumed.
    Read,
    /// The variable was overwritten.
    Write,
}

/// One entry of the extracted R/W dependency sequence (paper Fig. 5(e)),
/// enriched with the element address and iteration number the heuristics
/// need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RwEvent {
    /// Base address of the variable (joins with [`MliVar::base_addr`]).
    pub base: u64,
    /// Address of the accessed element (== `base` for scalars).
    pub elem: u64,
    /// Read or write.
    pub kind: RwKind,
    /// Dynamic instruction id (time order).
    pub dyn_id: u64,
    /// Loop iteration (0-based) for in-loop events.
    pub iter: u32,
    /// Phase the event occurred in.
    pub phase: Phase,
    /// Source line of the access.
    pub line: u32,
}

impl RwEvent {
    fn from_access(e: &AccessEvent) -> RwEvent {
        RwEvent {
            base: e.base,
            elem: e.elem,
            kind: if e.is_write {
                RwKind::Write
            } else {
                RwKind::Read
            },
            dyn_id: e.dyn_id,
            iter: e.iter,
            phase: e.phase,
            line: e.line,
        }
    }
}

/// Output of the dependency-analysis stage.
#[derive(Clone, Debug, Default)]
pub struct DdgAnalysis {
    /// The complete DDG (variables + registers), frozen into CSR form.
    pub graph: CsrGraph,
    /// Time-ordered R/W events on MLI variables. Empty when
    /// [`DdgOptions::retain_events`] is off.
    pub events: Vec<RwEvent>,
}

/// Dependency-analysis options; the defaults are the paper's design.
#[derive(Clone, Copy, Debug)]
pub struct DdgOptions {
    /// Selective iteration (paper §IV-B / Table I): skip irrelevant
    /// opcodes. Disabling is the ablation — identical results, slower.
    pub selective: bool,
    /// Update the reg-var map *on the fly* at every `Load` (the paper's
    /// resolution of the "Mutable-register" challenge: SSA reloads rebind a
    /// shared temporary to the right variable at each use). Disabling
    /// freezes the first binding of each register — demonstrably wrong on
    /// traces where a register is reused for different variables.
    pub on_the_fly_reg_var: bool,
    /// Keep the O(trace) [`RwEvent`] vector on [`DdgAnalysis`]. Defaults
    /// on for API continuity (tests and examples inspect events); the
    /// staged reference (`Analyzer::analyze_staged`) runs with it **off**
    /// and folds events into per-variable statistics as they are emitted.
    pub retain_events: bool,
}

impl Default for DdgOptions {
    fn default() -> Self {
        DdgOptions {
            selective: true,
            on_the_fly_reg_var: true,
            retain_events: true,
        }
    }
}

impl DdgAnalysis {
    /// Run dependency analysis with the paper's configuration plus the
    /// `selective` toggle (see [`DdgOptions`]).
    pub fn run(
        records: &[Record],
        phases: &Phases,
        mli: &[MliVar],
        selective: bool,
    ) -> DdgAnalysis {
        Self::run_with(
            records,
            phases,
            mli,
            DdgOptions {
                selective,
                ..DdgOptions::default()
            },
        )
    }

    /// Run dependency analysis with explicit options.
    pub fn run_with(
        records: &[Record],
        phases: &Phases,
        mli: &[MliVar],
        opts: DdgOptions,
    ) -> DdgAnalysis {
        Self::run_in(records, phases, mli, opts, &AnalysisCtx::current())
    }

    /// [`DdgAnalysis::run_with`] scoped to `ctx`'s session (the MLI
    /// base-address index hashes with the session's seed).
    pub fn run_in(
        records: &[Record],
        phases: &Phases,
        mli: &[MliVar],
        opts: DdgOptions,
        ctx: &AnalysisCtx,
    ) -> DdgAnalysis {
        let mut events = Vec::new();
        let graph = Self::fold_in(records, phases, mli, opts, ctx, |e| {
            if opts.retain_events {
                events.push(*e);
            }
        });
        DdgAnalysis { graph, events }
    }

    /// The staged dependency fold: drive the shared streaming
    /// [`DdgBuilder`] over the record slice, invoking `on_event` for every
    /// MLI-variable access event in time order, and return the frozen
    /// graph — the same per-record transition and the same freeze the
    /// online engine runs.
    pub fn fold_in(
        records: &[Record],
        phases: &Phases,
        mli: &[MliVar],
        opts: DdgOptions,
        ctx: &AnalysisCtx,
        mut on_event: impl FnMut(&RwEvent),
    ) -> CsrGraph {
        assert_eq!(
            records.len(),
            phases.annots.len(),
            "records and annotations must be parallel"
        );
        let mut mli_bases = ctx.addr_map::<u64, ()>();
        mli_bases.extend(mli.iter().map(|m| (m.base_addr, ())));

        let mut builder =
            DdgBuilder::new(opts.selective).with_reg_var_on_the_fly(opts.on_the_fly_reg_var);
        for (r, &a) in records.iter().zip(&phases.annots) {
            if let Some(e) = builder.observe(r, a) {
                // The batch event sequence is filtered to MLI bases; the
                // streaming engine instead keeps per-base state for every
                // variable and filters at finish.
                if mli_bases.contains_key(&e.base) {
                    on_event(&RwEvent::from_access(&e));
                }
            }
        }
        // The engine's freeze: MLI nodes first, so both number alike.
        builder.finish(mli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{find_mli_vars, CollectMode};
    use crate::region::Region;
    use autocheck_trace::SymId;

    fn parse_str(
        text: &str,
    ) -> Result<Vec<autocheck_trace::Record>, autocheck_trace::reader::TraceReadError> {
        autocheck_trace::TraceSource::from_str(text).records()
    }

    /// sum += a[i] inside the loop; sum and a are MLI (stored before loop).
    fn trace_with_array() -> (Vec<Record>, Phases, Region, Vec<MliVar>) {
        let text = "\
0,2,main,2:1,0,28,0,
1,64,0,0,,
2,64,0x7f0000000000,1,sum,
0,2,main,2:1,0,29,1,
1,64,0x7f0000000100,1,a,
2,64,0,0,,
r,64,0x7f0000000100,1,0,
0,2,main,2:1,0,28,2,
1,64,5,0,,
2,64,0x7f0000000100,1,0,
0,5,main,5:1,1,27,3,
1,64,0x7f0000000000,1,sum,
r,64,0,1,1,
0,5,main,5:1,1,2,4,
1,1,1,1,9,
0,6,main,6:1,2,29,5,
1,64,0x7f0000000100,1,a,
2,64,0,0,,
r,64,0x7f0000000100,1,2,
0,6,main,6:1,2,27,6,
1,64,0x7f0000000100,1,2,
r,64,5,1,3,
0,6,main,6:1,2,27,7,
1,64,0x7f0000000000,1,sum,
r,64,0,1,4,
0,6,main,6:1,2,8,8,
1,64,0,1,4,
2,64,5,1,3,
r,64,5,1,5,
0,6,main,6:1,2,28,9,
1,64,5,1,5,
2,64,0x7f0000000000,1,sum,
0,5,main,5:1,1,27,10,
1,64,0x7f0000000000,1,sum,
r,64,5,1,6,
0,5,main,5:1,1,2,11,
1,1,0,1,9,
0,9,main,9:1,3,27,12,
1,64,0x7f0000000000,1,sum,
r,64,5,1,7,
";
        let recs = parse_str(text).unwrap();
        let region = Region::new("main", 5, 7);
        let phases = Phases::compute(&recs, &region);
        let mli = find_mli_vars(&recs, &phases, &region, CollectMode::AnyAccess);
        (recs, phases, region, mli)
    }

    #[test]
    fn events_capture_reads_and_writes_in_time_order() {
        let (recs, phases, _region, mli) = trace_with_array();
        assert_eq!(mli.len(), 2, "sum and a");
        let ana = DdgAnalysis::run(&recs, &phases, &mli, true);
        let sum_base = 0x7f00_0000_0000u64;
        let sum_events: Vec<_> = ana.events.iter().filter(|e| e.base == sum_base).collect();
        assert!(sum_events.iter().any(|e| e.kind == RwKind::Write));
        assert!(
            sum_events.windows(2).all(|w| w[0].dyn_id <= w[1].dyn_id),
            "time ordered"
        );
        let after: Vec<_> = sum_events
            .iter()
            .filter(|e| e.phase == Phase::After)
            .collect();
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].kind, RwKind::Read);
    }

    #[test]
    fn graph_links_variable_through_registers_to_store() {
        let (recs, phases, _region, mli) = trace_with_array();
        let ana = DdgAnalysis::run(&recs, &phases, &mli, true);
        let g = &ana.graph;
        // a → (gep temp 2) → (load temp 3) → (add temp 5) → sum
        let a = g
            .find(&NodeKind::Var {
                name: SymId::intern("a"),
                base: 0x7f00_0000_0100,
            })
            .expect("node a");
        let sum = g
            .find(&NodeKind::Var {
                name: SymId::intern("sum"),
                base: 0x7f00_0000_0000,
            })
            .expect("node sum");
        // Reachability a ⇒ sum, over the frozen CSR child slices.
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![a];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for c in g.children_of(n) {
                stack.push(c);
            }
        }
        assert!(seen.contains(&sum), "a flows into sum through temps");
    }

    /// The paper's "Mutable-register" challenge (§IV-B): a temporary
    /// register reused as a *pointer* for different arrays must be re-bound
    /// on the fly; a frozen first-binding map attributes the second store
    /// to the wrong variable.
    #[test]
    fn mutable_register_challenge() {
        // In the loop body: gep x -> temp 8, store through 8 (writes x);
        // then gep z -> temp 8 (register reuse!), store through 8 (writes
        // z). Under a frozen map the second store stays attributed to x.
        let text = "\
0,2,main,2:1,0,28,0,
1,64,1,0,,
2,64,0x7f0000000000,1,x,
0,2,main,2:1,0,28,1,
1,64,2,0,,
2,64,0x7f0000000100,1,z,
0,5,main,5:1,1,27,2,
1,64,0x7f0000000000,1,x,
r,64,1,1,9,
0,5,main,5:1,1,2,3,
1,1,1,1,9,
0,6,main,6:1,2,29,4,
1,64,0x7f0000000000,1,x,
2,64,0,0,,
r,64,0x7f0000000000,1,8,
0,6,main,6:1,2,28,5,
1,64,7,0,,
2,64,0x7f0000000000,1,8,
0,7,main,7:1,2,29,6,
1,64,0x7f0000000100,1,z,
2,64,0,0,,
r,64,0x7f0000000100,1,8,
0,7,main,7:1,2,28,7,
1,64,9,0,,
2,64,0x7f0000000100,1,8,
0,5,main,5:1,1,27,8,
1,64,0x7f0000000000,1,x,
r,64,1,1,9,
0,5,main,5:1,1,2,9,
1,1,0,1,9,
";
        let recs = parse_str(text).unwrap();
        let region = Region::new("main", 5, 7);
        let phases = Phases::compute(&recs, &region);
        let mli: Vec<MliVar> = [("x", 0x7f0000000000u64), ("z", 0x7f0000000100)]
            .iter()
            .map(|(n, b)| MliVar {
                name: SymId::intern(n),
                base_addr: *b,
                size: 8,
                first_line: 2,
            })
            .collect();

        let fly = DdgAnalysis::run_with(&recs, &phases, &mli, DdgOptions::default());
        let writes = |a: &DdgAnalysis, base: u64| {
            a.events
                .iter()
                .filter(|e| e.base == base && e.kind == RwKind::Write)
                .count()
        };
        assert_eq!(writes(&fly, 0x7f00_0000_0000), 1, "one write on x");
        assert_eq!(writes(&fly, 0x7f00_0000_0100), 1, "one write on z");

        let frozen = DdgAnalysis::run_with(
            &recs,
            &phases,
            &mli,
            DdgOptions {
                on_the_fly_reg_var: false,
                ..DdgOptions::default()
            },
        );
        // The frozen map leaves temp 8 bound to x: the second store is
        // misattributed — x gets two writes, z gets none.
        assert_eq!(writes(&frozen, 0x7f00_0000_0000), 2, "x stole z's write");
        assert_eq!(writes(&frozen, 0x7f00_0000_0100), 0, "z's write was lost");
    }

    #[test]
    fn selective_and_exhaustive_agree() {
        let (recs, phases, _region, mli) = trace_with_array();
        let sel = DdgAnalysis::run(&recs, &phases, &mli, true);
        let all = DdgAnalysis::run(&recs, &phases, &mli, false);
        assert_eq!(sel.events, all.events);
        assert_eq!(sel.graph.len(), all.graph.len());
        assert_eq!(sel.graph.edge_count(), all.graph.edge_count());
    }

    #[test]
    fn element_addresses_are_preserved() {
        let (recs, phases, _region, mli) = trace_with_array();
        let ana = DdgAnalysis::run(&recs, &phases, &mli, true);
        let a_events: Vec<_> = ana
            .events
            .iter()
            .filter(|e| e.base == 0x7f00_0000_0100)
            .collect();
        assert!(!a_events.is_empty());
        assert!(a_events.iter().all(|e| e.elem >= e.base));
    }

    #[test]
    fn dot_output_renders() {
        let (recs, phases, _region, mli) = trace_with_array();
        let ana = DdgAnalysis::run(&recs, &phases, &mli, true);
        let dot = ana
            .graph
            .to_dot(|n| matches!(n, NodeKind::Var { name, .. } if *name == "sum"));
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn event_retention_is_opt_out_with_identical_graphs() {
        let (recs, phases, _region, mli) = trace_with_array();
        let kept = DdgAnalysis::run_with(&recs, &phases, &mli, DdgOptions::default());
        let dropped = DdgAnalysis::run_with(
            &recs,
            &phases,
            &mli,
            DdgOptions {
                retain_events: false,
                ..DdgOptions::default()
            },
        );
        assert!(!kept.events.is_empty());
        assert!(dropped.events.is_empty(), "no O(trace) event vector");
        // The graph — and the DOT bytes — do not depend on retention.
        assert_eq!(
            kept.graph.to_dot(|_| false),
            dropped.graph.to_dot(|_| false)
        );
        // The fold still delivers every event to the callback.
        let mut streamed = Vec::new();
        let ctx = AnalysisCtx::current();
        DdgAnalysis::fold_in(&recs, &phases, &mli, DdgOptions::default(), &ctx, |e| {
            streamed.push(*e)
        });
        assert_eq!(streamed, kept.events);
    }

    /// Fig. 6(b)-style triplet: foo(p) writes through p which aliases a.
    #[test]
    fn call_triplets_attribute_callee_stores_to_caller_vars() {
        let text = "\
0,2,main,2:1,0,29,0,
1,64,0x7f0000000100,1,a,
2,64,0,0,,
r,64,0x7f0000000100,1,0,
0,2,main,2:1,0,28,1,
1,64,1,0,,
2,64,0x7f0000000100,1,0,
0,5,main,5:1,1,27,2,
1,64,0x7f0000000100,1,a,
r,64,1,1,1,
0,5,main,5:1,1,2,3,
1,1,1,1,9,
0,6,main,6:1,2,29,4,
1,64,0x7f0000000100,1,a,
2,64,0,0,,
r,64,0x7f0000000100,1,2,
0,6,main,6:1,2,49,5,
1,64,0x400000,1,foo,
2,64,0x7f0000000100,1,2,
f,64,0x7f0000000100,1,p,
0,1,foo,1:1,0,29,6,
1,64,0x7f0000000100,1,p,
2,64,0,0,,
r,64,0x7f0000000100,1,0,
0,1,foo,1:1,0,28,7,
1,64,9,0,,
2,64,0x7f0000000100,1,0,
0,1,foo,1:1,0,1,8,
0,5,main,5:1,1,27,9,
1,64,0x7f0000000100,1,a,
r,64,9,1,3,
0,5,main,5:1,1,2,10,
1,1,0,1,9,
";
        let recs = parse_str(text).unwrap();
        let region = Region::new("main", 5, 7);
        let phases = Phases::compute(&recs, &region);
        let mli = vec![MliVar {
            name: SymId::intern("a"),
            base_addr: 0x7f00_0000_0100,
            size: 8,
            first_line: 2,
        }];
        let ana = DdgAnalysis::run(&recs, &phases, &mli, true);
        // The callee's store through `p` must surface as a Write event on
        // `a` (iteration 0, Inside).
        let writes: Vec<_> = ana
            .events
            .iter()
            .filter(|e| e.base == 0x7f00_0000_0100 && e.kind == RwKind::Write)
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].phase, Phase::Inside);
    }
}
