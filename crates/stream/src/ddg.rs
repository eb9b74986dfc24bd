//! Incremental dependency analysis: reg-var/reg-reg maps, the shared
//! dependency graph, and per-access event emission.
//!
//! [`DdgBuilder`] is the **only** DDG construction in the workspace: the
//! staged reference (`autocheck_core::ddg::DdgAnalysis`) folds its record
//! slice through this builder exactly the way the streaming engine feeds it
//! record-by-record, so the two cannot drift. Both freeze the graph through
//! [`DdgBuilder::finish`], which numbers the MLI variable nodes first, in
//! MLI order (interning any the fold never created), and every other node
//! in first-intern order — one numbering, so one set of DOT bytes.
//! [`DdgBuilder::with_reg_var_on_the_fly`] exposes the paper's
//! "Mutable-register" ablation: `false` freezes the first binding of each
//! register — demonstrably wrong on traces where a register is reused for
//! different variables.
//!
//! Each record yields at most one [`AccessEvent`] carrying everything both
//! consumers need (the streaming engine folds it into
//! [`crate::stats::VarStatsBuilder`] immediately; the batch fold filters it
//! to MLI bases and optionally retains it as an `RwEvent`) — nothing is
//! accumulated here, so memory is bounded by the program's name count.
//!
//! The reg-var map semantics (on-the-fly SSA reload rebinding, the paper's
//! "Mutable-register" resolution), the call-form handling (builtin calls as
//! arithmetic, argument/parameter triplets, return-value linking), and the
//! Table-I selective opcode set are the paper's §IV-B design.

use crate::graph::{CsrGraph, Graph, NodeKind};
use crate::mli::MliEntry;
use crate::prov::{relevant_opcode, resolve_alias as resolve};
use crate::region::{Phase, StreamAnnot};
use autocheck_trace::{record::opcodes, Name, NameMap, Record, SymId};

/// One read or write on a named memory location, as observed mid-stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessEvent {
    /// Base address of the variable touched.
    pub base: u64,
    /// Address of the accessed element (== `base` for scalars).
    pub elem: u64,
    /// True for a write (store), false for a read (load).
    pub is_write: bool,
    /// Dynamic instruction id of the access (time order).
    pub dyn_id: u64,
    /// Loop iteration (0-based) the access occurred in.
    pub iter: u32,
    /// Phase the access occurred in.
    pub phase: Phase,
    /// Source line of the access (0 for compiler-generated records).
    pub line: u32,
    /// The variable's node in the dependency graph: a dense id, so a
    /// consumer can index per-variable state by it instead of hashing
    /// `base`. Nodes that share a base (two names for one address) have
    /// distinct ids.
    pub node: u32,
}

/// Incremental dependency analyzer. Feed records (with annotations) in
/// execution order; each call may emit one [`AccessEvent`].
pub struct DdgBuilder {
    selective: bool,
    on_the_fly_reg_var: bool,
    graph: Graph,
    reg_var: NameMap<(SymId, u64)>,
    call_stack: Vec<Option<Name>>,
}

impl DdgBuilder {
    /// A fresh builder. `selective` is the paper's §IV-B trace iteration
    /// toggle (identical results either way; `true` skips irrelevant
    /// opcodes).
    pub fn new(selective: bool) -> DdgBuilder {
        DdgBuilder {
            selective,
            on_the_fly_reg_var: true,
            graph: Graph::new(),
            reg_var: NameMap::new(),
            call_stack: Vec::new(),
        }
    }

    /// Toggle on-the-fly reg-var rebinding (the paper's "Mutable-register"
    /// resolution; default `true`). `false` is the ablation that freezes
    /// each register's first binding.
    pub fn with_reg_var_on_the_fly(mut self, yes: bool) -> DdgBuilder {
        self.on_the_fly_reg_var = yes;
        self
    }

    /// The graph grown so far.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Freeze the grown graph into its CSR form, the `mli` variable nodes
    /// numbered first in MLI order (each present even if no record touched
    /// it), every other node after them in first-intern order.
    pub fn finish(self, mli: &[MliEntry]) -> CsrGraph {
        self.graph
            .freeze_with_first(mli.iter().map(|m| NodeKind::Var {
                name: m.name,
                base: m.base_addr,
            }))
    }

    /// Bind a register, honoring the rebinding mode.
    fn bind(&mut self, reg: Name, value: (SymId, u64)) {
        if self.on_the_fly_reg_var {
            self.reg_var.insert(reg, value);
        } else {
            self.reg_var.insert_if_absent(reg, value);
        }
    }

    /// Advance over one record, emitting the access event (if any) for the
    /// caller to fold into its per-variable statistics.
    pub fn observe(&mut self, r: &Record, a: StreamAnnot) -> Option<AccessEvent> {
        if self.selective && !relevant_opcode(r.opcode) {
            return None;
        }
        match r.opcode {
            opcodes::LOAD => {
                let (Some(ptr), Some(res)) = (r.op1(), &r.result) else {
                    return None;
                };
                let (name, base) = resolve(&self.reg_var, ptr.name, ptr.value.as_ptr())?;
                // reg-var map update (SSA reload keeps this fresh — the
                // paper's "Mutable-register" resolution).
                let res_name = res.name;
                self.bind(res_name, (name, base));
                let vn = self.graph.var_node(name, base);
                let rn = self.graph.reg_node(res_name);
                self.graph.add_edge(vn, rn);
                event(r, a, (base, vn), ptr.value.as_ptr(), false)
            }
            opcodes::STORE => {
                let (Some(val), Some(ptr)) = (r.op1(), r.op2()) else {
                    return None;
                };
                let (name, base) = resolve(&self.reg_var, ptr.name, ptr.value.as_ptr())?;
                let dst = self.graph.var_node(name, base);
                if val.is_reg && val.name != Name::None {
                    let src = self.graph.reg_node(val.name);
                    self.graph.add_edge(src, dst);
                }
                event(r, a, (base, dst), ptr.value.as_ptr(), true)
            }
            opcodes::GETELEMENTPTR | opcodes::BITCAST => {
                let (Some(basep), Some(res)) = (r.op1(), &r.result) else {
                    return None;
                };
                if let Some((name, base)) = resolve(&self.reg_var, basep.name, basep.value.as_ptr())
                {
                    let res_name = res.name;
                    self.bind(res_name, (name, base));
                    let vn = self.graph.var_node(name, base);
                    let rn = self.graph.reg_node(res_name);
                    self.graph.add_edge(vn, rn);
                }
                None
            }
            opcodes::ALLOCA => {
                // Locals are identified by their Alloca (paper Challenge 2);
                // registering the variable name at its fresh address keeps
                // the reg-var resolution exact when names collide across
                // frames.
                if let Some(res) = &r.result {
                    if let (Name::Sym(s), Some(addr)) = (res.name, res.value.as_ptr()) {
                        self.reg_var.insert(res.name, (s, addr));
                    }
                }
                None
            }
            op if (8..=25).contains(&op)
                || op == opcodes::ICMP
                || op == opcodes::FCMP
                || op == opcodes::ZEXT
                || op == opcodes::SITOFP
                || op == opcodes::FPTOSI =>
            {
                // reg-reg map: link inputs to the result.
                let res = r.result.as_ref()?;
                let rn = self.graph.reg_node(res.name);
                for operand in r.positional() {
                    if operand.is_reg && operand.name != Name::None {
                        let on = self.graph.reg_node(operand.name);
                        self.graph.add_edge(on, rn);
                    }
                }
                None
            }
            opcodes::CALL => {
                if r.params().next().is_none() {
                    // Form 1 (builtin): treat as arithmetic. Graph-only —
                    // and no call-stack push.
                    if let Some(res) = &r.result {
                        let rn = self.graph.reg_node(res.name);
                        for operand in r.positional().skip(1) {
                            if operand.is_reg && operand.name != Name::None {
                                let on = self.graph.reg_node(operand.name);
                                self.graph.add_edge(on, rn);
                            }
                        }
                    }
                } else {
                    // Form 2: argument/parameter triplets. Positional
                    // operand 1 is the callee; arguments follow, pairing
                    // with the `f` lines in order.
                    for (arg, param) in r.positional().skip(1).zip(r.params()) {
                        if let Some((name, base)) =
                            resolve(&self.reg_var, arg.name, arg.value.as_ptr())
                        {
                            self.reg_var.insert(param.name, (name, base));
                            let vn = self.graph.var_node(name, base);
                            let pn = self.graph.reg_node(param.name);
                            self.graph.add_edge(vn, pn);
                        } else if arg.is_reg && arg.name != Name::None {
                            // Scalar argument from a register: alias the
                            // parameter to the same register chain.
                            let an = self.graph.reg_node(arg.name);
                            let pn = self.graph.reg_node(param.name);
                            self.graph.add_edge(an, pn);
                        }
                    }
                    self.call_stack.push(r.result.as_ref().map(|res| res.name));
                }
                None
            }
            opcodes::RET => {
                if let Some(pending) = self.call_stack.pop().flatten() {
                    if let Some(op) = r.op1() {
                        if op.is_reg && op.name != Name::None {
                            let from = self.graph.reg_node(op.name);
                            let to = self.graph.reg_node(pending);
                            self.graph.add_edge(from, to);
                            // Value flow: the caller's result register now
                            // carries whatever the returned register
                            // resolved to.
                            if let Some(&v) = self.reg_var.get(op.name) {
                                self.reg_var.insert(pending, v);
                            }
                        }
                    }
                }
                None
            }
            _ => None,
        }
    }
}

/// The event filter: only loop-phase accesses and after-loop reads matter
/// to the heuristics. The variable comes as its base and graph node.
#[inline]
fn event(
    r: &Record,
    a: StreamAnnot,
    (base, node): (u64, usize),
    elem: Option<u64>,
    is_write: bool,
) -> Option<AccessEvent> {
    match (a.phase, is_write) {
        (Phase::Inside, _) | (Phase::After, false) => {}
        _ => return None,
    }
    Some(AccessEvent {
        base,
        elem: elem.unwrap_or(base),
        is_write,
        dyn_id: r.dyn_id,
        iter: a.iter,
        phase: a.phase,
        line: if r.src_line > 0 { r.src_line as u32 } else { 0 },
        node: node as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionTracker;
    fn parse_str(
        text: &str,
    ) -> Result<Vec<autocheck_trace::Record>, autocheck_trace::reader::TraceReadError> {
        autocheck_trace::TraceSource::from_str(text).records()
    }

    fn events_of(text: &str, selective: bool) -> (Vec<AccessEvent>, usize, usize) {
        let recs = parse_str(text).unwrap();
        let mut tracker = RegionTracker::new("main", 5, 7);
        let mut ddg = DdgBuilder::new(selective);
        let mut events = Vec::new();
        for r in &recs {
            let a = tracker.annotate(r);
            if let Some(e) = ddg.observe(r, a) {
                events.push(e);
            }
        }
        (events, ddg.graph().len(), ddg.graph().edge_count())
    }

    /// sum += a[i] in the loop (the batch ddg test trace).
    const SUM_ARRAY: &str = "\
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

    #[test]
    fn loop_reads_writes_and_after_loop_read_are_emitted() {
        let (events, _, _) = events_of(SUM_ARRAY, true);
        let sum = 0x7f00_0000_0000u64;
        assert!(events
            .iter()
            .any(|e| e.base == sum && e.is_write && e.phase == Phase::Inside));
        assert!(events
            .iter()
            .any(|e| e.base == sum && !e.is_write && e.phase == Phase::After));
        // Pre-loop stores must NOT surface (the event filter).
        assert!(events.iter().all(|e| e.phase != Phase::Before));
        // Events carry their record's identity for the batch RwEvent form.
        assert!(
            events.windows(2).all(|w| w[0].dyn_id < w[1].dyn_id),
            "dyn ids are time-ordered"
        );
        assert!(events.iter().all(|e| e.line > 0));
    }

    #[test]
    fn selective_and_exhaustive_agree() {
        let (sel, sel_nodes, sel_edges) = events_of(SUM_ARRAY, true);
        let (all, all_nodes, all_edges) = events_of(SUM_ARRAY, false);
        assert_eq!(sel, all);
        assert_eq!(sel_nodes, all_nodes);
        assert_eq!(sel_edges, all_edges);
    }

    /// The paper's Mutable-register challenge: a temp reused as a pointer
    /// for two different arrays must be rebound on the fly; the frozen
    /// ablation misattributes the second store.
    #[test]
    fn mutable_register_rebinds_on_the_fly_and_freezes_in_ablation() {
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
        let run = |on_the_fly: bool| {
            let recs = parse_str(text).unwrap();
            let mut tracker = RegionTracker::new("main", 5, 7);
            let mut ddg = DdgBuilder::new(true).with_reg_var_on_the_fly(on_the_fly);
            let mut events = Vec::new();
            for r in &recs {
                let a = tracker.annotate(r);
                if let Some(e) = ddg.observe(r, a) {
                    events.push(e);
                }
            }
            events
        };
        let writes = |events: &[AccessEvent], base: u64| {
            events
                .iter()
                .filter(|e| e.base == base && e.is_write)
                .count()
        };
        let fly = run(true);
        assert_eq!(writes(&fly, 0x7f00_0000_0000), 1, "one write on x");
        assert_eq!(writes(&fly, 0x7f00_0000_0100), 1, "one write on z");
        // The frozen map leaves temp 8 bound to x: the second store is
        // misattributed — x gets two writes, z gets none.
        let frozen = run(false);
        assert_eq!(writes(&frozen, 0x7f00_0000_0000), 2, "x stole z's write");
        assert_eq!(writes(&frozen, 0x7f00_0000_0100), 0, "z's write was lost");
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
        let (events, _, _) = events_of(text, true);
        let writes: Vec<_> = events
            .iter()
            .filter(|e| e.base == 0x7f00_0000_0100 && e.is_write)
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].phase, Phase::Inside);
    }

    #[test]
    fn mli_vars_take_the_first_node_ids() {
        let mut ddg = DdgBuilder::new(true);
        let recs = parse_str(SUM_ARRAY).unwrap();
        let mut tracker = RegionTracker::new("main", 5, 7);
        for r in &recs {
            let a = tracker.annotate(r);
            ddg.observe(r, a);
        }
        let grown = ddg.graph().len();
        let mli = |name: &str, base_addr: u64| MliEntry {
            name: SymId::intern(name),
            base_addr,
            size: 8,
            first_line: 2,
        };
        // `a` was interned after `sum`; a never-seen MLI base is added.
        let frozen = ddg.finish(&[
            mli("a", 0x7f00_0000_0100),
            mli("sum", 0x7f00_0000_0000),
            mli("ddg_unseen_mli", 0x42),
        ]);
        let bases: Vec<u64> = frozen.nodes[..3]
            .iter()
            .map(|n| match n {
                NodeKind::Var { base, .. } => *base,
                NodeKind::Reg { .. } => panic!("register numbered among the MLI"),
            })
            .collect();
        assert_eq!(bases, [0x7f00_0000_0100, 0x7f00_0000_0000, 0x42]);
        assert_eq!(frozen.len(), grown + 1);
    }
}
