//! Incremental Main-Loop-Input identification.
//!
//! The streaming port of `autocheck_core::preprocess::find_mli_vars`: the
//! batch function's single forward pass becomes [`MliCollector::observe`],
//! and its final part-A/part-B matching becomes [`MliCollector::finish`].
//! All state is keyed by variable/register *names and base addresses*, so
//! it is bounded by the program (distinct variables), not the trace.
//!
//! The collection rules are the paper's §IV-A / §V-B verbatim (and
//! byte-identical to the batch implementation): pointer provenance chased
//! through `GetElementPtr`/`BitCast`, function-call intervals bypassed
//! (Challenge 1) except for address matches against part-A variables
//! (Challenge 2), and two occurrence-strictness modes.

use crate::prov::Provenance;
use crate::region::{Phase, StreamAnnot};
use autocheck_trace::{record::opcodes, AnalysisCtx, Name, NameMap, NameSet, Record, SymId};
use fxhash::FxSeededHashMap;

/// Occurrence-counting strictness. Mirrors
/// `autocheck_core::CollectMode`; redeclared here so this crate stays below
/// `autocheck-core` in the dependency graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Collect {
    /// Count every resolved load/store (the batch default).
    #[default]
    AnyAccess,
    /// Count only arithmetic participation (the ablation mode).
    Arithmetic,
}

/// One identified main-loop-input variable (`autocheck_core::MliVar` is an
/// alias of this type, so the batch and streaming pipelines share it).
#[derive(Clone, Debug, PartialEq)]
pub struct MliEntry {
    /// Source-level name (interned).
    pub name: SymId,
    /// Base address of its storage.
    pub base_addr: u64,
    /// Observed storage footprint in bytes.
    pub size: u64,
    /// First source line where the variable was seen used before the loop.
    pub first_line: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct VarKey {
    name: SymId,
    base: u64,
}

/// Incremental MLI collector. Feed every record (with its annotation) in
/// execution order, then [`finish`](MliCollector::finish).
pub struct MliCollector {
    mode: Collect,
    prov: Provenance,
    arith_regs: NameSet,
    loaded_from: NameMap<VarKey>,
    // Keys carry trace-supplied *base addresses* ([`VarKey`] / `u64`), so
    // these maps hash with the session's address seed — deterministic Fx
    // for trusted sources, per-session seeding for `--untrusted-trace`.
    before: FxSeededHashMap<VarKey, u32>,
    inside: FxSeededHashMap<VarKey, u32>,
    extent: FxSeededHashMap<VarKey, u64>,
    alloca_size: FxSeededHashMap<VarKey, u64>,
    before_by_base: FxSeededHashMap<u64, VarKey>,
}

impl MliCollector {
    /// A fresh collector scoped to the thread's current session (address
    /// maps deterministic unless that session is untrusted).
    pub fn new(mode: Collect) -> MliCollector {
        Self::with_ctx(mode, &AnalysisCtx::current())
    }

    /// A collector whose address-keyed maps hash with `ctx`'s session seed.
    pub fn with_ctx(mode: Collect, ctx: &AnalysisCtx) -> MliCollector {
        MliCollector {
            mode,
            prov: Provenance::default(),
            arith_regs: NameSet::new(),
            loaded_from: NameMap::new(),
            before: ctx.addr_map(),
            inside: ctx.addr_map(),
            extent: ctx.addr_map(),
            alloca_size: ctx.addr_map(),
            before_by_base: ctx.addr_map(),
        }
    }

    /// Number of distinct variables currently tracked (a bounded-state
    /// observability hook).
    pub fn tracked_vars(&self) -> usize {
        self.before.len() + self.inside.len()
    }

    fn collect(&mut self, key: VarKey, line: u32, is_before: bool) {
        if is_before {
            self.before_by_base.entry(key.base).or_insert(key);
            self.before.entry(key).or_insert(line);
        } else {
            self.inside.entry(key).or_insert(line);
        }
    }

    /// Advance the collector over one record.
    pub fn observe(&mut self, r: &Record, a: StreamAnnot) {
        self.prov.observe(r);
        if !a.region_level {
            // Challenge 1: bypass function-call intervals — no *new*
            // candidates here, but an address match against a part-A
            // variable still counts as an in-loop use.
            if a.phase == Phase::Inside && matches!(r.opcode, opcodes::LOAD | opcodes::STORE) {
                let ptr = if r.opcode == opcodes::LOAD {
                    r.op1()
                } else {
                    r.op2()
                };
                if let Some(ptr) = ptr {
                    if let Some((_, base)) = self.prov.resolve(ptr.name, ptr.value.as_ptr()) {
                        if let Some(&key) = self.before_by_base.get(&base) {
                            let line = if r.src_line > 0 { r.src_line as u32 } else { 0 };
                            self.inside.entry(key).or_insert(line);
                        }
                    }
                }
            }
            return;
        }
        let is_before = match a.phase {
            Phase::Before => true,
            Phase::Inside => false,
            Phase::After => return,
        };
        let line = if r.src_line > 0 { r.src_line as u32 } else { 0 };
        match r.opcode {
            opcodes::ALLOCA => {
                if let (Some(size), Some(res)) =
                    (r.op1().and_then(|o| o.value.as_int()), r.result.as_ref())
                {
                    if let (Name::Sym(name), Some(addr)) = (res.name, res.value.as_ptr()) {
                        self.alloca_size
                            .insert(VarKey { name, base: addr }, size as u64);
                    }
                }
            }
            opcodes::LOAD => {
                let Some(ptr) = r.op1() else { return };
                let Some((name, base)) = self.prov.resolve(ptr.name, ptr.value.as_ptr()) else {
                    return;
                };
                let key = VarKey { name, base };
                if let Some(elem) = ptr.value.as_ptr() {
                    let e = self.extent.entry(key).or_insert(8);
                    *e = (*e).max(elem.saturating_sub(base) + 8);
                }
                match self.mode {
                    Collect::AnyAccess => {
                        self.collect(key, line, is_before);
                    }
                    Collect::Arithmetic => {
                        // Defer: collected only when the loaded temp feeds
                        // an arithmetic instruction.
                        if let Some(res) = &r.result {
                            self.loaded_from.insert(res.name, key);
                        }
                        return;
                    }
                }
                if let Some(res) = &r.result {
                    self.loaded_from.insert(res.name, key);
                }
            }
            opcodes::STORE => {
                let Some(ptr) = r.op2() else { return };
                let Some((name, base)) = self.prov.resolve(ptr.name, ptr.value.as_ptr()) else {
                    return;
                };
                let key = VarKey { name, base };
                if let Some(elem) = ptr.value.as_ptr() {
                    let e = self.extent.entry(key).or_insert(8);
                    *e = (*e).max(elem.saturating_sub(base) + 8);
                }
                let collect = match self.mode {
                    Collect::AnyAccess => true,
                    Collect::Arithmetic => r
                        .op1()
                        .map(|v| self.arith_regs.contains(v.name))
                        .unwrap_or(false),
                };
                if collect {
                    self.collect(key, line, is_before);
                }
            }
            op if (8..=25).contains(&op) || op == opcodes::ICMP || op == opcodes::FCMP => {
                if self.mode == Collect::Arithmetic {
                    for operand in r.positional() {
                        if let Some(&key) = self.loaded_from.get(operand.name) {
                            self.collect(key, line, is_before);
                        }
                    }
                }
                if let Some(res) = &r.result {
                    self.arith_regs.insert(res.name);
                }
            }
            _ => {}
        }
    }

    /// Match the part-A collection against part-B and return the MLI set,
    /// sorted exactly like the batch implementation.
    pub fn finish(self) -> Vec<MliEntry> {
        let mut out: Vec<MliEntry> = Vec::new();
        for (key, first_line_before) in &self.before {
            if self.inside.contains_key(key) {
                let size = self
                    .alloca_size
                    .get(key)
                    .copied()
                    .or_else(|| self.extent.get(key).copied())
                    .unwrap_or(8);
                out.push(MliEntry {
                    name: key.name,
                    base_addr: key.base,
                    size,
                    first_line: *first_line_before,
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name).then(a.base_addr.cmp(&b.base_addr)));
        out
    }
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

    fn collect_over(text: &str, mode: Collect) -> Vec<MliEntry> {
        let recs = parse_str(text).unwrap();
        let mut tracker = RegionTracker::new("main", 5, 7);
        let mut mli = MliCollector::new(mode);
        for r in &recs {
            let a = tracker.annotate(r);
            mli.observe(r, a);
        }
        mli.finish()
    }

    /// The batch preprocess toy: sum stored before and used inside → MLI;
    /// x only before, tmp only inside.
    const TOY: &str = "\
0,-1,main,0:0,sum,26,0,
1,64,8,0,,
r,64,0x7f0000000000,1,sum,
0,-1,main,0:0,x,26,1,
1,64,8,0,,
r,64,0x7f0000000008,1,x,
0,-1,main,0:0,tmp,26,2,
1,64,8,0,,
r,64,0x7f0000000010,1,tmp,
0,2,main,2:1,0,28,3,
1,64,0,0,,
2,64,0x7f0000000000,1,sum,
0,2,main,2:1,0,28,4,
1,64,5,0,,
2,64,0x7f0000000008,1,x,
0,5,main,5:1,1,27,5,
1,64,0x7f0000000000,1,sum,
r,64,0,1,0,
0,5,main,5:1,1,2,6,
1,1,1,1,9,
0,6,main,6:1,2,27,7,
1,64,0x7f0000000000,1,sum,
r,64,0,1,1,
0,6,main,6:1,2,8,8,
1,64,0,1,1,
2,64,1,0,,
r,64,1,1,2,
0,6,main,6:1,2,28,9,
1,64,1,1,2,
2,64,0x7f0000000000,1,sum,
0,7,main,7:1,2,28,10,
1,64,3,0,,
2,64,0x7f0000000010,1,tmp,
0,5,main,5:1,1,27,11,
1,64,0x7f0000000000,1,sum,
r,64,1,1,3,
0,5,main,5:1,1,2,12,
1,1,0,1,9,
0,9,main,9:1,3,27,13,
1,64,0x7f0000000000,1,sum,
r,64,1,1,4,
";

    #[test]
    fn matches_variables_defined_before_and_used_inside() {
        let mli = collect_over(TOY, Collect::AnyAccess);
        let names: Vec<_> = mli.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["sum"]);
        assert_eq!(mli[0].base_addr, 0x7f00_0000_0000);
        assert_eq!(mli[0].size, 8);
    }

    #[test]
    fn arithmetic_mode_rejects_constant_pre_loop_stores() {
        assert!(collect_over(TOY, Collect::Arithmetic).is_empty());
    }

    #[test]
    fn same_name_different_address_does_not_match() {
        let text = "\
0,2,main,2:1,0,28,0,
1,64,1,0,,
2,64,0x7f0000000000,1,v,
0,5,main,5:1,1,27,1,
1,64,0x7f0000000100,1,v,
r,64,0,1,0,
0,5,main,5:1,1,2,2,
1,1,0,1,9,
";
        assert!(collect_over(text, Collect::AnyAccess).is_empty());
    }

    #[test]
    fn gep_provenance_resolves_array_elements() {
        let text = "\
0,-1,main,0:0,a,26,0,
1,64,16,0,,
r,64,0x7f0000000000,1,a,
0,2,main,2:1,0,29,1,
1,64,0x7f0000000000,1,a,
2,64,1,0,,
r,64,0x7f0000000008,1,0,
0,2,main,2:1,0,28,2,
1,64,7,0,,
2,64,0x7f0000000008,1,0,
0,5,main,5:1,1,27,3,
1,64,0x7f0000000000,1,a,
r,64,0,1,1,
0,5,main,5:1,1,2,4,
1,1,1,1,9,
0,6,main,6:1,2,29,5,
1,64,0x7f0000000000,1,a,
2,64,0,0,,
r,64,0x7f0000000000,1,2,
0,6,main,6:1,2,28,6,
1,64,9,0,,
2,64,0x7f0000000000,1,2,
0,5,main,5:1,1,27,7,
1,64,0x7f0000000000,1,a,
r,64,0,1,3,
0,5,main,5:1,1,2,8,
1,1,0,1,9,
";
        let mli = collect_over(text, Collect::AnyAccess);
        assert_eq!(mli.len(), 1);
        assert_eq!(mli[0].name.as_str(), "a");
        assert_eq!(mli[0].size, 16, "alloca size wins over extent");
    }
}
