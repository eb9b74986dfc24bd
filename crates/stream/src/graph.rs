//! The shared dependency-graph core: one growable graph, one frozen CSR
//! form, one DOT writer — used verbatim by both the batch and streaming
//! pipelines.
//!
//! Before unification the repo carried two graph implementations kept
//! byte-parallel only by tests: the batch `DepGraph` (per-node `BTreeSet`
//! adjacency) and the streaming `StreamGraph` (edge hash set). Both interned
//! nodes through the same dense [`NodeIndex`]; everything else was
//! duplicated. This module is the single replacement:
//!
//! * [`Graph`] — the growable form both builders mutate: a dense node
//!   table in first-intern order plus a deduplicating integer-keyed edge
//!   set. Insertion is O(1) amortized with no per-node ordered containers.
//! * [`CsrGraph`] — the frozen form produced by [`Graph::freeze`]:
//!   compressed sparse rows in **both directions**, with each node's parent
//!   and child slices sorted ascending. Traversals (Algorithm 1
//!   contraction, DOT rendering, reachability queries) run on contiguous
//!   slices — no hashing, no tree walks.
//! * [`DotWriter`] — the one Graphviz serializer. Full-DDG and
//!   contracted-DDG rendering differ only in graph name, `rankdir`, and
//!   node shapes, so both feed the same writer; labels are written straight
//!   into the output buffer via [`fmt::Display`], never through a
//!   per-node `String`.
//!
//! Node ids are assigned in first-intern order (the [`NodeIndex`]
//! contract). The DDG freezes with the MLI variables renumbered to the
//! front ([`crate::ddg::DdgBuilder::finish`]) and every other node kept in
//! first-intern order; frozen adjacency is sorted, so DOT output is
//! byte-identical to the pre-unification batch renderer.

use autocheck_trace::{Name, NodeIndex, SymId};
use fxhash::FxHashSet;
use std::fmt;
use std::fmt::Write as _;

/// A node of the dependency graph. `Copy` — both kinds are interned
/// integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A named memory location (identified by base address).
    Var {
        /// Display name (interned).
        name: SymId,
        /// Base address (identity).
        base: u64,
    },
    /// A register (temporary or callee parameter alias).
    Reg {
        /// Register name.
        name: Name,
    },
}

impl NodeKind {
    /// Human-readable label as an owned string. Output paths write labels
    /// through [`fmt::Display`] instead; this is for tests and lookups.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// True for variable nodes.
    pub fn is_var(&self) -> bool {
        matches!(self, NodeKind::Var { .. })
    }
}

/// Writes the node label (variable or register name) without allocating.
impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Var { name, .. } => fmt::Display::fmt(name, f),
            NodeKind::Reg { name } => fmt::Display::fmt(name, f),
        }
    }
}

/// The growable dependency graph: dense node table keyed by [`NodeIndex`],
/// edges in a deduplicating integer set. Node and edge counts are bounded
/// by the program's distinct names, not the trace length.
///
/// Edges run from *source* (parent) to *dependent* (child), matching the
/// paper's parent terminology in Algorithm 1. Freeze with
/// [`Graph::freeze`] before traversing.
#[derive(Clone, Debug)]
pub struct Graph {
    nodes: Vec<NodeKind>,
    index: NodeIndex,
    edges: FxHashSet<(u32, u32)>,
    /// The edges added last, direct-mapped by a hash of the edge: a fold
    /// adds the same few edges over and over, and a hit skips the set.
    /// `NO_EDGE` is a self-loop, which is never added.
    recent: [u64; RECENT_EDGES],
}

/// Slots of [`Graph`]'s recent-edge cache (a power of two).
const RECENT_EDGES: usize = 256;

/// An empty recent-edge slot.
const NO_EDGE: u64 = u64::MAX;

impl Default for Graph {
    fn default() -> Graph {
        Graph {
            nodes: Vec::new(),
            index: NodeIndex::default(),
            edges: FxHashSet::default(),
            recent: [NO_EDGE; RECENT_EDGES],
        }
    }
}

impl Graph {
    /// A fresh, empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Intern a node.
    pub fn node(&mut self, kind: NodeKind) -> usize {
        let (id, fresh) = match kind {
            NodeKind::Var { name, base } => self.index.var_node(name, base),
            NodeKind::Reg { name } => self.index.reg_node(name),
        };
        if fresh {
            self.nodes.push(kind);
        }
        id as usize
    }

    /// Intern a variable node.
    pub fn var_node(&mut self, name: SymId, base: u64) -> usize {
        self.node(NodeKind::Var { name, base })
    }

    /// Intern a register node.
    pub fn reg_node(&mut self, name: Name) -> usize {
        self.node(NodeKind::Reg { name })
    }

    /// Add a dependency edge `parent → child` (self-loops are ignored,
    /// duplicates deduplicate).
    #[inline]
    pub fn add_edge(&mut self, parent: usize, child: usize) {
        if parent == child {
            return;
        }
        let key = (parent as u64) << 32 | child as u64;
        let slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - RECENT_EDGES.trailing_zeros()))
            as usize;
        if self.recent[slot] != key {
            self.edges.insert((parent as u32, child as u32));
            self.recent[slot] = key;
        }
    }

    /// Node payloads, indexed by node id.
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Look a node up without interning.
    pub fn find(&self, kind: &NodeKind) -> Option<usize> {
        find_in(&self.index, kind)
    }

    /// Compact into the immutable CSR form: adjacency in both directions,
    /// each slice sorted ascending, nodes in first-intern order.
    pub fn freeze(self) -> CsrGraph {
        self.freeze_with_first([])
    }

    /// [`freeze`](Self::freeze) with the `first` nodes numbered `0, 1, …`
    /// in the order given (a repeat keeps its first place), and every other
    /// node after them in first-intern order. A `first` node the graph
    /// never interned is interned here, so it is always present.
    pub(crate) fn freeze_with_first(
        mut self,
        first: impl IntoIterator<Item = NodeKind>,
    ) -> CsrGraph {
        let lead: Vec<usize> = first.into_iter().map(|kind| self.node(kind)).collect();
        let n = self.nodes.len();
        // Re-interning the lead, then the rest in intern order, hands out
        // the new ids: `new_id[old]`.
        let mut renumbered = Graph::new();
        let mut new_id = vec![u32::MAX; n];
        for old in lead.into_iter().chain(0..n) {
            if new_id[old] == u32::MAX {
                new_id[old] = renumbered.node(self.nodes[old]) as u32;
            }
        }
        let mut edges: Vec<(u32, u32)> = self
            .edges
            .into_iter()
            .map(|(p, c)| (new_id[p as usize], new_id[c as usize]))
            .collect();

        edges.sort_unstable();
        let (child_off, child_dst) = csr(n, edges.iter().map(|&(p, c)| (p, c)));
        edges.sort_unstable_by_key(|&(p, c)| (c, p));
        let (parent_off, parent_dst) = csr(n, edges.iter().map(|&(p, c)| (c, p)));

        CsrGraph {
            nodes: renumbered.nodes,
            index: renumbered.index,
            child_off,
            child_dst,
            parent_off,
            parent_dst,
        }
    }
}

/// Build one CSR direction from edges pre-sorted by source id.
fn csr(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for (src, _) in edges.clone() {
        off[src as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let dst = edges.map(|(_, d)| d).collect();
    (off, dst)
}

fn find_in(index: &NodeIndex, kind: &NodeKind) -> Option<usize> {
    match *kind {
        NodeKind::Var { name, base } => index.find_var(name, base),
        NodeKind::Reg { name } => index.find_reg(name),
    }
    .map(|i| i as usize)
}

/// The frozen dependency graph: compressed sparse rows in both directions,
/// parent/child slices sorted ascending. This is what contraction
/// (Algorithm 1), DOT rendering, and every read-only consumer traverse.
#[derive(Clone, Debug, Default)]
pub struct CsrGraph {
    /// Node payloads, indexed by node id (the frozen order).
    pub nodes: Vec<NodeKind>,
    index: NodeIndex,
    child_off: Vec<u32>,
    child_dst: Vec<u32>,
    parent_off: Vec<u32>,
    parent_dst: Vec<u32>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.child_dst.len()
    }

    /// Parents (sources) of `n`, ascending, as a contiguous slice.
    #[inline]
    pub fn parent_slice(&self, n: usize) -> &[u32] {
        &self.parent_dst[self.parent_off[n] as usize..self.parent_off[n + 1] as usize]
    }

    /// Children (dependents) of `n`, ascending, as a contiguous slice.
    #[inline]
    pub fn child_slice(&self, n: usize) -> &[u32] {
        &self.child_dst[self.child_off[n] as usize..self.child_off[n + 1] as usize]
    }

    /// Parents (sources) of `n`.
    pub fn parents_of(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.parent_slice(n).iter().map(|&p| p as usize)
    }

    /// Children (dependents) of `n`.
    pub fn children_of(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.child_slice(n).iter().map(|&c| c as usize)
    }

    /// Look a node up without interning.
    pub fn find(&self, kind: &NodeKind) -> Option<usize> {
        find_in(&self.index, kind)
    }

    /// Render as Graphviz DOT; `is_mli` marks MLI variable nodes.
    pub fn to_dot(&self, is_mli: impl Fn(&NodeKind) -> bool) -> String {
        let mut w = DotWriter::new("ddg", Some("TB"));
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.is_var() {
                if is_mli(n) {
                    "doublecircle"
                } else {
                    "ellipse"
                }
            } else {
                "box"
            };
            w.node(i, n, Some(shape));
        }
        for p in 0..self.nodes.len() {
            for &k in self.child_slice(p) {
                w.edge(p, k as usize);
            }
        }
        w.finish()
    }
}

/// The one Graphviz DOT serializer: both the full DDG and the contracted
/// DDG render through it (batch, `StreamAnalyzer`, and `MultiAnalyzer`
/// alike). Labels are written into the buffer via [`fmt::Display`] — no
/// per-node `String` allocation.
pub struct DotWriter {
    out: String,
}

impl DotWriter {
    /// Open `digraph <name>`, optionally with a `rankdir` attribute.
    pub fn new(name: &str, rankdir: Option<&str>) -> DotWriter {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        if let Some(dir) = rankdir {
            let _ = writeln!(out, "  rankdir={dir};");
        }
        DotWriter { out }
    }

    /// Emit node `id` with the given label and optional shape. The label
    /// is escaped for the quoted DOT string (`"` and `\`) — symbol names
    /// come from the trace, which may be third-party input.
    pub fn node(&mut self, id: usize, label: &dyn fmt::Display, shape: Option<&str>) {
        let label = EscapeDot(label);
        match shape {
            Some(shape) => {
                let _ = writeln!(self.out, "  n{id} [label=\"{label}\", shape={shape}];");
            }
            None => {
                let _ = writeln!(self.out, "  n{id} [label=\"{label}\"];");
            }
        }
    }

    /// Emit edge `parent → child`.
    pub fn edge(&mut self, parent: usize, child: usize) {
        let _ = writeln!(self.out, "  n{parent} -> n{child};");
    }

    /// Close the graph and hand back the buffer.
    pub fn finish(mut self) -> String {
        self.out.push_str("}\n");
        self.out
    }
}

/// Display adapter escaping `"` and `\` for a quoted DOT string, still
/// allocation-free (escapes stream through the formatter).
struct EscapeDot<'a>(&'a dyn fmt::Display);

impl fmt::Display for EscapeDot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Escaper<'a, 'b>(&'a mut fmt::Formatter<'b>);
        impl fmt::Write for Escaper<'_, '_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                for chunk in s.split_inclusive(['"', '\\']) {
                    match chunk.as_bytes().last() {
                        Some(b'"') => {
                            self.0.write_str(&chunk[..chunk.len() - 1])?;
                            self.0.write_str("\\\"")?;
                        }
                        Some(b'\\') => {
                            self.0.write_str(&chunk[..chunk.len() - 1])?;
                            self.0.write_str("\\\\")?;
                        }
                        _ => self.0.write_str(chunk)?,
                    }
                }
                Ok(())
            }
        }
        write!(Escaper(f), "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // a → t1 → b, a → t2 → b
        let mut g = Graph::new();
        let a = g.var_node(SymId::intern("graph_a"), 0x100);
        let b = g.var_node(SymId::intern("graph_b"), 0x200);
        let t1 = g.reg_node(Name::Temp(1));
        let t2 = g.reg_node(Name::Temp(2));
        g.add_edge(a, t1);
        g.add_edge(a, t2);
        g.add_edge(t1, b);
        g.add_edge(t2, b);
        g
    }

    #[test]
    fn ids_are_dense_in_intern_order_and_duplicates_dedup() {
        let mut g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
        // Re-interning and re-adding changes nothing.
        let a = g.var_node(SymId::intern("graph_a"), 0x100);
        assert_eq!(a, 0);
        g.add_edge(0, 2);
        g.add_edge(0, 0); // self-loop ignored
        assert_eq!(g.len(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn freeze_produces_sorted_adjacency_in_both_directions() {
        let g = diamond();
        let f = g.freeze();
        assert_eq!(f.len(), 4);
        assert_eq!(f.edge_count(), 4);
        assert_eq!(f.child_slice(0), &[2, 3], "a's children ascending");
        assert_eq!(f.parent_slice(1), &[2, 3], "b's parents ascending");
        assert_eq!(f.parent_slice(0), &[0u32; 0], "a is terminal");
        assert_eq!(f.children_of(2).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn freeze_with_first_numbers_the_lead_first_and_interns_missing_nodes() {
        let b = NodeKind::Var {
            name: SymId::intern("graph_b"),
            base: 0x200,
        };
        let fresh = NodeKind::Var {
            name: SymId::intern("graph_fresh"),
            base: 0x300,
        };
        // Lead: b (id 1), a node never interned, then b again.
        let f = diamond().freeze_with_first([b, fresh, b]);
        assert_eq!(f.len(), 5);
        assert_eq!(f.nodes[0], b);
        assert_eq!(f.nodes[1], fresh);
        // The rest keep first-intern order: a, t1, t2.
        assert_eq!(f.nodes[2].label(), "graph_a");
        assert_eq!(
            f.nodes[3],
            NodeKind::Reg {
                name: Name::Temp(1)
            }
        );
        assert_eq!(
            f.nodes[4],
            NodeKind::Reg {
                name: Name::Temp(2)
            }
        );
        // Lookups and edges follow the new numbering.
        assert_eq!(f.find(&b), Some(0));
        assert_eq!(f.find(&fresh), Some(1));
        assert_eq!(f.edge_count(), 4);
        assert_eq!(f.child_slice(2), &[3, 4], "a feeds both temps");
        assert_eq!(f.parent_slice(0), &[3, 4], "b reads both temps");
        assert!(f.parent_slice(1).is_empty() && f.child_slice(1).is_empty());
    }

    #[test]
    fn find_works_on_both_forms() {
        let g = diamond();
        let key = NodeKind::Var {
            name: SymId::intern("graph_b"),
            base: 0x200,
        };
        let missing = NodeKind::Var {
            name: SymId::intern("graph_b"),
            base: 0x999,
        };
        assert_eq!(g.find(&key), Some(1));
        assert_eq!(g.find(&missing), None);
        let f = g.freeze();
        assert_eq!(f.find(&key), Some(1));
        assert_eq!(f.find(&missing), None);
    }

    #[test]
    fn dot_writer_reproduces_both_historical_formats() {
        let mut full = DotWriter::new("ddg", Some("TB"));
        full.node(0, &"sum", Some("ellipse"));
        full.edge(0, 1);
        assert_eq!(
            full.finish(),
            "digraph ddg {\n  rankdir=TB;\n  n0 [label=\"sum\", shape=ellipse];\n  n0 -> n1;\n}\n"
        );
        let mut contracted = DotWriter::new("contracted", None);
        contracted.node(0, &"a", None);
        assert_eq!(
            contracted.finish(),
            "digraph contracted {\n  n0 [label=\"a\"];\n}\n"
        );
    }

    #[test]
    fn dot_labels_escape_quotes_and_backslashes() {
        let mut w = DotWriter::new("g", None);
        w.node(0, &r#"a"b\c"#, None);
        w.node(1, &"plain", None);
        assert_eq!(
            w.finish(),
            "digraph g {\n  n0 [label=\"a\\\"b\\\\c\"];\n  n1 [label=\"plain\"];\n}\n"
        );
    }

    #[test]
    fn csr_dot_marks_shapes_per_node_kind() {
        let g = diamond();
        let dot = g
            .freeze()
            .to_dot(|n| matches!(n, NodeKind::Var { name, .. } if name.as_str() == "graph_a"));
        assert!(dot.contains("doublecircle"), "MLI var: {dot}");
        assert!(dot.contains("ellipse"), "plain var");
        assert!(dot.contains("box"), "register");
        assert!(dot.starts_with("digraph ddg {\n  rankdir=TB;\n"));
    }

    #[test]
    fn empty_graph_freezes() {
        let f = Graph::new().freeze();
        assert!(f.is_empty());
        assert_eq!(f.edge_count(), 0);
        assert_eq!(f.to_dot(|_| false), "digraph ddg {\n  rankdir=TB;\n}\n");
    }
}
