//! Analysis results: critical variables, skip reasons, timings.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The dependency class that makes a variable critical (paper Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepType {
    /// Write-After-Read: the value carries across iterations.
    War,
    /// Read-After-Partially-Overwritten: an array only partially rewritten
    /// per iteration.
    Rapo,
    /// The main loop's output, read after the loop.
    Outcome,
    /// Induction/control variable of the outermost main loop.
    Index,
}

impl fmt::Display for DepType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepType::War => write!(f, "WAR"),
            DepType::Rapo => write!(f, "RAPO"),
            DepType::Outcome => write!(f, "Outcome"),
            DepType::Index => write!(f, "Index"),
        }
    }
}

/// One variable AutoCheck says must be checkpointed.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalVariable {
    /// Source-level name.
    pub name: Arc<str>,
    /// Why it is critical.
    pub dep: DepType,
    /// First line the variable was seen used (the paper reports the
    /// declaration location; traces only expose uses).
    pub first_line: u32,
    /// Base address of its storage during the traced run.
    pub base_addr: u64,
    /// Storage footprint in bytes (what a checkpoint of it costs).
    pub size: u64,
}

/// Why an MLI variable was *not* selected (reported for explainability;
/// the paper's §IV-D discusses these cases for CG).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// Never written inside the loop; re-created by pre-loop code on
    /// restart (e.g. the matrix `A` in CG).
    ReadOnlyInLoop,
    /// Fully rewritten before every read in each iteration (e.g. `z`, `p`,
    /// `q`, `r` in CG).
    RewrittenBeforeRead,
    /// Written in the loop but never read afterwards nor carried across
    /// iterations.
    DeadAfterLoop,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::ReadOnlyInLoop => write!(f, "read-only in loop"),
            SkipReason::RewrittenBeforeRead => write!(f, "rewritten before read each iteration"),
            SkipReason::DeadAfterLoop => write!(f, "not carried, not read after loop"),
        }
    }
}

/// Wall-clock breakdown, matching the paper's Table III columns plus the
/// contraction stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Trace reading/parsing + region partitioning + MLI identification
    /// ("Pre-processing").
    pub preprocess: Duration,
    /// Reg-var/reg-reg maps and DDG construction ("Dependency Analysis");
    /// contraction is booked separately in [`contract`](Timings::contract).
    /// Only the staged reference books it: the engine folds the dependency
    /// analysis into its one pass, booked as
    /// [`preprocess`](Timings::preprocess), and `autocheck` does not print
    /// it.
    pub dependency: Duration,
    /// Heuristic classification ("Identify Variables").
    pub identify: Duration,
    /// Algorithm 1 contraction — its own stage, booked after
    /// classification by the engine's finish step.
    pub contract: Duration,
}

impl Timings {
    /// Total analysis time across all four stages.
    pub fn total(&self) -> Duration {
        self.preprocess + self.dependency + self.identify + self.contract
    }
}

/// Sizes of the dependency-graph stage — filled by the engine's finish step
/// and by the staged reference, surfaced by `table3 --json` (not printed in
/// the human-readable report). Contraction wall clock lives in
/// [`Timings::contract`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DdgSummary {
    /// Nodes of the complete DDG (variables + registers).
    pub nodes: usize,
    /// Edges of the complete DDG.
    pub edges: usize,
    /// Nodes surviving Algorithm 1 contraction, which every run performs.
    pub contracted_nodes: usize,
    /// Edges of the contracted DDG.
    pub contracted_edges: usize,
}

/// The full analysis report.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Main-loop-input variables that were analyzed.
    pub mli: Vec<crate::preprocess::MliVar>,
    /// The variables to checkpoint.
    pub critical: Vec<CriticalVariable>,
    /// MLI variables found non-critical, with reasons.
    pub skipped: Vec<(Arc<str>, SkipReason)>,
    /// Loop iterations observed in the trace.
    pub iterations: u32,
    /// Records examined.
    pub records: u64,
    /// Stage timings.
    pub timings: Timings,
    /// Dependency-graph sizes and contraction cost.
    pub ddg: DdgSummary,
}

impl Report {
    /// The critical variable named `name`, if present.
    pub fn critical_by_name(&self, name: &str) -> Option<&CriticalVariable> {
        self.critical.iter().find(|c| &*c.name == name)
    }

    /// `(name, dep)` pairs sorted by name — convenient for table printing
    /// and test assertions.
    pub fn summary(&self) -> Vec<(String, DepType)> {
        let mut v: Vec<(String, DepType)> = self
            .critical
            .iter()
            .map(|c| (c.name.to_string(), c.dep))
            .collect();
        v.sort();
        v
    }

    /// Total bytes a checkpoint of the detected variables would store —
    /// the AutoCheck column of the paper's Table IV.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.critical.iter().map(|c| c.size).sum()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "AutoCheck report: {} MLI variable(s), {} critical, {} iteration(s), {} record(s)",
            self.mli.len(),
            self.critical.len(),
            self.iterations,
            self.records
        )?;
        for c in &self.critical {
            writeln!(
                f,
                "  checkpoint {:<20} {:<8} first seen line {:<5} {} bytes",
                c.name, c.dep, c.first_line, c.size
            )?;
        }
        for (name, why) in &self.skipped {
            writeln!(f, "  skip       {name:<20} {why}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_sorted() {
        let report = Report {
            critical: vec![
                CriticalVariable {
                    name: Arc::from("r"),
                    dep: DepType::War,
                    first_line: 8,
                    base_addr: 0x10,
                    size: 8,
                },
                CriticalVariable {
                    name: Arc::from("a"),
                    dep: DepType::Rapo,
                    first_line: 10,
                    base_addr: 0x20,
                    size: 80,
                },
            ],
            ..Report::default()
        };
        assert_eq!(
            report.summary(),
            vec![
                ("a".to_string(), DepType::Rapo),
                ("r".to_string(), DepType::War)
            ]
        );
        assert_eq!(report.checkpoint_bytes(), 88);
        assert!(report.critical_by_name("a").is_some());
        assert!(report.critical_by_name("zz").is_none());
    }

    #[test]
    fn display_mentions_each_variable() {
        let report = Report {
            critical: vec![CriticalVariable {
                name: Arc::from("sum"),
                dep: DepType::Outcome,
                first_line: 9,
                base_addr: 0x10,
                size: 8,
            }],
            skipped: vec![(Arc::from("b"), SkipReason::RewrittenBeforeRead)],
            ..Report::default()
        };
        let text = report.to_string();
        assert!(text.contains("sum"));
        assert!(text.contains("Outcome"));
        assert!(text.contains("rewritten before read"));
    }

    #[test]
    fn timings_total_includes_contraction() {
        let t = Timings {
            preprocess: Duration::from_millis(5),
            dependency: Duration::from_millis(3),
            identify: Duration::from_millis(2),
            contract: Duration::from_millis(4),
        };
        assert_eq!(t.total(), Duration::from_millis(14));
    }
}
