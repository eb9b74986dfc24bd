//! Resource quotas for one analysis session: [`ResourceLimits`] and the
//! typed [`ResourceExceeded`] error.
//!
//! The ROADMAP's north star is a long-running multi-tenant service, and the
//! survivability contract for that shape is simple: *no single session may
//! grow any process resource without bound*. Every axis a hostile or merely
//! oversized trace can push on — record count, raw bytes ingested, distinct
//! symbols, per-session string-arena bytes, DDG nodes/edges, and the
//! streaming live window — gets an optional ceiling here, carried on the
//! session's [`AnalysisCtx`](crate::AnalysisCtx) and enforced by the layer
//! that owns the resource:
//!
//! * `TraceSource` (batch and streaming ingest) enforces
//!   [`TraceRecords`](ResourceKind::TraceRecords),
//!   [`TraceBytes`](ResourceKind::TraceBytes),
//!   [`Symbols`](ResourceKind::Symbols) and
//!   [`ArenaBytes`](ResourceKind::ArenaBytes);
//! * the streaming `Engine` enforces
//!   [`DdgNodes`](ResourceKind::DdgNodes),
//!   [`DdgEdges`](ResourceKind::DdgEdges) and
//!   [`LiveRecords`](ResourceKind::LiveRecords), the one live-record bound;
//! * `MultiAnalyzer` applies a job's limits to its session ctx, so one
//!   quota-tripped tenant fails with a typed error while the rest of the
//!   batch completes untouched.
//!
//! A violation is **never** a panic and never silent truncation: it is a
//! [`ResourceExceeded`] value naming the axis, the observed usage, and the
//! configured ceiling, and it books one `session.limit_exceeded` obs
//! counter tick so ledgers can alert on quota pressure.

use std::fmt;

/// Which resource axis a limit (or a violation) refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Total records ingested from one trace source.
    TraceRecords,
    /// Raw bytes read from one trace source (pre-parse).
    TraceBytes,
    /// Distinct symbols interned in the session's `SymbolSpace`.
    Symbols,
    /// String bytes owned by the session's `SymbolSpace`.
    ArenaBytes,
    /// Nodes in the streaming engine's dependency graph.
    DdgNodes,
    /// Edges in the streaming engine's dependency graph.
    DdgEdges,
    /// Live (unretired) records in the streaming window.
    LiveRecords,
}

impl ResourceKind {
    /// Stable lowercase label used in diagnostics, CLI `--limit` flags, and
    /// ledger annotations.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::TraceRecords => "trace-records",
            ResourceKind::TraceBytes => "trace-bytes",
            ResourceKind::Symbols => "symbols",
            ResourceKind::ArenaBytes => "arena-bytes",
            ResourceKind::DdgNodes => "ddg-nodes",
            ResourceKind::DdgEdges => "ddg-edges",
            ResourceKind::LiveRecords => "live-records",
        }
    }

    /// Parse a CLI label back into a kind (inverse of [`label`](Self::label)).
    pub fn from_label(s: &str) -> Option<ResourceKind> {
        Some(match s {
            "trace-records" => ResourceKind::TraceRecords,
            "trace-bytes" => ResourceKind::TraceBytes,
            "symbols" => ResourceKind::Symbols,
            "arena-bytes" => ResourceKind::ArenaBytes,
            "ddg-nodes" => ResourceKind::DdgNodes,
            "ddg-edges" => ResourceKind::DdgEdges,
            "live-records" => ResourceKind::LiveRecords,
            _ => return None,
        })
    }

    /// All kinds, in `--limit` help order.
    pub const ALL: [ResourceKind; 7] = [
        ResourceKind::TraceRecords,
        ResourceKind::TraceBytes,
        ResourceKind::Symbols,
        ResourceKind::ArenaBytes,
        ResourceKind::DdgNodes,
        ResourceKind::DdgEdges,
        ResourceKind::LiveRecords,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A session crossed one of its configured [`ResourceLimits`].
///
/// `used` is the observed usage at the moment the check tripped (it may
/// slightly exceed `limit` — enforcement is at record/chunk granularity,
/// never mid-symbol), `limit` the configured ceiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceExceeded {
    /// Which axis tripped.
    pub kind: ResourceKind,
    /// Observed usage when the check fired.
    pub used: u64,
    /// The configured ceiling.
    pub limit: u64,
}

impl fmt::Display for ResourceExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource limit exceeded: {} {} > limit {}",
            self.kind, self.used, self.limit
        )
    }
}

impl std::error::Error for ResourceExceeded {}

/// Per-session resource ceilings. `None` everywhere by default (unlimited —
/// the exact pre-quota behavior); builder methods set individual axes.
///
/// `Copy` and tiny: it rides every [`AnalysisCtx`](crate::AnalysisCtx)
/// clone by value.
///
/// ```
/// use autocheck_trace::{AnalysisCtx, ResourceLimits};
/// let ctx = AnalysisCtx::session().with_limits(
///     ResourceLimits::new()
///         .max_trace_records(1_000_000)
///         .max_symbols(65_536),
/// );
/// assert_eq!(ctx.limits().max_trace_records, Some(1_000_000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Ceiling on records ingested per trace source.
    pub max_trace_records: Option<u64>,
    /// Ceiling on raw bytes read per trace source.
    pub max_trace_bytes: Option<u64>,
    /// Ceiling on distinct symbols in the session's space.
    pub max_symbols: Option<u64>,
    /// Ceiling on string bytes owned by the session's space.
    pub max_arena_bytes: Option<u64>,
    /// Ceiling on streaming DDG nodes.
    pub max_ddg_nodes: Option<u64>,
    /// Ceiling on streaming DDG edges.
    pub max_ddg_edges: Option<u64>,
    /// Ceiling on the streaming live window: the engine's only live-record
    /// bound (`autocheck --max-live-records N` sets it).
    pub max_live_records: Option<u64>,
}

impl ResourceLimits {
    /// No limits (identical to `Default`).
    pub fn new() -> ResourceLimits {
        ResourceLimits::default()
    }

    /// True when every axis is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == ResourceLimits::default()
    }

    /// Set the ceiling for `kind` by value (the CLI `--limit kind=N` path).
    pub fn set(mut self, kind: ResourceKind, limit: u64) -> ResourceLimits {
        let slot = match kind {
            ResourceKind::TraceRecords => &mut self.max_trace_records,
            ResourceKind::TraceBytes => &mut self.max_trace_bytes,
            ResourceKind::Symbols => &mut self.max_symbols,
            ResourceKind::ArenaBytes => &mut self.max_arena_bytes,
            ResourceKind::DdgNodes => &mut self.max_ddg_nodes,
            ResourceKind::DdgEdges => &mut self.max_ddg_edges,
            ResourceKind::LiveRecords => &mut self.max_live_records,
        };
        *slot = Some(limit);
        self
    }

    /// The configured ceiling for `kind`, if any.
    pub fn get(&self, kind: ResourceKind) -> Option<u64> {
        match kind {
            ResourceKind::TraceRecords => self.max_trace_records,
            ResourceKind::TraceBytes => self.max_trace_bytes,
            ResourceKind::Symbols => self.max_symbols,
            ResourceKind::ArenaBytes => self.max_arena_bytes,
            ResourceKind::DdgNodes => self.max_ddg_nodes,
            ResourceKind::DdgEdges => self.max_ddg_edges,
            ResourceKind::LiveRecords => self.max_live_records,
        }
    }

    /// Ceiling on records ingested per trace source.
    pub fn max_trace_records(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::TraceRecords, n)
    }

    /// Ceiling on raw bytes read per trace source.
    pub fn max_trace_bytes(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::TraceBytes, n)
    }

    /// Ceiling on distinct symbols in the session's space.
    pub fn max_symbols(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::Symbols, n)
    }

    /// Ceiling on string bytes owned by the session's space.
    pub fn max_arena_bytes(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::ArenaBytes, n)
    }

    /// Ceiling on streaming DDG nodes.
    pub fn max_ddg_nodes(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::DdgNodes, n)
    }

    /// Ceiling on streaming DDG edges.
    pub fn max_ddg_edges(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::DdgEdges, n)
    }

    /// Ceiling on the streaming live window.
    pub fn max_live_records(self, n: u64) -> ResourceLimits {
        self.set(ResourceKind::LiveRecords, n)
    }

    /// Check `used` against the ceiling for `kind`, producing the typed
    /// error when the ceiling exists and is crossed.
    #[inline]
    pub fn check(&self, kind: ResourceKind, used: u64) -> Result<(), ResourceExceeded> {
        match self.get(kind) {
            Some(limit) if used > limit => Err(ResourceExceeded { kind, used, limit }),
            _ => Ok(()),
        }
    }
}

/// Parse a CLI `--limit` argument of the form `kind=N` (e.g.
/// `trace-records=1000000`). Returns a human-readable message on bad input.
pub fn parse_limit_arg(arg: &str) -> Result<(ResourceKind, u64), String> {
    let (kind_str, num_str) = arg
        .split_once('=')
        .ok_or_else(|| format!("bad --limit `{arg}`: expected <kind>=<N>"))?;
    let kind = ResourceKind::from_label(kind_str).ok_or_else(|| {
        let labels: Vec<&str> = ResourceKind::ALL.iter().map(|k| k.label()).collect();
        format!(
            "bad --limit kind `{kind_str}`: expected one of {}",
            labels.join(", ")
        )
    })?;
    let limit: u64 = num_str
        .parse()
        .map_err(|_| format!("bad --limit value `{num_str}`: expected a non-negative integer"))?;
    Ok((kind, limit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited_and_checks_pass() {
        let l = ResourceLimits::new();
        assert!(l.is_unlimited());
        for kind in ResourceKind::ALL {
            assert_eq!(l.get(kind), None);
            assert_eq!(l.check(kind, u64::MAX), Ok(()));
        }
    }

    #[test]
    fn set_get_round_trips_every_kind() {
        let mut l = ResourceLimits::new();
        for (i, kind) in ResourceKind::ALL.into_iter().enumerate() {
            l = l.set(kind, i as u64 + 10);
        }
        assert!(!l.is_unlimited());
        for (i, kind) in ResourceKind::ALL.into_iter().enumerate() {
            assert_eq!(l.get(kind), Some(i as u64 + 10));
        }
    }

    #[test]
    fn check_trips_only_past_the_ceiling() {
        let l = ResourceLimits::new().max_trace_records(5);
        assert_eq!(l.check(ResourceKind::TraceRecords, 5), Ok(()));
        let err = l.check(ResourceKind::TraceRecords, 6).unwrap_err();
        assert_eq!(err.kind, ResourceKind::TraceRecords);
        assert_eq!(err.used, 6);
        assert_eq!(err.limit, 5);
        assert_eq!(
            err.to_string(),
            "resource limit exceeded: trace-records 6 > limit 5"
        );
    }

    #[test]
    fn labels_round_trip() {
        for kind in ResourceKind::ALL {
            assert_eq!(ResourceKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(ResourceKind::from_label("nonsense"), None);
    }

    #[test]
    fn parse_limit_arg_accepts_and_rejects() {
        assert_eq!(
            parse_limit_arg("symbols=4096"),
            Ok((ResourceKind::Symbols, 4096))
        );
        assert!(parse_limit_arg("symbols").unwrap_err().contains("expected"));
        assert!(parse_limit_arg("bogus=1").unwrap_err().contains("bogus"));
        assert!(parse_limit_arg("symbols=-1")
            .unwrap_err()
            .contains("non-negative"));
    }
}
