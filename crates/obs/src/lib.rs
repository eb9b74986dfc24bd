//! Observability core for the AutoCheck data plane.
//!
//! One registry, every layer: trace ingest, the streaming engine, the batch
//! pipeline, DDG construction/contraction, the interner, and the
//! `MultiAnalyzer` service all report through a per-session [`Metrics`]
//! handle that rides on `AnalysisCtx` exactly like the session's
//! `SymbolSpace` does. The paper's analyses run for hours on real HPC
//! traces; knowing where the time and memory go — per stage, per session —
//! is the input every future scheduling decision consumes.
//!
//! Design constraints, in priority order:
//!
//! * **Near-zero when disabled.** [`Metrics::disabled`] is an empty handle
//!   (`Option<Arc>` = `None`); every operation is one predictable branch,
//!   no clock reads, no atomics. The metrics-parity tests pin that enabling
//!   metrics changes *no output bytes*, and the pipeline bench pins the
//!   enabled overhead (< 2% on the end-to-end analysis).
//! * **Allocation-free on the hot path.** The registry is a fixed set of
//!   atomics — counters, gauges-with-peak, power-of-two-bucket histograms,
//!   and span-fed timers — indexed by small enums ([`CounterId`],
//!   [`GaugeId`], [`TimerId`], [`HistId`]). Enabling metrics allocates the
//!   registry once per session; recording never allocates.
//! * **Machine-readable at the edges.** [`ledger::Ledger`] snapshots a
//!   registry into a versioned JSON object (one per session;
//!   [`ledger::BatchLedger`] aggregates many) with a stable schema that is
//!   validated in CI and round-trips through the crate's own parser.
//!
//! The crate is intentionally zero-dependency: it sits below
//! `autocheck-trace` in the workspace graph so even the parser can report
//! through it.

pub mod ledger;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declares a metric-id enum plus its name table (`ALL`, `name`,
/// `from_name`) — the single source of the ledger's key set.
macro_rules! metric_ids {
    ($(#[$m:meta])* $vis:vis enum $Name:ident {
        $($(#[$vm:meta])* $Var:ident => $s:literal,)+
    }) => {
        $(#[$m])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        $vis enum $Name {
            $($(#[$vm])* $Var,)+
        }

        impl $Name {
            /// Every id, in declaration (= ledger) order.
            pub const ALL: &'static [$Name] = &[$($Name::$Var),+];
            /// Number of ids (= registry slots).
            pub const COUNT: usize = $Name::ALL.len();

            /// The stable ledger key for this id.
            pub fn name(self) -> &'static str {
                match self { $($Name::$Var => $s),+ }
            }

            /// Inverse of [`name`](Self::name) (ledger parsing).
            pub fn from_name(s: &str) -> Option<$Name> {
                match s { $($s => Some($Name::$Var),)+ _ => None }
            }

            #[inline]
            fn idx(self) -> usize {
                self as usize
            }
        }
    };
}

metric_ids! {
    /// Monotonic event counts.
    pub enum CounterId {
        /// Records ingested from textual traces.
        IngestRecordsText => "ingest.records.text",
        /// Records ingested from binary traces.
        IngestRecordsBinary => "ingest.records.binary",
        /// Bytes ingested from textual traces.
        IngestBytesText => "ingest.bytes.text",
        /// Bytes ingested from binary traces.
        IngestBytesBinary => "ingest.bytes.binary",
        /// Malformed input rejected during ingest (parse/decode errors).
        ParseErrors => "ingest.parse_errors",
        /// Records pushed through the streaming engine.
        EngineRecords => "engine.records",
        /// Access events emitted by the DDG builder fold.
        AccessEvents => "engine.access_events",
        /// Records on which the engine's per-stage fold timers sampled
        /// (1-in-64 sampling; see [`TimerId::FoldRegion`]).
        FoldSamples => "engine.fold_samples",
        /// Worklist pops during Algorithm 1 contraction.
        ContractWorklistSteps => "contract.worklist_steps",
        /// Sessions that finished with a report (service layer).
        SessionsOk => "batch.sessions_ok",
        /// Sessions that failed (service layer).
        SessionsFailed => "batch.sessions_failed",
        /// Resource-limit violations (any axis): a session crossed one of
        /// its configured `ResourceLimits` ceilings and was stopped with a
        /// typed error. The tripped axis is named in the error/diagnostic.
        LimitExceeded => "session.limit_exceeded",
    }
}

metric_ids! {
    /// Level values with a tracked all-time peak.
    pub enum GaugeId {
        /// Live per-iteration window entries in the streaming engine — the
        /// memory bound the engine advertises; peak is the true high-water
        /// mark.
        LiveRecords => "engine.live_records",
        /// Main-loop iterations observed.
        Iterations => "engine.iterations",
        /// Nodes of the complete DDG.
        DdgNodes => "ddg.nodes",
        /// Edges of the complete DDG.
        DdgEdges => "ddg.edges",
        /// Nodes surviving Algorithm 1 contraction.
        ContractedNodes => "ddg.contracted_nodes",
        /// Edges of the contracted DDG.
        ContractedEdges => "ddg.contracted_edges",
        /// Distinct symbols interned by the session's space.
        Symbols => "intern.symbols",
        /// String bytes the session's symbol space owns. For the default
        /// (global) space that is the process-lifetime table, which only
        /// grows.
        ArenaBytes => "intern.arena_bytes",
        /// Concurrently running sessions (service layer); peak is the
        /// realized parallelism.
        JobsInFlight => "batch.jobs_in_flight",
    }
}

metric_ids! {
    /// Cumulative wall-clock timers, fed by RAII spans.
    pub enum TimerId {
        /// Trace ingest (parse/decode) time.
        Ingest => "stage.ingest",
        /// Pre-processing: region partitioning + MLI identification. Ingest
        /// is booked under [`TimerId::Ingest`]; the report's Table-III
        /// figure is the sum of the two.
        Preprocess => "stage.preprocess",
        /// Dependency analysis: the DDG fold (contraction excluded — see
        /// [`TimerId::Contract`]).
        Dependency => "stage.dependency",
        /// Variable identification (classification).
        Identify => "stage.identify",
        /// Algorithm 1 contraction.
        Contract => "stage.contract",
        /// Region-tracker share of the engine fold (sampled 1-in-64).
        FoldRegion => "fold.region",
        /// MLI-collector share of the engine fold (sampled 1-in-64).
        FoldMli => "fold.mli",
        /// DDG + statistics share of the engine fold (sampled 1-in-64).
        FoldDdg => "fold.ddg",
        /// Time a job waited in the service queue before a worker picked
        /// it up.
        QueueWait => "batch.queue_wait",
        /// Whole-session wall clock (input acquisition + analysis +
        /// rendering).
        SessionWall => "batch.session_wall",
    }
}

metric_ids! {
    /// Fixed-bucket (power-of-two) histograms.
    pub enum HistId {
        /// Records observed per main-loop iteration — the per-stage cost
        /// signal checkpoint-interval scheduling policies consume.
        IterationRecords => "engine.records_per_iteration",
    }
}

/// Number of power-of-two buckets per histogram: bucket 0 counts value 0,
/// bucket `i` counts values in `[2^(i-1), 2^i)`, the last bucket clamps.
pub const HIST_BUCKETS: usize = 32;

/// A level value with a tracked peak: one registry slot.
#[derive(Debug, Default)]
pub(crate) struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Raise the level by `n`, updating the peak.
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the level by `n` (callers guarantee no underflow, as the
    /// engine's window accounting does).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Set the level outright, raising the peak if needed.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// All-time high-water mark.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct TimerCell {
    nanos: AtomicU64,
    count: AtomicU64,
}

#[derive(Debug)]
struct HistCell {
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The fixed slot table behind an enabled [`Metrics`] handle. Allocated
/// once per session; all recording is lock-free atomics.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; CounterId::COUNT],
    gauges: [Gauge; GaugeId::COUNT],
    timers: [TimerCell; TimerId::COUNT],
    hists: [HistCell; HistId::COUNT],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| Gauge::new()),
            timers: std::array::from_fn(|_| TimerCell::default()),
            hists: std::array::from_fn(|_| HistCell::default()),
        }
    }
}

/// The per-session metrics handle. Cheap to clone (an `Arc`, or nothing at
/// all when disabled); all clones address the same registry.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl Metrics {
    /// An enabled handle over a fresh registry.
    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Registry::default())),
        }
    }

    /// The no-op handle: every operation is one branch, no clock reads, no
    /// atomics. This is the default everywhere a ctx is constructed.
    pub const fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// True when this handle records into a registry.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn count(&self, id: CounterId, n: u64) {
        if let Some(r) = &self.inner {
            r.counters[id.idx()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value (0 when disabled).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |r| r.counters[id.idx()].load(Ordering::Relaxed))
    }

    /// Raise a gauge by `n`.
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, n: u64) {
        if let Some(r) = &self.inner {
            r.gauges[id.idx()].add(n);
        }
    }

    /// Lower a gauge by `n`.
    #[inline]
    pub fn gauge_sub(&self, id: GaugeId, n: u64) {
        if let Some(r) = &self.inner {
            r.gauges[id.idx()].sub(n);
        }
    }

    /// Set a gauge outright (raises its peak if needed).
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, v: u64) {
        if let Some(r) = &self.inner {
            r.gauges[id.idx()].set(v);
        }
    }

    /// Publish a level and peak that a caller tracked itself: set the
    /// gauge's level to `value` and raise its peak to `peak` (the engine
    /// publishes its live-record window this way at finish).
    pub fn gauge_publish(&self, id: GaugeId, value: u64, peak: u64) {
        if let Some(r) = &self.inner {
            let slot = &r.gauges[id.idx()];
            slot.value.store(value, Ordering::Relaxed);
            slot.peak.fetch_max(peak.max(value), Ordering::Relaxed);
        }
    }

    /// Current `(value, peak)` of a gauge (zeros when disabled).
    pub fn gauge(&self, id: GaugeId) -> (u64, u64) {
        self.inner.as_deref().map_or((0, 0), |r| {
            let g = &r.gauges[id.idx()];
            (g.value(), g.peak())
        })
    }

    /// Record `v` into a histogram.
    #[inline]
    pub fn observe(&self, id: HistId, v: u64) {
        if let Some(r) = &self.inner {
            let h = &r.hists[id.idx()];
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Add an already-measured duration to a timer.
    #[inline]
    pub fn record_duration(&self, id: TimerId, d: Duration) {
        if let Some(r) = &self.inner {
            let t = &r.timers[id.idx()];
            t.nanos
                .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
            t.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cumulative `(nanos, span count)` of a timer (zeros when disabled).
    pub fn timer(&self, id: TimerId) -> (u64, u64) {
        self.inner.as_deref().map_or((0, 0), |r| {
            let t = &r.timers[id.idx()];
            (
                t.nanos.load(Ordering::Relaxed),
                t.count.load(Ordering::Relaxed),
            )
        })
    }

    /// Sum of every value observed into a histogram (0 when disabled).
    pub(crate) fn hist_sum(&self, id: HistId) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |r| r.hists[id.idx()].sum.load(Ordering::Relaxed))
    }

    /// Count in one histogram bucket (0 when disabled).
    pub(crate) fn hist_bucket(&self, id: HistId, bucket: usize) -> u64 {
        self.inner.as_deref().map_or(0, |r| {
            r.hists[id.idx()].buckets[bucket].load(Ordering::Relaxed)
        })
    }

    /// An RAII span feeding `id` on drop. **No-op when disabled** — not even
    /// the clock is read; use [`timed`](Self::timed) where the caller needs
    /// the duration regardless.
    #[inline]
    pub fn span(&self, id: TimerId) -> Span {
        Span {
            state: self
                .inner
                .as_ref()
                .map(|r| (Instant::now(), Arc::clone(r), id)),
        }
    }

    /// A span that **always** measures (the caller consumes the duration,
    /// e.g. for the report's `Timings`) and additionally records into the
    /// registry when enabled. This is what replaced the hand-rolled
    /// `Instant::now()` arithmetic in the pipelines.
    #[inline]
    pub fn timed(&self, id: TimerId) -> Timed {
        Timed {
            start: Instant::now(),
            metrics: self.clone(),
            id,
        }
    }
}

/// Bucket index for histogram value `v` (power-of-two buckets).
#[inline]
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// RAII timing span from [`Metrics::span`]: adds its elapsed wall time to
/// the timer on drop. Carries nothing (and reads no clock) when the handle
/// was disabled.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    state: Option<(Instant, Arc<Registry>, TimerId)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((start, reg, id)) = self.state.take() {
            let t = &reg.timers[id.idx()];
            t.nanos.fetch_add(
                start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                Ordering::Relaxed,
            );
            t.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Always-measuring span from [`Metrics::timed`]; [`finish`](Timed::finish)
/// returns the elapsed duration after recording it (when enabled).
#[must_use = "call finish() to obtain the measured duration"]
pub struct Timed {
    start: Instant,
    metrics: Metrics,
    id: TimerId,
}

impl Timed {
    /// Stop the clock, record into the registry (when enabled), and return
    /// the elapsed wall time.
    pub fn finish(self) -> Duration {
        let d = self.start.elapsed();
        self.metrics.record_duration(self.id, d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.count(CounterId::EngineRecords, 5);
        m.gauge_add(GaugeId::LiveRecords, 3);
        m.observe(HistId::IterationRecords, 9);
        m.record_duration(TimerId::Ingest, Duration::from_millis(1));
        drop(m.span(TimerId::Ingest));
        assert_eq!(m.counter(CounterId::EngineRecords), 0);
        assert_eq!(m.gauge(GaugeId::LiveRecords), (0, 0));
        assert_eq!(m.timer(TimerId::Ingest), (0, 0));
        // timed() still measures for the caller.
        let d = m.timed(TimerId::Ingest).finish();
        assert!(d >= Duration::ZERO);
        assert_eq!(m.timer(TimerId::Ingest), (0, 0));
    }

    #[test]
    fn counters_and_clones_share_the_registry() {
        let m = Metrics::enabled();
        let c = m.clone();
        m.count(CounterId::ParseErrors, 2);
        c.count(CounterId::ParseErrors, 3);
        assert_eq!(m.counter(CounterId::ParseErrors), 5);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::new();
        g.add(5);
        g.add(7);
        g.sub(10);
        g.add(1);
        assert_eq!(g.value(), 3);
        assert_eq!(g.peak(), 12);
        g.set(2);
        assert_eq!(g.value(), 2);
        assert_eq!(g.peak(), 12, "set below peak keeps the peak");
        g.set(99);
        assert_eq!(g.peak(), 99);

        let m = Metrics::enabled();
        m.gauge_publish(GaugeId::LiveRecords, g.value(), g.peak());
        assert_eq!(m.gauge(GaugeId::LiveRecords), (99, 99));
        m.gauge_publish(GaugeId::LiveRecords, 4, 50);
        assert_eq!(
            m.gauge(GaugeId::LiveRecords),
            (4, 99),
            "the peak only rises"
        );
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let m = Metrics::enabled();
        for v in [0, 1, 2, 3, 1024] {
            m.observe(HistId::IterationRecords, v);
        }
        let snap = ledger::Ledger::capture("t", &m);
        let h = &snap.hists[0];
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
        assert_eq!(h.sum, 1030);
    }

    #[test]
    fn spans_accumulate() {
        let m = Metrics::enabled();
        {
            let _s = m.span(TimerId::Contract);
        }
        {
            let _s = m.span(TimerId::Contract);
        }
        let (ns, count) = m.timer(TimerId::Contract);
        assert_eq!(count, 2);
        // Monotonic clock: even empty spans advance at least 0 ns.
        assert!(ns < u64::MAX);
        let d = m.timed(TimerId::Contract).finish();
        assert!(d >= Duration::ZERO);
        assert_eq!(m.timer(TimerId::Contract).1, 3);
    }

    #[test]
    fn id_names_round_trip() {
        for id in CounterId::ALL {
            assert_eq!(CounterId::from_name(id.name()), Some(*id));
        }
        for id in GaugeId::ALL {
            assert_eq!(GaugeId::from_name(id.name()), Some(*id));
        }
        for id in TimerId::ALL {
            assert_eq!(TimerId::from_name(id.name()), Some(*id));
        }
        for id in HistId::ALL {
            assert_eq!(HistId::from_name(id.name()), Some(*id));
        }
        assert_eq!(CounterId::from_name("nope"), None);
    }
}
