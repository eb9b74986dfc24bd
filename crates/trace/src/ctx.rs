//! [`AnalysisCtx`]: everything that scopes one analysis session.
//!
//! The data plane used to lean on two process-wide facts: the global symbol
//! interner and deterministic FxHash on address-keyed maps. Both are wrong
//! for a process hosting many unrelated analyses — symbol ids would
//! accumulate across tenants (growing every dense sym-indexed table to the
//! process high-water mark), and a deterministic hash lets one tenant's
//! crafted trace degrade another's run. `AnalysisCtx` packages the
//! session-scoped replacements:
//!
//! * a [`SymbolSpace`] — the session's own dense symbol ids (see
//!   [`crate::intern`] for the space model);
//! * an **address-hash seed** — per-session seeding for maps keyed by
//!   trace-supplied addresses, non-zero only when the trace source is
//!   marked untrusted (seed 0 is bit-identical to plain FxHash, so trusted
//!   runs pay nothing);
//! * a **trust flag** recording that choice.
//!
//! Every component of the data plane (the trace readers, the interpreter's
//! `Machine`, the streaming `Engine`, the batch and streaming analyzers)
//! accepts a ctx at construction and resolves symbols through it from then
//! on. [`AnalysisCtx::default`] addresses the global space with
//! deterministic hashing — the exact pre-session behavior — so
//! single-analysis embedders never have to name a ctx at all.

use crate::intern::{SpaceGuard, SymId, SymStr, SymbolSpace};
use crate::limits::ResourceLimits;
use autocheck_obs::Metrics;
use fxhash::{FxSeededHashMap, FxSeededState};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// The scope of one analysis: symbol space, address-hash seed, trust, and
/// the session's [`Metrics`] registry.
///
/// Cheap to clone; clones share the same symbol space and registry.
#[derive(Clone, Debug)]
pub struct AnalysisCtx {
    space: SymbolSpace,
    addr_seed: u64,
    trusted: bool,
    metrics: Metrics,
    limits: ResourceLimits,
}

impl Default for AnalysisCtx {
    /// The process-default scope: global symbol space, deterministic
    /// hashing, trusted input, metrics off. Behaviorally identical to the
    /// pre-session code path.
    fn default() -> Self {
        AnalysisCtx {
            space: SymbolSpace::global(),
            addr_seed: 0,
            trusted: true,
            metrics: Metrics::disabled(),
            limits: ResourceLimits::default(),
        }
    }
}

impl AnalysisCtx {
    /// A fresh session: its own empty [`SymbolSpace`], deterministic
    /// hashing, trusted input, metrics off. The starting point for every
    /// `MultiAnalyzer` session.
    pub fn session() -> AnalysisCtx {
        AnalysisCtx {
            space: SymbolSpace::new(),
            addr_seed: 0,
            trusted: true,
            metrics: Metrics::disabled(),
            limits: ResourceLimits::default(),
        }
    }

    /// A ctx over an explicit space (shared with every clone).
    pub fn with_space(space: SymbolSpace) -> AnalysisCtx {
        AnalysisCtx {
            space,
            addr_seed: 0,
            trusted: true,
            metrics: Metrics::disabled(),
            limits: ResourceLimits::default(),
        }
    }

    /// A ctx over the thread's **current** space ([`SymbolSpace::current`]):
    /// the global space normally, or the session space while a
    /// [`SymbolSpace::enter`] guard is live. Default constructors across
    /// the data plane (`TraceSource`, `Machine::new`, `Engine::new`,
    /// the analyzers) snapshot this, so legacy ctx-less call sites follow
    /// an entered session instead of silently escaping to the global
    /// space. The snapshot is taken once — handing the ctx to worker
    /// threads keeps them in the same space.
    pub fn current() -> AnalysisCtx {
        AnalysisCtx {
            space: SymbolSpace::current(),
            addr_seed: 0,
            trusted: true,
            metrics: Metrics::disabled(),
            limits: ResourceLimits::default(),
        }
    }

    /// Mark the trace source untrusted: address-keyed maps switch to
    /// per-session seeded hashing so a crafted trace cannot aim
    /// precomputed hash-collision chains at this process (the
    /// `--untrusted-trace` flag).
    pub fn untrusted(mut self) -> AnalysisCtx {
        self.trusted = false;
        if self.addr_seed == 0 {
            self.addr_seed = random_seed();
        }
        self
    }

    /// Pin the address-hash seed (tests; 0 restores determinism).
    pub fn with_addr_seed(mut self, seed: u64) -> AnalysisCtx {
        self.addr_seed = seed;
        self
    }

    /// Attach a metrics registry: every component constructed over this ctx
    /// (parser, engines, analyzers) records into it. The registry rides the
    /// ctx the same way the symbol space does — session-scoped, shared by
    /// clones. Pass [`Metrics::enabled()`] to start collecting; the default
    /// everywhere is [`Metrics::disabled()`], which records nothing and
    /// costs one predicted branch per would-be sample.
    pub fn with_metrics(mut self, metrics: Metrics) -> AnalysisCtx {
        self.metrics = metrics;
        self
    }

    /// The session's metrics handle (disabled unless
    /// [`with_metrics`](Self::with_metrics) installed a registry).
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attach per-session resource ceilings. Enforced by every layer that
    /// ingests or accumulates for this session — `TraceSource` (records,
    /// bytes, symbols, arena bytes), the streaming `Engine` (DDG size,
    /// live window), and `MultiAnalyzer` (which threads a job's limits
    /// here). Default is unlimited on every axis.
    pub fn with_limits(mut self, limits: ResourceLimits) -> AnalysisCtx {
        self.limits = limits;
        self
    }

    /// The session's resource ceilings (unlimited unless
    /// [`with_limits`](Self::with_limits) set some).
    #[inline]
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// The session's symbol space.
    pub fn space(&self) -> &SymbolSpace {
        &self.space
    }

    /// Intern `s` in the session's space.
    #[inline]
    pub fn intern(&self, s: &str) -> SymId {
        self.space.intern(s)
    }

    /// Resolve `id` in the session's space. The returned [`SymStr`] owns
    /// the bytes, so it stays valid even after the session drops.
    #[inline]
    pub fn resolve(&self, id: SymId) -> SymStr {
        self.space.resolve(id)
    }

    /// Install the session's space as the thread-current space (for the
    /// output edges — report rendering, DOT, trace serialization — which
    /// resolve via [`SymId::as_str`]).
    #[must_use = "the space is only current while the guard is alive"]
    pub fn enter(&self) -> SpaceGuard {
        self.space.enter()
    }

    /// The seed for address-keyed maps (0 = deterministic).
    pub fn addr_seed(&self) -> u64 {
        self.addr_seed
    }

    /// False when the trace source was marked untrusted.
    pub fn is_trusted(&self) -> bool {
        self.trusted
    }

    /// The build-hasher for maps keyed by trace-supplied addresses.
    #[inline]
    pub fn addr_state(&self) -> FxSeededState {
        FxSeededState::with_seed(self.addr_seed)
    }

    /// An empty map for trace-supplied address keys, hashed with the
    /// session's seed.
    #[inline]
    pub fn addr_map<K, V>(&self) -> FxSeededHashMap<K, V> {
        FxSeededHashMap::with_hasher(self.addr_state())
    }
}

/// A per-call random 64-bit seed. Derived from std's `RandomState` (the
/// only entropy source available without extra dependencies): each
/// `RandomState::new()` draws fresh per-instance keys from the thread's
/// OS-seeded generator, so distinct sessions get distinct seeds.
fn random_seed() -> u64 {
    let s = RandomState::new().hash_one(0xa1a1_5151_u64);
    // Seed 0 means "deterministic"; dodge it.
    if s == 0 {
        1
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_global_space_deterministic_trusted() {
        let ctx = AnalysisCtx::default();
        assert!(ctx.space().same_space(&SymbolSpace::global()));
        assert_eq!(ctx.addr_seed(), 0);
        assert!(ctx.is_trusted());
        assert_eq!(ctx.addr_state(), FxSeededState::with_seed(0));
    }

    #[test]
    fn session_ctx_is_a_fresh_space() {
        let a = AnalysisCtx::session();
        let b = AnalysisCtx::session();
        assert!(!a.space().same_space(b.space()));
        assert!(!a.space().same_space(&SymbolSpace::global()));
        assert_eq!(a.intern("ctx_test_v").index(), 0);
        assert_eq!(b.intern("ctx_test_other").index(), 0);
        assert_eq!(a.resolve(a.intern("ctx_test_v")), "ctx_test_v");
    }

    #[test]
    fn clones_share_the_space() {
        let a = AnalysisCtx::session();
        let b = a.clone();
        let id = a.intern("ctx_test_shared");
        assert_eq!(b.resolve(id), "ctx_test_shared");
    }

    #[test]
    fn untrusted_sessions_get_distinct_nonzero_seeds() {
        let a = AnalysisCtx::session().untrusted();
        let b = AnalysisCtx::session().untrusted();
        assert!(!a.is_trusted());
        assert_ne!(a.addr_seed(), 0);
        assert_ne!(b.addr_seed(), 0);
        // Distinct with overwhelming probability; equality would mean the
        // entropy source is broken.
        assert_ne!(a.addr_seed(), b.addr_seed());
        // An explicitly pinned seed survives `untrusted()`.
        let pinned = AnalysisCtx::session().with_addr_seed(42).untrusted();
        assert_eq!(pinned.addr_seed(), 42);
    }

    #[test]
    fn addr_maps_work_at_any_seed() {
        for seed in [0u64, 7, u64::MAX] {
            let ctx = AnalysisCtx::session().with_addr_seed(seed);
            let mut m = ctx.addr_map::<u64, u32>();
            m.insert(0x7f00_0000_0000, 9);
            m.insert(0, 1);
            assert_eq!(m.get(&0x7f00_0000_0000), Some(&9));
            assert_eq!(m.get(&0), Some(&1));
        }
    }

    #[test]
    fn metrics_ride_the_ctx_and_are_shared_by_clones() {
        use autocheck_obs::{CounterId, Metrics};
        let off = AnalysisCtx::session();
        assert!(!off.metrics().is_enabled(), "metrics default to disabled");
        let on = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let clone = on.clone();
        on.metrics().count(CounterId::ParseErrors, 1);
        clone.metrics().count(CounterId::ParseErrors, 2);
        assert_eq!(on.metrics().counter(CounterId::ParseErrors), 3);
    }

    #[test]
    fn limits_ride_the_ctx_and_default_unlimited() {
        use crate::limits::{ResourceKind, ResourceLimits};
        let ctx = AnalysisCtx::session();
        assert!(ctx.limits().is_unlimited());
        let bounded = AnalysisCtx::session()
            .with_limits(ResourceLimits::new().max_symbols(3).max_trace_bytes(100));
        assert_eq!(bounded.limits().get(ResourceKind::Symbols), Some(3));
        assert_eq!(bounded.limits().get(ResourceKind::TraceBytes), Some(100));
        // Clones share the same (Copy) limits.
        assert_eq!(bounded.clone().limits(), bounded.limits());
    }

    #[test]
    fn enter_scopes_the_thread_current_space() {
        let ctx = AnalysisCtx::session();
        let id = {
            let _g = ctx.enter();
            SymId::intern("ctx_test_scoped")
        };
        assert_eq!(ctx.resolve(id), "ctx_test_scoped");
        assert!(SymbolSpace::current().same_space(&SymbolSpace::global()));
    }
}
