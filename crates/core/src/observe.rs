//! Session-level metrics publication and ledger capture — the glue between
//! the per-session [`Metrics`](autocheck_obs::Metrics) registry that rides
//! the [`AnalysisCtx`] and the machine-readable run ledger the CLI edges
//! emit (`--metrics <path>`).

use autocheck_obs::ledger::Ledger;
use autocheck_obs::GaugeId;
use autocheck_trace::AnalysisCtx;

/// Publish the session's interner gauges: distinct symbols in this
/// session's space, and the string bytes that space owns. A session space
/// books only its own bytes, whatever other sessions are live; the global
/// space books its process-lifetime table. Called by both pipelines as a
/// session finishes; idempotent.
pub fn note_session_symbols(ctx: &AnalysisCtx) {
    let m = ctx.metrics();
    let space = ctx.space();
    m.gauge_set(GaugeId::Symbols, space.len() as u64);
    m.gauge_set(GaugeId::ArenaBytes, space.owned_bytes() as u64);
}

/// Snapshot the session's registry into a named [`Ledger`] (all-zero when
/// the ctx has metrics disabled). Refreshes the interner gauges first so a
/// capture taken any time after analysis reflects the final symbol counts.
pub fn capture_ledger(name: &str, ctx: &AnalysisCtx) -> Ledger {
    if ctx.metrics().is_enabled() {
        note_session_symbols(ctx);
    }
    Ledger::capture(name, ctx.metrics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocheck_obs::Metrics;

    #[test]
    fn capture_reflects_session_symbols_and_arena() {
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        ctx.intern("observe_test_sym_a");
        ctx.intern("observe_test_sym_b");
        let ledger = capture_ledger("t", &ctx);
        assert_eq!(ledger.gauge(GaugeId::Symbols).0, 2);
        assert!(
            ledger.gauge(GaugeId::ArenaBytes).0 > 0,
            "arena holds at least the strings just interned"
        );
        assert_eq!(ledger.name, "t");
    }

    #[test]
    fn live_sessions_book_only_their_own_arena_bytes() {
        // Two sessions live at once, with disjoint symbol sets of different
        // sizes: each ledger carries its own space's bytes, not the
        // process-wide total.
        let a = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let b = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let a_syms = ["observe_own_bytes_a1", "observe_own_bytes_a2"];
        let b_syms = [
            "observe_own_bytes_b1",
            "observe_own_bytes_b2",
            "observe_own_b3",
        ];
        for s in a_syms {
            a.intern(s);
        }
        for s in b_syms {
            b.intern(s);
        }
        let bytes = |syms: &[&str]| syms.iter().map(|s| s.len() as u64).sum::<u64>();
        let (la, lb) = (capture_ledger("a", &a), capture_ledger("b", &b));
        assert_eq!(la.gauge(GaugeId::ArenaBytes).0, bytes(&a_syms));
        assert_eq!(lb.gauge(GaugeId::ArenaBytes).0, bytes(&b_syms));
        assert_eq!(la.gauge(GaugeId::Symbols).0, 2);
        assert_eq!(lb.gauge(GaugeId::Symbols).0, 3);
    }

    #[test]
    fn disabled_ctx_captures_an_all_zero_ledger() {
        let ctx = AnalysisCtx::session();
        ctx.intern("observe_test_disabled");
        let ledger = capture_ledger("quiet", &ctx);
        assert_eq!(ledger, Ledger::empty("quiet"));
    }
}
