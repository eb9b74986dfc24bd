//! Sharded single-trace analysis: replay-based fan-out plus a
//! deterministic state merge.
//!
//! The paper parallelizes across *many* traces; this module parallelizes
//! **one** trace. The trace is cut into iteration-aligned ranges by
//! `autocheck_trace::plan_shards` (no loop iteration ever straddles two
//! workers — the per-variable statistics fold retires its element window
//! exactly at iteration boundaries, so a mid-iteration cut would change
//! results). Worker `k` then:
//!
//! 1. **replays** records `0..start_k` through [`Engine::push_replay`] —
//!    the region tracker plus the cheap binding/provenance state of the
//!    MLI collector and DDG builder advance, nothing is recorded — so at
//!    `start_k` the worker observes the trace exactly as a serial engine
//!    would;
//! 2. runs **full analysis** over `start_k..end_k` via [`Engine::push`].
//!
//! Replay is a prefix-sum-style recomputation trade: total work grows from
//! `O(n)` to `O(n·(1 + (N-1)/2 · replay_cost/full_cost))`, but the
//! *full-analysis* work — graph construction, statistics folding, window
//! accounting, the expensive part — is an even `1/N` split per worker.
//!
//! [`merge_shard_states`] folds the partial states back together **in
//! shard order**, which makes the result byte-identical to a serial run:
//!
//! * DDG: [`crate::graph::Graph::absorb`] re-interns each shard's fresh
//!   nodes in shard order, reproducing the serial first-intern numbering
//!   (worker 0 ran full from record 0, and within any later shard the
//!   fresh-node order equals the serial order over that range) — full
//!   *and* contracted DOT bytes match;
//! * MLI: every worker observed the whole Before phase (replay keeps
//!   part-A occurrence state), so the before-maps agree; Inside
//!   first-occurrence lines merge first-wins in shard order, extents by
//!   max;
//! * statistics: per-iteration windows are shard-local by construction;
//!   the boolean flags OR together, and the one cross-shard interaction —
//!   `multi_elem` when two shards each saw a single but *different*
//!   element — is recovered from each builder's first observed element.
//!
//! Caveats, both documented and deliberate: per-shard live-window bounds
//! are weaker than the serial bound (each worker counts only its own
//! windows), and session DDG ceilings are enforced on the *merged* graph
//! at merge time rather than mid-push. A hostile trace is still stopped
//! with the same typed errors; it may just get further before the stop.
//!
//! [`fold_ddg_sharded`] runs the dependency fold alone over a precomputed
//! annotation vector (preloading MLI variable nodes into every worker's
//! graph, which keeps the staged batch DOT numbering); the sharded DOT
//! golden tests drive it.

use crate::ddg::DdgBuilder;
use crate::engine::{Engine, EngineConfig, EngineError, EngineOutcome, EngineShardState};
use crate::region::{Phase, RegionTracker, StreamAnnot};
use crate::stats::{VarStats, VarStatsBuilder};
use autocheck_obs::{CounterId, GaugeId, TimerId};
use autocheck_trace::{plan_shards, AnalysisCtx, Record, ResourceExceeded, ResourceKind, SymId};
use fxhash::{FxSeededHashMap, FxSeededState};
use std::collections::hash_map::Entry;
use std::convert::Infallible;
use std::ops::Range;

/// Record indices at which a new loop iteration starts, read off an
/// existing annotation vector (the batch pipeline's `Phases`).
pub fn boundaries_from_annots(annots: &[StreamAnnot]) -> Vec<u64> {
    let mut bounds = Vec::new();
    let mut last = 0u32;
    for (i, a) in annots.iter().enumerate() {
        if a.iter != last {
            bounds.push(i as u64);
            last = a.iter;
        }
    }
    bounds
}

/// Record indices at which a new loop iteration starts, computed by one
/// cheap region-tracker scan (text traces, or binary files written
/// without an iteration-index footer).
pub fn iteration_boundaries(records: &[Record], cfg: &EngineConfig, ctx: &AnalysisCtx) -> Vec<u64> {
    let mut tracker = RegionTracker::with_ctx(ctx, &cfg.function, cfg.start_line, cfg.end_line);
    let mut bounds = Vec::new();
    let mut last = 0u32;
    for (i, r) in records.iter().enumerate() {
        let a = tracker.annotate(r);
        if a.iter != last {
            bounds.push(i as u64);
            last = a.iter;
        }
    }
    bounds
}

/// Fan the plan out over scoped threads: worker `k` consumes `workers[k]`
/// and its plan range. Workers are constructed by the *caller* on the
/// parent thread — they never intern symbols, so no worker ever touches
/// the shared symbol space. Results come back in shard order; on failure
/// the lowest-index shard's error wins (it is the error a serial run
/// would have hit first).
fn scatter<W, T, E>(
    plan: &[Range<usize>],
    workers: Vec<W>,
    work: impl Fn(W, Range<usize>) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E>
where
    W: Send,
    T: Send,
    E: Send,
{
    debug_assert_eq!(plan.len(), workers.len());
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = plan
            .iter()
            .cloned()
            .zip(workers)
            .map(|(range, w)| s.spawn(move || work(w, range)))
            .collect();
        let mut out = Vec::with_capacity(handles.len());
        let mut first_err = None;
        for h in handles {
            match h.join().expect("shard worker panicked") {
                Ok(t) => out.push(t),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            None => Ok(out),
            Some(e) => Err(e),
        }
    })
}

/// Run `records` through up to `shards` workers and merge to an
/// [`EngineOutcome`] byte-identical to a serial [`Engine`] run.
///
/// `boundaries` are iteration-start record indices when already known
/// (the binary format's index footer); `None` runs one region-tracker
/// scan. A plan that degenerates to one shard (tiny traces, fewer
/// iterations than workers, `shards <= 1`) falls back to the plain serial
/// loop — zero sharding overhead.
pub fn run_sharded(
    cfg: &EngineConfig,
    ctx: &AnalysisCtx,
    records: &[Record],
    boundaries: Option<&[u64]>,
    shards: usize,
) -> Result<EngineOutcome, EngineError> {
    let scanned;
    let bounds: &[u64] = match boundaries {
        Some(b) => b,
        None if shards <= 1 => &[],
        None => {
            scanned = iteration_boundaries(records, cfg, ctx);
            &scanned
        }
    };
    let plan = plan_shards(records.len(), bounds, shards);
    run_planned(cfg, ctx, records, &plan)
}

/// [`run_sharded`] over an explicit, already-validated plan.
pub fn run_planned(
    cfg: &EngineConfig,
    ctx: &AnalysisCtx,
    records: &[Record],
    plan: &[Range<usize>],
) -> Result<EngineOutcome, EngineError> {
    if plan.len() <= 1 {
        let mut engine = Engine::with_ctx(cfg.clone(), ctx);
        for r in records {
            engine.push(r)?;
        }
        return Ok(engine.finish());
    }
    let metrics = ctx.metrics().clone();
    let engines: Vec<Engine> = plan
        .iter()
        .map(|_| Engine::with_ctx(cfg.clone(), ctx))
        .collect();
    let states = scatter(plan, engines, |mut engine, range| {
        let t = metrics.timed(TimerId::ShardWall);
        for r in &records[..range.start] {
            engine.push_replay(r);
        }
        let mut pushed = 0u64;
        let mut failed = None;
        for r in &records[range] {
            match engine.push(r) {
                Ok(()) => pushed += 1,
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        metrics.count(CounterId::ShardRecords, pushed);
        let _ = t.finish();
        match failed {
            None => Ok(engine.into_shard_state()),
            Some(e) => Err(e),
        }
    })?;
    merge_shard_states(states, ctx)
}

/// Fold per-shard partial states (in shard order) into one
/// [`EngineOutcome`], flushing the run's totals to the session metrics
/// exactly once — the sharded counterpart of [`Engine::finish`]. Session
/// DDG ceilings are enforced here on the merged graph (each worker only
/// saw its own part).
pub fn merge_shard_states(
    states: Vec<EngineShardState>,
    ctx: &AnalysisCtx,
) -> Result<EngineOutcome, EngineError> {
    let metrics = ctx.metrics().clone();
    let t = metrics.timed(TimerId::ShardMerge);
    let mut states = states.into_iter();
    let first = states.next().expect("merge requires at least one shard");
    let mut mli = first.mli;
    let mut ddg = first.ddg;
    let mut records = first.records;
    let mut access_events = first.access_events;
    // The last shard's tracker annotated the whole trace (earlier ranges
    // in replay), so its region totals are the serial totals.
    let mut iterations = first.iterations;
    let mut header_label = first.header_label;
    let mut peak_live = first.live.peak();
    let mut stats_parts = vec![first.stats];
    let mut live_gauges = vec![first.live];
    for st in states {
        mli.absorb(st.mli);
        ddg.absorb(&st.ddg);
        records += st.records;
        access_events += st.access_events;
        iterations = st.iterations;
        header_label = st.header_label;
        peak_live = peak_live.max(st.live.peak());
        stats_parts.push(st.stats);
        live_gauges.push(st.live);
    }
    if let Some(limit) = ctx.limits().get(ResourceKind::DdgNodes) {
        let used = ddg.graph().len() as u64;
        if used > limit {
            metrics.count(CounterId::LimitExceeded, 1);
            return Err(ResourceExceeded {
                kind: ResourceKind::DdgNodes,
                used,
                limit,
            }
            .into());
        }
    }
    if let Some(limit) = ctx.limits().get(ResourceKind::DdgEdges) {
        let used = ddg.graph().edge_count() as u64;
        if used > limit {
            metrics.count(CounterId::LimitExceeded, 1);
            return Err(ResourceExceeded {
                kind: ResourceKind::DdgEdges,
                used,
                limit,
            }
            .into());
        }
    }
    let mli = mli.finish();
    let stats = merge_var_stats(stats_parts, ctx);
    let ddg = ddg.finish();
    if metrics.is_enabled() {
        metrics.count(CounterId::EngineRecords, records);
        metrics.count(CounterId::AccessEvents, access_events);
        metrics.gauge_set(GaugeId::Iterations, iterations as u64);
        for g in &live_gauges {
            metrics.gauge_merge(GaugeId::LiveRecords, g);
        }
        metrics.gauge_set(GaugeId::DdgNodes, ddg.len() as u64);
        metrics.gauge_set(GaugeId::DdgEdges, ddg.edge_count() as u64);
    }
    let _ = t.finish();
    Ok(EngineOutcome {
        mli,
        stats,
        iterations,
        records,
        peak_live_records: peak_live as usize,
        header_label,
        ddg,
    })
}

/// Merge per-shard `(base, stats, first_elem)` lists — in shard order —
/// into one per-base statistics map (hashed with the session's address
/// seed). Boolean flags OR together; `multi_elem` additionally trips when
/// two shards anchored on *different* first elements, the one footprint
/// signal a single shard cannot see.
pub fn merge_var_stats(
    parts: Vec<Vec<(u64, VarStats, Option<u64>)>>,
    ctx: &AnalysisCtx,
) -> FxSeededHashMap<u64, VarStats> {
    let mut acc: FxSeededHashMap<u64, (VarStats, Option<u64>)> = ctx.addr_map();
    for part in parts {
        for (base, s, fe) in part {
            match acc.entry(base) {
                Entry::Vacant(v) => {
                    v.insert((s, fe));
                }
                Entry::Occupied(mut o) => {
                    let (a, first_fe) = o.get_mut();
                    a.written_in_loop |= s.written_in_loop;
                    a.read_in_loop |= s.read_in_loop;
                    a.read_after_loop |= s.read_after_loop;
                    a.carried |= s.carried;
                    a.stale_read |= s.stale_read;
                    a.multi_elem |= s.multi_elem;
                    match (*first_fe, fe) {
                        (Some(x), Some(y)) if x != y => a.multi_elem = true,
                        (None, Some(y)) => *first_fe = Some(y),
                        _ => {}
                    }
                }
            }
        }
    }
    let mut out = ctx.addr_map();
    out.extend(acc.into_iter().map(|(b, (s, _))| (b, s)));
    out
}

/// The sharded dependency fold over an annotated record slice: per-shard
/// DDG builders — each preloaded with the MLI variable nodes, so the
/// merged graph keeps the staged batch DOT numbering — with every worker
/// folding its access events
/// (filtered to MLI bases, exactly like the serial fold's event stream)
/// straight into per-variable statistics. Returns the merged, unfrozen
/// builder plus the merged statistics map.
pub fn fold_ddg_sharded(
    records: &[Record],
    annots: &[StreamAnnot],
    plan: &[Range<usize>],
    selective: bool,
    on_the_fly_reg_var: bool,
    preload: &[(SymId, u64)],
    ctx: &AnalysisCtx,
) -> (DdgBuilder, FxSeededHashMap<u64, VarStats>) {
    assert_eq!(
        records.len(),
        annots.len(),
        "records and annotations must be parallel"
    );
    let addr_seed = ctx.addr_seed();
    let mut mli_bases = ctx.addr_map::<u64, ()>();
    mli_bases.extend(preload.iter().map(|&(_, b)| (b, ())));
    let mli_bases = &mli_bases;
    let workers: Vec<DdgBuilder> = plan
        .iter()
        .map(|_| {
            let mut b = DdgBuilder::new(selective).with_reg_var_on_the_fly(on_the_fly_reg_var);
            for &(name, base) in preload {
                b.preload_var(name, base);
            }
            b
        })
        .collect();
    let parts = scatter(plan, workers, |mut ddg, range| {
        let mut stats: FxSeededHashMap<u64, VarStatsBuilder> =
            FxSeededHashMap::with_hasher(FxSeededState::with_seed(addr_seed));
        for i in 0..range.start {
            ddg.observe_replay(&records[i], annots[i]);
        }
        for i in range {
            if let Some(e) = ddg.observe(&records[i], annots[i]) {
                if mli_bases.contains_key(&e.base) {
                    let b = stats
                        .entry(e.base)
                        .or_insert_with(|| VarStatsBuilder::with_seed(addr_seed));
                    if e.phase == Phase::After {
                        b.feed_after_read();
                    } else {
                        b.feed_inside(e.iter, e.elem, e.is_write);
                    }
                }
            }
        }
        let stats: Vec<(u64, VarStats, Option<u64>)> = stats
            .into_iter()
            .map(|(base, b)| {
                let fe = b.first_elem();
                (base, b.finish(), fe)
            })
            .collect();
        Ok::<_, Infallible>((ddg, stats))
    })
    .unwrap_or_else(|e| match e {});
    let mut parts = parts.into_iter();
    let (mut ddg, first_stats) = parts.next().expect("at least one shard");
    let mut stats_parts = vec![first_stats];
    for (d, s) in parts {
        ddg.absorb(&d);
        stats_parts.push(s);
    }
    (ddg, merge_var_stats(stats_parts, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autocheck_trace::TraceSource;

    fn two_iter_records() -> Vec<Record> {
        TraceSource::from_str(crate::engine::tests::TWO_ITER)
            .records()
            .unwrap()
    }

    fn outcome_fields(o: &EngineOutcome) -> (usize, u32, u64, usize, usize) {
        (
            o.mli.len(),
            o.iterations,
            o.records,
            o.ddg.len(),
            o.ddg.edge_count(),
        )
    }

    #[test]
    fn sharded_matches_serial_at_every_count() {
        let ctx = AnalysisCtx::session();
        let records = {
            let _g = ctx.enter();
            two_iter_records()
        };
        let cfg = EngineConfig::for_region("main", 5, 7);
        let serial = run_sharded(&cfg, &ctx, &records, None, 1).unwrap();
        let serial_dot = serial.ddg.to_dot(|_| false);
        for shards in 2..=5 {
            let out = run_sharded(&cfg, &ctx, &records, None, shards).unwrap();
            assert_eq!(
                outcome_fields(&out),
                outcome_fields(&serial),
                "{shards} shards"
            );
            assert_eq!(out.ddg.to_dot(|_| false), serial_dot, "{shards} shards");
            assert_eq!(out.header_label, serial.header_label);
            for (base, s) in &serial.stats {
                assert_eq!(out.stats.get(base), Some(s), "stats for {base:#x}");
            }
            assert_eq!(out.stats.len(), serial.stats.len());
        }
    }

    #[test]
    fn boundaries_mark_iteration_starts() {
        let ctx = AnalysisCtx::session();
        let records = {
            let _g = ctx.enter();
            two_iter_records()
        };
        let cfg = EngineConfig::for_region("main", 5, 7);
        let bounds = iteration_boundaries(&records, &cfg, &ctx);
        // Two iterations → two transitions: iteration 1's start and the
        // final (failing) condition evaluation. Both are safe cuts: every
        // per-iteration window still lives entirely inside one shard.
        assert_eq!(bounds.len(), 2);
        // Passing precomputed boundaries gives the same outcome.
        let from_scan = run_sharded(&cfg, &ctx, &records, None, 2).unwrap();
        let from_index = run_sharded(&cfg, &ctx, &records, Some(&bounds), 2).unwrap();
        assert_eq!(outcome_fields(&from_scan), outcome_fields(&from_index));
    }

    #[test]
    fn cross_shard_multi_elem_is_detected() {
        // Shard 1 sees only element A, shard 2 only element B: neither
        // worker can set multi_elem; the merge must.
        let a = vec![(
            0x10u64,
            VarStats {
                written_in_loop: true,
                ..VarStats::default()
            },
            Some(0xa0u64),
        )];
        let b = vec![(
            0x10u64,
            VarStats {
                written_in_loop: true,
                ..VarStats::default()
            },
            Some(0xb0u64),
        )];
        let ctx = AnalysisCtx::session();
        let merged = merge_var_stats(vec![a.clone(), b], &ctx);
        assert!(merged[&0x10].multi_elem, "different anchors across shards");
        // Same anchor in both shards: no false positive.
        let merged = merge_var_stats(vec![a.clone(), a], &ctx);
        assert!(!merged[&0x10].multi_elem);
    }

    #[test]
    fn merged_graph_respects_session_ddg_ceiling() {
        use autocheck_trace::ResourceLimits;
        let ctx = AnalysisCtx::session().with_limits(ResourceLimits::new().max_ddg_nodes(1));
        let records = {
            let _g = ctx.enter();
            two_iter_records()
        };
        let cfg = EngineConfig::for_region("main", 5, 7);
        let err = run_sharded(&cfg, &ctx, &records, None, 2).unwrap_err();
        match err {
            EngineError::Resource(e) => assert_eq!(e.kind, ResourceKind::DdgNodes),
            other => panic!("expected Resource(DdgNodes), got {other:?}"),
        }
    }

    #[test]
    fn shard_metrics_are_booked() {
        use autocheck_obs::Metrics;
        let ctx = AnalysisCtx::session().with_metrics(Metrics::enabled());
        let records = {
            let _g = ctx.enter();
            two_iter_records()
        };
        let cfg = EngineConfig::for_region("main", 5, 7);
        let out = run_sharded(&cfg, &ctx, &records, None, 2).unwrap();
        let m = ctx.metrics();
        assert_eq!(m.counter(CounterId::ShardRecords), out.records);
        assert_eq!(m.counter(CounterId::EngineRecords), out.records);
        let (_, spans) = m.timer(TimerId::ShardWall);
        assert_eq!(spans, 2, "one shard.wall span per worker");
        assert_eq!(m.timer(TimerId::ShardMerge).1, 1);
        assert_eq!(m.gauge(GaugeId::Iterations), (2, 2));
    }
}
