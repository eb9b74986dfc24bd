//! Bounded per-variable access statistics — the input to the
//! classification heuristics, folded incrementally.
//!
//! The batch classifier (`autocheck_core::classify`) walks a variable's
//! full R/W event sequence and derives a handful of booleans. This module
//! captures that derivation as an **online fold**: events are pushed one at
//! a time and the per-iteration element window is retired the moment the
//! iteration number advances, so a variable's live state is bounded by the
//! elements it touches in one iteration — never by the trace length.
//!
//! `autocheck-core`'s batch path uses this same builder for its
//! event-slice classification, so the two pipelines share one fold and one
//! decision function and cannot drift apart.

use fxhash::{FxSeededHashMap, FxSeededState};

/// Everything the WAR/RAPO/Outcome heuristics need to know about one
/// variable, in O(1) space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VarStats {
    /// The variable was written inside the loop.
    pub written_in_loop: bool,
    /// The variable was read inside the loop.
    pub read_in_loop: bool,
    /// The variable was read after the loop exited.
    pub read_after_loop: bool,
    /// Some element's first access within an iteration was a read: the
    /// value carries across iterations.
    pub carried: bool,
    /// Some iteration read an element it never wrote (a *stale* read):
    /// partial overwriting cannot reconstruct it.
    pub stale_read: bool,
    /// The observed footprint spans more than one element address.
    pub multi_elem: bool,
}

/// Per-element state within the current iteration's window.
#[derive(Clone, Copy, Debug)]
struct ElemAccess {
    /// First access in this iteration was a read.
    first_is_read: bool,
    read: bool,
    written: bool,
}

/// Incremental fold of one variable's access events into [`VarStats`].
///
/// Feed in-loop events via [`feed_inside`](VarStatsBuilder::feed_inside)
/// (in time order — iteration numbers must be non-decreasing, which trace
/// order guarantees) and after-loop reads via
/// [`feed_after_read`](VarStatsBuilder::feed_after_read); then call
/// [`finish`](VarStatsBuilder::finish).
#[derive(Clone, Debug, Default)]
pub struct VarStatsBuilder {
    stats: VarStats,
    cur_iter: u32,
    /// Keyed by element *addresses* from the trace — seeded per session
    /// when the source is untrusted (seed 0 = deterministic Fx).
    window: FxSeededHashMap<u64, ElemAccess>,
    first_elem: Option<u64>,
}

impl VarStatsBuilder {
    /// A fresh builder with deterministic element-address hashing.
    pub fn new() -> VarStatsBuilder {
        VarStatsBuilder::default()
    }

    /// A builder whose element-address window hashes with `seed` (the
    /// session's address seed for untrusted traces; 0 = deterministic).
    pub fn with_seed(seed: u64) -> VarStatsBuilder {
        VarStatsBuilder {
            window: FxSeededHashMap::with_hasher(FxSeededState::with_seed(seed)),
            ..VarStatsBuilder::default()
        }
    }

    /// Entries currently held in the per-iteration window — the variable's
    /// contribution to the engine's live-record count.
    pub fn live(&self) -> usize {
        self.window.len()
    }

    /// Fold one in-loop access. An iteration boundary can retire the whole
    /// window while the access adds at most one entry, so callers tracking
    /// an aggregate live count must diff [`live`](Self::live) around the
    /// call (as the engine does) rather than assume a fixed delta.
    pub fn feed_inside(&mut self, iter: u32, elem: u64, is_write: bool) {
        if iter != self.cur_iter {
            self.retire_window();
            self.cur_iter = iter;
        }
        if is_write {
            self.stats.written_in_loop = true;
        } else {
            self.stats.read_in_loop = true;
        }
        match self.first_elem {
            None => self.first_elem = Some(elem),
            Some(f) if f != elem => self.stats.multi_elem = true,
            Some(_) => {}
        }
        let entry = self.window.entry(elem).or_insert(ElemAccess {
            first_is_read: !is_write,
            read: false,
            written: false,
        });
        if is_write {
            entry.written = true;
        } else {
            entry.read = true;
        }
    }

    /// Fold one after-loop read.
    pub fn feed_after_read(&mut self) {
        self.stats.read_after_loop = true;
    }

    /// Retire the current iteration's window into the running booleans and
    /// release its memory.
    fn retire_window(&mut self) {
        for acc in self.window.values() {
            if acc.first_is_read {
                self.stats.carried = true;
            }
            if acc.read && !acc.written {
                self.stats.stale_read = true;
            }
        }
        self.window.clear();
    }

    /// Retire the final window and return the folded statistics.
    pub fn finish(mut self) -> VarStats {
        self.retire_window();
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_then_write_is_carried() {
        let mut b = VarStatsBuilder::new();
        b.feed_inside(0, 0x10, false);
        b.feed_inside(0, 0x10, true);
        b.feed_inside(1, 0x10, false);
        b.feed_inside(1, 0x10, true);
        let s = b.finish();
        assert!(s.carried);
        assert!(s.written_in_loop && s.read_in_loop);
        assert!(
            !s.stale_read,
            "the read element is rewritten each iteration"
        );
        assert!(!s.multi_elem);
    }

    #[test]
    fn write_then_read_is_not_carried() {
        let mut b = VarStatsBuilder::new();
        b.feed_inside(0, 0x10, true);
        b.feed_inside(0, 0x10, false);
        let s = b.finish();
        assert!(!s.carried);
        assert!(!s.stale_read);
    }

    #[test]
    fn stale_read_detected_per_iteration() {
        // Iteration 0 writes elem A and reads A and B; B is never written
        // in iteration 0 → stale.
        let mut b = VarStatsBuilder::new();
        b.feed_inside(0, 0xa0, true);
        b.feed_inside(0, 0xa0, false);
        b.feed_inside(0, 0xb0, false);
        let s = b.finish();
        assert!(s.stale_read);
        assert!(s.multi_elem);
    }

    #[test]
    fn window_retires_at_iteration_boundary() {
        let mut b = VarStatsBuilder::new();
        for elem in [0x10u64, 0x18, 0x20] {
            b.feed_inside(0, elem, true);
        }
        assert_eq!(b.live(), 3);
        b.feed_inside(1, 0x10, true);
        assert_eq!(b.live(), 1, "iteration-0 window was retired");
    }

    #[test]
    fn repeated_access_does_not_grow_window() {
        let mut b = VarStatsBuilder::new();
        for _ in 0..100 {
            b.feed_inside(0, 0x10, false);
        }
        assert_eq!(b.live(), 1);
    }

    #[test]
    fn after_loop_read_flag() {
        let mut b = VarStatsBuilder::new();
        b.feed_inside(0, 0x10, true);
        b.feed_after_read();
        let s = b.finish();
        assert!(s.read_after_loop);
        assert!(!s.carried);
    }

    #[test]
    fn skipped_iterations_fold_correctly() {
        // A variable touched only in iterations 0 and 5: the boundary fold
        // must fire once, not per iteration.
        let mut b = VarStatsBuilder::new();
        b.feed_inside(0, 0x10, false);
        b.feed_inside(5, 0x10, true);
        let s = b.finish();
        assert!(s.carried, "iteration 0's lone read was first access");
    }
}
