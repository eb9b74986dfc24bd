//! A test-only copy of [`super::VarStatsBuilder`] as it was before its
//! per-iteration window became dense: one hashed map of elements, walked
//! and cleared at every iteration boundary. The property test holds the
//! dense builder to it.

use super::VarStats;
use fxhash::{FxSeededHashMap, FxSeededState};

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
pub(crate) struct VarStatsBuilder {
    stats: VarStats,
    cur_iter: u32,
    /// Keyed by element *addresses* from the trace — seeded per session
    /// when the source is untrusted (seed 0 = deterministic Fx).
    window: FxSeededHashMap<u64, ElemAccess>,
    first_elem: Option<u64>,
}

impl VarStatsBuilder {
    /// A builder whose element-address window hashes with `seed` (the
    /// session's address seed for untrusted traces; 0 = deterministic).
    pub(crate) fn with_seed(seed: u64) -> VarStatsBuilder {
        VarStatsBuilder {
            window: FxSeededHashMap::with_hasher(FxSeededState::with_seed(seed)),
            ..VarStatsBuilder::default()
        }
    }

    /// Entries currently held in the per-iteration window — the variable's
    /// contribution to the engine's live-record count.
    pub(crate) fn live(&self) -> usize {
        self.window.len()
    }

    /// Fold one in-loop access. An iteration boundary can retire the whole
    /// window while the access adds at most one entry, so callers tracking
    /// an aggregate live count must diff [`live`](Self::live) around the
    /// call (as the engine does) rather than assume a fixed delta.
    pub(crate) fn feed_inside(&mut self, iter: u32, elem: u64, is_write: bool) {
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
    pub(crate) fn feed_after_read(&mut self) {
        self.stats.read_after_loop = true;
    }

    /// Retire the current iteration's window into the running booleans and
    /// clear it (the map keeps its capacity).
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
    pub(crate) fn finish(mut self) -> VarStats {
        self.retire_window();
        self.stats
    }
}
