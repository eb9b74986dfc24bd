//! Bounded per-variable access statistics — the input to the
//! classification heuristics, folded incrementally.
//!
//! The batch classifier (`autocheck_core::classify`) walks a variable's
//! full R/W event sequence and derives a handful of booleans. This module
//! captures that derivation as an **online fold**: events are pushed one at
//! a time and the per-iteration element window is retired the moment the
//! iteration number advances, so a variable's live state is bounded by the
//! elements it touches in one iteration (its dense window by fixed caps) —
//! never by the trace length.
//!
//! `autocheck-core`'s batch path uses this same builder for its
//! event-slice classification, so the two pipelines share one fold and one
//! decision function and cannot drift apart.

use fxhash::{FxSeededHashMap, FxSeededState};

#[cfg(test)]
mod reference;

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

/// Dense window slots one variable may hold: elements up to this many
/// 8-byte strides past its origin get a slot (4 bytes each), farther ones
/// go to the hashed window.
pub const DENSE_SLOTS_PER_VAR: usize = 1 << 16;

/// Dense window slots one engine hands out across all its variables
/// (4 MiB of slots), so that a trace touching one far element of many
/// variables cannot make the windows' memory outgrow their live elements
/// by more than this.
pub const DENSE_SLOTS_PER_ENGINE: usize = 1 << 20;

/// Element stride of the dense window, in bytes.
const STRIDE: u64 = 8;

/// The fewest slots a dense window grows to at once.
const MIN_DENSE: usize = 64;

/// Window flags of one element in the current iteration.
const READ: u8 = 1;
const WRITTEN: u8 = 2;

/// A dense slot's stamp is `epoch << 2 | flags`: the slot belongs to the
/// current iteration iff its epoch is the builder's.
const FLAG_BITS: u32 = 2;
const MAX_EPOCH: u32 = u32::MAX >> FLAG_BITS;

/// Incremental fold of one variable's access events into [`VarStats`].
///
/// Feed in-loop events via [`feed_inside`](VarStatsBuilder::feed_inside)
/// (in time order — iteration numbers must be non-decreasing, which trace
/// order guarantees) and after-loop reads via
/// [`feed_after_read`](VarStatsBuilder::feed_after_read); then call
/// [`finish`](VarStatsBuilder::finish).
///
/// The per-iteration element window has two parts. Elements at 8-byte
/// strides at or above the variable's origin (its base address in the
/// engine's builders, else the first element fed) index a dense array of
/// epoch-stamped slots, grown on demand up to [`DENSE_SLOTS_PER_VAR`];
/// unaligned, below-origin and farther elements, and any the dense budget
/// cannot cover, go to a hashed map. Each access
/// folds into the running booleans as it happens — a first touch that
/// reads sets `carried`, and a count of elements read but not yet written
/// decides `stale_read` — so retiring an iteration is O(1): bump the
/// epoch, reset two counts, and clear the hashed part if it holds any.
#[derive(Clone, Debug)]
pub struct VarStatsBuilder {
    stats: VarStats,
    cur_iter: u32,
    /// Where dense slot 0 sits.
    origin: Option<u64>,
    /// Dense slot `i` covers element `origin + 8 * i`.
    dense: Vec<u32>,
    /// The current iteration's epoch (0 stamps no iteration).
    epoch: u32,
    /// Dense slots stamped with the current epoch.
    dense_live: usize,
    /// Elements of the current iteration read and not (yet) written.
    unwritten_reads: usize,
    /// The hashed part, keyed by element *addresses* from the trace —
    /// seeded per session when the source is untrusted (seed 0 =
    /// deterministic Fx).
    window: FxSeededHashMap<u64, u8>,
    first_elem: Option<u64>,
}

impl Default for VarStatsBuilder {
    fn default() -> VarStatsBuilder {
        VarStatsBuilder::with_seed(0)
    }
}

impl VarStatsBuilder {
    /// A fresh builder with deterministic element-address hashing.
    pub fn new() -> VarStatsBuilder {
        VarStatsBuilder::with_seed(0)
    }

    /// A builder whose hashed window hashes with `seed` (the session's
    /// address seed for untrusted traces; 0 = deterministic), with its
    /// dense window counting from the first element fed.
    pub fn with_seed(seed: u64) -> VarStatsBuilder {
        VarStatsBuilder {
            stats: VarStats::default(),
            cur_iter: 0,
            origin: None,
            dense: Vec::new(),
            epoch: 1,
            dense_live: 0,
            unwritten_reads: 0,
            window: FxSeededHashMap::with_hasher(FxSeededState::with_seed(seed)),
            first_elem: None,
        }
    }

    /// [`with_seed`](Self::with_seed) for the variable at `base`: its dense
    /// window counts from the base.
    pub(crate) fn for_base(seed: u64, base: u64) -> VarStatsBuilder {
        VarStatsBuilder {
            origin: Some(base),
            ..VarStatsBuilder::with_seed(seed)
        }
    }

    /// Distinct elements touched in the current iteration — the variable's
    /// contribution to the engine's live-record count.
    #[inline]
    pub fn live(&self) -> usize {
        self.dense_live + self.window.len()
    }

    /// Fold one in-loop access. An iteration boundary can retire the whole
    /// window while the access adds at most one entry, so callers tracking
    /// an aggregate live count must diff [`live`](Self::live) around the
    /// call (as the engine does) rather than assume a fixed delta.
    pub fn feed_inside(&mut self, iter: u32, elem: u64, is_write: bool) {
        let mut budget = DENSE_SLOTS_PER_VAR;
        self.feed_inside_within(iter, elem, is_write, &mut budget);
    }

    /// [`feed_inside`](Self::feed_inside), growing the dense window only as
    /// far as `budget` slots allow and taking what it grows out of it: the
    /// engine passes one budget for all its variables.
    #[inline]
    pub(crate) fn feed_inside_within(
        &mut self,
        iter: u32,
        elem: u64,
        is_write: bool,
        budget: &mut usize,
    ) {
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
        let flag = if is_write { WRITTEN } else { READ };
        match self.dense_slot(elem, budget) {
            Some(i) => {
                let stamp = self.dense[i];
                let prior =
                    (stamp >> FLAG_BITS == self.epoch).then_some(stamp as u8 & (READ | WRITTEN));
                if prior.is_none() {
                    self.dense_live += 1;
                }
                let flags = self.access(prior, flag);
                self.dense[i] = self.epoch << FLAG_BITS | u32::from(flags);
            }
            None => {
                let prior = self.window.get(&elem).copied();
                let flags = self.access(prior, flag);
                self.window.insert(elem, flags);
            }
        }
    }

    /// Fold one access of `flag` into an element whose window flags were
    /// `prior` (`None`: first touch this iteration); the new flags.
    #[inline]
    fn access(&mut self, prior: Option<u8>, flag: u8) -> u8 {
        match prior {
            None => {
                if flag == READ {
                    self.stats.carried = true;
                    self.unwritten_reads += 1;
                }
                flag
            }
            Some(READ) if flag == WRITTEN => {
                self.unwritten_reads -= 1;
                READ | WRITTEN
            }
            Some(f) => f | flag,
        }
    }

    /// The dense slot of `elem`, growing the window to cover it when the
    /// per-variable cap and `budget` allow. A refusal is final: covering
    /// that element later would cost at least what it cost then, and the
    /// budget only shrinks, so no element is ever tracked in both parts.
    #[inline]
    fn dense_slot(&mut self, elem: u64, budget: &mut usize) -> Option<usize> {
        let origin = *self.origin.get_or_insert(elem);
        let off = elem.checked_sub(origin)?;
        if off % STRIDE != 0 || off / STRIDE >= DENSE_SLOTS_PER_VAR as u64 {
            return None;
        }
        let i = (off / STRIDE) as usize;
        if i >= self.dense.len() {
            let want = (i + 1)
                .next_power_of_two()
                .clamp(MIN_DENSE, DENSE_SLOTS_PER_VAR);
            let grow = want - self.dense.len();
            if grow > *budget {
                return None;
            }
            *budget -= grow;
            self.dense.resize(want, 0);
        }
        Some(i)
    }

    /// Fold one after-loop read.
    pub fn feed_after_read(&mut self) {
        self.stats.read_after_loop = true;
    }

    /// Retire the current iteration's window into the running booleans: a
    /// new epoch for the dense part (re-zeroing it only when the epochs run
    /// out), and the hashed part cleared. Neither part releases its memory:
    /// the next iteration reuses it.
    fn retire_window(&mut self) {
        if self.unwritten_reads > 0 {
            self.stats.stale_read = true;
        }
        self.unwritten_reads = 0;
        self.dense_live = 0;
        if self.epoch == MAX_EPOCH {
            self.dense.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if !self.window.is_empty() {
            self.window.clear();
        }
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
    use proptest::prelude::*;
    use proptest::TestRng;

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

    #[test]
    fn a_far_element_goes_to_the_hashed_window() {
        let base = 0x7f00_0000_0000;
        let mut b = VarStatsBuilder::for_base(0, base);
        b.feed_inside(0, base + 8, true);
        b.feed_inside(0, base + 8 * DENSE_SLOTS_PER_VAR as u64, false);
        b.feed_inside(0, base + 3, false);
        b.feed_inside(0, base - 8, true);
        assert_eq!((b.live(), b.dense.len(), b.window.len()), (4, MIN_DENSE, 3));
        b.feed_inside(1, base + 8, false);
        assert_eq!(b.live(), 1, "both parts retired");
        let s = b.finish();
        assert!(s.carried && s.stale_read && s.multi_elem);
    }

    #[test]
    fn a_spent_budget_leaves_growth_to_the_hashed_window() {
        let base = 0x1000;
        let mut budget = MIN_DENSE;
        let mut b = VarStatsBuilder::for_base(0, base);
        b.feed_inside_within(0, base, true, &mut budget);
        assert_eq!((budget, b.dense.len()), (0, MIN_DENSE));
        b.feed_inside_within(0, base + 8 * MIN_DENSE as u64, true, &mut budget);
        assert_eq!((b.dense.len(), b.window.len(), b.live()), (MIN_DENSE, 1, 2));
    }

    #[test]
    fn epochs_wrap_without_stale_slots() {
        // Element 0 is written under epoch 1; after the epochs run out and
        // start again at 1, its slot must read as untouched.
        let mut b = VarStatsBuilder::for_base(0, 0);
        b.feed_inside(0, 0, true);
        b.epoch = MAX_EPOCH;
        b.feed_inside(1, 0, false);
        assert_eq!((b.epoch, b.live()), (1, 1), "the wrap re-zeroed every slot");
        let s = b.finish();
        assert!(s.carried && s.stale_read, "a first read, never written");
    }

    /// One access stream for the property below: iterations that stay,
    /// step or jump, after-loop reads, and elements at aligned, unaligned,
    /// below-base and far offsets from `base`.
    fn accesses(rng: &mut TestRng, base: u64, len: usize) -> Vec<(u32, u64, Option<bool>)> {
        let mut iter = 0u32;
        (0..len)
            .map(|_| {
                iter += match rng.below(10) {
                    0..=6 => 0,
                    7 | 8 => 1,
                    _ => rng.below(5) as u32,
                };
                let span = if rng.below(4) == 0 { 1 << 18 } else { 24 };
                let k = rng.below(span);
                let elem = match rng.below(8) {
                    0 => base + 8 * k + 1 + rng.below(7),
                    1 => base.wrapping_sub(8 * (k + 1)),
                    2 => base.wrapping_add(rng.next_u64() >> 1),
                    _ => base + 8 * k,
                };
                let access = match rng.below(12) {
                    0 => None,
                    n => Some(n % 2 == 0),
                };
                (iter, elem, access)
            })
            .collect()
    }

    proptest! {
        #[test]
        fn the_dense_window_folds_like_the_hashed_one(
            seed in any::<u64>(),
            len in 0usize..400,
            budget in 0usize..400,
        ) {
            let mut rng = TestRng::new(seed);
            let base = 0x7f00_0000_0000 + 8 * rng.below(1 << 20);
            let stream = accesses(&mut rng, base, len);
            let dense = [
                VarStatsBuilder::for_base(seed, base),
                VarStatsBuilder::with_seed(seed),
                VarStatsBuilder::for_base(seed, base),
            ];
            let budgets = [usize::MAX, usize::MAX, budget];
            for (mut ours, mut budget) in dense.into_iter().zip(budgets) {
                let mut theirs = reference::VarStatsBuilder::with_seed(seed);
                for &(iter, elem, access) in &stream {
                    match access {
                        None => {
                            ours.feed_after_read();
                            theirs.feed_after_read();
                        }
                        Some(is_write) => {
                            ours.feed_inside_within(iter, elem, is_write, &mut budget);
                            theirs.feed_inside(iter, elem, is_write);
                        }
                    }
                    prop_assert_eq!(ours.live(), theirs.live());
                }
                prop_assert_eq!(ours.finish(), theirs.finish());
            }
        }
    }
}
