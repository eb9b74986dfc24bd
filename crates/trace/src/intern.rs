//! Symbol interning: [`SymId`] is a dense `u32` handle into a
//! [`SymbolSpace`] — a per-analysis string table.
//!
//! Real traces repeat the same handful of symbolic names (function names,
//! block labels, variable names) millions of times. The analysis data plane
//! keys every hot map on those names, so the representation of a name
//! decides the cost of every reg-var/reg-reg map operation (paper §IV-B).
//! Interning turns each name into a `Copy` 4-byte id:
//!
//! * equality and hashing are integer operations — no string re-hashing, no
//!   `Arc` refcount traffic on the hot path;
//! * ids are **dense** (0, 1, 2, …) *within their space*, so maps keyed by
//!   symbol can be plain vectors ([`crate::namemap::NameMap`]);
//! * the id → string direction ([`SymId::as_str`]) is only needed at the
//!   edges (report rendering, DOT output, trace serialization), never
//!   inside the per-record loops.
//!
//! # Spaces: session-scoped symbol lifetimes
//!
//! The table used to be process-global and append-only — right for the
//! one-process-per-analysis CLI (the paper's usage), but a long-running
//! multi-tenant service would accumulate the union of all tenants' symbol
//! sets and grow every dense sym-indexed table to the global id high-water
//! mark. A [`SymbolSpace`] scopes that lifetime to one analysis session:
//!
//! * every space assigns its own dense ids starting at 0, so per-session
//!   tables ([`crate::namemap::NameMap`], the DDG node indexes) are sized
//!   by the *session's* symbol count, not the process's;
//! * two analyses in different spaces never observe each other's ids — a
//!   burst of interning in one session cannot inflate another session's
//!   dense tables;
//! * dropping a session space frees **everything** it interned: the lookup
//!   map, the id vector, and — once every outstanding [`SymStr`] resolved
//!   from it is gone — the string bytes. Storage is refcounted
//!   (`Arc<str>`): the space holds one reference per string, resolution
//!   hands out clones, and the bytes free when the last holder drops. A
//!   service hosting unbounded tenant streams therefore has bounded string
//!   memory: each tenant's bytes die with its session, observable live via
//!   [`arena_bytes`] (which counts session bytes up *and down*). Only the
//!   **global default space** is permanent — it lives in a `OnceLock` and
//!   never drops, so its bytes are monotonic for the life of the process:
//!   the right shape for the one-process-per-analysis CLI, where symbols
//!   live as long as the process anyway.
//!
//! **When is the default global space still appropriate?** Whenever one
//! process runs one analysis: the CLI tools, tests, benches, and any
//! embedder that doesn't multiplex tenants. `SymId::intern`/`as_str` keep
//! working unchanged against the default space, and the global table is
//! exactly as cheap as before. Reach for per-session spaces
//! (`AnalysisCtx::session()`, the `MultiAnalyzer` service layer) when one
//! process hosts many unrelated analyses.
//!
//! # Resolution and the current space
//!
//! Resolution returns a [`SymStr`] — an owned, refcounted handle that
//! derefs to `str`. The handle keeps the bytes alive by itself, so there is
//! no lifetime tie between a resolved string and the space it came from:
//! stashing a `SymStr` past its session is safe (it just pins those bytes
//! until it drops). This is what makes the API sound — session spaces free
//! their storage on drop, so resolution can never hand out a borrow that
//! outlives the table. The refcount traffic is confined to the output
//! edges; the per-record loops only ever touch `SymId`s.
//!
//! A `SymId` is 4 bytes and does not carry its space, so the space-less
//! conveniences — [`SymId::intern`], [`SymId::as_str`], `Display`, `Ord` —
//! resolve through a **thread-local current space** (the same pattern
//! rustc uses for its session-scoped `Symbol`s). The current space
//! defaults to the global one; [`SymbolSpace::enter`] installs another for
//! a lexical scope via an RAII guard. Components that belong to one
//! analysis (parser, interpreter, engines) do not rely on the thread-local
//! at all: they hold an [`crate::ctx::AnalysisCtx`] and intern/resolve
//! through it explicitly. The guard exists for the *output edges* (report
//! `Display`, DOT, trace serialization), which render via `as_str`.
//!
//! Mixing ids across spaces is a logic error: resolving a `SymId` under a
//! space that never produced it panics when the id is out of range and
//! otherwise names the wrong string. The multi-session tests assert that
//! rendered output is byte-identical across interleavings precisely
//! because no id ever crosses a space boundary.
//!
//! Determinism note: the numeric value of a [`SymId`] depends on
//! first-come interning order, which differs between serial and parallel
//! parses of the same trace. Ids therefore must never leak into output or
//! into orderings that reach output — [`SymId`]'s `Ord` compares the
//! *resolved strings* so that sorting by name stays byte-identical to the
//! pre-interning code, and the property tests assert report/DOT
//! byte-identity across parse modes.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A handle to an interned symbol string.
///
/// `Copy`, 4 bytes, integer equality/hash. Obtain via [`SymId::intern`] (or
/// [`SymbolSpace::intern`]), resolve via [`SymId::as_str`] (or
/// [`SymbolSpace::resolve`]). Within one space, two `SymId`s are equal iff
/// their strings are equal (each space's table is a bijection); ids from
/// different spaces are unrelated and must not be mixed.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymId(u32);

/// An owned, refcounted handle to a resolved symbol string.
///
/// What [`SymbolSpace::resolve`] and [`SymId::as_str`] return. Derefs to
/// `str` (and implements `Display`, `AsRef<str>`, `Borrow<str>`, string
/// comparisons), so it drops into most `&str` positions with at most a `&`.
/// The handle owns a reference to the bytes: holding it keeps the string
/// alive even after the [`SymbolSpace`] that interned it drops, which is
/// what lets session spaces reclaim storage without any dangling-borrow
/// hazard. Cloning is a refcount bump.
#[derive(Clone)]
pub struct SymStr(Arc<str>);

impl SymStr {
    /// View as a plain string slice (borrowing from this handle).
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Unwrap into the shared `Arc<str>` (no copy — the same allocation the
    /// space holds).
    #[inline]
    pub fn into_arc(self) -> Arc<str> {
        self.0
    }
}

impl Deref for SymStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for SymStr {
    #[inline]
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for SymStr {
    #[inline]
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<SymStr> for Arc<str> {
    fn from(s: SymStr) -> Arc<str> {
        s.0
    }
}

impl fmt::Display for SymStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for SymStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq for SymStr {
    fn eq(&self, other: &Self) -> bool {
        // Arc pointer equality short-circuits the common same-space case.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for SymStr {}

/// Hashes as the underlying `str` (required to agree with `Borrow<str>` so
/// maps keyed by `SymStr` can be probed with `&str`).
impl Hash for SymStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialOrd for SymStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SymStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialEq<str> for SymStr {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for SymStr {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for SymStr {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<SymStr> for &str {
    fn eq(&self, other: &SymStr) -> bool {
        *self == &*other.0
    }
}

struct Interner {
    // Deliberately SipHash (std's seeded default), NOT FxHash: this is the
    // one map keyed by *untrusted strings* from the trace file, and FxHash
    // is deterministic and collision-craftable. The integer-keyed hot maps
    // downstream are where Fx pays; this table is hit once per symbol
    // occurrence at most (and far less behind the per-parser memo).
    // `Arc<str>: Borrow<str>` lets the hit path probe with a plain `&str`.
    map: HashMap<Arc<str>, u32>,
    strs: Vec<Arc<str>>,
}

impl Interner {
    fn empty() -> Interner {
        Interner {
            map: HashMap::new(),
            strs: Vec::new(),
        }
    }
}

/// String bytes owned by the never-dropped global space. Monotonic by
/// construction: the global space lives in a `OnceLock` for the life of the
/// process and only ever appends.
static ARENA_BYTES: AtomicUsize = AtomicUsize::new(0);

/// String bytes currently owned by live session spaces. Goes up on session
/// interning and back down when a space drops — the reclamation the soak
/// test pins. (Outstanding [`SymStr`] handles can keep individual strings
/// alive past their space, but the gauge tracks *space* ownership: what a
/// tenant's table pins.)
static SESSION_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Current process-wide interned-string footprint in bytes (string payload
/// only; map/set overhead is excluded): the monotonic global-space table
/// plus the bytes owned by live session spaces. Not monotonic — dropping a
/// session space reclaims its contribution. Published per session as the
/// `intern.arena_bytes` ledger gauge.
pub fn arena_bytes() -> usize {
    ARENA_BYTES.load(Ordering::Relaxed) + SESSION_BYTES.load(Ordering::Relaxed)
}

struct SpaceInner {
    /// Process-unique tag, for diagnostics (`{:?}` of a space names it).
    /// Tag 0 is the global space — the only one that never drops.
    tag: u64,
    table: RwLock<Interner>,
    /// String bytes this space's table holds (what dropping the space gives
    /// back). Atomic so [`SymbolSpace::owned_bytes`] and the drop
    /// accounting never touch the table lock — a panic mid-intern (poisoned
    /// lock) cannot drift the process-wide gauges.
    owned_bytes: AtomicUsize,
}

impl Drop for SpaceInner {
    fn drop(&mut self) {
        // Give the session's bytes back to the process-wide gauge. The
        // `Arc<str>` storage itself frees with the `Interner` (modulo
        // strings still pinned by outstanding `SymStr` handles). The global
        // space lives in a `OnceLock` and never drops.
        if self.tag != 0 {
            SESSION_BYTES.fetch_sub(self.owned_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// A session-scoped symbol table. Cheap to clone (an `Arc` handle); all
/// clones address the same table.
#[derive(Clone)]
pub struct SymbolSpace {
    inner: Arc<SpaceInner>,
}

thread_local! {
    static CURRENT: RefCell<SymbolSpace> = RefCell::new(SymbolSpace::global());
}

impl SymbolSpace {
    /// A fresh, empty space with its own dense id sequence.
    pub fn new() -> SymbolSpace {
        static NEXT_TAG: AtomicU64 = AtomicU64::new(1);
        SymbolSpace {
            inner: Arc::new(SpaceInner {
                tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
                table: RwLock::new(Interner::empty()),
                owned_bytes: AtomicUsize::new(0),
            }),
        }
    }

    /// The default process-wide space — what [`SymId::intern`] uses when no
    /// other space has been [`enter`](SymbolSpace::enter)ed. Tag 0.
    pub fn global() -> SymbolSpace {
        static GLOBAL: OnceLock<SymbolSpace> = OnceLock::new();
        GLOBAL
            .get_or_init(|| SymbolSpace {
                inner: Arc::new(SpaceInner {
                    tag: 0,
                    table: RwLock::new(Interner::empty()),
                    owned_bytes: AtomicUsize::new(0),
                }),
            })
            .clone()
    }

    /// The thread's current space (the global one unless a guard is live).
    pub fn current() -> SymbolSpace {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Install this space as the thread's current space until the returned
    /// guard drops (restoring the previous one — guards nest).
    ///
    /// Resolution-only conveniences ([`SymId::as_str`], `Display`, `Ord`)
    /// go through the current space; a session must hold its guard across
    /// every output edge that renders its ids.
    #[must_use = "the space is only current while the guard is alive"]
    pub fn enter(&self) -> SpaceGuard {
        let prev = CURRENT.with(|c| c.replace(self.clone()));
        SpaceGuard { prev }
    }

    /// Intern `s` in this space, returning its dense id. One hash lookup on
    /// the hit path. On the miss path the bytes are copied once into the
    /// space's refcounted storage — freed when the space drops (session
    /// spaces) or never (the global space, which lives for the process).
    pub fn intern(&self, s: &str) -> SymId {
        if let Some(&id) = self
            .inner
            .table
            .read()
            .expect("interner poisoned")
            .map
            .get(s)
        {
            return SymId(id);
        }
        let mut w = self.inner.table.write().expect("interner poisoned");
        // Double-check: another thread may have interned between the locks.
        if let Some(&id) = w.map.get(s) {
            return SymId(id);
        }
        let stored: Arc<str> = Arc::from(s);
        self.inner.owned_bytes.fetch_add(s.len(), Ordering::Relaxed);
        if self.inner.tag == 0 {
            ARENA_BYTES.fetch_add(s.len(), Ordering::Relaxed);
        } else {
            SESSION_BYTES.fetch_add(s.len(), Ordering::Relaxed);
        }
        // `expect` is unreachable from hostile input in practice: 4G
        // distinct symbols would require ≥4 GiB of distinct trace bytes,
        // and bounded deployments trip `ResourceLimits::max_symbols` long
        // before. Kept as an expect because a wrapped id would silently
        // alias two symbols — corruption, not an error state.
        let id = u32::try_from(w.strs.len()).expect("interner overflow: > 4G distinct symbols");
        w.strs.push(stored.clone());
        w.map.insert(stored, id);
        SymId(id)
    }

    /// The string for `id`, which must have been interned in this space.
    /// The returned handle owns the bytes — see [`SymStr`].
    ///
    /// # Panics
    ///
    /// Panics when `id` was interned in a space with more symbols than this
    /// one — the detectable half of cross-space id mixing.
    pub fn resolve(&self, id: SymId) -> SymStr {
        self.try_resolve(id).unwrap_or_else(|| {
            panic!(
                "SymId({}) is not from {:?} ({} symbols): symbol ids must be \
                 resolved in the space that interned them",
                id.0,
                self,
                self.len()
            )
        })
    }

    /// The string for `id`, or `None` when the id is out of this space's
    /// range.
    pub fn try_resolve(&self, id: SymId) -> Option<SymStr> {
        self.inner
            .table
            .read()
            .expect("interner poisoned")
            .strs
            .get(id.0 as usize)
            .cloned()
            .map(SymStr)
    }

    /// Number of distinct symbols interned in this space.
    pub fn len(&self) -> usize {
        self.inner
            .table
            .read()
            .expect("interner poisoned")
            .strs
            .len()
    }

    /// True when nothing has been interned in this space.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// String bytes owned by this space — the memory a session gives back
    /// when it drops. For the global space this is the process-lifetime
    /// footprint (never reclaimed — the space never drops), which is why
    /// per-session `max_arena_bytes`/`max_symbols` ceilings should be
    /// checked against a *session* space (`AnalysisCtx::session()`), not
    /// the global one.
    pub fn owned_bytes(&self) -> usize {
        self.inner.owned_bytes.load(Ordering::Relaxed)
    }

    /// True when `self` and `other` are handles to the same table.
    pub fn same_space(&self, other: &SymbolSpace) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Every symbol in this space, in id order.
    #[cfg(test)]
    pub(crate) fn symbols(&self) -> Vec<SymStr> {
        let table = self.inner.table.read().expect("interner poisoned");
        table.strs.iter().cloned().map(SymStr).collect()
    }
}

impl Default for SymbolSpace {
    fn default() -> Self {
        SymbolSpace::new()
    }
}

impl fmt::Debug for SymbolSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.inner.tag == 0 {
            write!(f, "SymbolSpace(global)")
        } else {
            write!(f, "SymbolSpace(#{})", self.inner.tag)
        }
    }
}

/// RAII guard from [`SymbolSpace::enter`]; restores the previous current
/// space on drop.
pub struct SpaceGuard {
    prev: SymbolSpace,
}

impl Drop for SpaceGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.clone());
    }
}

impl SymId {
    /// Intern `s` in the thread's current space (the global one unless a
    /// session guard is live). Components owned by one analysis should
    /// prefer `ctx.intern(..)` / [`SymbolSpace::intern`].
    pub fn intern(s: &str) -> SymId {
        CURRENT.with(|c| c.borrow().intern(s))
    }

    /// The interned string, resolved in the thread's current space. The
    /// returned [`SymStr`] owns the bytes: it stays valid even if the
    /// session space that interned it drops first.
    pub fn as_str(self) -> SymStr {
        CURRENT.with(|c| c.borrow().resolve(self))
    }

    /// The raw dense index (0-based interning order within the id's space).
    /// For building dense tables; never meaningful across processes or
    /// spaces, and never ordered — interning order differs between serial
    /// and parallel parses.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl fmt::Debug for SymId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The id alone is meaningless in test output; show the string.
        write!(f, "{:?}", self.as_str())
    }
}

/// String order, **not** id order: sorting interned names must produce the
/// same byte-identical reports the `Arc<str>` representation did, and id
/// order varies with parse parallelism. Only used at the output edges.
impl Ord for SymId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(&other.as_str())
    }
}

impl PartialOrd for SymId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<&str> for SymId {
    fn from(s: &str) -> SymId {
        SymId::intern(s)
    }
}

impl PartialEq<str> for SymId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for SymId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_bijective() {
        let a = SymId::intern("intern_test_sum");
        let b = SymId::intern("intern_test_sum");
        let c = SymId::intern("intern_test_other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "intern_test_sum");
        assert_eq!(c.as_str(), "intern_test_other");
    }

    #[test]
    fn round_trips_through_strings() {
        for s in ["p", "key_array", "0", "main", "κλειδί", ""] {
            assert_eq!(SymId::intern(s).as_str(), s);
            assert_eq!(SymId::intern(&SymId::intern(s).as_str()), SymId::intern(s));
        }
    }

    #[test]
    fn order_is_string_order_not_id_order() {
        // Intern in reverse lexicographic order so id order and string
        // order disagree.
        let z = SymId::intern("intern_test_zzz");
        let a = SymId::intern("intern_test_aaa");
        assert!(a < z, "Ord must compare strings");
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_and_str_equality() {
        let s = SymId::intern("intern_test_disp");
        assert_eq!(s.to_string(), "intern_test_disp");
        assert!(s == "intern_test_disp");
        assert!(s != "intern_test_di");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let ids: Vec<SymId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| SymId::intern("intern_test_racy")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn spaces_assign_independent_dense_ids() {
        let a = SymbolSpace::new();
        let b = SymbolSpace::new();
        // Interleave interning across the spaces: each space's ids must be
        // dense from 0, entirely unaffected by the other's activity.
        let a_x = a.intern("space_test_x");
        let b_y = b.intern("space_test_y");
        let b_z = b.intern("space_test_z");
        let a_w = a.intern("space_test_w");
        assert_eq!(a_x.index(), 0);
        assert_eq!(a_w.index(), 1);
        assert_eq!(b_y.index(), 0);
        assert_eq!(b_z.index(), 1);
        // Same string, different spaces: ids are per-space, and each
        // session space owns its *own* copy of the bytes (no cross-session
        // sharing — that's what makes drop reclaim them).
        let a_y = a.intern("space_test_y");
        assert_eq!(a_y.index(), 2);
        assert_eq!(a.resolve(a_y), b.resolve(b_y));
        assert!(!Arc::ptr_eq(
            &a.resolve(a_y).into_arc(),
            &b.resolve(b_y).into_arc()
        ));
    }

    #[test]
    fn spaces_never_observe_each_others_ids() {
        let a = SymbolSpace::new();
        let b = SymbolSpace::new();
        // Grow b far past a.
        for i in 0..100 {
            b.intern(&format!("space_iso_{i}"));
        }
        let only_a = a.intern("space_iso_lone");
        assert_eq!(only_a.index(), 0, "b's interning must not shift a's ids");
        assert_eq!(a.len(), 1);
        // An id b produced beyond a's range cannot resolve in a.
        let big_b = b.intern("space_iso_99_again");
        assert_eq!(a.try_resolve(big_b), None);
        let panicked = std::panic::catch_unwind(|| a.resolve(big_b));
        assert!(panicked.is_err(), "cross-space resolve must panic");
    }

    #[test]
    fn enter_guard_redirects_and_restores() {
        let session = SymbolSpace::new();
        let before = SymId::intern("guard_test_global");
        {
            let _g = session.enter();
            assert!(SymbolSpace::current().same_space(&session));
            let inside = SymId::intern("guard_test_session");
            assert_eq!(inside.index(), 0, "fresh space starts at id 0");
            assert_eq!(inside.as_str(), "guard_test_session");
        }
        assert!(SymbolSpace::current().same_space(&SymbolSpace::global()));
        assert_eq!(before.as_str(), "guard_test_global");
        assert_eq!(session.len(), 1);
    }

    #[test]
    fn guards_nest() {
        let outer = SymbolSpace::new();
        let inner = SymbolSpace::new();
        let _go = outer.enter();
        {
            let _gi = inner.enter();
            assert!(SymbolSpace::current().same_space(&inner));
        }
        assert!(SymbolSpace::current().same_space(&outer));
    }

    #[test]
    fn dropping_a_space_keeps_other_spaces_intact() {
        let keep = SymbolSpace::new();
        let kept = keep.intern("space_drop_kept");
        {
            let gone = SymbolSpace::new();
            gone.intern("space_drop_gone");
        }
        assert_eq!(keep.resolve(kept), "space_drop_kept");
    }

    #[test]
    fn resolved_strings_outlive_their_space() {
        // The soundness contract SymStr exists for: a resolved string is
        // owned, so safe code stashing it past the session reads valid
        // bytes (it pins them), never freed memory.
        let space = SymbolSpace::new();
        let id = space.intern("space_outlive_probe");
        let resolved = space.resolve(id);
        drop(space);
        assert_eq!(resolved, "space_outlive_probe");
        assert_eq!(resolved.as_str().len(), "space_outlive_probe".len());
    }

    #[test]
    fn arena_bytes_counts_global_growth_and_session_bytes() {
        let s = "arena_bytes_test_distinct_string";
        let before = arena_bytes();
        let space = SymbolSpace::new();
        space.intern(s);
        assert!(
            arena_bytes() >= before + s.len(),
            "a live session's bytes must show in the gauge"
        );
        // Re-interning in the same space is free.
        let owned = space.owned_bytes();
        space.intern(s);
        assert_eq!(space.owned_bytes(), owned);
        // Global-space interning grows the (monotonic) global table.
        let g_before = arena_bytes();
        SymbolSpace::global().intern("arena_bytes_test_global_only_sym");
        assert!(arena_bytes() >= g_before + "arena_bytes_test_global_only_sym".len());
    }

    #[test]
    fn dropping_a_session_space_reclaims_its_bytes() {
        let syms: Vec<String> = (0..64).map(|i| format!("arena_reclaim_test_{i}")).collect();
        let total: usize = syms.iter().map(|s| s.len()).sum();
        let space = SymbolSpace::new();
        for s in &syms {
            space.intern(s);
        }
        assert_eq!(space.owned_bytes(), total);
        let while_live = arena_bytes();
        drop(space);
        // Other tests intern concurrently, so compare against the lower
        // bound: the gauge must have given this space's bytes back.
        assert!(
            arena_bytes() <= while_live - total + 4096,
            "dropping the space must reclaim its {total} owned bytes"
        );
    }

    #[test]
    fn global_space_bytes_are_monotonic_process_footprint() {
        let before = SymbolSpace::global().owned_bytes();
        let probe = "global_owned_bytes_probe";
        SymbolSpace::global().intern(probe);
        let after = SymbolSpace::global().owned_bytes();
        assert!(
            after >= before && after >= probe.len(),
            "the global space reports its own (never-reclaimed) footprint"
        );
    }

    #[test]
    fn symstr_works_as_a_string_in_maps_and_comparisons() {
        let space = SymbolSpace::new();
        let s = space.resolve(space.intern("symstr_test_key"));
        // Borrow<str> + Hash agreement: probe a SymStr-keyed map with &str.
        let mut m: HashMap<SymStr, u32> = HashMap::new();
        m.insert(s.clone(), 7);
        assert_eq!(m.get("symstr_test_key"), Some(&7));
        // Deref / AsRef / Display / ordering.
        assert_eq!(&s[0..6], "symstr");
        assert_eq!(s.as_ref(), "symstr_test_key");
        assert_eq!(s.to_string(), "symstr_test_key");
        assert_eq!(s, "symstr_test_key".to_string());
        let t = space.resolve(space.intern("symstr_test_zzz"));
        assert!(s < t);
    }

    #[test]
    fn global_space_is_one_table() {
        let a = SymbolSpace::global();
        let b = SymbolSpace::global();
        assert!(a.same_space(&b));
        let id = a.intern("global_test_shared");
        assert_eq!(b.resolve(id), "global_test_shared");
    }
}
