//! Lock telemetry + runtime lock-order checking: contention heat for every
//! mutex in the cluster.
//!
//! [`ObsMutex`] and [`ObsRwLock`] are drop-in wrappers over the
//! `parking_lot` primitives. Every lock site carries a static [`LockClass`]
//! — a name plus a documented **rank** in the global lock hierarchy (the
//! full table lives in DESIGN.md §11.1) — and records per class:
//!
//! * acquisition count,
//! * contended-acquisition count (the first `try_lock` failed),
//! * a wait-time log2 histogram (contended acquisitions only), and
//! * a hold-time log2 histogram (contended acquisitions only, unless
//!   [`set_always_time`] forces timing for every acquisition).
//!
//! The release-build fast path for an uncontended acquisition is two
//! relaxed loads, a `try_lock`, and **one relaxed counter increment** on
//! this thread's stripe of the class's counter — no `Instant::now()`, no
//! registry lookup, no allocation, and no cache line shared with the other
//! threads taking the same class. Stats live in
//! atomics embedded in each `static LockClass`, so locks constructed deep
//! inside the tree layer need no registry handle; `Obs::snapshot()` folds
//! every class that has ever been acquired into the snapshot as labeled
//! `volap_lock_*` metrics plus a structured `locks` section.
//!
//! Under `cfg(debug_assertions)` a thread-local held-lock stack enforces
//! the hierarchy lockbud-style: acquiring a lock whose rank is ≤ the
//! deepest held rank (same-class reacquisition of a
//! [`LockClass::new_chainable`] class excepted — hand-over-hand tree
//! descent) records a [`LockOrderViolation`] with both class names and
//! backtrace-lite context (thread ordinal and name, current traced span)
//! and, in the default [`CheckMode::Panic`], panics so tests fail loudly.
//! Release builds compile the checker out entirely.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::registry::{
    bucket_index, bucket_le_seconds, HistogramSnapshot, MetricId, ScalarSnapshot, HIST_BUCKETS,
};
use crate::ring::{thread_ordinal, SHARDS};
use crate::snapshot::{ascending, Row};

// ---------------------------------------------------------------------------
// Global switches and registries (std primitives only: the lock layer must
// never recurse into itself)
// ---------------------------------------------------------------------------

/// Telemetry master switch. Off, every acquisition degrades to a plain
/// `parking_lot` call behind one relaxed load + branch.
static TELEMETRY: AtomicBool = AtomicBool::new(true);

/// Force hold-time timing for *every* acquisition (tests and benches that
/// want full hold histograms; production only times contended ones).
static ALWAYS_TIME: AtomicBool = AtomicBool::new(false);

/// Total order violations observed process-wide (exported as
/// `volap_lock_order_violations_total`).
static VIOLATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// Every class that has ever been acquired, registered on first use.
static CLASS_REGISTRY: Mutex<Vec<&'static LockClass>> = Mutex::new(Vec::new());

/// Recent violations (bounded; see [`take_violations`]).
static VIOLATIONS: Mutex<Vec<LockOrderViolation>> = Mutex::new(Vec::new());
#[cfg_attr(not(debug_assertions), allow(dead_code))]
const VIOLATIONS_CAP: usize = 256;

/// Optional observer invoked on every violation (the `Obs` core registers
/// one that records a `lock_order_violation` event into its event log).
#[allow(clippy::type_complexity)]
static HOOK: Mutex<Option<ViolationHook>> = Mutex::new(None);

/// Observer invoked on every recorded lock-order violation.
pub type ViolationHook = Box<dyn Fn(&LockOrderViolation) + Send + Sync>;

std::thread_local! {
    /// Cumulative nanoseconds this thread has spent blocked on contended
    /// instrumented locks. Sampled spans diff it around an operation to
    /// annotate `held_lock_wait_us`.
    static THREAD_WAIT_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Turn lock telemetry on or off process-wide (default: on;
/// [`crate::Obs::set_enabled`]). Off, every wrapper call is a plain
/// `parking_lot` acquisition behind one relaxed load and branch.
pub(crate) fn set_telemetry_enabled(on: bool) {
    TELEMETRY.store(on, Ordering::Relaxed);
}

/// Force hold-time timing for every acquisition instead of only contended
/// ones. Costs two `Instant::now()` calls per acquisition; meant for tests
/// and diagnostics, not production.
pub fn set_always_time(on: bool) {
    ALWAYS_TIME.store(on, Ordering::Relaxed);
}

/// Cumulative nanoseconds the *calling thread* has spent blocked on
/// contended instrumented locks. Monotone; diff around an operation to
/// attribute lock wait to it.
pub fn thread_wait_ns() -> u64 {
    THREAD_WAIT_NS.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// LockClass
// ---------------------------------------------------------------------------

/// Per-bucket stats block mirroring the registry's log2 histograms, but
/// const-initializable so it can live inside a `static LockClass`.
struct BucketBlock {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl BucketBlock {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    #[inline]
    fn observe_ns(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshot in the registry's cumulative-finite-buckets form.
    fn snapshot(&self, id: MetricId) -> HistogramSnapshot {
        let mut cum = 0u64;
        let mut buckets = Vec::with_capacity(HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS - 1 {
            cum += self.buckets[i].load(Ordering::Relaxed);
            buckets.push((bucket_le_seconds(i), cum));
        }
        HistogramSnapshot {
            id,
            count: self.count.load(Ordering::Relaxed),
            sum_seconds: self.sum_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            buckets,
        }
    }
}

/// One stripe of a class's acquisition counter, on a cache line of its own.
#[repr(align(64))]
struct Stripe(AtomicU64);

/// The static identity of one family of locks: a name, a documented rank in
/// the global hierarchy, and embedded contention stats.
///
/// Declare one `static` per lock site (or per homogeneous family, e.g. all
/// tree nodes) and pass `&'static` references to [`ObsMutex::new`] /
/// [`ObsRwLock::new`]. Ranks must strictly increase along every legal
/// acquisition path; the only exception is a [`LockClass::new_chainable`]
/// class, which may be re-acquired while itself is the deepest held class
/// (hand-over-hand coupling along tree paths).
pub struct LockClass {
    name: &'static str,
    rank: u16,
    chainable: bool,
    registered: AtomicBool,
    /// Acquisition count, striped by thread ordinal as the event ring's
    /// shards are: every tree-node read bumps it, so one shared counter
    /// would be a cache line all scan threads fight over.
    acquisitions: [Stripe; SHARDS],
    contended: AtomicU64,
    wait: BucketBlock,
    hold: BucketBlock,
}

impl LockClass {
    /// A class at `rank` in the global hierarchy.
    pub const fn new(name: &'static str, rank: u16) -> Self {
        Self {
            name,
            rank,
            chainable: false,
            registered: AtomicBool::new(false),
            acquisitions: [const { Stripe(AtomicU64::new(0)) }; SHARDS],
            contended: AtomicU64::new(0),
            wait: BucketBlock::new(),
            hold: BucketBlock::new(),
        }
    }

    /// A class whose locks may be re-acquired while it is itself the deepest
    /// held class (same rank, same class): hand-over-hand lock coupling.
    pub const fn new_chainable(name: &'static str, rank: u16) -> Self {
        let mut c = Self::new(name, rank);
        c.chainable = true;
        c
    }

    /// The class name (e.g. `"tree.node"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The class's rank in the global lock hierarchy.
    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// Acquisitions recorded so far (tests / diagnostics).
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    #[inline]
    fn count_acquisition(&self) {
        self.acquisitions[thread_ordinal() % SHARDS].0.fetch_add(1, Ordering::Relaxed);
    }

    /// Contended acquisitions recorded so far (tests / diagnostics).
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Register this class in the global class list on first acquisition.
    #[inline]
    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            CLASS_REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).push(self);
        }
    }

    /// Telemetry for an acquisition whose `try_lock` succeeded: the
    /// release-build fast path.
    #[inline]
    fn note_uncontended(&'static self) -> Option<Instant> {
        self.register();
        self.count_acquisition();
        if ALWAYS_TIME.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Telemetry for an acquisition that had to block for `wait`.
    fn note_contended(&'static self, wait: Duration) -> Option<Instant> {
        self.register();
        self.count_acquisition();
        self.contended.fetch_add(1, Ordering::Relaxed);
        let ns = wait.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.wait.observe_ns(ns);
        THREAD_WAIT_NS.with(|c| c.set(c.get().saturating_add(ns)));
        Some(Instant::now())
    }

    fn note_released(&'static self, acquired_at: Instant) {
        self.hold
            .observe_ns(acquired_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

impl fmt::Debug for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockClass")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("chainable", &self.chainable)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Lock-order checker (debug builds only)
// ---------------------------------------------------------------------------

/// What the order checker does when it finds a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
    /// Checker disabled: no held-stack maintenance at all.
    Off,
    /// Record the violation (global list + event hook) and continue.
    Record,
    /// Record, then panic — the default in debug builds so tests fail.
    Panic,
}

/// One detected lock-order violation, with backtrace-lite context.
#[derive(Debug, Clone, PartialEq)]
pub struct LockOrderViolation {
    /// Class being acquired (the out-of-order one).
    pub acquiring: &'static str,
    /// Rank of the class being acquired.
    pub acquiring_rank: u16,
    /// Deepest-ranked class already held by the thread.
    pub holding: &'static str,
    /// Rank of the deepest held class.
    pub holding_rank: u16,
    /// Ordinal of the offending thread (same numbering as the event ring).
    pub thread_ordinal: usize,
    /// Thread name, when set.
    pub thread_name: String,
    /// `(trace_id, span_id)` of the span open on this thread, if the
    /// operation was being traced.
    pub span: Option<(u64, u64)>,
}

impl fmt::Display for LockOrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock order violation: acquiring {} (rank {}) while holding {} (rank {}) on thread {} ({})",
            self.acquiring,
            self.acquiring_rank,
            self.holding,
            self.holding_rank,
            self.thread_ordinal,
            self.thread_name,
        )?;
        if let Some((t, s)) = self.span {
            write!(f, " in trace {t} span {s}")?;
        }
        Ok(())
    }
}

/// Total lock-order violations observed process-wide.
pub fn violation_count() -> u64 {
    VIOLATION_COUNT.load(Ordering::Relaxed)
}

/// Drain the recorded violations (bounded ring of the most recent 256).
pub fn take_violations() -> Vec<LockOrderViolation> {
    std::mem::take(&mut *VIOLATIONS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Install the process-wide violation observer (replaces any previous one).
/// The `Obs` core uses this to mirror violations into its event log.
pub fn set_violation_hook(hook: Option<ViolationHook>) {
    *HOOK.lock().unwrap_or_else(|e| e.into_inner()) = hook;
}

#[cfg_attr(not(debug_assertions), allow(dead_code))]
fn report_violation(v: LockOrderViolation, panic_after: bool) {
    VIOLATION_COUNT.fetch_add(1, Ordering::Relaxed);
    {
        let mut log = VIOLATIONS.lock().unwrap_or_else(|e| e.into_inner());
        if log.len() >= VIOLATIONS_CAP {
            log.remove(0);
        }
        log.push(v.clone());
    }
    if let Some(hook) = &*HOOK.lock().unwrap_or_else(|e| e.into_inner()) {
        hook(&v);
    }
    if panic_after {
        panic!("{v}");
    }
}

#[cfg(debug_assertions)]
mod checker {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::AtomicU8;

    /// 0 = Off, 1 = Record, 2 = Panic. Debug builds default to Panic so the
    /// whole test suite runs under enforcement.
    static MODE: AtomicU8 = AtomicU8::new(2);

    std::thread_local! {
        static HELD: RefCell<Vec<(&'static LockClass, u64)>> =
            const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(1) };
    }

    pub fn set_mode(mode: CheckMode) {
        MODE.store(
            match mode {
                CheckMode::Off => 0,
                CheckMode::Record => 1,
                CheckMode::Panic => 2,
            },
            Ordering::Relaxed,
        );
    }

    pub fn mode() -> CheckMode {
        match MODE.load(Ordering::Relaxed) {
            0 => CheckMode::Off,
            1 => CheckMode::Record,
            _ => CheckMode::Panic,
        }
    }

    /// Order-check `class` against the thread's held stack, then push it.
    /// Returns the removal token (0 = checker off, nothing pushed).
    pub fn check_and_push(class: &'static LockClass) -> u64 {
        let mode = mode();
        if mode == CheckMode::Off {
            return 0;
        }
        let deepest: Option<(&'static LockClass, u16)> = HELD.with(|h| {
            h.borrow()
                .iter()
                .map(|&(c, _)| (c, c.rank))
                .max_by_key(|&(_, r)| r)
        });
        if let Some((held, held_rank)) = deepest {
            let chained = class.chainable && std::ptr::eq(class, held);
            if class.rank < held_rank || (class.rank == held_rank && !chained) {
                report_violation(
                    LockOrderViolation {
                        acquiring: class.name,
                        acquiring_rank: class.rank,
                        holding: held.name,
                        holding_rank: held_rank,
                        thread_ordinal: crate::ring::thread_ordinal(),
                        thread_name: std::thread::current()
                            .name()
                            .unwrap_or("<unnamed>")
                            .to_string(),
                        span: crate::trace::current_span(),
                    },
                    mode == CheckMode::Panic,
                );
            }
        }
        push(class)
    }

    /// Push without an order check — non-blocking `try_*` acquisitions
    /// cannot create a wait cycle by themselves, but what they hold still
    /// constrains later blocking acquisitions.
    pub fn push(class: &'static LockClass) -> u64 {
        if mode() == CheckMode::Off {
            return 0;
        }
        let token = NEXT_TOKEN.with(|t| {
            let v = t.get();
            t.set(v + 1);
            v
        });
        HELD.with(|h| h.borrow_mut().push((class, token)));
        token
    }

    /// Remove by token; guards drop in arbitrary order (retained-path
    /// inserts release leaf-first, hand-over-hand releases parent-first).
    pub fn exit(token: u64) {
        if token == 0 {
            return;
        }
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().position(|&(_, t)| t == token) {
                held.swap_remove(pos);
            }
        });
    }

    /// Current held-stack depth of this thread (tests).
    pub fn held_depth() -> usize {
        HELD.with(|h| h.borrow().len())
    }
}

/// Set the lock-order checker's mode. Debug builds default to
/// [`CheckMode::Panic`]; release builds compile the checker out and ignore
/// this entirely. Process-global (the `VolapConfig::lock_check` knob sets
/// it at cluster start).
pub fn set_check_mode(mode: CheckMode) {
    #[cfg(debug_assertions)]
    checker::set_mode(mode);
    #[cfg(not(debug_assertions))]
    let _ = mode;
}

/// The checker's current mode ([`CheckMode::Off`] in release builds).
pub fn check_mode() -> CheckMode {
    #[cfg(debug_assertions)]
    {
        checker::mode()
    }
    #[cfg(not(debug_assertions))]
    {
        CheckMode::Off
    }
}

/// Depth of the calling thread's held-lock stack (0 when the checker is off
/// or in release builds). Test-support.
pub fn held_depth() -> usize {
    #[cfg(debug_assertions)]
    {
        checker::held_depth()
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

#[cfg(debug_assertions)]
#[inline]
fn checker_check_and_push(class: &'static LockClass) -> u64 {
    checker::check_and_push(class)
}

#[cfg(not(debug_assertions))]
#[inline]
fn checker_check_and_push(_class: &'static LockClass) -> u64 {
    0
}

#[cfg(debug_assertions)]
#[inline]
fn checker_push(class: &'static LockClass) -> u64 {
    checker::push(class)
}

#[cfg(not(debug_assertions))]
#[inline]
fn checker_push(_class: &'static LockClass) -> u64 {
    0
}

#[cfg(debug_assertions)]
#[inline]
fn checker_exit(token: u64) {
    checker::exit(token);
}

#[cfg(not(debug_assertions))]
#[inline]
fn checker_exit(_token: u64) {}

// ---------------------------------------------------------------------------
// Hold token: telemetry + checker bookkeeping released on guard drop
// ---------------------------------------------------------------------------

/// Bookkeeping attached to every guard: records hold time (when timed) and
/// pops the checker's held stack when the guard drops. Declared after the
/// raw guard in each wrapper so the lock is released first.
struct HoldToken {
    class: &'static LockClass,
    acquired_at: Option<Instant>,
    checker_token: u64,
}

impl Drop for HoldToken {
    fn drop(&mut self) {
        if let Some(at) = self.acquired_at {
            self.class.note_released(at);
        }
        checker_exit(self.checker_token);
    }
}

/// Shared acquire protocol: order-check, then fast-path `try` acquire (one
/// relaxed increment), falling back to a timed blocking acquire.
#[inline]
fn instrumented_acquire<G>(
    class: &'static LockClass,
    try_acquire: impl FnOnce() -> Option<G>,
    acquire: impl FnOnce() -> G,
) -> (G, HoldToken) {
    let checker_token = checker_check_and_push(class);
    if !TELEMETRY.load(Ordering::Relaxed) {
        return (acquire(), HoldToken { class, acquired_at: None, checker_token });
    }
    match try_acquire() {
        Some(guard) => {
            let acquired_at = class.note_uncontended();
            (guard, HoldToken { class, acquired_at, checker_token })
        }
        None => {
            let t0 = Instant::now();
            let guard = acquire();
            let acquired_at = class.note_contended(t0.elapsed());
            (guard, HoldToken { class, acquired_at, checker_token })
        }
    }
}

/// Telemetry for a successful public `try_*` acquisition (no order check:
/// non-blocking acquisitions cannot form a wait cycle by themselves).
#[inline]
fn instrumented_try<G>(class: &'static LockClass, guard: G) -> (G, HoldToken) {
    let checker_token = checker_push(class);
    let acquired_at = if TELEMETRY.load(Ordering::Relaxed) {
        class.note_uncontended()
    } else {
        None
    };
    (guard, HoldToken { class, acquired_at, checker_token })
}

// ---------------------------------------------------------------------------
// ObsMutex
// ---------------------------------------------------------------------------

/// An instrumented drop-in replacement for `parking_lot::Mutex`, tagged
/// with a static [`LockClass`].
pub struct ObsMutex<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> ObsMutex<T> {
    /// A new instrumented mutex belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self { class, inner: parking_lot::Mutex::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> ObsMutex<T> {
    /// The lock's class.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquire, recording telemetry and enforcing the lock hierarchy.
    pub fn lock(&self) -> ObsMutexGuard<'_, T> {
        let (guard, hold) =
            instrumented_acquire(self.class, || self.inner.try_lock(), || self.inner.lock());
        ObsMutexGuard { guard, _hold: hold }
    }

    /// Non-blocking acquire. Exempt from the order check (cannot block),
    /// but a held try-guard still constrains later blocking acquisitions.
    pub fn try_lock(&self) -> Option<ObsMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        let (guard, hold) = instrumented_try(self.class, guard);
        Some(ObsMutexGuard { guard, _hold: hold })
    }

    /// Uncontended access through exclusive borrow (no telemetry).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for ObsMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsMutex")
            .field("class", &self.class.name)
            .field("data", &self.inner)
            .finish()
    }
}

/// Guard from [`ObsMutex::lock`]. Field order releases the lock before the
/// hold token records.
pub struct ObsMutexGuard<'a, T: ?Sized> {
    guard: parking_lot::MutexGuard<'a, T>,
    _hold: HoldToken,
}

impl<T: ?Sized> Deref for ObsMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for ObsMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

// ---------------------------------------------------------------------------
// ObsRwLock
// ---------------------------------------------------------------------------

/// An instrumented drop-in replacement for `parking_lot::RwLock`, tagged
/// with a static [`LockClass`]. Readers and writers share one class.
pub struct ObsRwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> ObsRwLock<T> {
    /// A new instrumented reader-writer lock belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self { class, inner: parking_lot::RwLock::new(value) }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }

    /// Acquire an owned write guard through an `Arc` (the `arc_lock`
    /// pattern): the guard keeps the lock alive and can be moved across
    /// scopes — hand-over-hand write coupling down a tree.
    pub fn write_arc(this: &Arc<Self>) -> ObsArcRwLockWriteGuard<T> {
        let arc = Arc::clone(this);
        let (guard, hold) = instrumented_acquire(
            arc.class,
            || arc.inner.try_write(),
            || arc.inner.write(),
        );
        // SAFETY: the guard borrows from the `RwLock` inside `arc`, which is
        // heap-allocated and kept alive by the `Arc` stored alongside it.
        // `ObsArcRwLockWriteGuard::drop` releases the guard before the `Arc`,
        // so the borrow never outlives the allocation; the `'static`
        // lifetime is never exposed to callers.
        let guard: parking_lot::RwLockWriteGuard<'static, T> =
            unsafe { std::mem::transmute::<parking_lot::RwLockWriteGuard<'_, T>, _>(guard) };
        ObsArcRwLockWriteGuard { guard: ManuallyDrop::new(guard), _hold: hold, _arc: arc }
    }
}

impl<T: ?Sized> ObsRwLock<T> {
    /// The lock's class.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }

    /// Acquire shared, recording telemetry and enforcing the hierarchy.
    pub fn read(&self) -> ObsRwLockReadGuard<'_, T> {
        let (guard, hold) =
            instrumented_acquire(self.class, || self.inner.try_read(), || self.inner.read());
        ObsRwLockReadGuard { guard, _hold: hold }
    }

    /// Acquire exclusive, recording telemetry and enforcing the hierarchy.
    pub fn write(&self) -> ObsRwLockWriteGuard<'_, T> {
        let (guard, hold) =
            instrumented_acquire(self.class, || self.inner.try_write(), || self.inner.write());
        ObsRwLockWriteGuard { guard, _hold: hold }
    }

    /// Non-blocking shared acquire (order-check exempt, like
    /// [`ObsMutex::try_lock`]).
    pub fn try_read(&self) -> Option<ObsRwLockReadGuard<'_, T>> {
        let guard = self.inner.try_read()?;
        let (guard, hold) = instrumented_try(self.class, guard);
        Some(ObsRwLockReadGuard { guard, _hold: hold })
    }

    /// Uncontended access through exclusive borrow (no telemetry).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for ObsRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsRwLock")
            .field("class", &self.class.name)
            .field("data", &self.inner)
            .finish()
    }
}

/// Shared guard from [`ObsRwLock::read`].
pub struct ObsRwLockReadGuard<'a, T: ?Sized> {
    guard: parking_lot::RwLockReadGuard<'a, T>,
    _hold: HoldToken,
}

impl<T: ?Sized> Deref for ObsRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard from [`ObsRwLock::write`].
pub struct ObsRwLockWriteGuard<'a, T: ?Sized> {
    guard: parking_lot::RwLockWriteGuard<'a, T>,
    _hold: HoldToken,
}

impl<T: ?Sized> Deref for ObsRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for ObsRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Owned write guard from [`ObsRwLock::write_arc`].
pub struct ObsArcRwLockWriteGuard<T: ?Sized + 'static> {
    guard: ManuallyDrop<parking_lot::RwLockWriteGuard<'static, T>>,
    _hold: HoldToken,
    _arc: Arc<ObsRwLock<T>>,
}

impl<T: ?Sized> Deref for ObsArcRwLockWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for ObsArcRwLockWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for ObsArcRwLockWriteGuard<T> {
    fn drop(&mut self) {
        // SAFETY: `guard` is dropped exactly once, here, before the `Arc`
        // (and the hold token) keeping its referent alive.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

crate::record! {
    /// Per-class summary carried in `Snapshot::locks` (the full wait/hold
    /// distributions ride alongside as labeled `volap_lock_*_seconds`
    /// histograms).
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct LockClassSnapshot {
        /// Class name.
        class: String,
        /// Rank in the global hierarchy.
        rank: u16,
        /// Total acquisitions.
        acquisitions: u64,
        /// Acquisitions that had to block.
        contended: u64,
        /// Observations in the wait histogram.
        wait_count: u64,
        /// Total blocked time, seconds.
        wait_sum_seconds: f64,
        /// Observations in the hold histogram.
        hold_count: u64,
        /// Total timed hold duration, seconds.
        hold_sum_seconds: f64,
    }
}

impl Row for LockClassSnapshot {
    fn check(&self, prev: Option<&Self>) -> Result<(), String> {
        ascending(prev.map(|p| (p.rank, &p.class)), (self.rank, &self.class), "lock class")?;
        if self.contended > self.acquisitions {
            return Err(format!("{}: more contended than total acquisitions", self.class));
        }
        Ok(())
    }
}

impl LockClassSnapshot {
    /// Contended fraction of all acquisitions (0 when never acquired).
    pub fn contention_frac(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }
}

/// Snapshot every class acquired so far (sorted by rank, then name) and
/// append the metric renditions — `volap_lock_acquisitions_total{class=..}`,
/// `volap_lock_contended_total{class=..}`, `volap_lock_wait_seconds{..}`,
/// `volap_lock_hold_seconds{..}`, and the plain
/// `volap_lock_order_violations_total` — onto the given metric lists (which
/// the caller sorts).
pub fn export_into(
    counters: &mut Vec<ScalarSnapshot<u64>>,
    histograms: &mut Vec<HistogramSnapshot>,
) -> Vec<LockClassSnapshot> {
    let mut classes: Vec<&'static LockClass> =
        CLASS_REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone();
    classes.sort_by_key(|c| (c.rank, c.name));
    counters.push(ScalarSnapshot {
        id: MetricId::plain("volap_lock_order_violations_total"),
        value: VIOLATION_COUNT.load(Ordering::Relaxed),
    });
    let mut out = Vec::with_capacity(classes.len());
    for class in classes {
        let labeled = |metric: &str| MetricId::labeled(metric, "class", class.name);
        // Contended first: every contended acquisition is counted in
        // `acquisitions` before `contended`, so the pair stays ordered.
        let contended = class.contended.load(Ordering::Relaxed);
        let acquisitions = class.acquisitions();
        counters.push(ScalarSnapshot { id: labeled("volap_lock_acquisitions_total"), value: acquisitions });
        counters.push(ScalarSnapshot { id: labeled("volap_lock_contended_total"), value: contended });
        let wait = class.wait.snapshot(labeled("volap_lock_wait_seconds"));
        let hold = class.hold.snapshot(labeled("volap_lock_hold_seconds"));
        out.push(LockClassSnapshot {
            class: class.name.to_string(),
            rank: class.rank,
            acquisitions,
            contended,
            wait_count: wait.count,
            wait_sum_seconds: wait.sum_seconds,
            hold_count: hold.count,
            hold_sum_seconds: hold.sum_seconds,
        });
        histograms.extend([hold, wait]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mode-mutating tests share one serial section and restore Panic.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    // Only the debug_assertions-gated checker tests construct this.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    struct ModeGuard;
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    impl ModeGuard {
        fn set(mode: CheckMode) -> Self {
            set_check_mode(mode);
            ModeGuard
        }
    }
    impl Drop for ModeGuard {
        fn drop(&mut self) {
            set_check_mode(CheckMode::Panic);
        }
    }

    #[test]
    fn telemetry_counts_acquisitions_and_contention() {
        static C: LockClass = LockClass::new("test.telemetry", 9001);
        let m = Arc::new(ObsMutex::new(&C, 0u64));
        for _ in 0..10 {
            *m.lock() += 1;
        }
        assert_eq!(*m.lock(), 10);
        assert!(C.acquisitions() >= 11);
        // Force contention: hold the lock while another thread blocks on it.
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            *m2.lock() += 1;
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        t.join().unwrap();
        assert!(C.contended() >= 1, "blocked acquisition must count as contended");
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        let locks = export_into(&mut counters, &mut histograms);
        let me = locks.iter().find(|l| l.class == "test.telemetry").unwrap();
        assert_eq!(me.rank, 9001);
        assert!(me.acquisitions >= 12);
        assert!(me.wait_count >= 1, "contended wait must reach the histogram");
        assert!(me.wait_sum_seconds > 0.0);
        assert!(me.hold_count >= 1, "contended acquisitions time their hold");
        assert!(counters
            .iter()
            .any(|c| c.id.name == "volap_lock_acquisitions_total"
                && c.id.label.as_deref_pair() == Some(("class", "test.telemetry"))));
    }

    // Helper so the label assertion above reads sanely.
    trait DerefPair {
        fn as_deref_pair(&self) -> Option<(&str, &str)>;
    }
    impl DerefPair for Option<(String, String)> {
        fn as_deref_pair(&self) -> Option<(&str, &str)> {
            self.as_ref().map(|(k, v)| (k.as_str(), v.as_str()))
        }
    }

    #[test]
    fn rank_respecting_nesting_is_allowed() {
        static LO: LockClass = LockClass::new("test.lo", 9100);
        static HI: LockClass = LockClass::new("test.hi", 9101);
        let lo = ObsMutex::new(&LO, ());
        let hi = ObsRwLock::new(&HI, ());
        let _g1 = lo.lock();
        let _g2 = hi.read();
        let _g3 = hi.try_read();
        assert!(held_depth() == 0 || held_depth() == 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn inverted_acquisition_panics_by_default() {
        let _s = serial();
        static LO: LockClass = LockClass::new("test.inv_lo", 9110);
        static HI: LockClass = LockClass::new("test.inv_hi", 9111);
        let lo = ObsMutex::new(&LO, ());
        let hi = ObsMutex::new(&HI, ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _hi = hi.lock();
            let _lo = lo.lock(); // rank 9110 while holding 9111: must fire
        }));
        assert!(result.is_err(), "inversion must panic under CheckMode::Panic");
        let viols = take_violations();
        let v = viols.iter().find(|v| v.acquiring == "test.inv_lo").unwrap();
        assert_eq!(v.holding, "test.inv_hi");
        assert!(v.acquiring_rank < v.holding_rank);
        assert_eq!(held_depth(), 0, "unwound guards must clear the held stack");
    }

    #[test]
    #[cfg(debug_assertions)]
    fn record_mode_logs_without_panicking() {
        let _s = serial();
        let _m = ModeGuard::set(CheckMode::Record);
        static LO: LockClass = LockClass::new("test.rec_lo", 9120);
        static HI: LockClass = LockClass::new("test.rec_hi", 9121);
        let before = violation_count();
        let lo = ObsMutex::new(&LO, ());
        let hi = ObsMutex::new(&HI, ());
        {
            let _hi = hi.lock();
            let _lo = lo.lock();
        }
        assert!(violation_count() > before);
        let viols = take_violations();
        assert!(viols.iter().any(|v| v.acquiring == "test.rec_lo" && v.holding == "test.rec_hi"));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn chainable_class_self_nests_but_equal_rank_cross_class_fires() {
        let _s = serial();
        let _m = ModeGuard::set(CheckMode::Record);
        static NODE: LockClass = LockClass::new_chainable("test.chain", 9130);
        static PEER: LockClass = LockClass::new("test.chain_peer", 9130);
        let a = Arc::new(ObsRwLock::new(&NODE, 1));
        let b = Arc::new(ObsRwLock::new(&NODE, 2));
        let before = violation_count();
        // Hand-over-hand: acquire child while holding parent, release parent.
        let mut cur = ObsRwLock::write_arc(&a);
        *cur += 10;
        let next = ObsRwLock::write_arc(&b);
        cur = next;
        assert_eq!(*cur, 2);
        drop(cur);
        assert_eq!(violation_count(), before, "chainable self-nesting is legal");
        // An equal-rank acquisition of a *different* class is not.
        let peer = ObsMutex::new(&PEER, ());
        {
            let _n = a.read();
            let _p = peer.lock();
        }
        assert!(violation_count() > before);
        take_violations();
    }

    #[test]
    #[cfg(debug_assertions)]
    fn out_of_order_guard_drops_keep_the_stack_consistent() {
        static A: LockClass = LockClass::new("test.ooo_a", 9140);
        static B: LockClass = LockClass::new("test.ooo_b", 9141);
        static C: LockClass = LockClass::new("test.ooo_c", 9142);
        let (a, b, c) = (ObsMutex::new(&A, ()), ObsMutex::new(&B, ()), ObsMutex::new(&C, ()));
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        drop(gb); // middle guard first (SpanGuard-style early drop)
        drop(ga); // then the bottom
        if check_mode() != CheckMode::Off {
            assert_eq!(held_depth(), 1, "only C should remain held");
        }
        drop(gc);
        assert_eq!(held_depth(), 0);
    }

    #[test]
    fn telemetry_switch_disables_recording() {
        let _s = serial();
        static C: LockClass = LockClass::new("test.switch", 9150);
        let m = ObsMutex::new(&C, ());
        drop(m.lock());
        let after_on = C.acquisitions();
        assert!(after_on >= 1);
        set_telemetry_enabled(false);
        drop(m.lock());
        assert_eq!(C.acquisitions(), after_on, "switched off: no counting");
        set_telemetry_enabled(true);
    }

    #[test]
    fn always_time_populates_hold_histogram_without_contention() {
        let _s = serial();
        static C: LockClass = LockClass::new("test.timed", 9160);
        set_always_time(true);
        let m = ObsMutex::new(&C, ());
        {
            let _g = m.lock();
            std::thread::sleep(Duration::from_millis(2));
        }
        set_always_time(false);
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        let locks = export_into(&mut counters, &mut histograms);
        let me = locks.iter().find(|l| l.class == "test.timed").unwrap();
        assert!(me.hold_count >= 1);
        assert!(me.hold_sum_seconds >= 0.001);
    }

    #[test]
    fn thread_wait_counter_accumulates_on_contention() {
        static C: LockClass = LockClass::new("test.wait_tls", 9170);
        let m = Arc::new(ObsMutex::new(&C, ()));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let t = std::thread::spawn(move || {
            let before = thread_wait_ns();
            let _g = m2.lock();
            thread_wait_ns() - before
        });
        std::thread::sleep(Duration::from_millis(15));
        drop(g);
        let waited = t.join().unwrap();
        assert!(waited > 5_000_000, "blocked thread must accumulate wait ns, got {waited}");
    }
}
