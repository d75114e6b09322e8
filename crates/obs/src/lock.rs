//! Lock classes and the debug-build lock-order checker.
//!
//! [`ObsMutex`] and [`ObsRwLock`] are drop-in wrappers over the
//! `parking_lot` primitives. Every lock site carries a static [`LockClass`]
//! — a name plus a documented **rank** in the global lock hierarchy (the
//! full table lives in DESIGN.md §11.1).
//!
//! Under `cfg(debug_assertions)` a thread-local held-lock stack enforces
//! the hierarchy lockbud-style: acquiring a lock whose rank is ≤ the
//! deepest held rank (same-class reacquisition of a
//! [`LockClass::new_chainable`] class excepted — hand-over-hand tree
//! descent) records a [`LockOrderViolation`] with both class names and
//! backtrace-lite context (thread ordinal and name)
//! and, in the default [`CheckMode::Panic`], panics so tests fail loudly.
//!
//! Release builds compile the checker out: every acquire is the plain
//! `parking_lot` call and every guard is the `parking_lot` guard, which a
//! compile-time assertion below pins.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// LockClass
// ---------------------------------------------------------------------------

/// The static identity of one family of locks: a name and a documented rank
/// in the global hierarchy.
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
}

impl LockClass {
    /// A class at `rank` in the global hierarchy.
    pub const fn new(name: &'static str, rank: u16) -> Self {
        Self {
            name,
            rank,
            chainable: false,
        }
    }

    /// A class whose locks may be re-acquired while it is itself the deepest
    /// held class (same rank, same class): hand-over-hand lock coupling.
    pub const fn new_chainable(name: &'static str, rank: u16) -> Self {
        Self {
            name,
            rank,
            chainable: true,
        }
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
// Lock-order checker (debug builds only; std primitives only, so the
// checker never recurses into itself)
// ---------------------------------------------------------------------------

/// What the order checker does when it finds a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckMode {
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
        )
    }
}

/// Total order violations observed process-wide.
static VIOLATION_COUNT: AtomicU64 = AtomicU64::new(0);

/// Recent violations (bounded; see [`take_violations`]).
static VIOLATIONS: Mutex<Vec<LockOrderViolation>> = Mutex::new(Vec::new());

/// Optional observer invoked on every violation (the `Obs` core registers
/// one that records a `lock_order_violation` event into its event log).
static HOOK: Mutex<Option<ViolationHook>> = Mutex::new(None);

/// Observer invoked on every recorded lock-order violation.
pub type ViolationHook = Box<dyn Fn(&LockOrderViolation) + Send + Sync>;

/// Total lock-order violations observed process-wide (always 0 in release
/// builds).
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

#[cfg(debug_assertions)]
mod checker {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::sync::atomic::AtomicBool;

    const VIOLATIONS_CAP: usize = 256;

    /// Debug builds start in Panic mode so the whole test suite runs under
    /// enforcement; `false` is [`CheckMode::Record`].
    static PANIC: AtomicBool = AtomicBool::new(true);

    std::thread_local! {
        static HELD: RefCell<Vec<(&'static LockClass, u64)>> =
            const { RefCell::new(Vec::new()) };
        static NEXT_TOKEN: Cell<u64> = const { Cell::new(1) };
    }

    pub fn set_mode(mode: CheckMode) {
        PANIC.store(mode == CheckMode::Panic, Ordering::Relaxed);
    }

    fn report(v: LockOrderViolation) {
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
        if PANIC.load(Ordering::Relaxed) {
            panic!("{v}");
        }
    }

    /// Order-check `class` against the thread's held stack, then push it.
    /// Returns the removal token.
    pub fn check_and_push(class: &'static LockClass) -> u64 {
        let deepest: Option<(&'static LockClass, u16)> = HELD.with(|h| {
            h.borrow()
                .iter()
                .map(|&(c, _)| (c, c.rank))
                .max_by_key(|&(_, r)| r)
        });
        if let Some((held, held_rank)) = deepest {
            let chained = class.chainable && std::ptr::eq(class, held);
            if class.rank < held_rank || (class.rank == held_rank && !chained) {
                report(LockOrderViolation {
                    acquiring: class.name,
                    acquiring_rank: class.rank,
                    holding: held.name,
                    holding_rank: held_rank,
                    thread_ordinal: crate::ring::thread_ordinal(),
                    thread_name: std::thread::current()
                        .name()
                        .unwrap_or("<unnamed>")
                        .to_string(),
                });
            }
        }
        push(class)
    }

    /// Push without an order check — non-blocking `try_*` acquisitions
    /// cannot create a wait cycle by themselves, but what they hold still
    /// constrains later blocking acquisitions.
    pub fn push(class: &'static LockClass) -> u64 {
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

/// Set the lock-order checker's mode (test support). Debug builds start in
/// [`CheckMode::Panic`]; release builds compile the checker out and ignore
/// this entirely. Process-global.
pub fn set_check_mode(mode: CheckMode) {
    #[cfg(debug_assertions)]
    checker::set_mode(mode);
    #[cfg(not(debug_assertions))]
    let _ = mode;
}

/// Depth of the calling thread's held-lock stack (0 in release builds).
/// Test-support.
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

/// The checker's record of one held guard: pops the held stack when the
/// guard drops. Zero-sized in release builds. Declared after the raw guard
/// in each wrapper so the lock is released first.
#[cfg(debug_assertions)]
struct Held(u64);

#[cfg(not(debug_assertions))]
struct Held;

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        checker::exit(self.0);
    }
}

impl Held {
    /// Order-check a blocking acquisition of `class`, then record it held.
    #[inline]
    fn checked(class: &'static LockClass) -> Self {
        #[cfg(debug_assertions)]
        {
            Held(checker::check_and_push(class))
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = class;
            Held
        }
    }

    /// Record a successful non-blocking acquisition of `class` held,
    /// without an order check.
    #[inline]
    fn unchecked(class: &'static LockClass) -> Self {
        #[cfg(debug_assertions)]
        {
            Held(checker::push(class))
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = class;
            Held
        }
    }
}

// A release guard is the `parking_lot` guard and nothing else.
#[cfg(not(debug_assertions))]
const _: () = {
    use std::mem::size_of;
    assert!(
        size_of::<ObsMutexGuard<'static, u64>>()
            == size_of::<parking_lot::MutexGuard<'static, u64>>()
    );
    assert!(
        size_of::<ObsRwLockReadGuard<'static, u64>>()
            == size_of::<parking_lot::RwLockReadGuard<'static, u64>>()
    );
    assert!(
        size_of::<ObsRwLockWriteGuard<'static, u64>>()
            == size_of::<parking_lot::RwLockWriteGuard<'static, u64>>()
    );
};

// ---------------------------------------------------------------------------
// ObsMutex
// ---------------------------------------------------------------------------

/// A drop-in replacement for `parking_lot::Mutex`, tagged with a static
/// [`LockClass`].
pub struct ObsMutex<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::Mutex<T>,
}

impl<T> ObsMutex<T> {
    /// A new mutex belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self {
            class,
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> ObsMutex<T> {
    /// Acquire, enforcing the lock hierarchy in debug builds.
    pub fn lock(&self) -> ObsMutexGuard<'_, T> {
        let held = Held::checked(self.class);
        ObsMutexGuard {
            guard: self.inner.lock(),
            _held: held,
        }
    }

    /// Non-blocking acquire. Exempt from the order check (cannot block),
    /// but a held try-guard still constrains later blocking acquisitions.
    pub fn try_lock(&self) -> Option<ObsMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        Some(ObsMutexGuard {
            guard,
            _held: Held::unchecked(self.class),
        })
    }

    /// Access through exclusive borrow (no locking, no check).
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
/// checker pops it.
pub struct ObsMutexGuard<'a, T: ?Sized> {
    guard: parking_lot::MutexGuard<'a, T>,
    _held: Held,
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

/// A drop-in replacement for `parking_lot::RwLock`, tagged with a static
/// [`LockClass`]. Readers and writers share one class.
pub struct ObsRwLock<T: ?Sized> {
    class: &'static LockClass,
    inner: parking_lot::RwLock<T>,
}

impl<T> ObsRwLock<T> {
    /// A new reader-writer lock belonging to `class`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Self {
            class,
            inner: parking_lot::RwLock::new(value),
        }
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
        let held = Held::checked(arc.class);
        let guard = arc.inner.write();
        // SAFETY: the guard borrows from the `RwLock` inside `arc`, which is
        // heap-allocated and kept alive by the `Arc` stored alongside it.
        // `ObsArcRwLockWriteGuard::drop` releases the guard before the `Arc`,
        // so the borrow never outlives the allocation; the `'static`
        // lifetime is never exposed to callers.
        let guard: parking_lot::RwLockWriteGuard<'static, T> =
            unsafe { std::mem::transmute::<parking_lot::RwLockWriteGuard<'_, T>, _>(guard) };
        ObsArcRwLockWriteGuard {
            guard: ManuallyDrop::new(guard),
            _held: held,
            _arc: arc,
        }
    }
}

impl<T: ?Sized> ObsRwLock<T> {
    /// Acquire shared, enforcing the hierarchy in debug builds.
    pub fn read(&self) -> ObsRwLockReadGuard<'_, T> {
        let held = Held::checked(self.class);
        ObsRwLockReadGuard {
            guard: self.inner.read(),
            _held: held,
        }
    }

    /// Acquire exclusive, enforcing the hierarchy in debug builds.
    pub fn write(&self) -> ObsRwLockWriteGuard<'_, T> {
        let held = Held::checked(self.class);
        ObsRwLockWriteGuard {
            guard: self.inner.write(),
            _held: held,
        }
    }

    /// Non-blocking shared acquire (order-check exempt, like
    /// [`ObsMutex::try_lock`]).
    pub fn try_read(&self) -> Option<ObsRwLockReadGuard<'_, T>> {
        let guard = self.inner.try_read()?;
        Some(ObsRwLockReadGuard {
            guard,
            _held: Held::unchecked(self.class),
        })
    }

    /// Access through exclusive borrow (no locking, no check).
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
    _held: Held,
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
    _held: Held,
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
    _held: Held,
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
        // (and the held-stack entry) keeping its referent alive.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the global check mode, or read the violation log,
    /// share one serial section; the switching ones restore the default.
    /// Only the debug-build checker tests use it and `ModeGuard`.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

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
        assert!(
            result.is_err(),
            "inversion must panic under CheckMode::Panic"
        );
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
        assert!(viols
            .iter()
            .any(|v| v.acquiring == "test.rec_lo" && v.holding == "test.rec_hi"));
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
        let (a, b, c) = (
            ObsMutex::new(&A, ()),
            ObsMutex::new(&B, ()),
            ObsMutex::new(&C, ()),
        );
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        drop(gb); // middle guard first
        drop(ga); // then the bottom
        assert_eq!(held_depth(), 1, "only C should remain held");
        drop(gc);
        assert_eq!(held_depth(), 0);
    }
}
