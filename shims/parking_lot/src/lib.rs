//! Offline shim for the `parking_lot` crate.
//!
//! This build environment has no access to a crates registry, so the
//! workspace provides the small slice of `parking_lot` it actually uses as a
//! wrapper over `std::sync` primitives:
//!
//! - [`Mutex`] / [`RwLock`] with parking_lot's non-poisoning semantics
//!   (a panic while holding a guard does not wedge later lock calls), and
//! - [`RwLock::write_arc`] returning an owned [`ArcRwLockWriteGuard`]
//!   (the `arc_lock` feature of the real crate), which the tree layer uses
//!   for hand-over-hand write-lock coupling during inserts.
//!
//! The API shapes mirror upstream so the workspace can swap back to the real
//! crate by editing one line in the root `Cargo.toml`.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A mutual-exclusion lock that ignores poisoning, like `parking_lot::Mutex`.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: e.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock that ignores poisoning, like `parking_lot::RwLock`.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        Self {
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire an owned write guard through an `Arc`, as provided by the
    /// real crate's `arc_lock` feature.
    ///
    /// The guard keeps the `Arc` alive for as long as it is held, so it has
    /// no lifetime tied to the borrow of `this` — callers can move it around
    /// while descending a tree (hand-over-hand lock coupling).
    pub fn write_arc(this: &Arc<Self>) -> ArcRwLockWriteGuard<T> {
        let arc = Arc::clone(this);
        let guard = arc.inner.write().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the guard borrows from the `RwLock` inside `arc`, which is
        // heap-allocated and kept alive by the `Arc` stored alongside the
        // guard. `ArcRwLockWriteGuard::drop` releases the guard before the
        // `Arc`, so the borrow never outlives the allocation. The `'static`
        // lifetime is never exposed to callers.
        let guard: std::sync::RwLockWriteGuard<'static, T> = unsafe { std::mem::transmute(guard) };
        ArcRwLockWriteGuard {
            guard: ManuallyDrop::new(guard),
            _arc: arc,
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockReadGuard {
                inner: e.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard { inner: g }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard {
                inner: e.into_inner(),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_read() {
            Some(g) => f.debug_struct("RwLock").field("data", &*g).finish(),
            None => f.write_str("RwLock { <locked> }"),
        }
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Owned write guard returned by [`RwLock::write_arc`].
pub struct ArcRwLockWriteGuard<T: ?Sized + 'static> {
    // Field order matters only documentationally; the actual release order is
    // enforced in `Drop` below (guard first, then the Arc).
    guard: ManuallyDrop<std::sync::RwLockWriteGuard<'static, T>>,
    _arc: Arc<RwLock<T>>,
}

impl<T: ?Sized> Deref for ArcRwLockWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for ArcRwLockWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> Drop for ArcRwLockWriteGuard<T> {
    fn drop(&mut self) {
        // SAFETY: `guard` is only dropped here, exactly once, and before the
        // `Arc` keeping its referent alive.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn write_arc_guard_moves_across_scopes() {
        // Hand-over-hand coupling: acquire the child while still holding the
        // parent, then release the parent by reassigning the guard variable.
        let parent = Arc::new(RwLock::new(1u64));
        let child = Arc::new(RwLock::new(2u64));
        let mut cur = RwLock::write_arc(&parent);
        *cur += 10;
        let next = RwLock::write_arc(&child);
        cur = next; // drops the parent guard
        assert_eq!(*cur, 2);
        assert_eq!(*parent.read(), 11, "parent released while child held");
        drop(cur);
        assert_eq!(*child.read(), 2);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn contended_rwlock() {
        let l = Arc::new(RwLock::new(0usize));
        let reads = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                let reads = Arc::clone(&reads);
                s.spawn(move || {
                    for _ in 0..100 {
                        *l.write() += 1;
                        let _ = *l.read();
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(reads.load(Ordering::Relaxed), 400);
        assert_eq!(*l.read(), 400);
    }
}
