//! Lock-order checker correctness: rank-respecting interleavings never
//! fire, a seeded two-thread ABBA inversion always fires, and the
//! thread-local held stack survives out-of-order guard drops.
//!
//! The checker's mode and violation log are process-global, so every test
//! here holds one serialization lock and restores `CheckMode::Panic` (the
//! debug-build default) on exit. The inversion tests are compiled only
//! under `debug_assertions`: release builds compile the checker out.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use volap_obs::lock::{self, LockClass, ObsRwLock};
#[cfg(debug_assertions)]
use volap_obs::lock::{CheckMode, ObsMutex};

/// Eight classes with strictly ascending ranks for the interleaving
/// property: acquiring any subset in index order is always hierarchy-legal.
static LADDER: [LockClass; 8] = [
    LockClass::new("proplock.l0", 210),
    LockClass::new("proplock.l1", 211),
    LockClass::new("proplock.l2", 212),
    LockClass::new("proplock.l3", 213),
    LockClass::new("proplock.l4", 214),
    LockClass::new("proplock.l5", 215),
    LockClass::new("proplock.l6", 216),
    LockClass::new("proplock.l7", 217),
];

#[cfg(debug_assertions)]
static ABBA_A: LockClass = LockClass::new("proplock.abba_a", 220);
#[cfg(debug_assertions)]
static ABBA_B: LockClass = LockClass::new("proplock.abba_b", 221);

#[cfg(debug_assertions)]
static DROP_LO: LockClass = LockClass::new("proplock.drop_lo", 230);
#[cfg(debug_assertions)]
static DROP_MID: LockClass = LockClass::new("proplock.drop_mid", 231);
#[cfg(debug_assertions)]
static DROP_HI: LockClass = LockClass::new("proplock.drop_hi", 232);
#[cfg(debug_assertions)]
static DROP_TOP: LockClass = LockClass::new("proplock.drop_top", 233);

/// Serializes tests that read or mutate the global checker state.
fn serial() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII restore of the default Panic mode, so a failing test cannot leave
/// the process in Record mode for its neighbors.
#[cfg(debug_assertions)]
struct ModeGuard;
#[cfg(debug_assertions)]
impl Drop for ModeGuard {
    fn drop(&mut self) {
        lock::set_check_mode(CheckMode::Panic);
    }
}

proptest! {
    /// Any nested acquisition sequence that respects the rank order — an
    /// arbitrary strictly-ascending subset of the ladder, with arbitrary
    /// read/write choices — never records a violation under the default
    /// Panic mode (a violation would also panic the test).
    #[test]
    fn rank_respecting_interleavings_never_fire(
        raw_picks in prop::collection::vec(0usize..8, 1..=8),
        writes in prop::collection::vec(any::<bool>(), 8),
    ) {
        let _g = serial();
        let before = lock::violation_count();
        // Deduped ascending indices = a rank-respecting acquisition order.
        let mut picks = raw_picks;
        picks.sort_unstable();
        picks.dedup();
        let locks: Vec<ObsRwLock<u32>> =
            picks.iter().map(|&i| ObsRwLock::new(&LADDER[i], i as u32)).collect();
        // Hold the whole ascending chain at once, mixing read and write.
        let mut read_guards = Vec::new();
        let mut write_guards = Vec::new();
        for (k, l) in locks.iter().enumerate() {
            if writes[k] {
                write_guards.push(l.write());
            } else {
                read_guards.push(l.read());
            }
        }
        drop(write_guards);
        drop(read_guards);
        // And again as a simple nest-and-release-in-reverse walk.
        fn nest(locks: &[ObsRwLock<u32>]) {
            if let Some((first, rest)) = locks.split_first() {
                let _g = first.read();
                nest(rest);
            }
        }
        nest(&locks);
        prop_assert_eq!(lock::violation_count(), before);
    }
}

/// Seeded two-thread ABBA inversion: thread 1 takes A then B (legal),
/// thread 2 takes B then A (descending rank — the classic deadlock cycle).
/// Thread 2 runs strictly after thread 1 finishes, so the test always
/// completes; the checker must still flag thread 2's acquisition every
/// time. In release builds (checker compiled out) the same interleaving
/// runs silently.
#[cfg(debug_assertions)]
fn run_abba() -> (u64, Vec<lock::LockOrderViolation>) {
    let before = lock::violation_count();
    let a = ObsMutex::new(&ABBA_A, 0u32);
    let b = ObsMutex::new(&ABBA_B, 0u32);
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ga = a.lock();
            let _gb = b.lock();
        })
        .join()
        .expect("thread 1");
        s.spawn(|| {
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .join()
        .expect("thread 2");
    });
    (lock::violation_count() - before, lock::take_violations())
}

#[cfg(debug_assertions)]
#[test]
fn seeded_abba_inversion_always_fires() {
    let _g = serial();
    let _restore = ModeGuard;
    lock::set_check_mode(CheckMode::Record);
    let _ = lock::take_violations();
    for _ in 0..16 {
        let (fired, violations) = run_abba();
        assert_eq!(fired, 1, "the B-then-A thread must fire exactly once");
        let v = violations.last().expect("violation recorded");
        assert_eq!(v.acquiring, "proplock.abba_a");
        assert_eq!(v.holding, "proplock.abba_b");
        assert!(v.acquiring_rank < v.holding_rank);
    }
}

/// Guards dropped out of acquisition order (the `SpanGuard` pattern: a
/// mid-stack guard is released early while deeper ones stay held) must
/// leave the held stack coherent: the deepest *live* rank governs later
/// acquisitions, and fully unwinding empties the stack.
#[cfg(debug_assertions)]
#[test]
fn held_stack_survives_out_of_order_drops() {
    let _g = serial();
    let _restore = ModeGuard;
    lock::set_check_mode(CheckMode::Record);
    let _ = lock::take_violations();
    let before = lock::violation_count();

    let lo = ObsMutex::new(&DROP_LO, ());
    let mid = ObsMutex::new(&DROP_MID, ());
    let hi = ObsMutex::new(&DROP_HI, ());
    let top = ObsMutex::new(&DROP_TOP, ());

    let base = lock::held_depth();
    let g_lo = lo.lock();
    let g_mid = mid.lock();
    let g_hi = hi.lock();
    assert_eq!(lock::held_depth(), base + 3);
    // Early drop of the middle guard, deeper guard still held.
    drop(g_mid);
    assert_eq!(lock::held_depth(), base + 2);
    // hi (232) is still the deepest live rank: re-acquiring mid (231) is a
    // violation even though mid itself was released...
    let g_mid2 = mid.lock();
    assert_eq!(
        lock::violation_count() - before,
        1,
        "231 under live 232 must fire"
    );
    drop(g_mid2);
    // ...while going deeper stays legal.
    let g_top = top.lock();
    assert_eq!(lock::violation_count() - before, 1);
    drop(g_top);
    drop(g_hi);
    // With hi gone, lo (230) is the deepest live rank again: mid is legal.
    let g_mid3 = mid.lock();
    assert_eq!(lock::violation_count() - before, 1);
    drop(g_mid3);
    drop(g_lo);
    assert_eq!(lock::held_depth(), base);
    let _ = lock::take_violations();
}
