//! Small internal utilities.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Sleep up to `period`, waking early (returning `false`) when `stop` is
/// set. Background threads use this so shutdown never waits out a long
/// period.
pub(crate) fn sleep_unless_stopped(period: Duration, stop: &AtomicBool) -> bool {
    let deadline = Instant::now() + period;
    loop {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// Whole microseconds of `d`, saturating (the unit every plan, span and
/// cost-vector duration is reported in).
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wakes_early_on_stop() {
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        let h = std::thread::spawn(move || {
            let t = Instant::now();
            let completed = sleep_unless_stopped(Duration::from_secs(3600), &s2);
            (completed, t.elapsed())
        });
        std::thread::sleep(Duration::from_millis(50));
        stop.store(true, Ordering::Release);
        let (completed, took) = h.join().unwrap();
        assert!(!completed);
        assert!(took < Duration::from_secs(2));
    }

    #[test]
    fn completes_short_sleeps() {
        let stop = AtomicBool::new(false);
        assert!(sleep_unless_stopped(Duration::from_millis(5), &stop));
    }
}
