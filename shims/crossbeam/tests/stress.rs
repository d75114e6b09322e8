//! The channel's wait path under oversubscription: more threads than cores,
//! producers that pause for less than, about, and far more than the polling
//! window, consumers mixing every receive flavour. Run it pinned to one core
//! as well (`taskset -c 0 cargo test --release -p crossbeam`): a poll loop that
//! starves its own sender only shows when they share a core.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, TryRecvError};

const PRODUCERS: u64 = 4;
const CONSUMERS: usize = 4;
const PER_PRODUCER: u64 = 50_000;
/// How long a consumer may sit in a blocking receive, beyond its own timeout,
/// while the queue is non-empty the whole time, before the watchdog calls it
/// a lost wake-up (scheduling delay on one core is a few ms).
const STUCK: Duration = Duration::from_millis(50);

/// xorshift: the test needs varied pauses, not a dependency.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// What a consumer publishes while it is inside a blocking receive.
#[derive(Default)]
struct Waiting {
    /// µs since the test's start, plus one; 0 = not waiting.
    since: AtomicU64,
    /// The timeout it passed (0 for a plain `recv`).
    limit_us: AtomicU64,
}

#[test]
fn every_message_once_in_order_and_no_consumer_is_left_asleep() {
    let (tx, rx) = unbounded::<(u64, u64)>();
    let t0 = Instant::now();
    let waiting: Vec<Waiting> = (0..CONSUMERS).map(|_| Waiting::default()).collect();
    let done = AtomicBool::new(false);
    let stuck: Mutex<Option<String>> = Mutex::new(None);

    let seen: Vec<Vec<(u64, u64)>> = thread::scope(|s| {
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            s.spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (p + 1);
                let mut seq = 0;
                while seq < PER_PRODUCER {
                    for _ in 0..=next(&mut rng) % 32 {
                        if seq < PER_PRODUCER {
                            tx.send((p, seq)).unwrap();
                            seq += 1;
                        }
                    }
                    // Pauses on both sides of the polling window, so that
                    // sends meet pollers, parkers and expired timeouts.
                    match next(&mut rng) % 8 {
                        0..=3 => {
                            let until = Instant::now() + Duration::from_micros(next(&mut rng) % 60);
                            while Instant::now() < until {
                                std::hint::spin_loop();
                            }
                        }
                        4..=6 => thread::sleep(Duration::from_micros(50 + next(&mut rng) % 400)),
                        _ => thread::sleep(Duration::from_millis(1 + next(&mut rng) % 6)),
                    }
                }
            });
        }
        drop(tx);

        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|c| {
                let rx = rx.clone();
                let me = &waiting[c];
                s.spawn(move || {
                    let mut rng = 0xD1B5_4A32_D192_ED03 ^ (c as u64 + 1);
                    let mut got = Vec::new();
                    let enter = |limit: Duration| {
                        me.limit_us
                            .store(limit.as_micros() as u64, Ordering::SeqCst);
                        me.since
                            .store(t0.elapsed().as_micros() as u64 + 1, Ordering::SeqCst);
                    };
                    loop {
                        let msg = match next(&mut rng) % 3 {
                            0 => {
                                enter(Duration::ZERO);
                                rx.recv().map_err(|_| true)
                            }
                            1 => {
                                let timeout = Duration::from_micros(50 + next(&mut rng) % 4950);
                                enter(timeout);
                                rx.recv_timeout(timeout)
                                    .map_err(|e| e == RecvTimeoutError::Disconnected)
                            }
                            _ => rx.try_recv().map_err(|e| e == TryRecvError::Disconnected),
                        };
                        me.since.store(0, Ordering::SeqCst);
                        match msg {
                            Ok(m) => got.push(m),
                            Err(true) => return got,
                            Err(false) => {}
                        }
                    }
                })
            })
            .collect();

        // The lost-wake-up detector: a consumer inside one blocking receive
        // for longer than its timeout + STUCK while every sample in between
        // found the queue non-empty.
        s.spawn(|| {
            let mut nonempty_since = None;
            while !done.load(Ordering::SeqCst) {
                let now = t0.elapsed().as_micros() as u64 + 1;
                nonempty_since = if rx.is_empty() { None } else { nonempty_since.or(Some(now)) };
                for (c, w) in waiting.iter().enumerate() {
                    let (since, limit) = (w.since.load(Ordering::SeqCst), w.limit_us.load(Ordering::SeqCst));
                    if let (true, Some(ne)) = (since != 0, nonempty_since) {
                        let held = now.saturating_sub(since.max(ne));
                        if held > limit + STUCK.as_micros() as u64 {
                            *stuck.lock().unwrap() = Some(format!(
                                "consumer {c} sat {held} µs in a receive (timeout {limit} µs) over a non-empty queue"
                            ));
                        }
                    }
                }
                thread::sleep(Duration::from_micros(500));
            }
        });

        let seen = consumers.into_iter().map(|c| c.join().unwrap()).collect();
        done.store(true, Ordering::SeqCst);
        seen
    });

    assert_eq!(*stuck.lock().unwrap(), None);
    // FIFO per producer as each consumer saw it...
    for got in &seen {
        let mut last = [None; PRODUCERS as usize];
        for &(p, seq) in got {
            assert!(
                last[p as usize] < Some(seq),
                "producer {p}: {seq} after {:?}",
                last[p as usize]
            );
            last[p as usize] = Some(seq);
        }
    }
    // ...and every message consumed exactly once.
    let mut all: Vec<(u64, u64)> = seen.into_iter().flatten().collect();
    all.sort_unstable();
    let expected: Vec<(u64, u64)> = (0..PRODUCERS)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i)))
        .collect();
    assert_eq!(all.len(), expected.len());
    assert!(all == expected, "a message was lost or delivered twice");
}
