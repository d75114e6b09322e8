//! Offline shim for the `crossbeam` crate.
//!
//! Only [`channel`] is provided: a multi-producer **multi-consumer** queue
//! (both [`channel::Sender`] and [`channel::Receiver`] are cloneable and
//! clones share one queue), because the in-memory network fabric load-balances
//! one endpoint queue across several service threads. Implementation is a
//! `Mutex<VecDeque>` + condvars rather than crossbeam's lock-free core — the
//! semantics (blocking, bounded capacity, disconnect on last drop) match.
//!
//! An empty `recv` polls the queue for a short window before it parks on the
//! condvar (see `SPIN`), and `send`/`recv` wake the other side only when
//! someone is parked there. Every predicate is still read under the channel
//! mutex and every blocking wait still ends in `Condvar::wait*` on it, so the
//! spin can be deleted without changing behaviour.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread;
    use std::time::{Duration, Instant};

    /// How long an empty `recv` polls (yielding between polls) before it
    /// parks. A request/reply hop over two parked threads is two futex wakes
    /// of vCPUs that have already idled, ~46 µs per round trip on the 2-core
    /// bench box; a receiver still polling when the message lands costs ~5.
    /// Measured with `bench_e2e` (10 s runs; medians of 2, 6 and 4 seeds):
    ///
    /// | workload             | metric  | park at once | 50 µs   | 200 µs  |
    /// |----------------------|---------|--------------|---------|---------|
    /// | `ingest_point`       | ops/s   | 11.8 k       | 40.5 k  | 54.6 k  |
    /// | `query_bands_med`    | q/s     | 335          | 342     | 332     |
    /// | `ingest_bulk_growth` | p90     | 38.3 ms      | 37.4 ms | 35.7 ms |
    /// | idle `recv(20 ms)`   | polling | 0            | 0.25 %  | 1 %     |
    ///
    /// A longer window buys more on the request path and is paid for where
    /// pollers meet real work on the same cores: the prototype this design
    /// came from lost 17 % of `query_bands_med` at 200 µs (here 3 %, inside
    /// the noise), six idle service threads at 1 % each exceed the 5 % idle
    /// budget `tests/integration_idle.rs` pins, and with more threads than
    /// cores a handler that outlasts the window makes it pure waste twice per
    /// request (DESIGN.md §2.1). 50 µs covers a prompt peer's turnaround.
    const SPIN: Duration = Duration::from_micros(50);

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers inside `not_empty.wait*` / senders inside
        /// `not_full.wait`. Kept under the mutex that guards the queue, so
        /// "nobody parked" read after a push (pop) means nobody can miss it:
        /// the other side skips the futex wake.
        parked_receivers: usize,
        parked_senders: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half; cloneable (multi-producer).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (multi-consumer — clones share the queue).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Create a bounded channel; `send` blocks when `cap` messages are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Block until the value is enqueued (bounded channels apply
        /// backpressure); fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = st.cap.is_some_and(|c| st.queue.len() >= c);
                if !full {
                    st.queue.push_back(value);
                    let wake = st.parked_receivers > 0;
                    drop(st);
                    if wake {
                        self.shared.not_empty.notify_one();
                    }
                    return Ok(());
                }
                st.parked_senders += 1;
                st = self.shared.not_full.wait(st).unwrap();
                st.parked_senders -= 1;
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Wake blocked receivers so they observe the disconnect.
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Shared<T> {
        /// Take the head of the queue (waking a sender blocked on a full
        /// one), or hand the guard back if there is none.
        fn pop<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
            let Some(v) = st.queue.pop_front() else { return Err(st) };
            let wake = st.parked_senders > 0;
            drop(st);
            if wake {
                self.not_full.notify_one();
            }
            Ok(v)
        }

        /// The one wait path: pop, else poll for up to `SPIN`, then park
        /// until `deadline` (forever if `None`). A deadline already due
        /// neither polls nor parks.
        fn pop_wait(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let spin_until = Instant::now() + SPIN;
            let mut st = self.state.lock().unwrap();
            loop {
                st = match self.pop(st) {
                    Ok(v) => return Ok(v),
                    Err(st) => st,
                };
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if deadline.is_some_and(|d| now >= d) {
                    return Err(RecvTimeoutError::Timeout);
                }
                if now < spin_until {
                    drop(st);
                    thread::yield_now();
                    st = self.state.lock().unwrap();
                    continue;
                }
                st.parked_receivers += 1;
                st = match deadline {
                    Some(d) => self.not_empty.wait_timeout(st, d - now).unwrap().0,
                    None => self.not_empty.wait(st).unwrap(),
                };
                st.parked_receivers -= 1;
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.shared.pop_wait(None).map_err(|_| RecvError)
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.shared.pop(self.shared.state.lock().unwrap()).map_err(|st| match st.senders {
                0 => TryRecvError::Disconnected,
                _ => TryRecvError::Empty,
            })
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.shared.pop_wait(Some(Instant::now() + timeout))
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                // Wake blocked senders so they observe the disconnect.
                self.shared.not_full.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_fifo() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.len(), 10);
            for i in 0..10 {
                assert_eq!(rx.recv().unwrap(), i);
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(5).is_err());
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
        }

        #[test]
        fn recv_timeout_honours_its_deadline_on_an_empty_queue() {
            let (_tx, rx) = unbounded::<u8>();
            // Shorter than, equal to and longer than the polling window.
            for timeout in [Duration::ZERO, SPIN / 5, SPIN, SPIN * 4, Duration::from_millis(5)] {
                let mut fastest = Duration::MAX;
                for _ in 0..20 {
                    let start = Instant::now();
                    assert_eq!(rx.recv_timeout(timeout), Err(RecvTimeoutError::Timeout));
                    let took = start.elapsed();
                    assert!(took >= timeout, "returned after {took:?}, before its {timeout:?} deadline");
                    fastest = fastest.min(took);
                }
                // The best of 20 tries shows the mechanism, not the scheduler:
                // polling stops at the caller's deadline when that comes first
                // (the kernel's timer slack only enters once parked).
                let slack = if timeout <= SPIN { SPIN } else { Duration::from_millis(50) };
                assert!(fastest < timeout + slack, "{timeout:?} took {fastest:?} at best");
            }
            assert_eq!(rx.shared.state.lock().unwrap().parked_receivers, 0);
        }

        /// Wait (bounded) until `n` receivers are inside the condvar wait.
        fn await_parked<T>(rx: &Receiver<T>, n: usize) {
            let start = Instant::now();
            while rx.shared.state.lock().unwrap().parked_receivers != n {
                assert!(start.elapsed() < Duration::from_secs(10), "receivers never parked");
                thread::yield_now();
            }
        }

        #[test]
        fn send_and_disconnect_reach_pollers_and_parkers_alike() {
            for park_first in [false, true] {
                // A message: to a receiver still polling, or already parked.
                let (tx, rx) = unbounded::<u8>();
                let r = rx.clone();
                let t = thread::spawn(move || (r.recv(), r.recv_timeout(Duration::from_secs(10))));
                if park_first {
                    await_parked(&rx, 1);
                }
                tx.send(1).unwrap();
                if park_first {
                    await_parked(&rx, 1);
                }
                tx.send(2).unwrap();
                assert_eq!(t.join().unwrap(), (Ok(1), Ok(2)));

                // The last sender going away: same two states, both halves.
                let blocking = rx.clone();
                let timed = rx.clone();
                let a = thread::spawn(move || blocking.recv());
                let b = thread::spawn(move || timed.recv_timeout(Duration::from_secs(10)));
                if park_first {
                    await_parked(&rx, 2);
                }
                let start = Instant::now();
                drop(tx);
                assert_eq!(a.join().unwrap(), Err(RecvError));
                assert_eq!(b.join().unwrap(), Err(RecvTimeoutError::Disconnected));
                assert!(start.elapsed() < Duration::from_secs(5), "disconnect must not wait out the timeout");
                assert_eq!(rx.shared.state.lock().unwrap().parked_receivers, 0);
            }
        }

        #[test]
        fn bounded_applies_backpressure() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            let t = thread::spawn(move || {
                tx.send(2).unwrap(); // blocks until the first recv
                "sent"
            });
            thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv().unwrap(), 1);
            assert_eq!(rx.recv().unwrap(), 2);
            assert_eq!(t.join().unwrap(), "sent");
        }

        #[test]
        fn mpmc_clone_receivers_share_queue() {
            let (tx, rx) = unbounded::<usize>();
            let rx2 = rx.clone();
            let consumers: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|r| {
                    thread::spawn(move || {
                        let mut got = 0usize;
                        while r.recv().is_ok() {
                            got += 1;
                        }
                        got
                    })
                })
                .collect();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total, 100, "each message consumed exactly once");
        }
    }
}
