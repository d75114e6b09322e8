//! Offline shim for the `rayon` crate.
//!
//! Provides the subset the worker's shard-scan pool needs:
//! [`ThreadPoolBuilder`] / [`ThreadPool`] with scoped task spawning
//! ([`ThreadPool::scope`] / [`Scope::spawn`]). There is no process-global
//! pool.
//!
//! The scheduler is a shared injector queue with blocking workers
//! (work-*sharing*) rather than rayon's per-worker deques with stealing. The
//! thread that opens a scope helps drain the queue while it waits, so scopes
//! opened from inside pool workers (nested parallelism) cannot deadlock.
//! Scoped tasks may borrow from the enclosing stack frame exactly as with
//! real rayon: `scope` does not return until every transitively spawned task
//! has finished, and panics from tasks are re-thrown at the scope boundary.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn push(&self, job: Job) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).push_back(job);
        self.job_ready.notify_one();
    }

    fn try_pop(&self) -> Option<Job> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    fn worker_loop(&self) {
        let mut guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = guard.pop_front() {
                drop(guard);
                job();
                guard = self.queue.lock().unwrap_or_else(|e| e.into_inner());
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            guard = self
                .job_ready
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// Error from [`ThreadPoolBuilder::build`]; never produced by this shim but
/// kept so call sites handle the same `Result` shape as upstream.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
    name_prefix: Option<String>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// `0` (the default) means one thread per available core.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    pub fn thread_name<F>(mut self, f: F) -> Self
    where
        F: Fn(usize) -> String,
    {
        self.name_prefix = Some(f(0));
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let prefix = self.name_prefix.unwrap_or_else(|| "par-worker".to_string());
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{prefix}-{i}"))
                    .spawn(move || shared.worker_loop())
                    .map_err(|_| ThreadPoolBuildError)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ThreadPool { shared, workers })
    }
}

/// A fixed-size pool of worker threads executing scoped tasks.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Run `op` with a [`Scope`] handle; returns once every task spawned in
    /// the scope (transitively) has completed. The calling thread helps
    /// execute queued tasks while it waits.
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R + Send,
        R: Send,
    {
        scope_on(&self.shared, op)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.job_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
}

struct ScopeSync {
    pending: usize,
    panic: Option<Box<dyn Any + Send>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            sync: Mutex::new(ScopeSync {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn task_started(&self) {
        self.sync.lock().unwrap_or_else(|e| e.into_inner()).pending += 1;
    }

    fn task_finished(&self, panic: Option<Box<dyn Any + Send>>) {
        let mut sync = self.sync.lock().unwrap_or_else(|e| e.into_inner());
        sync.pending -= 1;
        if sync.panic.is_none() {
            sync.panic = panic;
        }
        if sync.pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Handle for spawning tasks that may borrow from the enclosing scope.
pub struct Scope<'scope> {
    pool: Arc<PoolShared>,
    state: Arc<ScopeState>,
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Queue `body` for execution on the pool. The closure receives the scope
    /// handle so tasks can spawn subtasks (recursive fan-out).
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.task_started();
        let task_scope = Scope {
            pool: Arc::clone(&self.pool),
            state: Arc::clone(&self.state),
            _marker: PhantomData,
        };
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| body(&task_scope)));
            task_scope.state.task_finished(result.err());
        });
        // SAFETY: the scope owner blocks in `scope_on` until `pending` drops
        // to zero, i.e. until this job (and any job it spawns) has run to
        // completion, so every borrow with lifetime 'scope captured by the
        // job outlives the job's execution. Panics inside the job are caught
        // above, so the job always reports completion.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job)
        };
        self.pool.push(job);
    }
}

fn scope_on<'scope, OP, R>(pool: &Arc<PoolShared>, op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let scope = Scope {
        pool: Arc::clone(pool),
        state: Arc::new(ScopeState::new()),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));

    // Help drain the shared queue until every task of THIS scope is done.
    // Jobs popped here may belong to other scopes; running them is harmless
    // and keeps nested scopes deadlock-free.
    loop {
        {
            let sync = scope.state.sync.lock().unwrap_or_else(|e| e.into_inner());
            if sync.pending == 0 {
                break;
            }
        }
        if let Some(job) = scope.pool.try_pop() {
            job();
            continue;
        }
        let sync = scope.state.sync.lock().unwrap_or_else(|e| e.into_inner());
        if sync.pending == 0 {
            break;
        }
        let _ = scope
            .state
            .done
            .wait_timeout(sync, Duration::from_millis(1))
            .unwrap_or_else(|e| e.into_inner());
    }

    let panic = scope
        .state
        .sync
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .panic
        .take();
    match (result, panic) {
        (Ok(r), None) => r,
        (Err(p), _) | (_, Some(p)) => resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_all_tasks_and_borrows_stack() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn recursive_spawn_completes() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        fn fan(s: &Scope<'_>, depth: usize, counter: &Arc<AtomicUsize>) {
            counter.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                for _ in 0..2 {
                    let counter = Arc::clone(counter);
                    s.spawn(move |s| fan(s, depth - 1, &counter));
                }
            }
        }
        pool.scope(|s| fan(s, 5, &counter));
        // Full binary fan-out of depth 5: 2^6 - 1 nodes.
        assert_eq!(counter.load(Ordering::Relaxed), 63);
    }

    #[test]
    fn scope_returns_value() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let partials = Mutex::new(Vec::new());
        let total: u64 = {
            pool.scope(|s| {
                for chunk in 0..8u64 {
                    let partials = &partials;
                    s.spawn(move |_| {
                        partials.lock().unwrap().push(chunk * 10);
                    });
                }
            });
            let got = partials.lock().unwrap();
            got.iter().sum()
        };
        assert_eq!(total, (0..8u64).map(|c| c * 10).sum());
    }

    #[test]
    fn task_panic_propagates_to_scope() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let hit = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("task boom"));
                s.spawn(|_| {});
            });
        }));
        assert!(hit.is_err(), "panic must cross the scope boundary");
        // The pool remains usable afterwards.
        let c = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|_| {
                c.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Arc::new(ThreadPoolBuilder::new().num_threads(1).build().unwrap());
        let counter = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&pool);
        let c2 = Arc::clone(&counter);
        pool.scope(move |s| {
            for _ in 0..4 {
                let p = Arc::clone(&p2);
                let c = Arc::clone(&c2);
                s.spawn(move |_| {
                    // Opening another scope from inside a pool worker must
                    // not deadlock even with a single thread.
                    p.scope(|inner| {
                        for _ in 0..4 {
                            let c = Arc::clone(&c);
                            inner.spawn(move |_| {
                                c.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn zero_threads_means_one_per_core() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pool.workers.len(), cores);
    }
}
