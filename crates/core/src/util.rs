//! Small internal utilities.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use volap_net::Endpoint;

/// The threads of one simulated process (server, worker or manager) and the
/// two channels whose disconnect ends them: threads serving the process's
/// endpoint return once `Network::unregister` closes its request queue,
/// and the periodic thread returns once the stop sender is dropped. Nothing
/// polls a flag, so an idle process sleeps.
pub(crate) struct Process {
    endpoint: Endpoint,
    /// Never sent on: dropping it wakes the periodic thread to exit.
    stop: mpsc::Sender<()>,
    periodic: JoinHandle<()>,
    /// Joined in spawn order once the endpoint is closed.
    threads: Vec<JoinHandle<()>>,
}

impl Process {
    /// Start the periodic thread of the process at `endpoint`: `tick` every
    /// `period` until the process stops. The stop channel is std's: unlike
    /// the shim's it parks without first polling, so each tick wakes the
    /// thread once.
    pub(crate) fn start(
        endpoint: &Endpoint,
        thread: String,
        period: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Self {
        let (stop, stopped) = mpsc::channel::<()>();
        let periodic = spawn(thread, move || {
            while stopped.recv_timeout(period) == Err(RecvTimeoutError::Timeout) {
                tick();
            }
        });
        Self {
            endpoint: endpoint.clone(),
            stop,
            periodic,
            threads: Vec::new(),
        }
    }

    /// Spawn a thread for `stop` to join after it closes the endpoint: it
    /// must return on its own once the endpoint is closed and the threads
    /// spawned before it have returned.
    pub(crate) fn spawn(&mut self, thread: String, body: impl FnOnce() + Send + 'static) {
        self.threads.push(spawn(thread, body));
    }

    /// Stop the periodic thread, then close the endpoint and join the rest.
    /// In that order because a manager round in flight awaits replies
    /// addressed to this endpoint.
    pub(crate) fn stop(self) {
        drop(self.stop);
        let _ = self.periodic.join();
        self.endpoint.network().unregister(self.endpoint.name());
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawn thread")
}

/// Whole microseconds of `d`, saturating (the unit every plan, span and
/// cost-vector duration is reported in).
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}
