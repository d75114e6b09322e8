//! An in-memory asynchronous message fabric: the ZeroMQ substitute.
//!
//! VOLAP's servers, workers and manager communicate over ZeroMQ (§III-B):
//! asynchronous messages, request/reply with correlation, and incoming
//! requests load-balanced across the threads of a process. This crate
//! reproduces those semantics inside one process so the distributed system's
//! code runs unchanged on a laptop:
//!
//! * [`Network`] — a registry of named endpoints (one per simulated
//!   process), with an optional injected one-way delivery latency to mimic a
//!   real wire.
//! * [`Endpoint`] — a process's mailbox. `send` is fire-and-forget;
//!   [`Endpoint::request`] blocks for a correlated reply with a timeout;
//!   [`Endpoint::recv`] pulls the next incoming request and
//!   [`Endpoint::serve`] handles them until the endpoint closes. The receive
//!   queue is MPMC: any number of service threads can `recv` from clones of
//!   the same endpoint, giving ZeroMQ's availability-based thread load
//!   balancing for free.
//!
//! **Stopping is disconnecting**, as terminating a ZeroMQ context ends every
//! blocked `recv`: the registry entry holds the only sender of an endpoint's
//! request queue, so [`Network::unregister`] closes the queue. Its service
//! threads drain what was already delivered, then see [`NetError::Closed`];
//! they sleep until then and never poll a flag.
//!
//! Replies are demultiplexed by correlation ID straight into the waiting
//! requester, never through the request queue — exactly the two-socket
//! pattern the paper describes per thread.
//!
//! An envelope carries its sender, a correlation ID and the payload, as a
//! ZeroMQ request/reply message does, and nothing more.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use volap_obs::lock::{LockClass, ObsMutex, ObsRwLock};
use volap_obs::{Counter, Histogram, Registry};

/// The fabric's slice of the global lock hierarchy (DESIGN.md §11.1): routing
/// holds the endpoint registry's read lock across the delay-queue send or
/// the delivery, and delivery of a reply takes the requester's pending map —
/// so endpoints < delay < pending.
static ENDPOINTS_CLASS: LockClass = LockClass::new("net.endpoints", 60);
static DELAY_CLASS: LockClass = LockClass::new("net.delay", 61);
static PENDING_CLASS: LockClass = LockClass::new("net.pending", 62);

/// Fabric-level observability handles, attached once per network (see
/// [`Network::attach_obs`]). Absent by default so the fabric stays
/// dependency-quiet for unit tests and standalone use.
struct NetObs {
    /// Envelopes routed (requests, replies, and fire-and-forget sends).
    messages: Counter,
    /// Payload bytes routed.
    bytes: Counter,
    /// Requests issued via `request`/`request_many`.
    requests: Counter,
    /// Requests that timed out waiting for their reply.
    timeouts: Counter,
    /// Replies that arrived after their requester had already given up
    /// (timed out and removed its pending entry). Kept distinct from
    /// `timeouts`: a timeout with no late reply means the peer never
    /// answered; a timeout *with* one means it answered too slowly.
    late_replies: Counter,
    /// Request round-trip latency.
    request_seconds: Histogram,
}

/// Errors surfaced by the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Destination endpoint is not registered.
    UnknownEndpoint(String),
    /// No reply arrived within the timeout.
    Timeout,
    /// The endpoint (or network) was shut down.
    Closed,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownEndpoint(n) => write!(f, "unknown endpoint: {n}"),
            NetError::Timeout => f.write_str("request timed out"),
            NetError::Closed => f.write_str("endpoint closed"),
        }
    }
}

impl std::error::Error for NetError {}

/// A routed message.
#[derive(Debug, Clone)]
struct Envelope {
    from: String,
    correlation: u64,
    /// `true` when this is a reply to an outstanding request.
    is_reply: bool,
    payload: Vec<u8>,
}

struct EndpointCore {
    name: String,
    queue_rx: Receiver<Envelope>,
    pending: ObsMutex<HashMap<u64, Sender<Envelope>>>,
    next_corr: AtomicU64,
}

/// A registry entry: the endpoint plus the only sender of its request
/// queue. Deliveries send under the registry's read lock, so once
/// `unregister` has removed the entry no delivery is in flight and the
/// queue disconnects as soon as it drains.
struct Route {
    core: Arc<EndpointCore>,
    queue_tx: Sender<Envelope>,
}

impl Route {
    fn deliver(&self, env: Envelope, obs: Option<&NetObs>) {
        if env.is_reply {
            // Route straight to the requester. If it already gave up
            // (timeout removed the pending entry), the reply is *late*:
            // count it rather than losing the signal silently. The hand-off
            // happens while `net.pending` is held (the guard lives to the end
            // of the `match`; a reply channel has room for every reply it can
            // get, so the send never blocks): a timed-out requester that
            // finds its entry gone therefore finds the reply in its channel.
            match self.core.pending.lock().remove(&env.correlation) {
                Some(tx) => {
                    let _ = tx.send(env);
                }
                None => {
                    if let Some(obs) = obs {
                        obs.late_replies.inc();
                    }
                }
            }
        } else {
            let _ = self.queue_tx.send(env);
        }
    }
}

/// The delay thread's queue: `(due, destination, envelope)` in send order.
type DelayQueue = ObsMutex<Sender<(Instant, String, Envelope)>>;

struct NetworkInner {
    endpoints: ObsRwLock<HashMap<String, Route>>,
    /// Injected one-way latency and the delay thread's queue; `None` (the
    /// default) delivers on the sender's thread and takes no lock for it.
    delay: Option<(Duration, DelayQueue)>,
    obs: OnceLock<NetObs>,
}

/// The fabric: a registry of endpoints plus the delivery path.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// A fabric with instantaneous delivery.
    pub fn new() -> Self {
        Self::with_delay(None)
    }

    fn with_delay(delay: Option<(Duration, DelayQueue)>) -> Self {
        Self {
            inner: Arc::new(NetworkInner {
                endpoints: ObsRwLock::new(&ENDPOINTS_CLASS, HashMap::new()),
                delay,
                obs: OnceLock::new(),
            }),
        }
    }

    /// A fabric that delays every delivery by `latency` (one way), using a
    /// background timer thread — a crude but effective model of a real
    /// datacenter wire for staleness experiments.
    pub fn with_latency(latency: Duration) -> Self {
        let (tx, rx) = unbounded();
        let net = Self::with_delay(Some((latency, ObsMutex::new(&DELAY_CLASS, tx))));
        let weak = Arc::downgrade(&net.inner);
        std::thread::Builder::new()
            .name("volap-net-delay".into())
            .spawn(move || {
                // FIFO + fixed delay means arrival order is send order, so a
                // simple queue suffices (no heap needed).
                while let Ok((due, to, env)) = rx.recv() {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let Some(inner) = weak.upgrade() else { break };
                    let endpoints = inner.endpoints.read();
                    if let Some(route) = endpoints.get(&to) {
                        route.deliver(env, inner.obs.get());
                    }
                }
            })
            .expect("spawn delay thread");
        net
    }

    /// Register a new endpoint. Panics if the name is taken.
    pub fn endpoint(&self, name: impl Into<String>) -> Endpoint {
        let name = name.into();
        let (queue_tx, queue_rx) = unbounded();
        let core = Arc::new(EndpointCore {
            name: name.clone(),
            queue_rx,
            pending: ObsMutex::new(&PENDING_CLASS, HashMap::new()),
            next_corr: AtomicU64::new(1),
        });
        let route = Route {
            core: Arc::clone(&core),
            queue_tx,
        };
        let prev = self.inner.endpoints.write().insert(name.clone(), route);
        assert!(prev.is_none(), "endpoint name {name:?} already registered");
        Endpoint {
            net: self.clone(),
            core,
        }
    }

    /// Attach fabric metrics to a registry (idempotent; the first call
    /// wins). Until attached, the fabric records nothing.
    pub fn attach_obs(&self, registry: &Registry) {
        let _ = self.inner.obs.set(NetObs {
            messages: registry.counter("volap_net_messages_total"),
            bytes: registry.counter("volap_net_bytes_total"),
            requests: registry.counter("volap_net_requests_total"),
            timeouts: registry.counter("volap_net_timeouts_total"),
            late_replies: registry.counter("volap_net_late_replies_total"),
            request_seconds: registry.histogram("volap_net_request_seconds"),
        });
    }

    fn obs(&self) -> Option<&NetObs> {
        self.inner.obs.get()
    }

    /// Remove an endpoint from the registry: messages to it start failing,
    /// and its request queue closes once the requests already delivered
    /// are received, which ends its service threads.
    pub fn unregister(&self, name: &str) {
        self.inner.endpoints.write().remove(name);
    }

    fn route(&self, to: &str, env: Envelope) -> Result<(), NetError> {
        if let Some(obs) = self.obs() {
            obs.messages.inc();
            obs.bytes.add(env.payload.len() as u64);
        }
        let endpoints = self.inner.endpoints.read();
        let target = endpoints
            .get(to)
            .ok_or_else(|| NetError::UnknownEndpoint(to.to_string()))?;
        match &self.inner.delay {
            Some((lat, tx)) => tx
                .lock()
                .send((Instant::now() + *lat, to.to_string(), env))
                .map_err(|_| NetError::Closed),
            None => {
                target.deliver(env, self.obs());
                Ok(())
            }
        }
    }
}

/// An incoming request, with everything needed to reply.
pub struct Incoming {
    /// Sender endpoint name.
    pub from: String,
    /// Correlation ID (echoed in the reply).
    pub correlation: u64,
    /// Message body.
    pub payload: Vec<u8>,
    net: Network,
    to_name: String,
}

impl Incoming {
    fn from_env(env: Envelope, net: Network, to_name: String) -> Self {
        Incoming {
            from: env.from,
            correlation: env.correlation,
            payload: env.payload,
            net,
            to_name,
        }
    }

    /// Send a reply back to the requester.
    pub fn reply(&self, payload: Vec<u8>) -> Result<(), NetError> {
        self.net.route(
            &self.from,
            Envelope {
                from: self.to_name.clone(),
                correlation: self.correlation,
                is_reply: true,
                payload,
            },
        )
    }
}

/// A named mailbox on the fabric. Cloneable: clones share the queue, so a
/// pool of service threads drains one endpoint cooperatively.
#[derive(Clone)]
pub struct Endpoint {
    net: Network,
    core: Arc<EndpointCore>,
}

impl Endpoint {
    /// This endpoint's name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// The fabric this endpoint is attached to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Fire-and-forget send (correlation 0).
    pub fn send(&self, to: &str, payload: Vec<u8>) -> Result<(), NetError> {
        self.net.route(
            to,
            Envelope {
                from: self.core.name.clone(),
                correlation: 0,
                is_reply: false,
                payload,
            },
        )
    }

    /// Send a request and block for the correlated reply.
    pub fn request(
        &self,
        to: &str,
        payload: Vec<u8>,
        timeout: Duration,
    ) -> Result<Vec<u8>, NetError> {
        let mut results = self.exchange([(to, payload)].into_iter(), timeout);
        results.pop().expect("one request, one result")
    }

    /// Issue several requests concurrently and block until every reply has
    /// arrived (or the shared deadline passes). Returns one result per
    /// request, in order. This is the scatter/gather primitive servers use
    /// to query many workers in one round trip without spawning threads.
    pub fn request_many(
        &self,
        requests: &[(String, Vec<u8>)],
        timeout: Duration,
    ) -> Vec<Result<Vec<u8>, NetError>> {
        self.exchange(
            requests
                .iter()
                .map(|(to, payload)| (to.as_str(), payload.clone())),
            timeout,
        )
    }

    /// The body of [`Self::request`] and [`Self::request_many`]: send each
    /// owned payload under its own correlation and gather the replies, in
    /// request order, until the shared deadline.
    fn exchange<'a>(
        &self,
        requests: impl ExactSizeIterator<Item = (&'a str, Vec<u8>)>,
        timeout: Duration,
    ) -> Vec<Result<Vec<u8>, NetError>> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let _timer = self.net.obs().map(|o| {
            o.requests.add(n as u64);
            o.request_seconds.start()
        });
        let (tx, rx) = bounded(n);
        // Reserve a contiguous correlation block and register every entry
        // under a single pending-lock acquisition — one lock round per
        // batch instead of one per request, so a wide scatter doesn't
        // serialize against reply demultiplexing.
        let base = self.core.next_corr.fetch_add(n as u64, Ordering::Relaxed);
        {
            let mut pending = self.core.pending.lock();
            for off in 0..n as u64 {
                pending.insert(base + off, tx.clone());
            }
        }
        // `None` while request `i`, correlation `base + i`, awaits its reply.
        let mut results: Vec<Option<Result<Vec<u8>, NetError>>> = Vec::with_capacity(n);
        for (i, (to, payload)) in requests.enumerate() {
            let corr = base + i as u64;
            let sent = self.net.route(
                to,
                Envelope {
                    from: self.core.name.clone(),
                    correlation: corr,
                    is_reply: false,
                    payload,
                },
            );
            results.push(sent.err().map(|e| {
                self.core.pending.lock().remove(&corr);
                Err(e)
            }));
        }
        let mut outstanding = results.iter().filter(|r| r.is_none()).count();
        // Gather until the deadline, then forget the stragglers and take
        // once more without waiting: a reply `deliver` handed over before
        // the sweep removed its entry is in `rx`, not late (see `deliver`).
        let deadline = Instant::now() + timeout;
        let mut swept = false;
        while outstanding > 0 {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(env) => {
                    let i = env.correlation.wrapping_sub(base) as usize;
                    if let Some(slot @ None) = results.get_mut(i) {
                        *slot = Some(Ok(env.payload));
                        outstanding -= 1;
                    }
                }
                Err(_) if !swept => {
                    let mut pending = self.core.pending.lock();
                    for (i, _) in results.iter().enumerate().filter(|(_, r)| r.is_none()) {
                        pending.remove(&(base + i as u64));
                    }
                    swept = true;
                }
                Err(_) => break,
            }
        }
        if outstanding > 0 {
            if let Some(obs) = self.net.obs() {
                obs.timeouts.add(outstanding as u64);
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(NetError::Timeout)))
            .collect()
    }

    /// Number of correlations still registered awaiting replies. Exposed so
    /// tests (and leak checks) can assert the pending map drains after
    /// timeouts instead of accumulating dead entries.
    pub fn pending_len(&self) -> usize {
        self.core.pending.lock().len()
    }

    /// Block for the next incoming request (not replies), up to `timeout`.
    pub fn recv(&self, timeout: Duration) -> Result<Incoming, NetError> {
        match self.core.queue_rx.recv_timeout(timeout) {
            Ok(env) => Ok(self.incoming(env)),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// A service thread's loop: block for each incoming request and
    /// `handle` it, until the endpoint is unregistered and every request
    /// delivered before that has been handled.
    pub fn serve(&self, mut handle: impl FnMut(Incoming)) {
        while let Ok(env) = self.core.queue_rx.recv() {
            handle(self.incoming(env));
        }
    }

    fn incoming(&self, env: Envelope) -> Incoming {
        Incoming::from_env(env, self.net.clone(), self.core.name.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_and_recv() {
        let net = Network::new();
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        a.send("b", b"hello".to_vec()).unwrap();
        let msg = b.recv(Duration::from_secs(1)).unwrap();
        assert_eq!(msg.payload, b"hello");
        assert_eq!(msg.from, "a");
    }

    #[test]
    fn unknown_endpoint_errors() {
        let net = Network::new();
        let a = net.endpoint("a");
        assert_eq!(
            a.send("nope", vec![]),
            Err(NetError::UnknownEndpoint("nope".into()))
        );
    }

    #[test]
    fn request_reply_roundtrip() {
        let net = Network::new();
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        let h = thread::spawn(move || {
            let req = server.recv(Duration::from_secs(2)).unwrap();
            let mut resp = req.payload.clone();
            resp.reverse();
            req.reply(resp).unwrap();
        });
        let reply = client
            .request("server", vec![1, 2, 3], Duration::from_secs(2))
            .unwrap();
        assert_eq!(reply, vec![3, 2, 1]);
        h.join().unwrap();
    }

    #[test]
    fn replies_do_not_enter_request_queue() {
        let net = Network::new();
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        let h = thread::spawn(move || {
            let req = server.recv(Duration::from_secs(2)).unwrap();
            req.reply(b"pong".to_vec()).unwrap();
        });
        client
            .request("server", b"ping".to_vec(), Duration::from_secs(2))
            .unwrap();
        h.join().unwrap();
        assert!(
            client.recv(Duration::ZERO).is_err(),
            "reply must not appear as a request"
        );
    }

    #[test]
    fn request_times_out_without_server_thread() {
        let net = Network::new();
        let client = net.endpoint("client");
        let _server = net.endpoint("server"); // never replies
        let err = client
            .request("server", vec![], Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn mpmc_receive_load_balances() {
        let net = Network::new();
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        for i in 0..100u8 {
            client.send("server", vec![i]).unwrap();
        }
        let counts: Vec<usize> = thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let ep = server.clone();
                    s.spawn(move || {
                        let mut n = 0;
                        while ep.recv(Duration::from_millis(100)).is_ok() {
                            n += 1;
                        }
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            counts.iter().sum::<usize>(),
            100,
            "every message consumed exactly once"
        );
    }

    #[test]
    fn latency_delays_delivery() {
        let net = Network::with_latency(Duration::from_millis(60));
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let start = Instant::now();
        a.send("b", vec![9]).unwrap();
        assert!(b.recv(Duration::ZERO).is_err(), "must not arrive instantly");
        let msg = b.recv(Duration::from_secs(2)).unwrap();
        assert_eq!(msg.payload, vec![9]);
        assert!(start.elapsed() >= Duration::from_millis(55));
        // A round trip pays the wire both ways (and, in debug builds, walks
        // endpoints < delay < pending under the lock-order checker).
        let start = Instant::now();
        let h = thread::spawn(move || {
            b.recv(Duration::from_secs(2))
                .unwrap()
                .reply(vec![7])
                .unwrap()
        });
        assert_eq!(
            a.request("b", vec![], Duration::from_secs(2)).unwrap(),
            vec![7]
        );
        assert!(start.elapsed() >= Duration::from_millis(110));
        h.join().unwrap();
    }

    #[test]
    fn request_many_gathers_in_order() {
        let net = Network::new();
        let client = net.endpoint("client");
        let mut handles = Vec::new();
        for i in 0..4 {
            let server = net.endpoint(format!("s{i}"));
            handles.push(thread::spawn(move || {
                let req = server.recv(Duration::from_secs(2)).unwrap();
                let mut resp = req.payload.clone();
                resp.push(0xFF);
                req.reply(resp).unwrap();
            }));
        }
        let reqs: Vec<(String, Vec<u8>)> =
            (0..4).map(|i| (format!("s{i}"), vec![i as u8])).collect();
        let replies = client.request_many(&reqs, Duration::from_secs(2));
        for (i, r) in replies.iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap(),
                &vec![i as u8, 0xFF],
                "reply order preserved"
            );
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn request_many_reports_partial_failures() {
        let net = Network::new();
        let client = net.endpoint("client");
        let server = net.endpoint("alive");
        let _silent = net.endpoint("silent");
        let h = thread::spawn(move || {
            let req = server.recv(Duration::from_secs(2)).unwrap();
            req.reply(b"ok".to_vec()).unwrap();
        });
        let reqs = vec![
            ("alive".to_string(), vec![1]),
            ("missing".to_string(), vec![2]),
            ("silent".to_string(), vec![3]),
        ];
        let replies = client.request_many(&reqs, Duration::from_millis(200));
        assert_eq!(replies[0].as_ref().unwrap(), b"ok");
        assert!(matches!(replies[1], Err(NetError::UnknownEndpoint(_))));
        assert_eq!(replies[2], Err(NetError::Timeout));
        h.join().unwrap();
    }

    #[test]
    fn request_many_empty_is_noop() {
        let net = Network::new();
        let client = net.endpoint("client");
        assert!(client
            .request_many(&[], Duration::from_millis(10))
            .is_empty());
    }

    #[test]
    fn timeout_removes_pending_entry_and_late_reply_is_counted() {
        let net = Network::new();
        let reg = Registry::new();
        net.attach_obs(&reg);
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        // Regression: a timed-out request must not leak its correlation.
        let err = client
            .request("server", b"slow".to_vec(), Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(
            client.pending_len(),
            0,
            "timeout must remove the pending entry"
        );
        // The server answers *after* the client gave up: the late reply is
        // counted, not silently dropped, and must not resurrect the entry.
        let req = server.recv(Duration::from_secs(1)).unwrap();
        req.reply(b"too late".to_vec()).unwrap();
        assert_eq!(reg.counter("volap_net_late_replies_total").get(), 1);
        assert_eq!(client.pending_len(), 0);
        assert!(
            client.recv(Duration::ZERO).is_err(),
            "late reply must not enter the request queue"
        );
        // A fresh request still works (correlation space is unpoisoned).
        let h = thread::spawn(move || {
            let req = server.recv(Duration::from_secs(2)).unwrap();
            req.reply(b"ok".to_vec()).unwrap();
        });
        assert_eq!(
            client
                .request("server", vec![], Duration::from_secs(2))
                .unwrap(),
            b"ok"
        );
        h.join().unwrap();
    }

    #[test]
    fn request_many_timeout_drains_pending_and_counts_late_replies() {
        let net = Network::new();
        let reg = Registry::new();
        net.attach_obs(&reg);
        let client = net.endpoint("client");
        let fast = net.endpoint("fast");
        let slow = net.endpoint("slow");
        let h = thread::spawn(move || {
            let req = fast.recv(Duration::from_secs(2)).unwrap();
            req.reply(b"ok".to_vec()).unwrap();
        });
        let reqs = vec![
            ("fast".to_string(), vec![1]),
            ("slow".to_string(), vec![2]),
            ("missing".to_string(), vec![3]),
        ];
        let replies = client.request_many(&reqs, Duration::from_millis(100));
        h.join().unwrap();
        assert_eq!(replies[0].as_ref().unwrap(), b"ok");
        assert_eq!(replies[1], Err(NetError::Timeout));
        assert!(matches!(replies[2], Err(NetError::UnknownEndpoint(_))));
        assert_eq!(
            client.pending_len(),
            0,
            "every leg — replied, timed out, and route-failed — must be cleaned up"
        );
        // The slow worker answers after the gather returned.
        let req = slow.recv(Duration::from_secs(1)).unwrap();
        req.reply(b"late".to_vec()).unwrap();
        assert_eq!(reg.counter("volap_net_late_replies_total").get(), 1);
    }

    #[test]
    fn unregister_stops_routing() {
        let net = Network::new();
        let a = net.endpoint("a");
        let _b = net.endpoint("b");
        net.unregister("b");
        assert!(matches!(
            a.send("b", vec![]),
            Err(NetError::UnknownEndpoint(_))
        ));
    }

    #[test]
    fn unregister_ends_serve_after_the_queue_drains() {
        let net = Network::new();
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let servers: Vec<_> = (0..2)
            .map(|_| {
                let b = b.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    b.serve(|msg| got.push(msg.payload[0]));
                    got
                })
            })
            .collect();
        for i in 0..10u8 {
            a.send("b", vec![i]).unwrap();
        }
        net.unregister("b");
        let mut got: Vec<u8> = servers
            .into_iter()
            .flat_map(|s| s.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..10).collect::<Vec<_>>(),
            "every delivered request is served before the loop ends"
        );
        assert!(
            matches!(b.recv(Duration::from_secs(10)), Err(NetError::Closed)),
            "a closed queue does not wait"
        );
    }
}
