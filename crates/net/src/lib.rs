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
//!   [`Endpoint::recv`] pulls the next incoming request. The receive queue
//!   is MPMC: any number of service threads can `recv` from clones of the
//!   same endpoint, giving ZeroMQ's availability-based thread load
//!   balancing for free.
//!
//! Replies are demultiplexed by correlation ID straight into the waiting
//! requester, never through the request queue — exactly the two-socket
//! pattern the paper describes per thread.
//!
//! **Request context** rides on the fabric: an [`Envelope`] carries a
//! [`ReqCtx`] — the optional [`TraceCtx`] of a sampled request plus its
//! accounting principal — next to its correlation ID, so both survive every
//! hop. [`Endpoint::request_ctx`] / [`Endpoint::request_many_ctx`] wrap each
//! hop of a sampled request in a `net_hop` span (once a [`Tracer`] is
//! attached via [`Network::attach_tracer`]), and [`Incoming`] exposes the
//! propagated context plus the measured time the envelope spent in the
//! receive queue — the `worker_queue` stage of the paper's latency
//! breakdown.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use volap_obs::lock::{LockClass, ObsMutex, ObsRwLock};
use volap_obs::{Counter, Histogram, Registry, SpanGuard, TraceCtx, Tracer};

/// The fabric's slice of the global lock hierarchy (DESIGN.md §11.1): routing
/// reads the endpoint registry, then may hold the delay-queue sender while
/// delivering, and delivery of a reply takes the requester's pending map —
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
    /// Requests issued via `request_ctx`/`request_many_ctx`.
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

/// What a request carries besides its payload: the only way trace identity
/// and cost attribution travel between processes. The default is the
/// context-free request (unsampled, untagged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqCtx {
    /// Trace context (sampled requests only).
    pub trace: Option<TraceCtx>,
    /// Accounting principal (0 = untagged).
    pub principal: u32,
}

/// A routed message.
#[derive(Debug, Clone)]
struct Envelope {
    from: String,
    correlation: u64,
    /// `true` when this is a reply to an outstanding request.
    is_reply: bool,
    /// Propagated request context (default on replies and one-way sends).
    ctx: ReqCtx,
    /// Stamped at delivery into the destination queue, so receive-side
    /// queue-wait measurements exclude injected wire latency.
    queued_at: Option<Instant>,
    payload: Vec<u8>,
}

struct EndpointCore {
    name: String,
    queue_tx: Sender<Envelope>,
    queue_rx: Receiver<Envelope>,
    pending: ObsMutex<HashMap<u64, Sender<Envelope>>>,
    next_corr: AtomicU64,
}

impl EndpointCore {
    fn deliver(&self, mut env: Envelope, obs: Option<&NetObs>) {
        if env.is_reply {
            // Route straight to the requester. If it already gave up
            // (timeout removed the pending entry), the reply is *late*:
            // count it rather than losing the signal silently. The hand-off
            // happens while `net.pending` is held (the guard lives to the end
            // of the `match`; a reply channel has room for every reply it can
            // get, so the send never blocks): a timed-out requester that
            // finds its entry gone therefore finds the reply in its channel.
            match self.pending.lock().remove(&env.correlation) {
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
            env.queued_at = Some(Instant::now());
            let _ = self.queue_tx.send(env);
        }
    }
}

/// The delay thread's queue: `(due, destination, envelope)` in send order.
type DelayQueue = ObsMutex<Sender<(Instant, String, Envelope)>>;

struct NetworkInner {
    endpoints: ObsRwLock<HashMap<String, Arc<EndpointCore>>>,
    /// Injected one-way latency and the delay thread's queue; `None` (the
    /// default) delivers on the sender's thread and takes no lock for it.
    delay: Option<(Duration, DelayQueue)>,
    obs: OnceLock<NetObs>,
    tracer: OnceLock<Tracer>,
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
                tracer: OnceLock::new(),
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
                    let target = inner.endpoints.read().get(&to).cloned();
                    if let Some(core) = target {
                        core.deliver(env, inner.obs.get());
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
            queue_tx,
            queue_rx,
            pending: ObsMutex::new(&PENDING_CLASS, HashMap::new()),
            next_corr: AtomicU64::new(1),
        });
        let prev = self.inner.endpoints.write().insert(name.clone(), Arc::clone(&core));
        assert!(prev.is_none(), "endpoint name {name:?} already registered");
        Endpoint { net: self.clone(), core }
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

    /// Attach a causal tracer (idempotent; the first call wins). Until
    /// attached, requests propagate their context but record no spans.
    pub fn attach_tracer(&self, tracer: &Tracer) {
        let _ = self.inner.tracer.set(tracer.clone());
    }

    fn obs(&self) -> Option<&NetObs> {
        self.inner.obs.get()
    }

    fn tracer(&self) -> Option<&Tracer> {
        self.inner.tracer.get()
    }

    /// Remove an endpoint from the registry (messages to it start failing).
    pub fn unregister(&self, name: &str) {
        self.inner.endpoints.write().remove(name);
    }

    fn route(&self, to: &str, env: Envelope) -> Result<(), NetError> {
        if let Some(obs) = self.obs() {
            obs.messages.inc();
            obs.bytes.add(env.payload.len() as u64);
        }
        let target = self
            .inner
            .endpoints
            .read()
            .get(to)
            .cloned()
            .ok_or_else(|| NetError::UnknownEndpoint(to.to_string()))?;
        match &self.inner.delay {
            Some((lat, tx)) => {
                tx.lock().send((Instant::now() + *lat, to.to_string(), env)).map_err(|_| NetError::Closed)
            }
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
    /// Propagated request context (trace of a sampled request, principal).
    pub ctx: ReqCtx,
    /// Time this envelope spent in the receive queue before `recv` picked
    /// it up (excludes injected wire latency) — the `worker_queue` stage.
    pub queued: Duration,
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
            ctx: env.ctx,
            queued: env.queued_at.map(|t| t.elapsed()).unwrap_or_default(),
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
                ctx: ReqCtx::default(),
                queued_at: None,
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
                ctx: ReqCtx::default(),
                queued_at: None,
                payload,
            },
        )
    }

    /// Send a context-free request and block for the correlated reply.
    pub fn request(&self, to: &str, payload: Vec<u8>, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.request_ctx(to, payload, timeout, ReqCtx::default())
    }

    /// Send a request under `ctx` and block for the correlated reply. The
    /// principal rides the envelope as is; when `ctx.trace` is set and a
    /// tracer is attached, the hop gets a child context (propagated in the
    /// envelope) and records a `net_hop` span covering the round trip.
    pub fn request_ctx(
        &self,
        to: &str,
        payload: Vec<u8>,
        timeout: Duration,
        ctx: ReqCtx,
    ) -> Result<Vec<u8>, NetError> {
        let _timer = self.net.obs().map(|o| {
            o.requests.inc();
            o.request_seconds.start()
        });
        let (hop_ctx, mut hop_span) = self.hop_span(ctx, to);
        let corr = self.core.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.core.pending.lock().insert(corr, tx);
        let sent = self.net.route(
            to,
            Envelope {
                from: self.core.name.clone(),
                correlation: corr,
                is_reply: false,
                ctx: hop_ctx,
                queued_at: None,
                payload,
            },
        );
        if let Err(e) = sent {
            self.core.pending.lock().remove(&corr);
            if let Some(span) = hop_span.as_mut() {
                span.annotate("error", e.to_string());
            }
            return Err(e);
        }
        // On a timeout, whoever removes the pending entry decides: if it is
        // still ours the request timed out (a reply from here on is late);
        // if `deliver` took it first, the reply is already in `rx`.
        let reply = rx.recv_timeout(timeout).or_else(|e| match self.core.pending.lock().remove(&corr) {
            Some(_) => Err(e),
            None => rx.recv_timeout(Duration::ZERO),
        });
        match reply {
            Ok(env) => Ok(env.payload),
            Err(_) => {
                if let Some(obs) = self.net.obs() {
                    obs.timeouts.inc();
                }
                if let Some(span) = hop_span.as_mut() {
                    span.annotate("error", "timeout");
                }
                Err(NetError::Timeout)
            }
        }
    }

    /// The context one hop to `dest` carries, plus its `net_hop` span: a
    /// sampled request with a tracer attached gets a child context and a
    /// span (annotated with the principal, so slow traces show who the hop
    /// was for); anything else propagates `ctx` unchanged.
    fn hop_span(&self, ctx: ReqCtx, dest: &str) -> (ReqCtx, Option<SpanGuard>) {
        match (ctx.trace, self.net.tracer()) {
            (Some(parent), Some(tracer)) => {
                let child = tracer.child(&parent);
                let mut span = tracer.span(&child, "net_hop");
                span.annotate("dest", dest);
                if ctx.principal != 0 {
                    span.annotate("principal", ctx.principal.to_string());
                }
                (ReqCtx { trace: Some(child), ..ctx }, Some(span))
            }
            _ => (ctx, None),
        }
    }

    /// Issue several context-free requests concurrently (see
    /// [`Endpoint::request_many_ctx`]).
    pub fn request_many(
        &self,
        requests: &[(String, Vec<u8>)],
        timeout: Duration,
    ) -> Vec<Result<Vec<u8>, NetError>> {
        self.request_many_ctx(requests, timeout, ReqCtx::default())
    }

    /// Issue several requests concurrently under `ctx` and block until
    /// every reply has arrived (or the shared deadline passes). Returns one
    /// result per request, in order. This is the scatter/gather primitive
    /// servers use to query many workers in one round trip without spawning
    /// threads. Each fan-out leg of a sampled request gets its own child
    /// context and `net_hop` span, closed as its reply arrives (stragglers
    /// close at the deadline with an `error` annotation), so an assembled
    /// trace shows exactly which worker a scatter waited on.
    pub fn request_many_ctx(
        &self,
        requests: &[(String, Vec<u8>)],
        timeout: Duration,
        ctx: ReqCtx,
    ) -> Vec<Result<Vec<u8>, NetError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let n = requests.len();
        let _timer = self.net.obs().map(|o| {
            o.requests.add(n as u64);
            o.request_seconds.start()
        });
        let (tx, rx) = bounded(n);
        let mut corr_to_idx = HashMap::with_capacity(n);
        let mut results: Vec<Result<Vec<u8>, NetError>> =
            (0..n).map(|_| Err(NetError::Timeout)).collect();
        let mut hop_spans: Vec<Option<SpanGuard>> = (0..n).map(|_| None).collect();
        let mut outstanding = 0usize;
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
        for (i, (to, payload)) in requests.iter().enumerate() {
            let corr = base + i as u64;
            let (hop_ctx, hop_span) = self.hop_span(ctx, to);
            hop_spans[i] = hop_span;
            let sent = self.net.route(
                to,
                Envelope {
                    from: self.core.name.clone(),
                    correlation: corr,
                    is_reply: false,
                    ctx: hop_ctx,
                    queued_at: None,
                    payload: payload.clone(),
                },
            );
            match sent {
                Ok(()) => {
                    corr_to_idx.insert(corr, i);
                    outstanding += 1;
                }
                Err(e) => {
                    self.core.pending.lock().remove(&corr);
                    if let Some(span) = hop_spans[i].as_mut() {
                        span.annotate("error", e.to_string());
                    }
                    hop_spans[i] = None; // record the failed hop now
                    results[i] = Err(e);
                }
            }
        }
        // Gather until the deadline, then forget the stragglers and take
        // once more without waiting: a reply `deliver` handed over before
        // the sweep removed its entry is in `rx`, not late (see `deliver`).
        let deadline = Instant::now() + timeout;
        let mut swept = false;
        while outstanding > 0 {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(env) => {
                    if let Some(&i) = corr_to_idx.get(&env.correlation) {
                        results[i] = Ok(env.payload);
                        hop_spans[i] = None; // close this leg's span
                        outstanding -= 1;
                    }
                }
                Err(_) if !swept => {
                    let mut pending = self.core.pending.lock();
                    for &corr in corr_to_idx.keys() {
                        pending.remove(&corr);
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
            for (i, span) in hop_spans.iter_mut().enumerate() {
                if let Some(span) = span.as_mut() {
                    if results[i].is_err() {
                        span.annotate("error", "timeout");
                    }
                }
            }
        }
        results
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
            Ok(env) => Ok(Incoming::from_env(env, self.net.clone(), self.core.name.clone())),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
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
        client.request("server", b"ping".to_vec(), Duration::from_secs(2)).unwrap();
        h.join().unwrap();
        assert!(client.recv(Duration::ZERO).is_err(), "reply must not appear as a request");
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
    fn principal_tag_propagates_to_the_receiver() {
        let net = Network::new();
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        let handle = thread::spawn(move || {
            let tagged = server.recv(Duration::from_secs(2)).unwrap();
            let principal = tagged.ctx.principal;
            tagged.reply(vec![]).unwrap();
            let untagged = server.recv(Duration::from_secs(2)).unwrap();
            let none = untagged.ctx.principal;
            untagged.reply(vec![]).unwrap();
            (principal, none)
        });
        client
            .request_ctx("server", vec![1], Duration::from_secs(2), ReqCtx { trace: None, principal: 7 })
            .unwrap();
        client.request("server", vec![2], Duration::from_secs(2)).unwrap();
        let (principal, none) = handle.join().unwrap();
        assert_eq!(principal, 7, "tag must ride the envelope to the handler");
        assert_eq!(none, 0, "untagged requests arrive with principal 0");
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
        assert_eq!(counts.iter().sum::<usize>(), 100, "every message consumed exactly once");
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
        let h = thread::spawn(move || b.recv(Duration::from_secs(2)).unwrap().reply(vec![7]).unwrap());
        assert_eq!(a.request("b", vec![], Duration::from_secs(2)).unwrap(), vec![7]);
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
            assert_eq!(r.as_ref().unwrap(), &vec![i as u8, 0xFF], "reply order preserved");
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
        assert!(client.request_many(&[], Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn timeout_removes_pending_entry_and_late_reply_is_counted() {
        let net = Network::new();
        let reg = Registry::new(true);
        net.attach_obs(&reg);
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        // Regression: a timed-out request must not leak its correlation.
        let err = client.request("server", b"slow".to_vec(), Duration::from_millis(30)).unwrap_err();
        assert_eq!(err, NetError::Timeout);
        assert_eq!(client.pending_len(), 0, "timeout must remove the pending entry");
        // The server answers *after* the client gave up: the late reply is
        // counted, not silently dropped, and must not resurrect the entry.
        let req = server.recv(Duration::from_secs(1)).unwrap();
        req.reply(b"too late".to_vec()).unwrap();
        assert_eq!(reg.counter("volap_net_late_replies_total").get(), 1);
        assert_eq!(client.pending_len(), 0);
        assert!(client.recv(Duration::ZERO).is_err(), "late reply must not enter the request queue");
        // A fresh request still works (correlation space is unpoisoned).
        let h = thread::spawn(move || {
            let req = server.recv(Duration::from_secs(2)).unwrap();
            req.reply(b"ok".to_vec()).unwrap();
        });
        assert_eq!(client.request("server", vec![], Duration::from_secs(2)).unwrap(), b"ok");
        h.join().unwrap();
    }

    #[test]
    fn request_many_timeout_drains_pending_and_counts_late_replies() {
        let net = Network::new();
        let reg = Registry::new(true);
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
    fn trace_ctx_propagates_and_hops_record_spans() {
        use volap_obs::{TraceConfig, Tracer};
        let net = Network::new();
        let tracer = Tracer::new(TraceConfig { sample: 1, ..TraceConfig::default() });
        net.attach_tracer(&tracer);
        let client = net.endpoint("client");
        let server = net.endpoint("server");
        let root = tracer.sample_root().unwrap();
        let h = thread::spawn(move || {
            let req = server.recv(Duration::from_secs(2)).unwrap();
            let ctx = req.ctx.trace.expect("context must propagate in the envelope");
            req.reply(b"ok".to_vec()).unwrap();
            ctx
        });
        let reply = client
            .request_ctx("server", b"ping".to_vec(), Duration::from_secs(2), ReqCtx { trace: Some(root), principal: 0 })
            .unwrap();
        assert_eq!(reply, b"ok");
        let seen = h.join().unwrap();
        assert_eq!(seen.trace_id, root.trace_id);
        assert_eq!(seen.parent_span_id, root.span_id, "hop is a child of the root");
        let trace = tracer.assemble(root.trace_id).expect("hop span recorded");
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "net_hop");
        assert_eq!(trace.spans[0].annotation("dest"), Some("server"));
        // Untraced requests stay contextless even with a tracer attached.
        let h2 = thread::spawn({
            let server2 = net.endpoint("server2");
            move || {
                let req = server2.recv(Duration::from_secs(2)).unwrap();
                assert_eq!(req.ctx, ReqCtx::default());
                req.reply(vec![]).unwrap();
            }
        });
        client.request("server2", vec![], Duration::from_secs(2)).unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn sampled_request_many_spans_every_leg() {
        use volap_obs::{TraceConfig, Tracer};
        let net = Network::new();
        let tracer = Tracer::new(TraceConfig { sample: 1, ..TraceConfig::default() });
        net.attach_tracer(&tracer);
        let client = net.endpoint("client");
        let mut handles = Vec::new();
        for i in 0..3 {
            let server = net.endpoint(format!("s{i}"));
            handles.push(thread::spawn(move || {
                let req = server.recv(Duration::from_secs(2)).unwrap();
                let ctx = req.ctx.trace.expect("fan-out leg carries a context");
                req.reply(vec![]).unwrap();
                ctx
            }));
        }
        let root = tracer.sample_root().unwrap();
        let reqs: Vec<(String, Vec<u8>)> = (0..3).map(|i| (format!("s{i}"), vec![i])).collect();
        let replies =
            client.request_many_ctx(&reqs, Duration::from_secs(2), ReqCtx { trace: Some(root), principal: 0 });
        assert!(replies.iter().all(Result::is_ok));
        let mut leg_spans = std::collections::HashSet::new();
        for h in handles {
            let ctx = h.join().unwrap();
            assert_eq!(ctx.trace_id, root.trace_id);
            assert_eq!(ctx.parent_span_id, root.span_id);
            leg_spans.insert(ctx.span_id);
        }
        assert_eq!(leg_spans.len(), 3, "every leg gets its own span id");
        let trace = tracer.assemble(root.trace_id).unwrap();
        let hops: Vec<_> = trace.spans.iter().filter(|s| s.name == "net_hop").collect();
        assert_eq!(hops.len(), 3);
        assert!(hops.iter().all(|s| s.parent_span_id == root.span_id));
    }

    #[test]
    fn queue_wait_is_measured() {
        let net = Network::new();
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        a.send("b", vec![1]).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let msg = b.recv(Duration::from_secs(1)).unwrap();
        assert!(msg.queued >= Duration::from_millis(15), "queue wait {:?}", msg.queued);
    }

    #[test]
    fn unregister_stops_routing() {
        let net = Network::new();
        let a = net.endpoint("a");
        let _b = net.endpoint("b");
        net.unregister("b");
        assert!(matches!(a.send("b", vec![]), Err(NetError::UnknownEndpoint(_))));
    }
}
