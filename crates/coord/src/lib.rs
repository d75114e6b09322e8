//! A versioned hierarchical coordination store with watches: the Zookeeper
//! substitute.
//!
//! VOLAP keeps its global *system image* in Zookeeper (§III-B): member
//! lists, configuration, and per-shard size / bounding box / worker address.
//! Servers cache a local image and rely on Zookeeper *watches* to learn of
//! changes "without wasteful polling"; workers publish shard statistics for
//! the manager's load-balancing decisions.
//!
//! [`CoordService`] reproduces the subset VOLAP uses:
//!
//! * slash-separated paths holding opaque byte payloads,
//! * per-node versions with optional compare-and-set,
//! * sequential node creation (for ID allocation),
//! * child listing by prefix, and
//! * prefix **watches** delivering [`WatchEvent`]s over a channel.
//!
//! Deviation from real Zookeeper: watches here are *persistent* rather than
//! one-shot (each registered watcher keeps receiving events until dropped).
//! VOLAP re-arms its one-shot watches immediately on every event, so the
//! persistent form is behaviour-equivalent and removes a class of
//! re-registration races.

use std::collections::BTreeMap;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use volap_obs::lock::{LockClass, ObsRwLock};

/// Coordination-store slice of the global lock hierarchy (DESIGN.md §11.1).
/// `create_sequential` holds the sequence counter while inserting into the
/// node map, so seq < nodes; every other pair is acquired sequentially via
/// scoped blocks. Watch notification always runs with the node map already
/// released, but watches still ranks last so a future combined path stays
/// legal.
static NEXT_SESSION_CLASS: LockClass = LockClass::new("coord.next_session", 70);
static SESSIONS_CLASS: LockClass = LockClass::new("coord.sessions", 71);
static SEQ_CLASS: LockClass = LockClass::new("coord.seq", 72);
static NODES_CLASS: LockClass = LockClass::new("coord.nodes", 73);
static WATCHES_CLASS: LockClass = LockClass::new("coord.watches", 74);

/// Errors returned by the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordError {
    /// The path does not exist.
    NoNode(String),
    /// A `create` hit an existing path.
    NodeExists(String),
    /// A compare-and-set saw a different version.
    BadVersion {
        /// Path of the node.
        path: String,
        /// Version the caller expected.
        expected: u64,
        /// Version actually present.
        actual: u64,
    },
}

impl std::fmt::Display for CoordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoordError::NoNode(p) => write!(f, "no node at {p}"),
            CoordError::NodeExists(p) => write!(f, "node already exists at {p}"),
            CoordError::BadVersion { path, expected, actual } => {
                write!(f, "bad version at {path}: expected {expected}, actual {actual}")
            }
        }
    }
}

impl std::error::Error for CoordError {}

/// What happened to a watched path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Node created.
    Created,
    /// Node data changed.
    Changed,
    /// Node deleted.
    Deleted,
}

/// A change notification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Affected path.
    pub path: String,
    /// Kind of change.
    pub kind: EventKind,
    /// Version after the change (0 for deletions).
    pub version: u64,
}

#[derive(Debug, Clone)]
struct Znode {
    data: Vec<u8>,
    version: u64,
    /// Owning session for ephemeral nodes (`None` = persistent).
    owner: Option<SessionId>,
}

/// Handle to a coordination session (Zookeeper-style). Ephemeral nodes
/// created under a session disappear when the session expires — the
/// liveness primitive behind worker membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

#[derive(Debug)]
struct SessionState {
    /// Instant of the last heartbeat.
    last_seen: std::time::Instant,
    ttl: std::time::Duration,
}

struct CoordInner {
    nodes: ObsRwLock<BTreeMap<String, Znode>>,
    watches: ObsRwLock<Vec<(String, Sender<WatchEvent>)>>,
    seq: ObsRwLock<u64>,
    sessions: ObsRwLock<std::collections::HashMap<SessionId, SessionState>>,
    next_session: ObsRwLock<u64>,
}

/// The coordination store. Cloneable handle; all clones share state.
#[derive(Clone)]
pub struct CoordService {
    inner: Arc<CoordInner>,
}

impl Default for CoordService {
    fn default() -> Self {
        Self::new()
    }
}

impl CoordService {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(CoordInner {
                nodes: ObsRwLock::new(&NODES_CLASS, BTreeMap::new()),
                watches: ObsRwLock::new(&WATCHES_CLASS, Vec::new()),
                seq: ObsRwLock::new(&SEQ_CLASS, 0),
                sessions: ObsRwLock::new(&SESSIONS_CLASS, std::collections::HashMap::new()),
                next_session: ObsRwLock::new(&NEXT_SESSION_CLASS, 0),
            }),
        }
    }

    fn notify(&self, path: &str, kind: EventKind, version: u64) {
        let mut watches = self.inner.watches.write();
        watches.retain(|(prefix, tx)| {
            if path.starts_with(prefix.as_str()) {
                tx.send(WatchEvent { path: path.to_string(), kind, version }).is_ok()
            } else {
                true
            }
        });
    }

    /// Create a node. Fails if it exists.
    pub fn create(&self, path: &str, data: Vec<u8>) -> Result<u64, CoordError> {
        validate_path(path);
        {
            let mut nodes = self.inner.nodes.write();
            if nodes.contains_key(path) {
                return Err(CoordError::NodeExists(path.to_string()));
            }
            nodes.insert(path.to_string(), Znode { data, version: 1, owner: None });
        }
        self.notify(path, EventKind::Created, 1);
        Ok(1)
    }

    /// Create a node under `prefix` with a unique ascending sequence number
    /// appended (Zookeeper's sequential nodes); returns the full path.
    pub fn create_sequential(&self, prefix: &str, data: Vec<u8>) -> String {
        validate_path(prefix);
        let path = {
            let mut seq = self.inner.seq.write();
            *seq += 1;
            let path = format!("{prefix}{:010}", *seq);
            self.inner.nodes.write().insert(path.clone(), Znode { data, version: 1, owner: None });
            path
        };
        self.notify(&path, EventKind::Created, 1);
        path
    }

    /// Write a node, creating it if absent. With `expected_version`, the
    /// write succeeds only if the current version matches (compare-and-set).
    /// Returns the new version.
    pub fn set(
        &self,
        path: &str,
        data: Vec<u8>,
        expected_version: Option<u64>,
    ) -> Result<u64, CoordError> {
        validate_path(path);
        let (kind, version) = {
            let mut nodes = self.inner.nodes.write();
            match nodes.get_mut(path) {
                Some(z) => {
                    if let Some(ev) = expected_version {
                        if z.version != ev {
                            return Err(CoordError::BadVersion {
                                path: path.to_string(),
                                expected: ev,
                                actual: z.version,
                            });
                        }
                    }
                    z.data = data;
                    z.version += 1;
                    (EventKind::Changed, z.version)
                }
                None => {
                    if let Some(ev) = expected_version {
                        return Err(CoordError::BadVersion {
                            path: path.to_string(),
                            expected: ev,
                            actual: 0,
                        });
                    }
                    nodes.insert(path.to_string(), Znode { data, version: 1, owner: None });
                    (EventKind::Created, 1)
                }
            }
        };
        self.notify(path, kind, version);
        Ok(version)
    }

    /// Read a node's data and version.
    pub fn get(&self, path: &str) -> Option<(Vec<u8>, u64)> {
        self.inner.nodes.read().get(path).map(|z| (z.data.clone(), z.version))
    }

    /// Whether a node exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.nodes.read().contains_key(path)
    }

    /// Delete a node. Fails if absent.
    pub fn delete(&self, path: &str) -> Result<(), CoordError> {
        {
            let mut nodes = self.inner.nodes.write();
            if nodes.remove(path).is_none() {
                return Err(CoordError::NoNode(path.to_string()));
            }
        }
        self.notify(path, EventKind::Deleted, 0);
        Ok(())
    }

    /// All paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner
            .nodes
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// All `(path, data, version)` triples with the given prefix.
    pub fn list_with_data(&self, prefix: &str) -> Vec<(String, Vec<u8>, u64)> {
        self.inner
            .nodes
            .read()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, z)| (k.clone(), z.data.clone(), z.version))
            .collect()
    }

    /// Register a persistent prefix watch. Events for every mutation under
    /// `prefix` arrive on the returned channel until the receiver is
    /// dropped.
    pub fn watch_prefix(&self, prefix: &str) -> Receiver<WatchEvent> {
        let (tx, rx) = unbounded();
        self.inner.watches.write().push((prefix.to_string(), tx));
        rx
    }

    /// Number of stored nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.inner.nodes.read().len()
    }

    /// Open a session with the given time-to-live. The session stays alive
    /// as long as [`CoordService::heartbeat`] is called within every `ttl`
    /// window; when it expires, all its ephemeral nodes are deleted (with
    /// watch events), exactly like a Zookeeper session loss.
    pub fn open_session(&self, ttl: std::time::Duration) -> SessionId {
        let id = {
            let mut next = self.inner.next_session.write();
            *next += 1;
            SessionId(*next)
        };
        self.inner
            .sessions
            .write()
            .insert(id, SessionState { last_seen: std::time::Instant::now(), ttl });
        id
    }

    /// Refresh a session's liveness. Returns `false` if the session is
    /// unknown or already expired.
    pub fn heartbeat(&self, id: SessionId) -> bool {
        self.reap_expired();
        match self.inner.sessions.write().get_mut(&id) {
            Some(st) => {
                st.last_seen = std::time::Instant::now();
                true
            }
            None => false,
        }
    }

    /// Whether a session is currently alive.
    pub fn session_alive(&self, id: SessionId) -> bool {
        self.reap_expired();
        self.inner.sessions.read().contains_key(&id)
    }

    /// Close a session explicitly, deleting its ephemeral nodes.
    pub fn close_session(&self, id: SessionId) {
        self.inner.sessions.write().remove(&id);
        self.delete_owned_by(id);
    }

    /// Create an ephemeral node owned by `session`. Fails like
    /// [`CoordService::create`] on existing paths, or with `NoNode` when
    /// the session is dead.
    pub fn create_ephemeral(
        &self,
        path: &str,
        data: Vec<u8>,
        session: SessionId,
    ) -> Result<u64, CoordError> {
        validate_path(path);
        self.reap_expired();
        if !self.inner.sessions.read().contains_key(&session) {
            return Err(CoordError::NoNode(format!("session {session:?} expired")));
        }
        {
            let mut nodes = self.inner.nodes.write();
            if nodes.contains_key(path) {
                return Err(CoordError::NodeExists(path.to_string()));
            }
            nodes.insert(path.to_string(), Znode { data, version: 1, owner: Some(session) });
        }
        self.notify(path, EventKind::Created, 1);
        Ok(1)
    }

    /// Expire sessions past their TTL and delete their ephemeral nodes.
    /// Called implicitly by session operations; callable explicitly by a
    /// housekeeping loop.
    pub fn reap_expired(&self) {
        let now = std::time::Instant::now();
        let dead: Vec<SessionId> = self
            .inner
            .sessions
            .read()
            .iter()
            .filter(|(_, st)| now.duration_since(st.last_seen) > st.ttl)
            .map(|(&id, _)| id)
            .collect();
        if dead.is_empty() {
            return;
        }
        {
            let mut sessions = self.inner.sessions.write();
            for id in &dead {
                sessions.remove(id);
            }
        }
        for id in dead {
            self.delete_owned_by(id);
        }
    }

    fn delete_owned_by(&self, id: SessionId) {
        let doomed: Vec<String> = {
            let nodes = self.inner.nodes.read();
            nodes
                .iter()
                .filter(|(_, z)| z.owner == Some(id))
                .map(|(k, _)| k.clone())
                .collect()
        };
        {
            let mut nodes = self.inner.nodes.write();
            for path in &doomed {
                nodes.remove(path);
            }
        }
        for path in doomed {
            self.notify(&path, EventKind::Deleted, 0);
        }
    }
}

fn validate_path(path: &str) {
    assert!(path.starts_with('/'), "paths must be absolute (start with '/'): {path:?}");
    assert!(!path.contains("//"), "paths must not contain empty segments: {path:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn create_get_set_delete() {
        let c = CoordService::new();
        assert_eq!(c.create("/a", b"1".to_vec()), Ok(1));
        assert_eq!(c.create("/a", b"2".to_vec()), Err(CoordError::NodeExists("/a".into())));
        assert_eq!(c.get("/a"), Some((b"1".to_vec(), 1)));
        assert_eq!(c.set("/a", b"2".to_vec(), None), Ok(2));
        assert_eq!(c.get("/a"), Some((b"2".to_vec(), 2)));
        assert!(c.exists("/a"));
        assert_eq!(c.delete("/a"), Ok(()));
        assert!(!c.exists("/a"));
        assert_eq!(c.delete("/a"), Err(CoordError::NoNode("/a".into())));
    }

    #[test]
    fn compare_and_set_guards_versions() {
        let c = CoordService::new();
        c.create("/cfg", b"x".to_vec()).unwrap();
        assert_eq!(c.set("/cfg", b"y".to_vec(), Some(1)), Ok(2));
        let err = c.set("/cfg", b"z".to_vec(), Some(1)).unwrap_err();
        assert_eq!(
            err,
            CoordError::BadVersion { path: "/cfg".into(), expected: 1, actual: 2 }
        );
        // CAS against a missing node also fails.
        assert!(matches!(
            c.set("/nope", vec![], Some(3)),
            Err(CoordError::BadVersion { actual: 0, .. })
        ));
    }

    #[test]
    fn set_upserts_without_version() {
        let c = CoordService::new();
        assert_eq!(c.set("/fresh", b"v".to_vec(), None), Ok(1));
        assert_eq!(c.get("/fresh"), Some((b"v".to_vec(), 1)));
    }

    #[test]
    fn sequential_nodes_ascend() {
        let c = CoordService::new();
        let p1 = c.create_sequential("/shards/shard-", vec![1]);
        let p2 = c.create_sequential("/shards/shard-", vec![2]);
        assert!(p1 < p2);
        assert_eq!(c.list("/shards/"), vec![p1, p2]);
    }

    #[test]
    fn list_filters_by_prefix() {
        let c = CoordService::new();
        c.create("/workers/w1", vec![]).unwrap();
        c.create("/workers/w2", vec![]).unwrap();
        c.create("/servers/s1", vec![]).unwrap();
        assert_eq!(c.list("/workers/"), vec!["/workers/w1".to_string(), "/workers/w2".to_string()]);
        assert_eq!(c.list_with_data("/servers/").len(), 1);
        assert_eq!(c.list("/nothing/"), Vec::<String>::new());
    }

    #[test]
    fn watches_deliver_all_kinds() {
        let c = CoordService::new();
        let rx = c.watch_prefix("/shards/");
        c.create("/shards/1", b"a".to_vec()).unwrap();
        c.set("/shards/1", b"b".to_vec(), None).unwrap();
        c.delete("/shards/1").unwrap();
        c.create("/other/1", vec![]).unwrap(); // must not be seen
        let events: Vec<WatchEvent> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(1)).unwrap())
            .collect();
        assert_eq!(events[0].kind, EventKind::Created);
        assert_eq!(events[1].kind, EventKind::Changed);
        assert_eq!(events[1].version, 2);
        assert_eq!(events[2].kind, EventKind::Deleted);
        assert!(rx.try_recv().is_err(), "no cross-prefix leakage");
    }

    #[test]
    fn dropped_watchers_are_pruned() {
        let c = CoordService::new();
        let rx = c.watch_prefix("/x/");
        drop(rx);
        c.create("/x/1", vec![]).unwrap(); // prunes the dead watcher
        c.create("/x/2", vec![]).unwrap();
        assert_eq!(c.inner.watches.read().len(), 0);
    }

    #[test]
    fn concurrent_writers_are_serialized() {
        let c = CoordService::new();
        c.create("/counter", vec![0]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        loop {
                            let (data, v) = c.get("/counter").unwrap();
                            let mut next = data.clone();
                            next[0] = next[0].wrapping_add(1);
                            if c.set("/counter", next, Some(v)).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let (_, version) = c.get("/counter").unwrap();
        assert_eq!(version, 801, "800 successful CAS writes after create");
    }

    #[test]
    #[should_panic(expected = "absolute")]
    fn rejects_relative_paths() {
        CoordService::new().create("oops", vec![]).unwrap();
    }

    #[test]
    fn ephemeral_nodes_die_with_their_session() {
        let c = CoordService::new();
        let rx = c.watch_prefix("/live/");
        let session = c.open_session(Duration::from_millis(60));
        c.create_ephemeral("/live/w0", b"hi".to_vec(), session).unwrap();
        assert!(c.exists("/live/w0"));
        assert!(c.session_alive(session));
        // Heartbeats keep it alive past the raw TTL.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(30));
            assert!(c.heartbeat(session));
        }
        assert!(c.exists("/live/w0"));
        // Stop heartbeating: the node disappears and a Deleted event fires.
        std::thread::sleep(Duration::from_millis(120));
        c.reap_expired();
        assert!(!c.exists("/live/w0"));
        assert!(!c.session_alive(session));
        assert!(!c.heartbeat(session), "expired sessions cannot be revived");
        let kinds: Vec<EventKind> = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, vec![EventKind::Created, EventKind::Deleted]);
    }

    #[test]
    fn close_session_removes_nodes_immediately() {
        let c = CoordService::new();
        let s1 = c.open_session(Duration::from_secs(60));
        let s2 = c.open_session(Duration::from_secs(60));
        c.create_ephemeral("/m/a", vec![], s1).unwrap();
        c.create_ephemeral("/m/b", vec![], s2).unwrap();
        c.create("/m/p", vec![]).unwrap(); // persistent survives
        c.close_session(s1);
        assert!(!c.exists("/m/a"));
        assert!(c.exists("/m/b"), "other sessions unaffected");
        assert!(c.exists("/m/p"));
    }

    #[test]
    fn ephemeral_create_requires_live_session() {
        let c = CoordService::new();
        let s = c.open_session(Duration::from_secs(60));
        c.close_session(s);
        assert!(matches!(
            c.create_ephemeral("/x/a", vec![], s),
            Err(CoordError::NoNode(_))
        ));
        // Path collisions still reported.
        let s2 = c.open_session(Duration::from_secs(60));
        c.create("/x/b", vec![]).unwrap();
        assert!(matches!(
            c.create_ephemeral("/x/b", vec![], s2),
            Err(CoordError::NodeExists(_))
        ));
    }
}
