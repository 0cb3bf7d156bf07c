//! `ReplicaNode`: a warm read-only mirror fed by the primary's delta
//! checkpoint stream.
//!
//! The feed thread keeps one [`ChainFold`] over the primary's chain and
//! folds every [`ReplSegment`] into it in place: a delta replaces only
//! the shards it carries, after the same integrity checks a crash
//! recovery applies (checksums, parent digest, epoch order, totals).
//! Decoding happens outside the mirror lock; the lock is held only to
//! swap in the new snapshot, so local reads never wait for a fold. The
//! replica then acknowledges the segment's chain digest, which is what
//! a reconnect resumes from. A delta that does not cite the replica's
//! tip is refused by the fold itself. When the primary restarts its
//! chain (or a reconnect finds the acknowledged digest gone) it sends a
//! full frame, which starts a fresh fold.
//!
//! [`ReplSegment`]: crate::wire::Frame::ReplSegment

use crate::client::{connect, expect_hello_ok};
use crate::conn::FrameConn;
use crate::error::{NetError, RefuseCode};
use crate::wire::{Frame, Identity, Role, NEW_PRODUCER};
use ac_core::{ApproxCounter, CounterFamily};
use ac_engine::{
    read_header, ChainFold, CheckpointError, CheckpointHeader, CheckpointKind, EngineSnapshot,
};
use ac_randkit::{mix64, Xoshiro256PlusPlus};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Replica-side knobs.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Unused: the replica folds each segment in place and keeps no
    /// chain, so there is nothing to compact. The field stays so
    /// existing `ReplicaConfig { .. }` literals keep building.
    pub max_chain_segments: usize,
    /// Backoff between reconnect attempts after a lost feed.
    pub retry: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            max_chain_segments: 16,
            retry: Duration::from_millis(200),
        }
    }
}

/// What local reads see: the snapshot folded from the primary's chain
/// and the header of the last segment folded into it.
#[derive(Debug, Default)]
struct Mirror {
    tip: Option<CheckpointHeader>,
    snap: Option<Arc<EngineSnapshot<CounterFamily>>>,
    folds: u64,
}

#[derive(Debug)]
struct ReplicaInner {
    addr: SocketAddr,
    identity: Identity,
    template: CounterFamily,
    config: ReplicaConfig,
    mirror: RwLock<Mirror>,
    stop: AtomicBool,
    failed: Mutex<Option<String>>,
}

/// A node-to-node replica of a remote [`Store`]: connects to a
/// [`StoreServer`], folds its delta checkpoint stream, and serves
/// local reads from the folded snapshots.
///
/// [`Store`]: ac_engine::Store
/// [`StoreServer`]: crate::StoreServer
#[derive(Debug)]
pub struct ReplicaNode {
    inner: Arc<ReplicaInner>,
    feed: Option<JoinHandle<()>>,
}

impl ReplicaNode {
    /// Connects to the primary at `addr` with default knobs.
    ///
    /// # Errors
    ///
    /// Everything [`ReplicaNode::connect_with`] returns.
    pub fn connect(addr: impl ToSocketAddrs, identity: Identity) -> Result<ReplicaNode, NetError> {
        ReplicaNode::connect_with(addr, identity, ReplicaConfig::default())
    }

    /// Connects to the primary at `addr`, performing the `HELLO`
    /// handshake in the foreground (so identity mismatches and
    /// unsupported-store refusals surface here, not in a log), then
    /// hands the feed to a background thread.
    ///
    /// # Errors
    ///
    /// Connect failures and handshake refusals.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        identity: Identity,
        config: ReplicaConfig,
    ) -> Result<ReplicaNode, NetError> {
        let addr = addr.to_socket_addrs()?.next().ok_or(NetError::Malformed {
            what: "address resolves to nothing",
        })?;
        let template = identity.spec.build().map_err(|_| NetError::Malformed {
            what: "replica spec does not build",
        })?;
        let mut conn = connect(addr, &identity, Role::Replica, NEW_PRODUCER, 0)?;
        expect_hello_ok(&mut conn)?;
        let inner = Arc::new(ReplicaInner {
            addr,
            identity,
            template,
            config,
            mirror: RwLock::new(Mirror::default()),
            stop: AtomicBool::new(false),
            failed: Mutex::new(None),
        });
        let feed_inner = Arc::clone(&inner);
        let feed = std::thread::Builder::new()
            .name("ac-net-replica".into())
            .spawn(move || feed_loop(&feed_inner, conn))
            .expect("spawn replica feed");
        Ok(ReplicaNode {
            inner,
            feed: Some(feed),
        })
    }

    /// The chain digest of the last segment folded and acknowledged
    /// (0 before the first). Equal digests on primary and replica mean
    /// the replica's state *is* the primary's checkpointed state.
    #[must_use]
    pub fn chain_digest(&self) -> u64 {
        self.inner.chain_digest()
    }

    /// How many segments have been folded since connecting.
    #[must_use]
    pub fn folds(&self) -> u64 {
        self.inner.mirror.read().expect("mirror").folds
    }

    /// The freeze epoch of the folded snapshot (0 before the first
    /// fold) — the epoch the primary cut the mirrored checkpoint at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.tip.map_or(0, |t| t.epoch)
    }

    /// Per-key estimate against the folded snapshot; `None` before the
    /// first fold or for a key never seen.
    #[must_use]
    pub fn estimate(&self, key: u64) -> Option<f64> {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.snap.as_ref()?.estimate(key)
    }

    /// Exact total events in the folded snapshot (0 before the first
    /// fold).
    #[must_use]
    pub fn total_events(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.snap.as_ref().map_or(0, |s| s.total_events())
    }

    /// Distinct keys in the folded snapshot.
    #[must_use]
    pub fn len(&self) -> u64 {
        let mirror = self.inner.mirror.read().expect("mirror");
        mirror.snap.as_ref().map_or(0, |s| s.len() as u64)
    }

    /// True before the first fold or while the mirror holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The merged aggregate estimate of the folded snapshot, seeded
    /// exactly like the primary's [`StoreReader::merged_estimate`] at
    /// the same epoch — a replica and a primary reader pinned to the
    /// same freeze agree on the merge.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] before the first fold;
    /// [`NetError::Remote`] for merge failures (unreachable for a
    /// store's homogeneous counters).
    ///
    /// [`StoreReader::merged_estimate`]: ac_engine::StoreReader::merged_estimate
    pub fn merged_estimate(&self) -> Result<f64, NetError> {
        Ok(self.merged_total()?.estimate())
    }

    /// The merged aggregate counter itself (see
    /// [`ReplicaNode::merged_estimate`] for the determinism contract).
    ///
    /// # Errors
    ///
    /// See [`ReplicaNode::merged_estimate`].
    pub fn merged_total(&self) -> Result<CounterFamily, NetError> {
        let mirror = self.inner.mirror.read().expect("mirror");
        let snap = mirror.snap.as_ref().ok_or(NetError::Malformed {
            what: "replica has not folded a snapshot yet",
        })?;
        let epoch = mirror.tip.map_or(0, |t| t.epoch);
        let mut rng =
            Xoshiro256PlusPlus::seed_from_u64(mix64(self.inner.identity.seed ^ mix64(epoch)));
        snap.merged_total(&mut rng).map_err(|e| NetError::Remote {
            reason: e.to_string(),
        })
    }

    /// Why the feed died, if it did (fold failures and permanent
    /// refusals land here; transient connection losses do not — the
    /// feed retries those).
    #[must_use]
    pub fn failed(&self) -> Option<String> {
        self.inner.failed.lock().expect("failed slot").clone()
    }

    /// Blocks until the folded snapshot reports at least `events`
    /// total events, or `timeout` passes. True on success.
    #[must_use]
    pub fn wait_for_events(&self, events: u64, timeout: Duration) -> bool {
        self.wait(timeout, || self.total_events() >= events)
    }

    /// Blocks until the acknowledged chain digest equals `digest`, or
    /// `timeout` passes. True on success. Pair with the primary's tip
    /// digest to observe convergence.
    #[must_use]
    pub fn wait_for_chain(&self, digest: u64, timeout: Duration) -> bool {
        self.wait(timeout, || self.chain_digest() == digest)
    }

    fn wait(&self, timeout: Duration, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done() {
                return true;
            }
            if Instant::now() >= deadline || self.failed().is_some() {
                return done();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the feed and joins it. The folded state stays readable
    /// through this handle until drop.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        if let Some(h) = self.feed.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicaNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ReplicaInner {
    fn chain_digest(&self) -> u64 {
        let mirror = self.mirror.read().expect("mirror");
        mirror.tip.map_or(0, |t| t.chain)
    }
}

fn feed_loop(inner: &ReplicaInner, mut conn: FrameConn) {
    let stop = || inner.stop.load(Ordering::Acquire);
    let mut fold = None;
    loop {
        match conn.recv_interruptible(&stop) {
            Ok(Frame::ReplSegment { bytes }) => {
                let chain = match fold_segment(inner, &mut fold, &bytes) {
                    Ok(chain) => chain,
                    Err(e) => {
                        // A segment that does not fold is corruption or
                        // a protocol bug, not weather — stop rather
                        // than ack state we do not hold.
                        fail(inner, &format!("segment fold failed: {e}"));
                        return;
                    }
                };
                if conn.send(&Frame::ReplAck { chain }).is_err() {
                    // Ack lost with the connection; the reconnect
                    // handshake re-presents the digest instead.
                    if !reconnect(inner, &mut conn) {
                        return;
                    }
                }
            }
            Ok(Frame::Bye) => return,
            Ok(_) => {
                fail(inner, "unexpected frame on replication connection");
                return;
            }
            Err(NetError::Closed) if stop() => return,
            Err(_) => {
                if !reconnect(inner, &mut conn) {
                    return;
                }
            }
        }
    }
}

/// Folds one segment into `fold`, publishes the result to the mirror,
/// and returns the digest to ack.
fn fold_segment(
    inner: &ReplicaInner,
    fold: &mut Option<ChainFold<CounterFamily>>,
    bytes: &[u8],
) -> Result<u64, CheckpointError> {
    let kind = read_header(bytes)?.kind;
    match fold {
        Some(f) if kind == CheckpointKind::Delta => f.fold(bytes)?,
        // A full frame starts a fresh chain: first contact, or the
        // primary restarted its chain past our acknowledged digest.
        _ => *fold = Some(ChainFold::start(&inner.template, bytes)?),
    }
    let folded = fold.as_ref().expect("folded above");
    let tip = folded.tip();
    let snap = Arc::new(folded.snapshot());
    let replaced = {
        let mut mirror = inner.mirror.write().expect("mirror");
        mirror.tip = Some(tip);
        mirror.folds += 1;
        mirror.snap.replace(snap)
    };
    // The old snapshot may hold the last reference to shards the delta
    // replaced; free them after the lock is released.
    drop(replaced);
    Ok(tip.chain)
}

fn fail(inner: &ReplicaInner, reason: &str) {
    let mut slot = inner.failed.lock().expect("failed slot");
    if slot.is_none() {
        *slot = Some(reason.to_string());
    }
}

/// Re-dials the primary with the acknowledged digest until it answers
/// or the node is stopped. True when `conn` is a fresh live feed.
fn reconnect(inner: &ReplicaInner, conn: &mut FrameConn) -> bool {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return false;
        }
        sleep_interruptible(inner, inner.config.retry);
        if inner.stop.load(Ordering::Acquire) {
            return false;
        }
        let acked = inner.chain_digest();
        if let Ok(mut fresh) = connect(
            inner.addr,
            &inner.identity,
            Role::Replica,
            NEW_PRODUCER,
            acked,
        ) {
            match expect_hello_ok(&mut fresh) {
                Ok(_) => {
                    *conn = fresh;
                    return true;
                }
                Err(NetError::Refused { code, reason }) if code != RefuseCode::Busy => {
                    // Identity or capability refusals will not heal on
                    // retry; record and stop.
                    fail(inner, &format!("refused ({code}): {reason}"));
                    return false;
                }
                Err(_) => {}
            }
        }
    }
}

fn sleep_interruptible(inner: &ReplicaInner, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
