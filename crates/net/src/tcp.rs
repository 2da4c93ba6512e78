//! Real TCP transport: length-prefixed COSOFT frames over `std::net`
//! sockets, delivered through the crate's own [`queue`](crate::queue).
//!
//! The simulated network ([`crate::sim`]) carries all benchmarks; this
//! transport exists so the same server/client logic also runs over real
//! sockets (integration tests and the runnable examples use it).
//!
//! # Host I/O model
//!
//! The host is readiness-driven (see [`crate::poll`]): a fixed pool of
//! poll threads ([`TcpHostConfig::io_threads`]) owns every accepted
//! socket in nonblocking mode, so connection count adds *state*, not
//! threads. Each connection has a ring-buffer outbox flushed on
//! writability; [`TcpHost::send`] is a non-blocking enqueue plus a
//! wakeup of the owning poll thread, and one stalled consumer cannot
//! delay delivery to its peers. When a connection's backlog stays over
//! budget past [`TcpHostConfig::enqueue_timeout`] the connection is
//! declared a slow consumer and forcibly disconnected (surfacing the
//! usual [`NetEvent::Disconnected`], which the server maps to the §3.2
//! auto-decoupling path). Blocked enqueues park on a condvar signaled
//! as the poll thread drains bytes — there is no sleep-polling anywhere
//! on the path. [`TcpHost::send_batch`] coalesces all frames of one
//! server turn that target the same connection into a single queued
//! (vectored) write.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cosoft_rng::Rng;
use cosoft_wire::{codec, Bytes, Message, SharedFrame};

use crate::lock::{ConnMapLock, LeafLock, OutboxLock};
use crate::poll::{Cmd, ConnMap, ConnShared, Gate, OutBatch, Outbox, PollThread, PollWaker};
use crate::queue::{
    bounded, unbounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError,
};

/// Identifier of one accepted connection on a [`TcpHost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Event surfaced by a [`TcpHost`].
#[derive(Debug)]
pub enum NetEvent {
    /// A client connected.
    Connected(ConnId),
    /// A complete message arrived from a client.
    Message(ConnId, Message),
    /// A client disconnected (cleanly, on error, or evicted as a slow
    /// consumer).
    Disconnected(ConnId),
}

/// Sizing and slow-consumer policy for a [`TcpHost`]'s outbound queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHostConfig {
    /// Maximum writes queued per connection before an enqueue has to
    /// wait (each queued entry is one coalesced batch of frames).
    pub queue_capacity: usize,
    /// Maximum outbound backlog per connection in *bytes* before an
    /// enqueue has to wait. Byte accounting is what actually bounds
    /// memory: entry counts alone let one connection pin gigabytes of
    /// large frames. A single batch larger than the budget is still
    /// admitted into an empty backlog so it cannot wedge itself.
    pub queue_max_bytes: usize,
    /// How long an enqueue may wait on a full queue before the
    /// connection is declared a slow consumer and evicted.
    pub enqueue_timeout: Duration,
    /// Size of the poll-thread pool that owns every accepted socket.
    /// This is the host's *total* I/O thread count (plus one accept
    /// thread) regardless of connection count; connections are assigned
    /// round-robin at accept. Values below 1 are treated as 1.
    pub io_threads: usize,
    /// Most concurrently accepted connections; further dials are
    /// refused at accept (the socket is shut down before it ever
    /// reaches the poll pool, counted in
    /// [`TcpStats::connections_refused`]). `0` means unlimited.
    pub max_connections: usize,
    /// Accept-rate token bucket: at most this many accepts in a burst,
    /// refilled at [`TcpHostConfig::accept_refill_per_sec`]. A dial
    /// flood is refused at accept instead of fanning out into poll-pool
    /// state. `0` disables rate limiting.
    pub accept_burst: u32,
    /// Tokens per second returned to the accept bucket. Ignored (and
    /// irrelevant) while `accept_burst` is `0`.
    pub accept_refill_per_sec: u32,
    /// How long a freshly accepted connection may take to produce its
    /// first complete frame before it is torn down (counted in
    /// [`TcpStats::handshake_timeouts`]), so a dialer that connects and
    /// never speaks the protocol cannot hold a socket open forever.
    /// `Duration::ZERO` disables the deadline.
    pub handshake_timeout: Duration,
}

impl Default for TcpHostConfig {
    fn default() -> Self {
        TcpHostConfig {
            queue_capacity: 1024,
            queue_max_bytes: 8 * 1024 * 1024,
            enqueue_timeout: Duration::from_millis(200),
            io_threads: 1,
            max_connections: 0,
            accept_burst: 0,
            accept_refill_per_sec: 0,
            handshake_timeout: Duration::ZERO,
        }
    }
}

/// Snapshot of a [`TcpHost`]'s transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Frames written to sockets.
    pub frames_out: u64,
    /// Bytes written to sockets (including framing).
    pub bytes_out: u64,
    /// Frames decoded from sockets.
    pub frames_in: u64,
    /// Bytes read from sockets (including framing).
    pub bytes_in: u64,
    /// Socket writes that carried more than one queued batch.
    pub coalesced_writes: u64,
    /// Enqueues that found the connection's queue full and had to wait.
    pub enqueue_full_waits: u64,
    /// Connections forcibly disconnected by the slow-consumer policy.
    pub slow_consumer_evictions: u64,
    /// Frames dropped because their connection was already gone.
    pub frames_dropped: u64,
    /// Sweep passes that found their connection already torn down. A
    /// connection can be removed between the sweep-list snapshot and its
    /// own sweep; those are counted here and skipped, never treated as a
    /// poll-thread invariant violation.
    pub stale_sweeps: u64,
    /// Socket-option calls (`set_nodelay`, `set_nonblocking`) that
    /// failed. Nodelay failures are tolerated (the connection is merely
    /// slower); nonblocking failures close the connection, since the
    /// poll loop cannot safely own a blocking socket. Either way the
    /// misbehaving platform is visible here instead of just slow.
    pub sockopt_failures: u64,
    /// Dials refused at accept by the admission policy
    /// ([`TcpHostConfig::max_connections`] or the accept-rate bucket).
    /// Refused sockets never surface a [`NetEvent::Connected`].
    pub connections_refused: u64,
    /// Connections torn down because no complete frame arrived within
    /// [`TcpHostConfig::handshake_timeout`].
    pub handshake_timeouts: u64,
    /// Currently accepted connections.
    pub active_connections: usize,
    /// Deepest per-connection outbound queue right now.
    pub max_queue_depth: usize,
    /// Largest per-connection outbound backlog right now, in bytes.
    pub max_queued_bytes: usize,
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) frames_out: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) coalesced_writes: AtomicU64,
    pub(crate) enqueue_full_waits: AtomicU64,
    pub(crate) slow_consumer_evictions: AtomicU64,
    pub(crate) frames_dropped: AtomicU64,
    pub(crate) stale_sweeps: AtomicU64,
    pub(crate) sockopt_failures: AtomicU64,
    pub(crate) connections_refused: AtomicU64,
    pub(crate) handshake_timeouts: AtomicU64,
}

/// Cloneable handle that can snapshot a host's [`TcpStats`] even after
/// the host moved into a server thread.
#[derive(Clone)]
pub struct TcpStatsHandle {
    counters: Arc<Counters>,
    conns: ConnMap,
}

impl std::fmt::Debug for TcpStatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStatsHandle").finish_non_exhaustive()
    }
}

impl TcpStatsHandle {
    /// Current counter values.
    pub fn snapshot(&self) -> TcpStats {
        let (active, deepest, deepest_bytes) = {
            let conns = self.conns.held();
            let deepest = conns.values().map(|c| c.outbox.held().batches.len()).max().unwrap_or(0);
            let deepest_bytes =
                conns.values().map(|c| c.queued_bytes.load(Ordering::Relaxed)).max().unwrap_or(0);
            (conns.len(), deepest, deepest_bytes)
        };
        TcpStats {
            frames_out: self.counters.frames_out.load(Ordering::Relaxed),
            bytes_out: self.counters.bytes_out.load(Ordering::Relaxed),
            frames_in: self.counters.frames_in.load(Ordering::Relaxed),
            bytes_in: self.counters.bytes_in.load(Ordering::Relaxed),
            coalesced_writes: self.counters.coalesced_writes.load(Ordering::Relaxed),
            enqueue_full_waits: self.counters.enqueue_full_waits.load(Ordering::Relaxed),
            slow_consumer_evictions: self.counters.slow_consumer_evictions.load(Ordering::Relaxed),
            frames_dropped: self.counters.frames_dropped.load(Ordering::Relaxed),
            stale_sweeps: self.counters.stale_sweeps.load(Ordering::Relaxed),
            sockopt_failures: self.counters.sockopt_failures.load(Ordering::Relaxed),
            connections_refused: self.counters.connections_refused.load(Ordering::Relaxed),
            handshake_timeouts: self.counters.handshake_timeouts.load(Ordering::Relaxed),
            active_connections: active,
            max_queue_depth: deepest,
            max_queued_bytes: deepest_bytes,
        }
    }
}

/// One poll thread of the host's fixed I/O pool, as seen from the host
/// handle: a command channel, a wake token, and the join handle.
struct PollHandle {
    cmds: Sender<Cmd>,
    waker: Arc<PollWaker>,
    thread: Option<JoinHandle<()>>,
}

/// Accepting side of the TCP transport (used by the COSOFT server).
///
/// One accept thread hands sockets to a fixed pool of poll threads that
/// own all per-connection I/O; see the module docs for the model.
pub struct TcpHost {
    local_addr: SocketAddr,
    config: TcpHostConfig,
    events: Receiver<NetEvent>,
    conns: ConnMap,
    counters: Arc<Counters>,
    shutdown: Arc<AtomicBool>,
    pool: Vec<PollHandle>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHost").field("local_addr", &self.local_addr).finish()
    }
}

impl TcpHost {
    /// Binds a listener (use port 0 for an ephemeral port) and starts the
    /// accept loop, with the default slow-consumer policy.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> io::Result<TcpHost> {
        TcpHost::bind_with_config(addr, TcpHostConfig::default())
    }

    /// Binds with an explicit queue/slow-consumer/pool configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, including failure to spawn the accept
    /// thread or the poll pool.
    pub fn bind_with_config(addr: &str, config: TcpHostConfig) -> io::Result<TcpHost> {
        TcpHost::bind_inner(addr, config, None)
    }

    /// Binds a host whose every socket read and write first consults a
    /// [`crate::fault::FaultInjector`] — the entry point for the chaos
    /// tests. Only exists behind the non-default `fault-injection`
    /// feature; release builds have no way to instrument a host.
    ///
    /// # Errors
    ///
    /// Same as [`TcpHost::bind_with_config`].
    #[cfg(feature = "fault-injection")]
    pub fn bind_with_faults(
        addr: &str,
        config: TcpHostConfig,
        faults: Arc<crate::fault::FaultInjector>,
    ) -> io::Result<TcpHost> {
        TcpHost::bind_inner(addr, config, Some(faults))
    }

    fn bind_inner(
        addr: &str,
        config: TcpHostConfig,
        faults: Option<Arc<crate::fault::FaultInjector>>,
    ) -> io::Result<TcpHost> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let conns: ConnMap = Arc::new(ConnMapLock::new(HashMap::new()));
        let counters = Arc::new(Counters::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let next_id = Arc::new(AtomicU64::new(1));

        // The fixed I/O pool, spawned up front: a pool-spawn failure is
        // a bind error, not a per-connection casualty.
        let pool_size = config.io_threads.max(1);
        let handshake_timeout =
            if config.handshake_timeout.is_zero() { None } else { Some(config.handshake_timeout) };
        let mut pool: Vec<PollHandle> = Vec::with_capacity(pool_size);
        for i in 0..pool_size {
            let (cmd_tx, cmd_rx) = unbounded();
            let waker = Arc::new(PollWaker::default());
            let thread_body = PollThread::new(
                cmd_rx.poll_only(),
                waker.clone(),
                tx.clone(),
                conns.clone(),
                counters.clone(),
                handshake_timeout,
                faults.clone(),
            );
            let spawned = std::thread::Builder::new()
                .name(format!("cosoft-poll-{i}"))
                .spawn(move || thread_body.run());
            match spawned {
                Ok(handle) => {
                    pool.push(PollHandle { cmds: cmd_tx, waker, thread: Some(handle) });
                }
                Err(e) => {
                    for h in &mut pool {
                        let _ = h.cmds.send(Cmd::Shutdown);
                        h.waker.wake();
                        if let Some(t) = h.thread.take() {
                            t.join().ok();
                        }
                    }
                    return Err(e);
                }
            }
        }

        let accept_conns = conns.clone();
        let accept_counters = counters.clone();
        let accept_shutdown = shutdown.clone();
        let accept_pool: Vec<(Sender<Cmd>, Arc<PollWaker>)> =
            pool.iter().map(|h| (h.cmds.clone(), h.waker.clone())).collect();
        let accept_thread =
            std::thread::Builder::new().name("cosoft-accept".into()).spawn(move || {
                // Accept-rate token bucket: starts full, refills
                // continuously. Fractional tokens carry across accepts
                // so the long-run rate is exactly `accept_refill_per_sec`.
                let mut allowance = f64::from(config.accept_burst);
                let mut last_refill = Instant::now();
                for stream in listener.incoming() {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Admission control runs before the socket reaches
                    // the poll pool: a refused dial costs one accept and
                    // one shutdown, never poll-pool state or events.
                    if config.max_connections > 0
                        && accept_conns.held().len() >= config.max_connections
                    {
                        accept_counters.connections_refused.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    if config.accept_burst > 0 {
                        let now = Instant::now();
                        let refill = now.duration_since(last_refill).as_secs_f64()
                            * f64::from(config.accept_refill_per_sec);
                        allowance = (allowance + refill).min(f64::from(config.accept_burst));
                        last_refill = now;
                        if allowance < 1.0 {
                            accept_counters.connections_refused.fetch_add(1, Ordering::Relaxed);
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                            continue;
                        }
                        allowance -= 1.0;
                    }
                    let id = ConnId(next_id.fetch_add(1, Ordering::SeqCst));
                    if stream.set_nodelay(true).is_err() {
                        // Tolerated: the connection works, just slower.
                        accept_counters.sockopt_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if stream.set_nonblocking(true).is_err() {
                        // Not tolerated: the poll loop cannot own a
                        // blocking socket without stalling its peers.
                        accept_counters.sockopt_failures.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    let Ok(control) = stream.try_clone() else {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    };
                    let outbox = Arc::new(OutboxLock::new(Outbox::default()));
                    let queued_bytes = Arc::new(AtomicUsize::new(0));
                    let gate = Arc::new(Gate::default());
                    let thread = (id.0 as usize) % accept_pool.len();
                    accept_conns.held().insert(
                        id,
                        ConnShared {
                            outbox: outbox.clone(),
                            queued_bytes: queued_bytes.clone(),
                            gate: gate.clone(),
                            control,
                            thread,
                        },
                    );
                    if tx.send(NetEvent::Connected(id)).is_err() {
                        break;
                    }
                    #[expect(clippy::indexing_slicing, reason = "thread is id % accept_pool.len()")]
                    let (cmds, waker) = &accept_pool[thread];
                    if cmds.send(Cmd::Register(id, stream, outbox, queued_bytes, gate)).is_err() {
                        break;
                    }
                    waker.wake();
                }
            })?;

        Ok(TcpHost {
            local_addr,
            config,
            events: rx,
            conns,
            counters,
            shutdown,
            pool,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The active queue/slow-consumer configuration.
    pub fn config(&self) -> TcpHostConfig {
        self.config
    }

    /// Receiver of connection events.
    pub fn events(&self) -> &Receiver<NetEvent> {
        &self.events
    }

    /// Current transport counters.
    pub fn stats(&self) -> TcpStats {
        self.stats_handle().snapshot()
    }

    /// A cloneable handle that can snapshot [`TcpStats`] after the host
    /// moved into a server thread.
    pub fn stats_handle(&self) -> TcpStatsHandle {
        TcpStatsHandle { counters: self.counters.clone(), conns: self.conns.clone() }
    }

    /// Queued (not yet fully written) outbound batches for one
    /// connection.
    pub fn queue_depth(&self, conn: ConnId) -> Option<usize> {
        self.conns.held().get(&conn).map(|c| c.outbox.held().batches.len())
    }

    /// Sends a message to one connection by enqueueing it on the
    /// connection's outbox and waking the owning poll thread; does not
    /// block on the socket.
    ///
    /// # Errors
    ///
    /// `NotConnected` if the connection is gone; `TimedOut` if the
    /// connection's backlog stayed over budget past the enqueue timeout
    /// (the connection is then evicted as a slow consumer).
    pub fn send(&self, conn: ConnId, msg: &Message) -> io::Result<()> {
        self.send_frame(conn, &SharedFrame::from_message(msg))
    }

    /// Sends one pre-encoded frame to one connection. The frame buffer
    /// is shared, not copied — fanning the same [`SharedFrame`] out to
    /// many connections enqueues cheap handles to a single allocation.
    ///
    /// # Errors
    ///
    /// Same as [`TcpHost::send`].
    pub fn send_frame(&self, conn: ConnId, frame: &SharedFrame) -> io::Result<()> {
        let bytes = frame.bytes().clone();
        self.enqueue(conn, OutBatch { bytes: bytes.len(), segments: vec![bytes], frames: 1 })
    }

    /// Sends a whole server turn of pre-encoded frames, coalescing all
    /// frames that target the same connection into a single queued
    /// (vectored) write. A shared frame fanned out to many connections
    /// lands here as cheap clones of one buffer — nothing is re-encoded
    /// or concatenated per destination. Returns the connections that
    /// could not be delivered to (gone or evicted); the poll loop
    /// surfaces [`NetEvent::Disconnected`] for them.
    pub fn send_batch(&self, outgoing: &[(ConnId, SharedFrame)]) -> Vec<ConnId> {
        let mut order: Vec<ConnId> = Vec::new();
        let mut per_conn: HashMap<ConnId, OutBatch> = HashMap::new();
        for (conn, frame) in outgoing {
            let batch = per_conn.entry(*conn).or_insert_with(|| {
                order.push(*conn);
                OutBatch { segments: Vec::new(), frames: 0, bytes: 0 }
            });
            batch.segments.push(frame.bytes().clone());
            batch.bytes += frame.len();
            batch.frames += 1;
        }
        let mut failed = Vec::new();
        for conn in order {
            // Grouped above; a missing entry is reported as a failed
            // send rather than a host panic.
            let Some(batch) = per_conn.remove(&conn) else {
                failed.push(conn);
                continue;
            };
            if self.enqueue(conn, batch).is_err() {
                failed.push(conn);
            }
        }
        failed
    }

    fn enqueue(&self, conn: ConnId, batch: OutBatch) -> io::Result<()> {
        // Hold the map lock only to clone the connection's handles: the
        // admission wait happens outside, so a full backlog on one
        // connection never blocks sends to its peers.
        let (outbox, queued_bytes, gate, thread) = match self.conns.held().get(&conn) {
            Some(c) => (c.outbox.clone(), c.queued_bytes.clone(), c.gate.clone(), c.thread),
            None => {
                self.counters.frames_dropped.fetch_add(batch.frames, Ordering::Relaxed);
                return Err(io::Error::new(io::ErrorKind::NotConnected, "connection closed"));
            }
        };
        let frames = batch.frames;
        let bytes = batch.bytes;
        let deadline = Instant::now() + self.config.enqueue_timeout;
        let mut waited = false;
        let mut batch = Some(batch);
        loop {
            // Capture the gate generation *before* checking admission:
            // a drain that lands in between bumps it, so the wait below
            // returns immediately instead of losing the wakeup.
            let seen = gate.generation();
            {
                let mut ob = outbox.held();
                if ob.closed {
                    self.counters.frames_dropped.fetch_add(frames, Ordering::Relaxed);
                    return Err(io::Error::new(io::ErrorKind::NotConnected, "connection closed"));
                }
                let cur = queued_bytes.load(Ordering::Acquire);
                let empty = ob.batches.is_empty();
                let bytes_ok = empty || cur + bytes <= self.config.queue_max_bytes;
                let cap_ok = ob.batches.len() < self.config.queue_capacity.max(1);
                if bytes_ok && cap_ok {
                    // Admission happens exactly once; a double-take is
                    // reported to the caller instead of panicking with
                    // the outbox lock held.
                    let Some(admitted) = batch.take() else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidInput,
                            "batch admitted twice",
                        ));
                    };
                    queued_bytes.fetch_add(bytes, Ordering::AcqRel);
                    ob.batches.push_back(admitted);
                    drop(ob);
                    if let Some(t) = self.pool.get(thread) {
                        t.waker.wake();
                    }
                    return Ok(());
                }
            }
            if !waited {
                waited = true;
                self.counters.enqueue_full_waits.fetch_add(1, Ordering::Relaxed);
            }
            let now = Instant::now();
            if now >= deadline {
                self.counters.frames_dropped.fetch_add(frames, Ordering::Relaxed);
                self.evict_slow_consumer(conn);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "slow consumer: outbound backlog stayed over budget past the enqueue timeout",
                ));
            }
            gate.wait(seen, deadline - now);
        }
    }

    /// Forcibly disconnects a consumer whose backlog stayed over budget.
    /// The owning poll thread surfaces the [`NetEvent::Disconnected`].
    fn evict_slow_consumer(&self, conn: ConnId) {
        if let Some(c) = self.unmap(conn) {
            self.counters.slow_consumer_evictions.fetch_add(1, Ordering::Relaxed);
            self.shut(conn, &c);
        }
    }

    /// Closes one connection; the owning poll thread will surface a
    /// [`NetEvent::Disconnected`].
    pub fn disconnect(&self, conn: ConnId) {
        if let Some(c) = self.unmap(conn) {
            self.shut(conn, &c);
        }
    }

    /// Takes `conn` out of the map. The guard dies with this call: in an
    /// `if let` scrutinee it would live to the end of the block, and the
    /// host-wide map lock is not held over a syscall, a channel send or
    /// a wake.
    fn unmap(&self, conn: ConnId) -> Option<ConnShared> {
        self.conns.held().remove(&conn)
    }

    /// Shuts an unmapped connection's socket down and has its poll
    /// thread tear it down.
    fn shut(&self, conn: ConnId, c: &ConnShared) {
        c.control.shutdown(std::net::Shutdown::Both).ok();
        if let Some(t) = self.pool.get(c.thread) {
            let _ = t.cmds.send(Cmd::Close(conn));
            t.waker.wake();
        }
    }
}

impl Drop for TcpHost {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection. A wildcard
        // bind address (0.0.0.0 / ::) is not reliably connectable, so
        // aim the wake-up at the loopback of the same family instead.
        let wake_ip = if self.local_addr.ip().is_unspecified() {
            match self.local_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            }
        } else {
            self.local_addr.ip()
        };
        let wake_addr = SocketAddr::new(wake_ip, self.local_addr.port());
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_millis(100));
        if let Some(h) = self.accept_thread.take() {
            h.join().ok();
        }
        // With the accept thread joined, no further registrations can
        // race the pool shutdown; each poll thread tears its
        // connections down (counting unwritten frames as dropped).
        for h in &mut self.pool {
            let _ = h.cmds.send(Cmd::Shutdown);
            h.waker.wake();
        }
        for h in &mut self.pool {
            if let Some(t) = h.thread.take() {
                t.join().ok();
            }
        }
    }
}

/// Connection lifecycle notification from a [`TcpClient`] running with a
/// [`ReconnectPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// The connection dropped; the reconnect loop is running.
    Disconnected,
    /// A fresh connection replaced the dropped one after `attempts`
    /// dial attempts. The application must resynchronize (the COSOFT
    /// session layer does so by rejoining).
    Reconnected {
        /// Dial attempts this outage took (≥ 1).
        attempts: u32,
    },
    /// The policy's attempt budget is exhausted; the client stays dead.
    GaveUp,
}

/// Why a [`TcpClient::recv_within`] call returned without a message.
///
/// The old `recv_timeout` collapsed both cases to `None`, which forced
/// callers to guess "quiet or dead?" with heuristics; this distinction
/// lets them stop guessing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout; as far as the client
    /// knows the connection is still alive (or being revived by the
    /// reconnect loop).
    Timeout,
    /// The connection is gone for good — closed, failed without a
    /// reconnect policy, or the reconnect loop gave up. No message will
    /// ever arrive again.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => f.write_str("receive timed out"),
            RecvError::Disconnected => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for RecvError {}

/// Exponential-backoff policy for [`TcpClient::connect_with_reconnect`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconnectPolicy {
    /// Dial attempts per outage before giving up.
    pub max_attempts: u32,
    /// Delay before the first redial; doubles per failed attempt.
    pub base_delay: Duration,
    /// Upper bound on the (pre-jitter) backoff delay.
    pub max_delay: Duration,
    /// Fraction in `[0, 1]` of random extra delay added on top of the
    /// backoff, so a fleet of clients does not redial in lockstep.
    pub jitter: f64,
    /// Seed for the jitter stream. `None` (the default) draws from
    /// OS-seeded entropy — right for production fleets; `Some(seed)`
    /// makes every redial delay a pure function of `(seed, attempt)` —
    /// right for tests and reproducible chaos runs.
    pub jitter_seed: Option<u64>,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: 0.2,
            jitter_seed: None,
        }
    }
}

impl ReconnectPolicy {
    /// The sleep before dial attempt `attempt` (1-based): exponential
    /// backoff capped at `max_delay`, plus up to `jitter` of random
    /// extra delay.
    fn delay_before(&self, attempt: u32) -> Duration {
        let backoff = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        if self.jitter <= 0.0 {
            return backoff;
        }
        let seed = self.jitter_seed.unwrap_or_else(|| {
            // A throwaway `RandomState` is a seeded-by-the-OS hash:
            // enough entropy to de-synchronize a fleet's redials.
            use std::hash::{BuildHasher, Hasher};
            std::collections::hash_map::RandomState::new().build_hasher().finish()
        });
        // Drawn from the workspace's one seeded stream: a pure function
        // of `(seed, attempt)`. The seed is scrambled before the attempt
        // is mixed in, so neighbouring seeds do not share delays.
        let scrambled = Rng::new(seed).next_u64();
        let unit = Rng::new(scrambled ^ u64::from(attempt)).f64();
        backoff.mul_f64(1.0 + self.jitter.clamp(0.0, 1.0) * unit)
    }
}

/// Outbound frames a client may queue before [`TcpClient::send`] has to
/// wait on the writer thread.
const CLIENT_OUTBOX_CAPACITY: usize = 64;

/// How long [`TcpClient::send`] may wait on a full outbox, and how long
/// [`TcpClient::close`] waits for queued frames (e.g. a graceful
/// `Deregister`) to flush before tearing the socket down.
const CLIENT_FLUSH_TIMEOUT: Duration = Duration::from_millis(500);

/// Connecting side of the TCP transport (used by application instances).
///
/// Writes go through a bounded outbox drained by a dedicated writer
/// thread, so [`TcpClient::send`] never blocks on the socket and — the
/// important part — never holds the stream lock across a write: a
/// wedged write used to pin that lock and block `send`/`close`/`sever`
/// (and the reconnect swap) indefinitely.
pub struct TcpClient {
    stream: Arc<LeafLock<TcpStream>>,
    outbox: Sender<Bytes>,
    /// Frames enqueued but not yet written (close drains these briefly).
    pending_writes: Arc<AtomicUsize>,
    /// Signaled by the writer thread as `pending_writes` drains, so
    /// `close` can wait for the flush without sleep-polling.
    flushed: Arc<Gate>,
    /// Set by the writer on an unrecoverable write error (no reconnect
    /// policy): later sends fail fast instead of queueing into a void.
    broken: Arc<AtomicBool>,
    incoming: Receiver<Message>,
    events: Option<Receiver<ClientEvent>>,
    closed: Arc<AtomicBool>,
    reconnects: Arc<AtomicU64>,
    reconnect_attempts: Arc<AtomicU64>,
    sockopt_failures: Arc<AtomicU64>,
    /// Latest `Busy { retry_after_ms }` seen from the server; the
    /// reconnect loop treats it as a backoff floor and clears it once a
    /// redial succeeds.
    busy_advice_ms: Arc<AtomicU64>,
    _reader: JoinHandle<()>,
    _writer: JoinHandle<()>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient").finish_non_exhaustive()
    }
}

impl TcpClient {
    /// Connects to a [`TcpHost`] and starts the reader thread. The
    /// connection is not revived when it drops; use
    /// [`TcpClient::connect_with_reconnect`] for that.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpClient> {
        Self::spawn(addr, None)
    }

    /// Connects to a [`TcpHost`] and keeps the connection alive: when it
    /// drops, a reader-side loop redials `addr` with exponential backoff
    /// and jitter per `policy`, swapping the fresh socket in under the
    /// same client handle. Lifecycle transitions are surfaced through
    /// [`TcpClient::events`]; on [`ClientEvent::Reconnected`] the
    /// application must resynchronize (rejoin) — messages sent during
    /// the outage were lost, not queued.
    ///
    /// # Errors
    ///
    /// Propagates failures of the *initial* connection only.
    pub fn connect_with_reconnect(
        addr: SocketAddr,
        policy: ReconnectPolicy,
    ) -> io::Result<TcpClient> {
        Self::spawn(addr, Some(policy))
    }

    fn spawn(addr: SocketAddr, policy: Option<ReconnectPolicy>) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let sockopt_failures = Arc::new(AtomicU64::new(0));
        if stream.set_nodelay(true).is_err() {
            sockopt_failures.fetch_add(1, Ordering::Relaxed);
        }
        let stream = Arc::new(LeafLock::new(stream));
        let closed = Arc::new(AtomicBool::new(false));
        let broken = Arc::new(AtomicBool::new(false));
        let pending_writes = Arc::new(AtomicUsize::new(0));
        let flushed = Arc::new(Gate::default());
        let reconnects = Arc::new(AtomicU64::new(0));
        let reconnect_attempts = Arc::new(AtomicU64::new(0));
        let busy_advice_ms = Arc::new(AtomicU64::new(0));
        let (tx, rx): (Sender<Message>, Receiver<Message>) = unbounded();
        let (outbox_tx, outbox_rx): (Sender<Bytes>, Receiver<Bytes>) =
            bounded(CLIENT_OUTBOX_CAPACITY);
        let (event_tx, event_rx) = match policy {
            Some(_) => {
                let (t, r) = unbounded();
                (Some(t), Some(r))
            }
            None => (None, None),
        };
        let reader = {
            let stream = Arc::clone(&stream);
            let closed = Arc::clone(&closed);
            let reconnects = Arc::clone(&reconnects);
            let reconnect_attempts = Arc::clone(&reconnect_attempts);
            let sockopt_failures = Arc::clone(&sockopt_failures);
            let busy_advice_ms = Arc::clone(&busy_advice_ms);
            std::thread::Builder::new().name("cosoft-client-reader".into()).spawn(move || {
                Self::reader_loop(
                    addr,
                    policy,
                    &stream,
                    &closed,
                    &reconnects,
                    &reconnect_attempts,
                    &sockopt_failures,
                    &busy_advice_ms,
                    &tx,
                    event_tx.as_ref(),
                );
            })
        };
        let reader = match reader {
            Ok(handle) => handle,
            Err(e) => {
                // Surface thread exhaustion as a connect failure; close
                // the socket so the peer sees the dead connection.
                let _ = stream.held().shutdown(std::net::Shutdown::Both);
                return Err(e);
            }
        };
        let writer = {
            let stream = Arc::clone(&stream);
            let closed = Arc::clone(&closed);
            let broken = Arc::clone(&broken);
            let pending = Arc::clone(&pending_writes);
            let flushed = Arc::clone(&flushed);
            let has_reconnect = policy.is_some();
            std::thread::Builder::new().name("cosoft-client-writer".into()).spawn(move || {
                Self::writer_loop(
                    outbox_rx,
                    &stream,
                    &closed,
                    &broken,
                    &pending,
                    &flushed,
                    has_reconnect,
                )
            })
        };
        let writer = match writer {
            Ok(handle) => handle,
            Err(e) => {
                // The reader is already running: mark the client closed
                // and shut the socket down so it exits instead of
                // leaking, then report the failure to the caller.
                closed.store(true, Ordering::SeqCst);
                let _ = stream.held().shutdown(std::net::Shutdown::Both);
                return Err(e);
            }
        };
        Ok(TcpClient {
            stream,
            outbox: outbox_tx,
            pending_writes,
            flushed,
            broken,
            incoming: rx,
            events: event_rx,
            closed,
            reconnects,
            reconnect_attempts,
            sockopt_failures,
            busy_advice_ms,
            _reader: reader,
            _writer: writer,
        })
    }

    fn writer_loop(
        outbox: Receiver<Bytes>,
        stream: &LeafLock<TcpStream>,
        closed: &AtomicBool,
        broken: &AtomicBool,
        pending: &AtomicUsize,
        flushed: &Gate,
        has_reconnect: bool,
    ) {
        while let Ok(frame) = outbox.recv() {
            // Clone the fd under the lock, write on the clone with the
            // lock released: a wedged socket write must never pin the
            // stream mutex (close/sever and the reconnect swap need it).
            let cloned = stream.held().try_clone();
            let result = match cloned {
                Ok(mut s) => s.write_all(&frame),
                Err(e) => Err(e),
            };
            pending.fetch_sub(1, Ordering::AcqRel);
            flushed.notify();
            if result.is_err() {
                if closed.load(Ordering::SeqCst) {
                    break;
                }
                if !has_reconnect {
                    // No reconnect loop will revive the socket; fail
                    // later sends fast instead of queueing into a void.
                    broken.store(true, Ordering::SeqCst);
                    break;
                }
                // With a reconnect policy the reader loop swaps a fresh
                // stream in; this frame is lost (documented), later
                // frames go to the new socket.
            }
        }
        while outbox.try_recv().is_ok() {
            pending.fetch_sub(1, Ordering::AcqRel);
        }
        flushed.notify();
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the reader thread's whole state, borrowed from the closure that owns it"
    )]
    fn reader_loop(
        addr: SocketAddr,
        policy: Option<ReconnectPolicy>,
        stream: &LeafLock<TcpStream>,
        closed: &AtomicBool,
        reconnects: &AtomicU64,
        reconnect_attempts: &AtomicU64,
        sockopt_failures: &AtomicU64,
        busy_advice_ms: &AtomicU64,
        tx: &Sender<Message>,
        event_tx: Option<&Sender<ClientEvent>>,
    ) {
        loop {
            let Ok(reader_stream) = stream.held().try_clone() else {
                return;
            };
            let mut reader = BufReader::new(reader_stream);
            while let Ok(Some(msg)) = codec::read_frame(&mut reader) {
                // An overloaded server's `Busy` carries backoff advice;
                // remember the latest so a redial after an eviction does
                // not dial straight back into the shed window. The
                // message still reaches the application unchanged.
                if let Message::Busy { retry_after_ms } = &msg {
                    busy_advice_ms.store(*retry_after_ms, Ordering::Relaxed);
                }
                if tx.send(msg).is_err() {
                    return;
                }
            }
            // Read side ended: clean close, error, or eviction.
            let Some(policy) = policy else {
                return;
            };
            if closed.load(Ordering::SeqCst) {
                return;
            }
            if let Some(events) = event_tx {
                events.send(ClientEvent::Disconnected).ok();
            }
            let mut attempts = 0u32;
            loop {
                if attempts >= policy.max_attempts {
                    if let Some(events) = event_tx {
                        events.send(ClientEvent::GaveUp).ok();
                    }
                    return;
                }
                attempts += 1;
                reconnect_attempts.fetch_add(1, Ordering::Relaxed);
                // The server's retry advice is a floor under the
                // policy's own backoff, never a shortcut below it.
                let advice = Duration::from_millis(busy_advice_ms.load(Ordering::Relaxed));
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the client supervisor's reconnect back-off: this thread owns no socket but the one it is redialing"
                )]
                std::thread::sleep(policy.delay_before(attempts).max(advice));
                if closed.load(Ordering::SeqCst) {
                    return;
                }
                match TcpStream::connect(addr) {
                    Ok(fresh) => {
                        if fresh.set_nodelay(true).is_err() {
                            sockopt_failures.fetch_add(1, Ordering::Relaxed);
                        }
                        *stream.held() = fresh;
                        // close() may have raced the swap: shut the fresh
                        // socket down too rather than resurrecting a
                        // client the application already closed.
                        if closed.load(Ordering::SeqCst) {
                            stream.held().shutdown(std::net::Shutdown::Both).ok();
                            return;
                        }
                        reconnects.fetch_add(1, Ordering::Relaxed);
                        // Advice consumed: the next outage starts from
                        // the policy's own backoff again.
                        busy_advice_ms.store(0, Ordering::Relaxed);
                        if let Some(events) = event_tx {
                            events.send(ClientEvent::Reconnected { attempts }).ok();
                        }
                        break;
                    }
                    Err(_) => continue,
                }
            }
        }
    }

    /// Sends a message to the server by enqueueing it on the client's
    /// writer thread; does not block on the socket (a wedged write no
    /// longer blocks further sends, pings, or `close`).
    ///
    /// # Errors
    ///
    /// `NotConnected` once the client is closed, `BrokenPipe` after an
    /// unrecoverable write error (no reconnect policy), `TimedOut` if
    /// the outbox stayed full past the flush timeout. Write errors on a
    /// reconnect-enabled client are not surfaced here: the frame is
    /// lost and the reconnect loop revives the connection.
    pub fn send(&self, msg: &Message) -> io::Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "client closed"));
        }
        if self.broken.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection failed"));
        }
        let frame = SharedFrame::from_message(msg).into_bytes();
        self.pending_writes.fetch_add(1, Ordering::AcqRel);
        let undo_pending = |e: io::Error| {
            self.pending_writes.fetch_sub(1, Ordering::AcqRel);
            Err(e)
        };
        let frame = match self.outbox.try_send(frame) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => {
                return undo_pending(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "client writer stopped",
                ));
            }
            Err(TrySendError::Full(f)) => f,
        };
        match self.outbox.send_timeout(frame, CLIENT_FLUSH_TIMEOUT) {
            Ok(()) => Ok(()),
            Err(SendTimeoutError::Disconnected(_)) => {
                undo_pending(io::Error::new(io::ErrorKind::NotConnected, "client writer stopped"))
            }
            Err(SendTimeoutError::Timeout(_)) => undo_pending(io::Error::new(
                io::ErrorKind::TimedOut,
                "outbox stayed full past the flush timeout",
            )),
        }
    }

    /// Receives the next message, blocking up to `timeout`.
    ///
    /// Returns `None` on timeout or when the connection closed; use
    /// [`TcpClient::recv_within`] to tell the two cases apart.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.recv_within(timeout).ok()
    }

    /// Receives the next message, blocking up to `timeout`, and — unlike
    /// [`TcpClient::recv_timeout`] — says *why* there was no message:
    /// [`RecvError::Timeout`] means "quiet but alive", while
    /// [`RecvError::Disconnected`] means the connection is gone for good
    /// and waiting longer is pointless.
    ///
    /// # Errors
    ///
    /// [`RecvError`] when no message arrived.
    pub fn recv_within(&self, timeout: Duration) -> Result<Message, RecvError> {
        self.incoming.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.incoming.try_recv().ok()
    }

    /// Receiver handle for select-style integration.
    pub fn incoming(&self) -> &Receiver<Message> {
        &self.incoming
    }

    /// Lifecycle events, present when the client was created with
    /// [`TcpClient::connect_with_reconnect`].
    pub fn events(&self) -> Option<&Receiver<ClientEvent>> {
        self.events.as_ref()
    }

    /// Successful reconnections performed by the reconnect loop.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Dial attempts made by the reconnect loop (successful or not).
    pub fn reconnect_attempts(&self) -> u64 {
        self.reconnect_attempts.load(Ordering::Relaxed)
    }

    /// Socket-option calls (`set_nodelay`) that failed on this client's
    /// connections, including reconnect swaps. Nonzero means the
    /// platform is misbehaving (latency will suffer), not that the
    /// connection is broken.
    pub fn sockopt_failures(&self) -> u64 {
        self.sockopt_failures.load(Ordering::Relaxed)
    }

    /// The latest `Busy { retry_after_ms }` advice seen from the server,
    /// in milliseconds; `0` when none is pending. The reconnect loop
    /// sleeps at least this long before each redial and resets the
    /// advice once a redial succeeds.
    pub fn busy_advice_ms(&self) -> u64 {
        self.busy_advice_ms.load(Ordering::Relaxed)
    }

    /// Shuts the connection down; the server sees a disconnect and the
    /// reconnect loop (if any) stops instead of redialing. Waits up to
    /// the flush timeout for already-queued frames (e.g. a graceful
    /// `Deregister`) to reach the socket — but no longer: a wedged
    /// socket cannot hold `close` hostage.
    pub fn close(&self) {
        self.flush_and_shutdown();
    }

    fn flush_and_shutdown(&self) {
        // Only the first closer drains; a repeated close (or the Drop
        // that follows an explicit close) goes straight to shutdown.
        if !self.closed.swap(true, Ordering::SeqCst) {
            let deadline = Instant::now() + CLIENT_FLUSH_TIMEOUT;
            loop {
                // Generation before the check, so a drain landing right
                // after the check still wakes the wait (no lost signal,
                // no sleep-poll).
                let seen = self.flushed.generation();
                if self.pending_writes.load(Ordering::Acquire) == 0 {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                self.flushed.wait(seen, deadline - now);
            }
        }
        self.stream.held().shutdown(std::net::Shutdown::Both).ok();
    }

    /// Kills the current connection *without* marking the client closed —
    /// indistinguishable from a network failure, so a reconnect-enabled
    /// client redials. Intended for fault-injection tests.
    pub fn sever(&self) {
        self.stream.held().shutdown(std::net::Shutdown::Both).ok();
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        // The reader thread holds a cloned file descriptor; an explicit
        // shutdown is required so dropping the client actually closes the
        // connection (and unblocks the reader).
        self.flush_and_shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_wire::{InstanceId, Target, UserId};
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_secs(5);

    fn big_payload_msg(kb: usize) -> Message {
        Message::CommandDelivery {
            from: InstanceId(1),
            command: "blob".into(),
            payload: vec![0xA5; kb * 1024],
        }
    }

    /// Poisoning is ignored at every acquisition: a thread that dies
    /// holding a connection's outbox leaves neither the sender nor the
    /// poll thread wedged, and its panic does not spread to them.
    #[test]
    fn a_panic_under_an_outbox_lock_neither_wedges_nor_cascades() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };
        let outbox = host.conns.held().get(&conn).expect("registered").outbox.clone();
        let doomed = outbox.clone();
        let died = std::thread::spawn(move || {
            let _guard = doomed.held();
            panic!("dies holding the outbox");
        });
        assert!(died.join().is_err());
        assert!(outbox.is_poisoned());

        // The sender enqueues under that lock, the poll thread flushes
        // under it, the stats handle reads it.
        host.send(conn, &Message::Welcome { instance: InstanceId(3) }).unwrap();
        assert!(matches!(client.recv_timeout(TIMEOUT), Some(Message::Welcome { .. })));
        assert_eq!(host.stats().active_connections, 1);
    }

    /// Waits for the peer to close `client`'s socket: a refused dial is
    /// shut down at accept, so its reader sees end-of-stream.
    fn closed_by_peer(client: &TcpClient) -> bool {
        matches!(client.recv_within(TIMEOUT), Err(RecvError::Disconnected))
    }

    fn connected(host: &TcpHost) -> ConnId {
        match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        }
    }

    /// Socket-level admission (DESIGN.md §10.2), the connection cap: with
    /// two connections held, a third dial is shut down at accept, counted,
    /// and never reaches the poll pool — no `Connected` event, no slot.
    #[test]
    fn a_dial_past_max_connections_is_refused_at_accept() {
        let config = TcpHostConfig { max_connections: 2, ..TcpHostConfig::default() };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let _first = TcpClient::connect(host.local_addr()).unwrap();
        let _second = TcpClient::connect(host.local_addr()).unwrap();
        let (a, b) = (connected(&host), connected(&host));
        assert_ne!(a, b);

        let third = TcpClient::connect(host.local_addr()).unwrap();
        assert!(closed_by_peer(&third), "the third socket is shut down");
        assert_eq!(host.stats().connections_refused, 1);
        assert_eq!(host.stats().active_connections, 2);
        assert!(
            host.events().recv_timeout(Duration::from_millis(50)).is_err(),
            "a refused dial surfaces no event"
        );
    }

    /// The accept-rate bucket: a burst of one and no refill admits the
    /// first dial and refuses the one right behind it.
    #[test]
    fn a_dial_past_the_accept_burst_is_refused() {
        let config =
            TcpHostConfig { accept_burst: 1, accept_refill_per_sec: 0, ..TcpHostConfig::default() };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let _first = TcpClient::connect(host.local_addr()).unwrap();
        connected(&host);

        let second = TcpClient::connect(host.local_addr()).unwrap();
        assert!(closed_by_peer(&second), "the second socket is shut down");
        assert_eq!(host.stats().connections_refused, 1);
        assert_eq!(host.stats().active_connections, 1);
        assert!(host.events().recv_timeout(Duration::from_millis(50)).is_err());
    }

    /// The redial delay is a function of `(seed, attempt)` alone, lies in
    /// `[backoff, backoff · (1 + jitter)]` with the backoff capped by
    /// `max_delay`, and no attempt count overflows the doubling.
    #[test]
    fn redial_delay_is_seeded_bounded_and_capped() {
        let policy = ReconnectPolicy {
            max_attempts: u32::MAX,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter: 0.2,
            jitter_seed: Some(7),
        };
        let mut delays = Vec::new();
        for attempt in [1, 2, 3, 6, 7, 32, 33, 34, 1_000, u32::MAX] {
            let backoff = Duration::from_millis(50)
                .saturating_mul(1u32.checked_shl(attempt - 1).unwrap_or(u32::MAX))
                .min(Duration::from_secs(2));
            let delay = policy.delay_before(attempt);
            assert_eq!(delay, policy.delay_before(attempt), "attempt {attempt} replays");
            assert!(backoff <= delay && delay <= backoff.mul_f64(1.2), "{attempt}: {delay:?}");
            delays.push(delay);
        }
        assert!(delays[0] < Duration::from_millis(61), "attempt 1 starts at base_delay");
        assert!(delays[4] >= Duration::from_secs(2), "attempt 7 (3.2 s) is capped at max_delay");

        let other = ReconnectPolicy { jitter_seed: Some(8), ..policy };
        assert!(
            (1..=8).any(|a| other.delay_before(a) != policy.delay_before(a)),
            "another seed, another schedule"
        );
        let unseeded = ReconnectPolicy { jitter_seed: None, ..policy };
        let delay = unseeded.delay_before(3);
        assert!(Duration::from_millis(200) <= delay && delay <= Duration::from_millis(240));
        let plain = ReconnectPolicy { jitter: 0.0, ..policy };
        assert_eq!(plain.delay_before(3), Duration::from_millis(200));
    }

    #[test]
    fn round_trip_over_real_sockets() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();

        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };

        client
            .send(&Message::Register {
                user: UserId(7),
                host: "ws1".into(),
                app_name: "demo".into(),
            })
            .unwrap();
        match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Message(c, Message::Register { user, .. }) => {
                assert_eq!(c, conn);
                assert_eq!(user, UserId(7));
            }
            other => panic!("expected Register, got {other:?}"),
        }

        host.send(conn, &Message::Welcome { instance: InstanceId(3) }).unwrap();
        match client.recv_timeout(TIMEOUT).unwrap() {
            Message::Welcome { instance } => assert_eq!(instance, InstanceId(3)),
            other => panic!("expected Welcome, got {other:?}"),
        }

        let stats = host.stats();
        assert_eq!(stats.frames_in, 1);
        assert!(stats.bytes_in > 0);
        assert!(stats.bytes_out > 0);
        assert_eq!(stats.active_connections, 1);
        // Loopback sockets accept both options; a nonzero count here
        // would mean the counters misfire on the healthy path.
        assert_eq!(stats.sockopt_failures, 0);
        assert_eq!(client.sockopt_failures(), 0);
    }

    #[test]
    fn disconnect_is_surfaced() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };
        client.close();
        match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Disconnected(c) => assert_eq!(c, conn),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        assert!(host.send(conn, &Message::QueryInstances).is_err());
    }

    #[test]
    fn multiple_clients_multiplex() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let c1 = TcpClient::connect(host.local_addr()).unwrap();
        let c2 = TcpClient::connect(host.local_addr()).unwrap();
        let mut conns = Vec::new();
        for _ in 0..2 {
            match host.events().recv_timeout(TIMEOUT).unwrap() {
                NetEvent::Connected(c) => conns.push(c),
                other => panic!("expected Connected, got {other:?}"),
            }
        }
        c1.send(&Message::QueryInstances).unwrap();
        c2.send(&Message::Deregister).unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            match host.events().recv_timeout(TIMEOUT).unwrap() {
                NetEvent::Message(c, m) => got.push((c, m.kind_name())),
                other => panic!("expected Message, got {other:?}"),
            }
        }
        got.sort();
        assert_eq!(got.len(), 2);
        assert_ne!(got[0].0, got[1].0);
    }

    #[test]
    fn send_batch_coalesces_per_connection() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };
        let outgoing: Vec<(ConnId, SharedFrame)> = (1..=5)
            .map(|i| {
                (conn, SharedFrame::from_message(&Message::Welcome { instance: InstanceId(i) }))
            })
            .collect();
        let failed = host.send_batch(&outgoing);
        assert!(failed.is_empty());
        // All five frames arrive, in order.
        for i in 1..=5 {
            match client.recv_timeout(TIMEOUT).unwrap() {
                Message::Welcome { instance } => assert_eq!(instance, InstanceId(i)),
                other => panic!("expected Welcome, got {other:?}"),
            }
        }
        assert_eq!(host.stats().frames_out, 5);
    }

    /// Tentpole regression: a stalled consumer (socket accepted, never
    /// reading) must not delay delivery to a healthy peer.
    #[test]
    fn stalled_consumer_does_not_delay_healthy_peer() {
        let config = TcpHostConfig {
            queue_capacity: 8,
            enqueue_timeout: Duration::from_secs(2),
            ..TcpHostConfig::default()
        };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();

        // Stalled client: raw socket that never reads.
        let stalled_socket = std::net::TcpStream::connect(host.local_addr()).unwrap();
        let stalled = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };
        let healthy_client = TcpClient::connect(host.local_addr()).unwrap();
        let healthy = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };

        // Fill the stalled connection's socket buffer and part of its
        // outbox: big frames wedge in the kernel buffer, sends keep
        // succeeding as long as the outbox has room.
        let blob = big_payload_msg(256);
        let mut queued = 0;
        for _ in 0..config.queue_capacity {
            if host.send(stalled, &blob).is_err() {
                break;
            }
            queued += 1;
        }
        assert!(queued >= 2, "expected several sends to enqueue, got {queued}");

        // A send to the healthy peer must neither block nor be delayed
        // behind the stalled connection's backlog.
        let t0 = Instant::now();
        host.send(healthy, &Message::Welcome { instance: InstanceId(9) }).unwrap();
        let enqueue_elapsed = t0.elapsed();
        assert!(
            enqueue_elapsed < Duration::from_millis(100),
            "send to healthy peer took {enqueue_elapsed:?}"
        );
        match healthy_client.recv_timeout(TIMEOUT) {
            Some(Message::Welcome { instance }) => assert_eq!(instance, InstanceId(9)),
            other => panic!("healthy peer did not receive its message: {other:?}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "delivery to healthy peer was delayed by the stalled consumer"
        );
        drop(stalled_socket);
    }

    /// Tentpole regression: a consumer whose backlog stays over budget
    /// past the enqueue timeout is evicted and surfaced as Disconnected.
    #[test]
    fn slow_consumer_is_evicted() {
        let config = TcpHostConfig {
            queue_capacity: 2,
            enqueue_timeout: Duration::from_millis(100),
            ..TcpHostConfig::default()
        };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let stalled_socket = std::net::TcpStream::connect(host.local_addr()).unwrap();
        let stalled = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };

        let blob = big_payload_msg(512);
        let mut evicted = false;
        for _ in 0..64 {
            match host.send(stalled, &blob) {
                Ok(()) => continue,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::TimedOut, "unexpected error: {e}");
                    evicted = true;
                    break;
                }
            }
        }
        assert!(evicted, "slow consumer was never evicted");
        match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Disconnected(c) => assert_eq!(c, stalled),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        let stats = host.stats();
        assert_eq!(stats.slow_consumer_evictions, 1);
        assert!(stats.enqueue_full_waits >= 1);
        assert_eq!(stats.active_connections, 0);
        // Further sends fail fast with NotConnected.
        let err = host.send(stalled, &Message::QueryInstances).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected);
        drop(stalled_socket);
    }

    /// Satellite regression (backpressure wakeup): an enqueue blocked on
    /// a full byte budget must wake *when the poll thread drains bytes*,
    /// not by polling a sleep loop or waiting out its timeout. The
    /// consumer starts reading shortly after the backlog fills; with a
    /// 5 s enqueue timeout, the whole burst completing fast proves every
    /// blocked enqueue was woken by the drain.
    #[test]
    fn blocked_enqueue_wakes_on_drain_not_timeout() {
        const ROUNDS: usize = 40;
        let config = TcpHostConfig {
            queue_capacity: 4,
            queue_max_bytes: 512 * 1024,
            enqueue_timeout: Duration::from_secs(5),
            ..TcpHostConfig::default()
        };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let socket = std::net::TcpStream::connect(host.local_addr()).unwrap();
        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };

        // Late-starting consumer: the backlog fills first (kernel buffer
        // + byte budget << ROUNDS × 256 KiB) and an enqueue has to wait,
        // then it drains steadily.
        let counters = host.counters.clone();
        let drainer = std::thread::spawn(move || {
            use std::io::Read;
            let t0 = Instant::now();
            while counters.enqueue_full_waits.load(Ordering::Relaxed) == 0 && t0.elapsed() < TIMEOUT
            {
                std::thread::yield_now();
            }
            let mut socket = socket;
            let mut sink = vec![0u8; 64 * 1024];
            let mut total = 0usize;
            while total < ROUNDS * (256 * 1024) {
                match socket.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => total += n,
                }
            }
            socket
        });

        let blob = big_payload_msg(256);
        let t0 = Instant::now();
        for round in 0..ROUNDS {
            host.send(conn, &blob).unwrap_or_else(|e| panic!("send {round} failed: {e}"));
        }
        let elapsed = t0.elapsed();

        let stats = host.stats();
        assert!(stats.enqueue_full_waits >= 1, "the backlog never filled; test proves nothing");
        assert_eq!(stats.slow_consumer_evictions, 0, "drained consumer was evicted");
        // 40 × 256 KiB over loopback drains in well under a second once
        // the consumer starts; a sleep-poll adds ~1 ms per wait and
        // still passes, but waiting out even one 5 s timeout cannot.
        assert!(
            elapsed < Duration::from_secs(4),
            "blocked enqueues did not wake on drain (burst took {elapsed:?})"
        );
        let socket = drainer.join().unwrap();
        drop(socket);
    }

    /// Satellite regression (recv distinction): `recv_within` reports
    /// "quiet but alive" and "gone for good" differently, so callers no
    /// longer need the timeout-or-channel-quiet guessing the collapsed
    /// `recv_timeout` forced on them.
    #[test]
    fn recv_within_distinguishes_timeout_from_disconnect() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };

        // Quiet but alive: a short wait times out.
        assert_eq!(client.recv_within(Duration::from_millis(50)), Err(RecvError::Timeout));

        // Messages still come through as Ok.
        host.send(conn, &Message::Welcome { instance: InstanceId(1) }).unwrap();
        match client.recv_within(TIMEOUT) {
            Ok(Message::Welcome { instance }) => assert_eq!(instance, InstanceId(1)),
            other => panic!("expected Welcome, got {other:?}"),
        }

        // Gone for good: the host hangs up, and (with no reconnect
        // policy) the client reports Disconnected, not Timeout.
        host.disconnect(conn);
        assert_eq!(client.recv_within(TIMEOUT), Err(RecvError::Disconnected));
        // And it keeps saying so without waiting out the timeout.
        let t0 = Instant::now();
        assert_eq!(client.recv_within(TIMEOUT), Err(RecvError::Disconnected));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    /// Satellite regression: a wedged socket write (peer never reads)
    /// must not block later sends or `close`. The old `TcpClient::send`
    /// held the stream lock across a blocking `write_all`, so one big
    /// write into a full socket buffer pinned the lock and wedged every
    /// later `send` (even a tiny `Ping`) and `close` indefinitely.
    #[test]
    fn wedged_client_write_does_not_block_ping_or_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpClient::connect(addr).unwrap();
        let (peer, _) = listener.accept().unwrap();

        // Overrun the kernel socket buffers so the writer thread wedges
        // inside `write_all`, while staying below the outbox capacity so
        // `send` itself keeps succeeding (frames queue behind the wedge).
        let blob = big_payload_msg(256);
        for _ in 0..48 {
            client.send(&blob).unwrap();
        }

        // A liveness probe behind the wedged write must enqueue without
        // blocking on the socket.
        let t0 = Instant::now();
        client.send(&Message::Ping { nonce: 7 }).unwrap();
        let ping_elapsed = t0.elapsed();
        assert!(ping_elapsed < Duration::from_millis(200), "Ping send took {ping_elapsed:?}");

        // close() waits at most the flush timeout for the (never
        // draining) backlog, then tears the socket down regardless.
        let t1 = Instant::now();
        client.close();
        let close_elapsed = t1.elapsed();
        assert!(
            close_elapsed < CLIENT_FLUSH_TIMEOUT + Duration::from_secs(2),
            "close took {close_elapsed:?}"
        );
        drop(peer);
    }

    /// Shutdown regression: a host bound to the wildcard address must
    /// still be able to wake (and join) its accept loop on drop.
    #[test]
    fn drop_unblocks_accept_loop_on_wildcard_bind() {
        let host = TcpHost::bind("0.0.0.0:0").unwrap();
        let t0 = Instant::now();
        drop(host);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "dropping a wildcard-bound host hung for {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn send_batch_reports_dead_connections() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Connected(c) => c,
            other => panic!("expected Connected, got {other:?}"),
        };
        client.close();
        match host.events().recv_timeout(TIMEOUT).unwrap() {
            NetEvent::Disconnected(c) => assert_eq!(c, conn),
            other => panic!("expected Disconnected, got {other:?}"),
        }
        let failed = host.send_batch(&[
            (
                conn,
                SharedFrame::from_message(&Message::CommandDelivery {
                    from: InstanceId(1),
                    command: "x".into(),
                    payload: Vec::new(),
                }),
            ),
            (
                conn,
                SharedFrame::from_message(&Message::CoSendCommand {
                    to: Target::Broadcast,
                    command: "y".into(),
                    payload: Vec::new(),
                }),
            ),
        ]);
        assert_eq!(failed, vec![conn]);
        assert_eq!(host.stats().frames_dropped, 2);
    }

    /// The pool really is fixed-size: traffic over many connections with
    /// `io_threads: 2` flows correctly (round-robin assignment puts
    /// neighbours on different poll threads).
    #[test]
    fn small_pool_carries_many_connections() {
        let config = TcpHostConfig { io_threads: 2, ..TcpHostConfig::default() };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let clients: Vec<TcpClient> =
            (0..8).map(|_| TcpClient::connect(host.local_addr()).unwrap()).collect();
        let mut conns = Vec::new();
        for _ in 0..clients.len() {
            match host.events().recv_timeout(TIMEOUT).unwrap() {
                NetEvent::Connected(c) => conns.push(c),
                other => panic!("expected Connected, got {other:?}"),
            }
        }
        for (i, conn) in conns.iter().enumerate() {
            host.send(*conn, &Message::Welcome { instance: InstanceId(i as u64 + 1) }).unwrap();
        }
        // Each client got exactly its own frame.
        let mut seen = Vec::new();
        for client in &clients {
            match client.recv_timeout(TIMEOUT) {
                Some(Message::Welcome { instance }) => seen.push(instance.0),
                other => panic!("expected Welcome, got {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (1..=8).collect::<Vec<u64>>());
        assert_eq!(host.stats().active_connections, 8);
    }
}
