//! Real TCP transport: length-prefixed COSOFT frames over `std::net`
//! sockets, delivered through the crate's one mailbox, [`Inbox`].
//! The server and client logic that runs over [`crate::sim`] runs here
//! too; the integration tests, the examples and the benchmark use it.
//!
//! # I/O model
//!
//! A [`TcpHost`]'s sockets belong to a poll pool (the `poll` module): a
//! fixed set of [`TcpHostConfig::io_threads`] threads, plus an accept
//! thread, reads and writes every accepted socket, so connection count
//! adds *state*, not threads. A [`TcpClient`] starts no thread: each of
//! its calls does its I/O on the calling thread. A receive reads the
//! socket, sleeping in `read` until bytes come, so an idle client wakes
//! no thread and hears a push at once. A send writes what the socket
//! takes at once, and the client's next send, receive or `close` writes
//! what a full socket left.
//!
//! A host bound with [`TcpHost::bind_with_turn`] runs that turn (the
//! server's dispatch step) on its first poll thread, at the end of each
//! pass, on the events the pass read: a frame crosses no thread between
//! its read and the turn, and the turn's replies to that thread's own
//! connections are written in the same pass. A host bound without one
//! posts its events to a mailbox ([`TcpHost::events`]) for the caller's
//! own loop.
//!
//! A host's send is a non-blocking enqueue on the connection's ring
//! outbox plus a wakeup of its poll thread, which flushes on writability:
//! one stalled consumer cannot delay its peers. An enqueue over budget
//! parks on a condvar the poll thread signals as it drains bytes; past
//! [`TcpHostConfig::enqueue_timeout`] the host evicts the connection as a
//! slow consumer (surfacing the usual [`NetEvent::Disconnected`], which
//! the server maps to the §3.2 auto-decoupling path). A turn never
//! parks: its batch is queued over budget, and the connection's poll
//! thread evicts it once the backlog has stayed over budget for the
//! enqueue timeout. [`TcpHost::send_batch`] and a turn coalesce a
//! turn's frames per connection into one vectored write. A client with a
//! [`ReconnectPolicy`] redials on the thread that receives, within the
//! receive's timeout.

use std::borrow::{Borrow, BorrowMut};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cosoft_rng::Rng;
use cosoft_wire::{Message, SharedFrame};

use crate::lock::{LeafLock, OutboxLock};
use crate::poll::{self, ConnMap, FrameReader, Gate, OutBatch, Outbox, Pool, MAX_PARK};
pub use crate::poll::{Inbox, RecvTimeoutError};

/// A host's dispatch step, as its poll thread runs it: it takes the
/// events it has room for (the rest wait for its next run) and returns
/// the frames to send.
pub(crate) type Turn =
    Box<dyn FnMut(&mut dyn Iterator<Item = NetEvent>) -> Vec<(ConnId, SharedFrame)> + Send>;

/// The instant `wait` after `from`, or, where the clock ends sooner, one
/// at least halfway from `from` to its end: a caller's or a config's
/// "wait for ever" (`Duration::MAX`) is a deadline, not a panic.
pub fn deadline(from: Instant, wait: Duration) -> Instant {
    from.checked_add(wait).unwrap_or_else(|| deadline(from, wait / 2))
}

/// Dials `addr` once, for at most 100 ms, to wake a thread blocked in
/// `accept` on it. A wildcard address (`0.0.0.0`, `::`) is not reliably
/// connectable, so it is dialed at the loopback address of its family.
fn wake_listener(addr: SocketAddr) {
    let ip = match addr.ip() {
        ip if !ip.is_unspecified() => ip,
        IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
        IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
    };
    let _ = TcpStream::connect_timeout(&(ip, addr.port()).into(), Duration::from_millis(100));
}

/// Identifier of one accepted connection on a [`TcpHost`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Event surfaced by a [`TcpHost`], keyed by its connection. The
/// simulated network reports the same events keyed by its node ids, so
/// a server turn consumes one vocabulary from either.
#[derive(Debug)]
pub enum NetEvent<E = ConnId> {
    /// A client connected.
    Connected(E),
    /// A complete message arrived from a client.
    Message(E, Message),
    /// A client disconnected (cleanly, on error, or evicted as a slow
    /// consumer).
    Disconnected(E),
}

/// Sizing and slow-consumer policy for a [`TcpHost`]'s outbound queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHostConfig {
    /// Maximum writes queued per connection before an enqueue has to
    /// wait (each queued entry is one coalesced batch of frames). A
    /// host's turn does not wait: its batch is queued past the limit, and
    /// a backlog that stays over it for `enqueue_timeout` is evicted.
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

impl TcpHostConfig {
    /// Whether a backlog of `batches` batches and `bytes` bytes is over
    /// budget: more than `queue_capacity` batches, or more than
    /// `queue_max_bytes` bytes in more than one batch (one batch is always
    /// admitted into an empty backlog, so it cannot wedge itself).
    pub(crate) fn over_budget(&self, batches: usize, bytes: usize) -> bool {
        batches > self.queue_capacity.max(1) || (batches > 1 && bytes > self.queue_max_bytes)
    }
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
    /// Socket read attempts, the ones that found nothing (`WouldBlock`)
    /// included: what the poll threads' read probes cost.
    pub read_probes: u64,
    /// Socket writes that carried more than one queued batch.
    pub coalesced_writes: u64,
    /// Enqueues that found the connection's queue full and had to wait,
    /// or, from a host's turn, were queued over budget.
    pub enqueue_full_waits: u64,
    /// Connections forcibly disconnected by the slow-consumer policy.
    pub slow_consumer_evictions: u64,
    /// Frames dropped because their connection was already gone.
    pub frames_dropped: u64,
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
    pub(crate) read_probes: AtomicU64,
    pub(crate) coalesced_writes: AtomicU64,
    pub(crate) enqueue_full_waits: AtomicU64,
    pub(crate) slow_consumer_evictions: AtomicU64,
    pub(crate) frames_dropped: AtomicU64,
    pub(crate) sockopt_failures: AtomicU64,
    pub(crate) connections_refused: AtomicU64,
    pub(crate) handshake_timeouts: AtomicU64,
}

/// Cloneable handle that can snapshot a host's [`TcpStats`] even after
/// the host moved into a server.
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
            let deepest = conns.values().map(|c| c.outbox.held().len()).max().unwrap_or(0);
            let deepest_bytes = conns.values().map(|c| c.outbox.held().queued()).max().unwrap_or(0);
            (conns.len(), deepest, deepest_bytes)
        };
        TcpStats {
            frames_out: self.counters.frames_out.load(Ordering::Relaxed),
            bytes_out: self.counters.bytes_out.load(Ordering::Relaxed),
            frames_in: self.counters.frames_in.load(Ordering::Relaxed),
            bytes_in: self.counters.bytes_in.load(Ordering::Relaxed),
            read_probes: self.counters.read_probes.load(Ordering::Relaxed),
            coalesced_writes: self.counters.coalesced_writes.load(Ordering::Relaxed),
            enqueue_full_waits: self.counters.enqueue_full_waits.load(Ordering::Relaxed),
            slow_consumer_evictions: self.counters.slow_consumer_evictions.load(Ordering::Relaxed),
            frames_dropped: self.counters.frames_dropped.load(Ordering::Relaxed),
            sockopt_failures: self.counters.sockopt_failures.load(Ordering::Relaxed),
            connections_refused: self.counters.connections_refused.load(Ordering::Relaxed),
            handshake_timeouts: self.counters.handshake_timeouts.load(Ordering::Relaxed),
            active_connections: active,
            max_queue_depth: deepest,
            max_queued_bytes: deepest_bytes,
        }
    }
}

/// Accepting side of the TCP transport (used by the COSOFT server).
///
/// One accept thread hands sockets to a fixed pool of poll threads that
/// own all per-connection I/O; see the module docs for the model.
pub struct TcpHost {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    pool: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
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

    /// Binds with `config` and gives the host its turn: poll thread 0
    /// runs `turn` at the end of each pass on the events the pass
    /// produced (every thread's, in order), and at least every `tick`
    /// with none, and sends the frames it returns (see the module docs).
    /// `turn` may take fewer events than it is offered; the rest are
    /// offered again on the next pass. The host's mailbox stays empty.
    ///
    /// # Errors
    ///
    /// As [`TcpHost::bind_with_config`].
    pub fn bind_with_turn(
        addr: &str,
        config: TcpHostConfig,
        tick: Duration,
        turn: impl FnMut(&mut dyn Iterator<Item = NetEvent>) -> Vec<(ConnId, SharedFrame)>
            + Send
            + 'static,
    ) -> io::Result<TcpHost> {
        TcpHost::bind_inner(addr, config, Some((tick, Box::new(turn))))
    }

    fn bind_inner(
        addr: &str,
        config: TcpHostConfig,
        turn: Option<(Duration, Turn)>,
    ) -> io::Result<TcpHost> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        // The fixed I/O pool, spawned up front: a pool-spawn failure is
        // a bind error, not a per-connection casualty.
        let (pool, threads) = Pool::spawn(config, turn)?;

        let accept_pool = pool.clone();
        let accept_shutdown = shutdown.clone();
        let accept_thread =
            std::thread::Builder::new().name("cosoft-accept".into()).spawn(move || {
                let counters = &accept_pool.counters;
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
                        && accept_pool.conns.held().len() >= config.max_connections
                    {
                        counters.connections_refused.fetch_add(1, Ordering::Relaxed);
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
                            counters.connections_refused.fetch_add(1, Ordering::Relaxed);
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                            continue;
                        }
                        allowance -= 1.0;
                    }
                    // A socket the pool cannot take is shut; the next
                    // dial gets its own chance.
                    let _ = accept_pool.register(stream);
                }
            });
        let accept_thread = match accept_thread {
            Ok(thread) => thread,
            Err(e) => {
                pool.stop(threads);
                return Err(e);
            }
        };

        Ok(TcpHost { local_addr, shutdown, pool, threads, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The active queue/slow-consumer configuration.
    pub fn config(&self) -> TcpHostConfig {
        self.pool.config
    }

    /// The mailbox the host posts its connection events to (none, for a
    /// host with a turn). Closing it ends a taker's waits once what was
    /// posted is taken.
    pub fn events(&self) -> &Arc<Inbox<NetEvent>> {
        &self.pool.events
    }

    /// Current transport counters.
    pub fn stats(&self) -> TcpStats {
        self.stats_handle().snapshot()
    }

    /// A cloneable handle that can snapshot [`TcpStats`] after the host
    /// moved into a server.
    pub fn stats_handle(&self) -> TcpStatsHandle {
        TcpStatsHandle { counters: self.pool.counters.clone(), conns: self.pool.conns.clone() }
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
        self.pool.enqueue(conn, OutBatch { bytes: bytes.len(), segments: vec![bytes], frames: 1 })
    }

    /// Sends a whole server turn of pre-encoded frames, coalescing all
    /// frames that target the same connection into a single queued
    /// (vectored) write. A shared frame fanned out to many connections
    /// lands here as cheap clones of one buffer — nothing is re-encoded
    /// or concatenated per destination. Returns the connections that
    /// could not be delivered to (gone or evicted); the poll loop
    /// surfaces [`NetEvent::Disconnected`] for them.
    pub fn send_batch(&self, outgoing: &[(ConnId, SharedFrame)]) -> Vec<ConnId> {
        self.pool.send_batch(outgoing)
    }

    /// Closes one connection; the owning poll thread will surface a
    /// [`NetEvent::Disconnected`].
    pub fn disconnect(&self, conn: ConnId) {
        self.pool.shut(conn);
    }
}

impl Drop for TcpHost {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a dummy connection.
        wake_listener(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            h.join().ok();
        }
        // With the accept thread joined, no further registrations can
        // race the pool shutdown; each poll thread tears its
        // connections down (counting unwritten frames as dropped).
        self.pool.stop(std::mem::take(&mut self.threads));
    }
}

/// Connection lifecycle notification from a [`TcpClient`] running with a
/// [`ReconnectPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent {
    /// The connection dropped; the client redials as it receives.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout; as far as the client
    /// knows the connection is still alive (or being revived by its
    /// redials).
    Timeout,
    /// The connection is gone for good — closed, failed without a
    /// reconnect policy, or the redials gave up. No message will
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
    /// The wait before dial attempt `attempt` (1-based): exponential
    /// backoff capped at `max_delay`, plus up to `jitter` of random
    /// extra delay.
    fn delay_before(&self, attempt: u32) -> Duration {
        let backoff = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(u32::MAX))
            .min(self.max_delay);
        if self.jitter.is_nan() || self.jitter <= 0.0 {
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
        let factor = 1.0 + self.jitter.min(1.0) * unit;
        Duration::try_from_secs_f64(backoff.as_secs_f64() * factor).unwrap_or(Duration::MAX)
    }
}

/// How long a send at the limit, or a `close`, keeps writing queued
/// frames (e.g. a graceful `Deregister`) to a full socket.
const CLIENT_FLUSH_TIMEOUT: Duration = Duration::from_millis(500);

/// Most sends a client's outbox holds; there is no byte budget.
const CLIENT_QUEUE: usize = 64;

/// A client connection's write side: the socket's write half (`None`
/// once the connection is shut) and the frames queued on it.
#[derive(Default)]
struct Sending {
    stream: Option<TcpStream>,
    outbox: Outbox,
}

impl Borrow<Outbox> for Sending {
    fn borrow(&self) -> &Outbox {
        &self.outbox
    }
}

impl BorrowMut<Outbox> for Sending {
    fn borrow_mut(&mut self) -> &mut Outbox {
        &mut self.outbox
    }
}

/// A dialed socket as a client holds it: its read half, and its write
/// half with nothing queued. A `set_nodelay` failure counts in `failures`.
fn split(dialed: io::Result<TcpStream>, failures: &AtomicU64) -> io::Result<(TcpStream, Sending)> {
    let stream = dialed?;
    if stream.set_nodelay(true).is_err() {
        // Tolerated: the connection works, just slower.
        failures.fetch_add(1, Ordering::Relaxed);
    }
    Ok((stream.try_clone()?, Sending { stream: Some(stream), outbox: Outbox::default() }))
}

/// Where a client stands with its connection.
enum Link {
    /// Connected: the socket's read half.
    Up(TcpStream),
    /// A receive is reading or dialing; the others wait their turn.
    Busy,
    /// The connection dropped; dial `attempt` of the outage is due at `at`.
    Down { attempt: u32, at: Instant },
    /// Closed, dropped with no policy, or given up: nothing more arrives.
    Dead,
}

/// What a client's receives share: the link, and what was read of it.
struct Inbound {
    link: Link,
    frames: FrameReader,
    ready: VecDeque<Message>,
}

/// Connecting side of the TCP transport (used by application instances).
///
/// A client starts no thread: each call does its socket I/O on the
/// calling thread (see the module docs), and its receives take turns.
/// A tail that a full socket leaves is written by the client's next
/// send, receive or `close`, so a wedged write blocks none of them.
pub struct TcpClient {
    addr: SocketAddr,
    policy: Option<ReconnectPolicy>,
    /// The connection's write side; a redial swaps the fresh one in.
    sending: OutboxLock<Sending>,
    /// Notified as a write drains bytes; a send or `close` waits on it.
    drained: Gate,
    inbound: LeafLock<Inbound>,
    /// Notified as a receive hands the link back.
    turn: Gate,
    /// Lifecycle transitions, kept only with a policy.
    events: Option<Inbox<ClientEvent>>,
    closed: AtomicBool,
    reconnects: AtomicU64,
    reconnect_attempts: AtomicU64,
    sockopt_failures: AtomicU64,
    /// Latest `Busy { retry_after_ms }` seen from the server; the
    /// redial treats it as a backoff floor and clears it once a redial
    /// succeeds.
    busy_advice_ms: AtomicU64,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient").finish_non_exhaustive()
    }
}

impl TcpClient {
    /// Connects to a [`TcpHost`]. The connection is not revived when it
    /// drops; use [`TcpClient::connect_with_reconnect`] for that.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpClient> {
        Self::open(addr, None)
    }

    /// Connects to a [`TcpHost`] and keeps the connection alive: when it
    /// drops, the receiving calls redial `addr` with exponential backoff
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
        Self::open(addr, Some(policy))
    }

    fn open(addr: SocketAddr, policy: Option<ReconnectPolicy>) -> io::Result<TcpClient> {
        let sockopt_failures = AtomicU64::new(0);
        let (stream, sending) = split(TcpStream::connect(addr), &sockopt_failures)?;
        Ok(TcpClient {
            addr,
            policy,
            sending: OutboxLock::new(sending),
            drained: Gate::default(),
            inbound: LeafLock::new(Inbound {
                link: Link::Up(stream),
                frames: FrameReader::default(),
                ready: VecDeque::new(),
            }),
            turn: Gate::default(),
            events: policy.map(|_| Inbox::default()),
            closed: AtomicBool::new(false),
            reconnects: AtomicU64::new(0),
            reconnect_attempts: AtomicU64::new(0),
            sockopt_failures,
            busy_advice_ms: AtomicU64::new(0),
        })
    }

    /// Writes what the socket takes of the queued frames now, switched to
    /// nonblocking under the outbox lock. Returns whether a tail stays
    /// queued; an error is the connection's, and a receive reads it too.
    fn write_tail(&self) -> io::Result<bool> {
        let left = poll::flush(
            &self.sending,
            |Sending { stream, outbox }| {
                let stream = stream.as_ref().ok_or(io::ErrorKind::NotConnected)?;
                poll::nonblocking(stream, |s| outbox.write_to(s))
            },
            |_| self.drained.notify(),
        )?;
        Ok(left.batches > 0)
    }

    /// Writes the queued frames until `ready` holds of the outbox, trying
    /// a full socket again at least every `MAX_PARK`: `NotConnected` with
    /// no connection, `TimedOut` at `deadline`, a write error as it comes.
    /// `ready` runs under the outbox lock, which no wait holds.
    fn write_until(
        &self,
        deadline: Instant,
        mut ready: impl FnMut(&mut Outbox) -> bool,
    ) -> io::Result<()> {
        loop {
            let seen = self.drained.generation();
            let mut sending = self.sending.held();
            if sending.stream.is_none() {
                return Err(io::ErrorKind::NotConnected.into());
            }
            if ready(&mut sending.outbox) {
                return Ok(());
            }
            drop(sending);
            if Instant::now() >= deadline {
                return Err(io::ErrorKind::TimedOut.into());
            }
            self.write_tail()?;
            // A write that moved bytes has notified: no wait, `ready` again.
            let left = deadline.saturating_duration_since(Instant::now());
            self.drained.wait(seen, MAX_PARK.min(left));
        }
    }

    /// Posts a lifecycle transition, for a client with a policy.
    fn tell(&self, event: ClientEvent) {
        if let Some(events) = &self.events {
            events.post(event);
        }
    }

    /// Schedules dial `attempt` of the outage. The client is dead instead
    /// once closed, without a policy, or out of attempts (`GaveUp`).
    fn schedule(&self, attempt: u32) {
        let link = match self.policy.filter(|_| !self.closed.load(Ordering::SeqCst)) {
            Some(policy) if attempt <= policy.max_attempts => {
                // The server's retry advice is a floor under the policy's
                // own backoff, never a shortcut below it.
                let advice = Duration::from_millis(self.busy_advice_ms.load(Ordering::Relaxed));
                let at = deadline(Instant::now(), policy.delay_before(attempt).max(advice));
                Link::Down { attempt, at }
            }
            Some(_) => {
                self.tell(ClientEvent::GaveUp);
                Link::Dead
            }
            None => Link::Dead,
        };
        self.inbound.held().link = link;
    }

    /// One read of the socket, waiting at most until `deadline` (past it,
    /// not at all). Hands the link back, or starts an outage.
    fn read(&self, stream: TcpStream, deadline: Instant) {
        let mut buf = [0u8; 16 * 1024];
        // A tail a full socket left goes out first, and while one stays
        // queued the read waits at most `MAX_PARK` before the next try.
        // A failed write is left to the read, which fails too.
        let most = if self.write_tail().unwrap_or(false) { MAX_PARK } else { Duration::MAX };
        let wait = deadline.saturating_duration_since(Instant::now()).min(most);
        let read = if wait.is_zero() {
            let _switching = self.sending.held();
            poll::nonblocking(&stream, |mut s| s.read(&mut buf))
        } else {
            stream.set_read_timeout(Some(wait)).and_then(|()| (&stream).read(&mut buf))
        };
        let mut inbound = self.inbound.held();
        let alive = match read {
            Ok(0) => false,
            Ok(n) => {
                inbound.frames.push(buf.get(..n).unwrap_or(&[]));
                loop {
                    match inbound.frames.next() {
                        Ok(Some(msg)) => inbound.ready.push_back(msg),
                        Ok(None) => break true,
                        Err(_) => break false,
                    }
                }
            }
            // Out of time, or inside a switch to nonblocking.
            Err(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ),
        };
        if alive {
            inbound.link = Link::Up(stream);
            return;
        }
        inbound.frames = FrameReader::default();
        drop(inbound);
        self.sever();
        if !self.closed.load(Ordering::SeqCst) {
            self.tell(ClientEvent::Disconnected);
        }
        self.schedule(1);
    }

    /// Dial `attempt` of the outage, given `wait` at most: a fresh socket
    /// replaces the connection, or the next dial is scheduled.
    fn redial(&self, attempt: u32, wait: Duration) {
        if self.closed.load(Ordering::SeqCst) {
            return self.schedule(attempt);
        }
        self.reconnect_attempts.fetch_add(1, Ordering::Relaxed);
        let dialed = TcpStream::connect_timeout(&self.addr, wait);
        let Ok((stream, sending)) = split(dialed, &self.sockopt_failures) else {
            return self.schedule(attempt + 1);
        };
        *self.sending.held() = sending;
        // close() may have raced the dial: shut the fresh socket too
        // rather than resurrecting a client the application closed.
        if self.closed.load(Ordering::SeqCst) {
            self.sever();
            return self.schedule(attempt);
        }
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        // Advice consumed: the next outage starts from the policy's own
        // backoff again.
        self.busy_advice_ms.store(0, Ordering::Relaxed);
        self.inbound.held().link = Link::Up(stream);
        self.tell(ClientEvent::Reconnected { attempts: attempt });
    }

    /// Sends a message to the server: queues it and writes what the
    /// socket takes now, without blocking on it. A tail stays queued for
    /// the client's next send, receive or `close`; with 64 sends queued,
    /// the send itself keeps writing for up to the flush timeout.
    ///
    /// # Errors
    ///
    /// `NotConnected` once the client is closed, `BrokenPipe` once the
    /// connection failed (no reconnect policy), `TimedOut` if the
    /// outbox stayed full past the flush timeout. A failed connection
    /// of a reconnect-enabled client is not surfaced here: the frame is
    /// lost and the redial revives the connection.
    pub fn send(&self, msg: &Message) -> io::Result<()> {
        let bytes = SharedFrame::from_message(msg).into_bytes();
        let mut batch = Some(OutBatch { bytes: bytes.len(), segments: vec![bytes], frames: 1 });
        let sent = self
            .write_until(Instant::now() + CLIENT_FLUSH_TIMEOUT, |outbox| {
                let room = outbox.len() < CLIENT_QUEUE;
                if let Some(batch) = batch.take_if(|_| room) {
                    outbox.push(batch);
                }
                room
            })
            .and_then(|()| self.write_tail());
        // A closed client's connection is shut, so its sends fail here.
        match sent {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => Err(e),
            Err(_) if self.closed.load(Ordering::SeqCst) => {
                Err(io::Error::new(io::ErrorKind::NotConnected, "client closed"))
            }
            Err(_) if self.policy.is_some() => Ok(()),
            Err(_) => Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection failed")),
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
    /// The receive reads the socket on the calling thread, and first
    /// writes what a full socket left of earlier sends; receives on
    /// several threads take turns. A reconnect-enabled client redials in
    /// here (and in [`TcpClient::recv_timeout`]) once each backoff has
    /// passed, and a dial gets no more than the receive's remaining time:
    /// one that takes longer counts as a failed attempt, and
    /// [`TcpClient::try_recv`] never dials.
    ///
    /// # Errors
    ///
    /// [`RecvError`] when no message arrived.
    pub fn recv_within(&self, timeout: Duration) -> Result<Message, RecvError> {
        let deadline = deadline(Instant::now(), timeout);
        // Even a zero-wait receive reads the socket once.
        let mut once = true;
        loop {
            let seen = self.turn.generation();
            let now = Instant::now();
            let mut inbound = self.inbound.held();
            if let Some(msg) = inbound.ready.pop_front() {
                drop(inbound);
                // An overloaded server's `Busy` carries backoff advice;
                // remember the latest so a redial after an eviction does
                // not dial straight back into the shed window. The
                // message still reaches the caller.
                if let Message::Busy { retry_after_ms } = &msg {
                    self.busy_advice_ms.store(*retry_after_ms, Ordering::Relaxed);
                }
                return Ok(msg);
            }
            let until = match inbound.link {
                Link::Dead => return Err(RecvError::Disconnected),
                Link::Up(..) if once || now < deadline => None,
                Link::Down { at, .. } if at <= now && now < deadline => None,
                Link::Down { at, .. } => Some(at.min(deadline)),
                Link::Up(..) | Link::Busy => Some(deadline),
            };
            if let Some(until) = until {
                drop(inbound);
                if now >= deadline {
                    return Err(RecvError::Timeout);
                }
                // Until the link is handed back or a dial comes due.
                self.turn.wait(seen, until - now);
                continue;
            }
            once = false;
            let link = std::mem::replace(&mut inbound.link, Link::Busy);
            drop(inbound);
            match link {
                Link::Up(stream) => self.read(stream, deadline),
                Link::Down { attempt, .. } => self.redial(attempt, deadline - now),
                other => self.inbound.held().link = other,
            }
            self.turn.notify();
        }
    }

    /// Non-blocking receive: one nonblocking read, and no dial.
    pub fn try_recv(&self) -> Option<Message> {
        self.recv_within(Duration::ZERO).ok()
    }

    /// Lifecycle events, present when the client was created with
    /// [`TcpClient::connect_with_reconnect`].
    pub fn events(&self) -> Option<&Inbox<ClientEvent>> {
        self.events.as_ref()
    }

    /// Successful reconnections.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Redial attempts (successful or not).
    pub fn reconnect_attempts(&self) -> u64 {
        self.reconnect_attempts.load(Ordering::Relaxed)
    }

    /// `set_nodelay` calls that failed on this client's connections,
    /// including redials. Nonzero means the platform is misbehaving, not
    /// that the connection is broken.
    pub fn sockopt_failures(&self) -> u64 {
        self.sockopt_failures.load(Ordering::Relaxed)
    }

    /// The latest `Busy { retry_after_ms }` advice seen from the server,
    /// in milliseconds; `0` when none is pending. A redial waits at
    /// least this long and resets the advice once it succeeds.
    pub fn busy_advice_ms(&self) -> u64 {
        self.busy_advice_ms.load(Ordering::Relaxed)
    }

    /// Shuts the connection down; the server sees a disconnect and no
    /// redial follows. First writes already-queued frames (e.g. a
    /// graceful `Deregister`) for up to the flush timeout (500 ms) — but
    /// no longer: a wedged socket cannot hold `close` hostage.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // A repeated close (or the Drop after one) finds nothing to write
        // and nothing to shut.
        let _ = self.write_until(Instant::now() + CLIENT_FLUSH_TIMEOUT, |outbox| outbox.is_empty());
        self.sever();
        // A receive holding the link finds the socket shut, or the client
        // closed after its dial.
        let mut inbound = self.inbound.held();
        if !matches!(inbound.link, Link::Busy) {
            inbound.link = Link::Dead;
        }
        drop(inbound);
        self.turn.notify();
    }

    /// Kills the current connection *without* marking the client closed —
    /// indistinguishable from a network failure, so a reconnect-enabled
    /// client redials; tests and demos of reconnection use it. It shuts
    /// the socket and drops what was queued on it, and a receive then
    /// reads the end of the stream.
    pub fn sever(&self) {
        let Sending { stream, .. } = std::mem::take(&mut *self.sending.held());
        if let Some(stream) = stream {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_wire::{codec, InstanceId, Target, UserId};
    use std::io::Write;
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
        let shared = host.pool.conns.held().get(&conn).expect("registered").clone();
        let doomed = shared.clone();
        let died = std::thread::spawn(move || {
            let _guard = doomed.outbox.held();
            panic!("dies holding the outbox");
        });
        assert!(died.join().is_err());
        assert!(shared.outbox.is_poisoned());

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

    /// A jitter that is not a number adds no jitter.
    #[test]
    fn a_nan_jitter_adds_nothing() {
        let policy = ReconnectPolicy { jitter: f64::NAN, ..ReconnectPolicy::default() };
        assert_eq!(policy.delay_before(1), policy.base_delay);
    }

    /// "Wait for ever" is `Duration::MAX`, wherever a wait is given: a
    /// deadline that far out saturates instead of panicking the caller
    /// or a transport thread.
    #[test]
    fn recv_within_duration_max_returns_a_host_push() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = connected(&host);
        host.send(conn, &Message::Welcome { instance: InstanceId(4) }).unwrap();
        assert_eq!(
            client.recv_within(Duration::MAX),
            Ok(Message::Welcome { instance: InstanceId(4) })
        );
    }

    #[test]
    fn a_host_with_handshake_timeout_max_carries_a_ping() {
        let config = TcpHostConfig { handshake_timeout: Duration::MAX, ..TcpHostConfig::default() };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = connected(&host);
        client.send(&Message::Ping { nonce: 5 }).unwrap();
        match host.events().recv_timeout(TIMEOUT) {
            Ok(NetEvent::Message(c, Message::Ping { nonce: 5 })) => assert_eq!(c, conn),
            other => panic!("expected the Ping, got {other:?}"),
        }
    }

    #[test]
    fn a_host_with_enqueue_timeout_max_carries_a_pong() {
        let config = TcpHostConfig { enqueue_timeout: Duration::MAX, ..TcpHostConfig::default() };
        let host = TcpHost::bind_with_config("127.0.0.1:0", config).unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        let conn = connected(&host);
        host.send(conn, &Message::Pong { nonce: 6 }).unwrap();
        assert_eq!(client.recv_within(TIMEOUT), Ok(Message::Pong { nonce: 6 }));
    }

    /// A backoff past what a `Duration` holds, jittered, schedules a
    /// redial that never comes due: the receive times out as asked.
    #[test]
    fn a_reconnect_client_with_a_max_backoff_times_out_after_sever() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let policy = ReconnectPolicy {
            base_delay: Duration::MAX,
            max_delay: Duration::MAX,
            jitter: 0.5,
            ..ReconnectPolicy::default()
        };
        let client = TcpClient::connect_with_reconnect(host.local_addr(), policy).unwrap();
        client.sever();
        let t0 = Instant::now();
        assert_eq!(client.recv_within(Duration::from_millis(100)), Err(RecvError::Timeout));
        assert!(t0.elapsed() < TIMEOUT, "the receive took {:?}", t0.elapsed());
        assert_eq!(client.reconnect_attempts(), 0);
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
        let counters = host.pool.counters.clone();
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

        // Overrun the kernel socket buffers so the socket takes no more,
        // while staying below the outbox capacity so `send` itself keeps
        // succeeding (frames queue behind the wedge).
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

    /// A client dialed to a raw peer, and the peer's socket (reads time
    /// out after `TIMEOUT`).
    fn client_and_peer() -> (TcpClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peer.set_read_timeout(Some(TIMEOUT)).unwrap();
        (client, peer)
    }

    /// Frames queued on the client's outbox, behind what the socket took.
    fn queued(client: &TcpClient) -> usize {
        client.sending.held().outbox.len()
    }

    /// Sends ~256 KiB frames, each its own, to a peer that reads none of
    /// them until the client's outbox keeps a tail; returns them.
    fn fill_until_a_tail(client: &TcpClient) -> Vec<Message> {
        let mut sent = Vec::new();
        while queued(client) == 0 {
            assert!(sent.len() < 4 * CLIENT_QUEUE, "{} sends left no tail", sent.len());
            let msg = Message::CommandDelivery {
                from: InstanceId(sent.len() as u64),
                command: "blob".into(),
                payload: vec![sent.len() as u8; 256 * 1024],
            };
            client.send(&msg).unwrap();
            sent.push(msg);
        }
        sent
    }

    /// What a full socket left is written by the client's next receive:
    /// once the peer starts reading, it gets every frame intact with no
    /// further send, and the receive then hears the peer's answer.
    #[test]
    fn the_next_receive_writes_the_tail_a_full_socket_left() {
        let (client, peer) = client_and_peer();
        let sent = fill_until_a_tail(&client);
        std::thread::scope(|s| {
            let receive = s.spawn(|| client.recv_within(TIMEOUT));
            let mut reader = io::BufReader::new(&peer);
            for (i, msg) in sent.iter().enumerate() {
                let got =
                    codec::read_frame(&mut reader).unwrap_or_else(|e| panic!("frame {i}: {e}"));
                assert_eq!(got.as_ref(), Some(msg), "frame {i} of {}", sent.len());
            }
            (&peer).write_all(&codec::frame_message(&Message::Pong { nonce: 1 })).unwrap();
            assert_eq!(receive.join().unwrap(), Ok(Message::Pong { nonce: 1 }));
        });
    }

    /// At 64 queued sends the sender keeps writing for the flush timeout,
    /// then gets `TimedOut`; a `close` behind that wedge is bounded too.
    #[test]
    fn a_send_past_64_queued_times_out_after_the_flush_timeout() {
        let (client, peer) = client_and_peer();
        let blob = big_payload_msg(256);
        // A send at the limit succeeds while the kernel still takes bytes;
        // the first that times out found 64 queued and a socket that took
        // nothing more.
        let mut timed_out = None;
        for _ in 0..4 * CLIENT_QUEUE {
            let full = queued(&client) == CLIENT_QUEUE;
            let t0 = Instant::now();
            if let Err(e) = client.send(&blob) {
                assert_eq!(e.kind(), io::ErrorKind::TimedOut, "{e}");
                assert!(full, "a send with room timed out");
                timed_out = Some(t0.elapsed());
                break;
            }
        }
        let took = timed_out.expect("no send timed out");
        assert!(
            CLIENT_FLUSH_TIMEOUT <= took && took < CLIENT_FLUSH_TIMEOUT + Duration::from_secs(1),
            "the send at the limit returned after {took:?}"
        );
        assert_eq!(queued(&client), CLIENT_QUEUE, "the timed-out frame was not queued");

        let t1 = Instant::now();
        client.close();
        let took = t1.elapsed();
        assert!(took < CLIENT_FLUSH_TIMEOUT + Duration::from_secs(2), "close took {took:?}");
        drop(peer);
    }

    /// A frame queued behind a wedge that clears while `close` writes
    /// reaches the peer intact, after everything queued before it.
    #[test]
    fn close_writes_a_tail_the_peer_drains_in_time() {
        let (client, peer) = client_and_peer();
        let mut sent = fill_until_a_tail(&client);
        sent.push(Message::Deregister);
        client.send(&Message::Deregister).unwrap();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                // The wedge clears once close has begun.
                while !client.closed.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let mut reader = io::BufReader::new(&peer);
                std::iter::from_fn(|| codec::read_frame(&mut reader).unwrap()).collect::<Vec<_>>()
            });
            client.close();
            assert!(reader.join().unwrap() == sent, "the peer did not get the frames sent");
        });
    }

    /// A send on a connection that is gone fails at once, as documented:
    /// a client without a policy gets `BrokenPipe`, a reconnect client
    /// loses the frame and gets `Ok`, and a closed one `NotConnected`.
    #[test]
    fn a_send_on_a_gone_connection_returns_at_once() {
        let host = TcpHost::bind("127.0.0.1:0").unwrap();
        let plain = TcpClient::connect(host.local_addr()).unwrap();
        let policy = ReconnectPolicy { base_delay: TIMEOUT, ..ReconnectPolicy::default() };
        let revived = TcpClient::connect_with_reconnect(host.local_addr(), policy).unwrap();
        let t0 = Instant::now();
        plain.sever();
        revived.sever();
        let err = plain.send(&Message::Ping { nonce: 1 }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");
        revived.send(&Message::Ping { nonce: 2 }).unwrap();
        plain.close();
        let err = plain.send(&Message::Ping { nonce: 3 }).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotConnected, "{err}");
        assert!(t0.elapsed() < CLIENT_FLUSH_TIMEOUT, "the sends took {:?}", t0.elapsed());
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

    /// The budget rule is the enqueue's admission: a batch is admitted
    /// exactly when the backlog with it is not over budget.
    #[test]
    fn over_budget_is_where_admission_ends() {
        let config =
            TcpHostConfig { queue_capacity: 4, queue_max_bytes: 100, ..TcpHostConfig::default() };
        for (batches, bytes, over) in [
            (1, 1_000, false),
            (2, 100, false),
            (2, 101, true),
            (4, 100, false),
            (5, 10, true),
            (0, 0, false),
        ] {
            assert_eq!(config.over_budget(batches, bytes), over, "{batches} batches, {bytes} B");
        }
        let one = TcpHostConfig { queue_capacity: 0, ..config };
        assert!(!one.over_budget(1, 1_000) && one.over_budget(2, 2));
    }

    /// A turn answering each `Ping` with a `Pong`, taking at most `budget`
    /// events a run and counting its runs.
    fn pong_turn(
        budget: usize,
        runs: Arc<AtomicU64>,
    ) -> impl FnMut(&mut dyn Iterator<Item = NetEvent>) -> Vec<(ConnId, SharedFrame)> + Send {
        move |events| {
            runs.fetch_add(1, Ordering::Relaxed);
            events
                .take(budget)
                .filter_map(|event| match event {
                    NetEvent::Message(id, Message::Ping { nonce }) => {
                        Some((id, SharedFrame::from_message(&Message::Pong { nonce })))
                    }
                    _ => None,
                })
                .collect()
        }
    }

    /// What a turn leaves of a pass's events it gets on the next pass,
    /// without waiting for mail or its tick: a turn that takes one event
    /// a run answers 100 pings sent at once well inside its 10 s tick.
    /// The host's mailbox stays empty.
    #[test]
    fn a_turn_gets_what_it_left_on_the_next_pass() {
        let runs = Arc::new(AtomicU64::new(0));
        let tick = Duration::from_secs(10);
        let host = TcpHost::bind_with_turn(
            "127.0.0.1:0",
            TcpHostConfig::default(),
            tick,
            pong_turn(1, runs.clone()),
        )
        .unwrap();
        let client = TcpClient::connect(host.local_addr()).unwrap();
        for nonce in 0..100 {
            client.send(&Message::Ping { nonce }).unwrap();
        }
        let t0 = Instant::now();
        for nonce in 0..100 {
            assert_eq!(client.recv_within(TIMEOUT), Ok(Message::Pong { nonce }));
        }
        assert!(t0.elapsed() < tick / 4, "100 pings took {:?}", t0.elapsed());
        // One run per event at least (`Connected` and 100 pings).
        assert!(runs.load(Ordering::Relaxed) >= 101);
        assert!(host.events().try_recv().is_err(), "the mailbox of a host with a turn stays empty");
    }

    /// With no event a turn still runs at its tick, and its thread parks
    /// in between: over 300 ms, a 50 ms tick runs it about six times.
    #[test]
    fn a_turn_with_no_event_runs_at_its_tick() {
        let runs = Arc::new(AtomicU64::new(0));
        let tick = Duration::from_millis(50);
        let host = TcpHost::bind_with_turn(
            "127.0.0.1:0",
            TcpHostConfig::default(),
            tick,
            pong_turn(256, runs.clone()),
        )
        .unwrap();
        let before = runs.load(Ordering::Relaxed);
        // The wait: a host with a turn posts nothing to its mailbox.
        assert!(host.events().recv_timeout(Duration::from_millis(300)).is_err());
        let ran = runs.load(Ordering::Relaxed) - before;
        assert!((3..=12).contains(&ran), "a 50 ms tick ran the turn {ran} times in 300 ms");
        drop(host);
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
