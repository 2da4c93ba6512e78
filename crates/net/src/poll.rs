//! Readiness-driven I/O internals of the TCP transport: a fixed pool of
//! poll threads owning nonblocking sockets, per-connection ring-buffer
//! outboxes flushed on writability, incremental frame reassembly on
//! readability, and generation-counted gates replacing every sleep-poll.
//! A pool is a host's: it reads and writes the host's sockets and hands
//! their events to the host. A client has no pool; it writes through the
//! same [`Outbox`] and [`flush`] on its caller's thread (see
//! [`nonblocking`]).
//!
//! # Why this is a sweep loop and not epoll
//!
//! The workspace forbids `unsafe` in every crate (`unsafe_code =
//! "forbid"` in the root manifest's `[workspace.lints]`) and the build
//! environment carries no FFI crates, so raw `epoll`/`kqueue` is out of
//! reach. The layer therefore has the *shape* of a mio-style poller —
//! one thread owns N sockets, writes are
//! buffered in ring outboxes and flushed on writability, an inbox lets
//! other threads signal the loop — but readiness is discovered by
//! adaptive nonblocking sweeps: each connection is read-probed on a
//! per-connection backoff schedule, and the loop parks on its inbox
//! with an escalating timeout whenever a sweep makes no progress. Swapping
//! the sweep for a real `Poll::poll` is a local change to [`PollThread`];
//! nothing above this module would notice.
//!
//! A sweep visits only *hot* connections. One with nothing queued,
//! probes backed off to the cap and no byte either way for `COLD_AFTER`
//! goes *cold*: out of the sweep, read-probed on its own deadline every
//! `COLD_PROBE`, hot again once a probe reads bytes. The worst-case added
//! read latency stays `(MAX_SKIP + 1) × MAX_PARK` plus sweep time: a
//! quiet hot connection skips `MAX_SKIP` sweeps and is probed on the
//! next, and a cold one is probed sooner than that. All a poll
//! thread is told is mail in its one [`Inbox`], whose every post wakes
//! the thread parked on it: a socket to adopt, a connection to close,
//! `Cmd::Dirty` for an enqueue (a cold connection rejoins the sweep before
//! it runs), `Cmd::Event` for the turn it runs and `Cmd::Shutdown`, the
//! thread's one exit. Every path that drops a pool stops it first (a
//! thread that fails to spawn, an accept thread that fails to start,
//! `TcpHost`'s drop).
//!
//! # Where a pass's events go
//!
//! A host bound with a turn (`TcpHost::bind_with_turn`, the server's
//! dispatch step) runs it on poll thread 0, at the end of each pass, on
//! the events that pass produced: no other thread sits between a frame's
//! read and its replies. The turn takes at most its budget of events and
//! what it leaves runs on the next pass, without parking; with no event
//! it still runs once per tick, and the tick bounds the thread's park.
//! The turn's frames for thread 0's own connections are written in the
//! same pass; those for another thread's connections are queued and
//! mailed to it (`Cmd::Dirty`). The other threads post their events, in
//! order, to thread 0's inbox, so one thread enqueues every frame and a
//! connection's frames keep turn order with no lock of their own. A turn
//! never waits on an outbox: a batch over budget is queued all the same,
//! and the connection's poll thread evicts it as a slow consumer once its
//! backlog has stayed over budget for the enqueue timeout.
//!
//! A host bound without a turn posts each pass's events to its mailbox
//! (`TcpHost::events`) for a thread of the caller's to take.
//!
//! A host's thread count is fixed at bind time by its config's
//! `io_threads`. Connection count adds no threads, and a thread with
//! nothing to sweep or probe parks until mail (or its turn's tick) wakes
//! it.

use std::borrow::BorrowMut;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cosoft_wire::{codec, Bytes, Message, SharedFrame};

use crate::lock::{self, ConnMapLock, Held, LeafLock, OutboxLock};
use crate::tcp::{deadline, ConnId, Counters, NetEvent, TcpHostConfig, Turn};

/// Most segments gathered into one vectored write (IOV_MAX headroom).
const MAX_IOV: usize = 256;

/// Most bytes read from one connection per sweep, so a firehose peer
/// cannot starve its neighbours on the same poll thread.
const MAX_READ_PER_SWEEP: usize = 256 * 1024;

/// Shortest park when a sweep made progress recently.
const MIN_PARK: Duration = Duration::from_micros(200);

/// Longest park between an idle poll thread's sweeps, or a client's tries.
pub(crate) const MAX_PARK: Duration = Duration::from_millis(2);

/// Most consecutive sweeps a quiet connection skips between read
/// probes: it is probed on every `MAX_SKIP + 1`th sweep, so the
/// worst-case added read latency is `(MAX_SKIP + 1) × MAX_PARK` plus
/// sweep time; any traffic in either direction resets the backoff.
const MAX_SKIP: u32 = 4;

/// Quiet time before a connection leaves the sweep: over ten times the
/// slowest benchmark round. Not configuration: only the latency bound is.
const COLD_AFTER: Duration = Duration::from_millis(100);

/// Interval between a cold connection's read probes: shorter than the
/// `(MAX_SKIP + 1) × MAX_PARK` a quiet hot one can wait between probes,
/// so cooling keeps `MAX_SKIP`'s latency bound.
const COLD_PROBE: Duration = MAX_PARK.saturating_mul(MAX_SKIP);

/// Cold deadlines fall on a grid of slots this wide, so cold probes wake a
/// thread at most once a slot (1 000 cold connections: ~60 at a time).
const COLD_SLOT: Duration = Duration::from_micros(500);

// --------------------------------------------------------------------------
// wakeup primitives
// --------------------------------------------------------------------------

/// Generation-counted condvar: waiters capture the generation, check
/// their condition, and sleep only if no notification happened in
/// between — the classic lost-wakeup-free handshake. Backpressure, flush
/// and receive waits park on one.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    generation: LeafLock<u64>,
    cv: Condvar,
}

impl Gate {
    /// Current notification generation; capture before checking the
    /// awaited condition.
    pub(crate) fn generation(&self) -> u64 {
        *self.generation.held()
    }

    /// Bumps the generation and wakes every waiter.
    pub(crate) fn notify(&self) {
        *self.generation.held() += 1;
        self.cv.notify_all();
    }

    /// Sleeps until notified past `seen` or `timeout` elapses. Returns
    /// immediately if a notification already happened after `seen` was
    /// captured.
    pub(crate) fn wait(&self, seen: u64, timeout: Duration) {
        let guard = self.generation.held();
        if *guard == seen {
            drop(guard.wait_timeout(&self.cv, timeout));
        }
    }
}

/// The crate's one mailbox: what any thread posts, in post order, for
/// the thread that takes it (a poll thread's commands, a host's
/// [`NetEvent`]s, a reconnecting client's
/// [`ClientEvent`](crate::tcp::ClientEvent)s). A post takes its leaf lock
/// once, and a taker waits under that lock for mail or a close, so no post
/// is missed. Once closed, posts are dropped and a wait on the empty box
/// ends in `Disconnected`.
pub struct Inbox<T> {
    mail: LeafLock<Mail<T>>,
    posted: Condvar,
}

struct Mail<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// Why a receive or a take from an [`Inbox`] returned nothing.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    /// Nothing arrived within the timeout (a `try_recv`'s is zero).
    Timeout,
    /// The mailbox is closed and empty.
    Disconnected,
}

impl RecvTimeoutError {
    /// Whether the wait ran out with the mailbox still open.
    pub fn is_timeout(&self) -> bool {
        matches!(self, RecvTimeoutError::Timeout)
    }
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        let mail = Mail { queue: VecDeque::new(), closed: false };
        Inbox { mail: LeafLock::new(mail), posted: Condvar::new() }
    }
}

impl<T> Inbox<T> {
    /// Queues `item` and wakes a taker; dropped once the box is closed.
    pub(crate) fn post(&self, item: T) {
        self.post_all([item]);
    }

    /// Queues `items` in order under one taking of the lock and wakes a
    /// taker, if there were any; dropped once the box is closed.
    pub(crate) fn post_all(&self, items: impl IntoIterator<Item = T>) {
        let mut mail = self.mail.held();
        if !mail.closed {
            let before = mail.queue.len();
            mail.queue.extend(items);
            let posted = mail.queue.len() > before;
            drop(mail);
            if posted {
                self.posted.notify_one();
            }
        }
    }

    /// Drops every later post and wakes every taker.
    pub fn close(&self) {
        self.mail.held().closed = true;
        self.posted.notify_all();
    }

    /// The lock, once there is mail, waiting at most `timeout` for it.
    fn wait(&self, timeout: Duration) -> Result<Held<'_, Mail<T>>, RecvTimeoutError> {
        let mut mail = self.mail.held();
        let mut until = None;
        loop {
            if !mail.queue.is_empty() {
                return Ok(mail);
            }
            if mail.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            let left = until.get_or_insert_with(|| deadline(now, timeout)).duration_since(now);
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            mail = mail.wait_timeout(&self.posted, left);
        }
    }

    /// Trades `spare`, emptied first, for everything queued (no
    /// allocation), waiting at most `timeout` for mail.
    pub fn take(&self, spare: &mut VecDeque<T>, timeout: Duration) -> Result<(), RecvTimeoutError> {
        spare.clear();
        std::mem::swap(&mut self.wait(timeout)?.queue, spare);
        Ok(())
    }

    /// The oldest item, waiting at most `timeout` for one.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.wait(timeout)?.queue.pop_front().ok_or(RecvTimeoutError::Timeout)
    }

    /// The oldest item, if one is queued.
    pub fn try_recv(&self) -> Result<T, RecvTimeoutError> {
        self.recv_timeout(Duration::ZERO)
    }
}

// --------------------------------------------------------------------------
// outbox
// --------------------------------------------------------------------------

/// One enqueued write: whole pre-encoded frames (cheap [`Bytes`] handles
/// shared with every other connection the same frame fans out to) plus
/// frame/byte totals for the counters and the byte backpressure.
#[derive(Debug)]
pub(crate) struct OutBatch {
    /// Whole encoded frames, flushed with vectored writes — never
    /// concatenated into a fresh allocation.
    pub(crate) segments: Vec<Bytes>,
    /// Frames across `segments`.
    pub(crate) frames: u64,
    /// Total encoded length across `segments`.
    pub(crate) bytes: usize,
}

/// Per-connection ring buffer of pending writes. A sender (the host's
/// turn, or a caller of the host's sends) appends under the lock; the owning poll thread flushes from the head
/// on writability, tracking partial progress so a short `writev` never
/// re-sends bytes. It counts its own backlog: [`Outbox::push`] adds a
/// batch's bytes, a write subtracts what the writer took.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    /// Queued batches, oldest first.
    batches: VecDeque<OutBatch>,
    /// Index of the first unwritten segment of the front batch.
    head_seg: usize,
    /// Bytes of that segment already written.
    head_off: usize,
    /// Unwritten bytes across `batches`.
    queued: usize,
    /// Set at teardown; enqueues observing it fail with `NotConnected`
    /// instead of waiting out their timeout.
    pub(crate) closed: bool,
}

impl Outbox {
    /// Queues `batch` behind what is queued, counting its bytes.
    pub(crate) fn push(&mut self, batch: OutBatch) {
        self.queued += batch.bytes;
        self.batches.push_back(batch);
    }

    /// Batches queued, the one being written included.
    pub(crate) fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether nothing is left to write.
    pub(crate) fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Bytes queued and not yet written.
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// Drops what is queued and marks the outbox closed; returns the
    /// frames dropped.
    fn close(&mut self) -> u64 {
        let dropped = self.batches.iter().map(|b| b.frames).sum();
        *self = Outbox { closed: true, ..Outbox::default() };
        dropped
    }

    /// Offers the unwritten bytes (at most `MAX_IOV` segments) to `out` in
    /// one vectored write and advances the head past what it took. An
    /// error of `out`, `WouldBlock` included, leaves the outbox as it was;
    /// a write of zero bytes is `WriteZero`.
    pub(crate) fn write_to(&mut self, mut out: impl Write) -> io::Result<Written> {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
        'gather: for (bi, batch) in self.batches.iter().enumerate() {
            let first_seg = if bi == 0 { self.head_seg } else { 0 };
            for (si, seg) in batch.segments.iter().enumerate().skip(first_seg) {
                let off = if bi == 0 && si == self.head_seg { self.head_off } else { 0 };
                slices.push(IoSlice::new(seg.get(off..).unwrap_or(&[])));
                if slices.len() >= MAX_IOV {
                    break 'gather;
                }
            }
        }
        let n = match out.write_vectored(&slices)? {
            0 => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "socket write returned zero"))
            }
            n => n,
        };
        self.queued = self.queued.saturating_sub(n);
        // Advance the head past the written bytes; count batches as they
        // complete.
        let mut written = Written { bytes: n, frames: 0, batches: 1 };
        let mut remaining = n;
        while remaining > 0 {
            // The writer cannot have taken more bytes than were queued;
            // if the accounting ever disagrees, drop the connection
            // instead of the whole poll thread.
            let Some(batch) = self.batches.front() else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "outbox accounting underflow: wrote past queued batches",
                ));
            };
            let Some(seg) = batch.segments.get(self.head_seg) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "outbox accounting underflow: head segment out of range",
                ));
            };
            let (seg_len, seg_count, batch_frames) =
                (seg.len(), batch.segments.len(), batch.frames);
            let take = remaining.min(seg_len - self.head_off);
            self.head_off += take;
            remaining -= take;
            if self.head_off == seg_len {
                self.head_seg += 1;
                self.head_off = 0;
                if self.head_seg == seg_count {
                    written.frames += batch_frames;
                    self.batches.pop_front();
                    self.head_seg = 0;
                    if remaining > 0 {
                        written.batches += 1;
                    }
                }
            }
        }
        Ok(written)
    }
}

/// What one [`Outbox::write_to`] moved.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Written {
    /// Bytes the writer took.
    pub(crate) bytes: usize,
    /// Frames of the batches those bytes completed.
    pub(crate) frames: u64,
    /// Batches those bytes touched; above 1 the write coalesced batches.
    pub(crate) batches: u64,
}

/// A host connection as its map entry and its poll thread share it: the
/// poll thread alone touches the socket.
pub(crate) struct ConnShared {
    /// The outbound ring buffer.
    pub(crate) outbox: OutboxLock<Outbox>,
    /// Signaled whenever the poll thread drains bytes or tears the
    /// connection down, waking blocked enqueuers.
    gate: Gate,
    /// The owning poll thread's inbox.
    inbox: Arc<Inbox<Cmd>>,
}

impl ConnShared {
    /// Counts what one write moved and wakes blocked enqueuers.
    fn drained(&self, written: Written, counters: &Counters) {
        counters.frames_out.fetch_add(written.frames, Ordering::Relaxed);
        counters.bytes_out.fetch_add(written.bytes as u64, Ordering::Relaxed);
        if written.batches > 1 {
            counters.coalesced_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.gate.notify();
    }
}

/// Connection registry shared by a pool's users and its threads.
pub(crate) type ConnMap = Arc<ConnMapLock<HashMap<ConnId, Arc<ConnShared>>>>;

// --------------------------------------------------------------------------
// frame reassembly
// --------------------------------------------------------------------------

/// Incremental `u32-le length ‖ body` reassembler: bytes go in as they
/// arrive, complete messages come out.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    pub(crate) fn push(&mut self, data: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Next complete message, `Ok(None)` if more bytes are needed, an
    /// error on an oversized or malformed frame (the connection dies).
    pub(crate) fn next(&mut self) -> io::Result<Option<Message>> {
        let rest = self.buf.get(self.pos..).unwrap_or(&[]);
        let [b0, b1, b2, b3, ..] = rest else {
            return Ok(None);
        };
        let invalid = |e| io::Error::new(io::ErrorKind::InvalidData, e);
        let len = codec::frame_body_len([*b0, *b1, *b2, *b3]).map_err(invalid)?;
        let Some(body) = rest.get(4..4 + len) else {
            return Ok(None);
        };
        let msg = codec::decode_message(body).map_err(invalid)?;
        self.pos += 4 + len;
        Ok(Some(msg))
    }
}

/// One poll thread's connections. `hot` is the sweep, in `HashMap` order
/// (registration order cost `classroom_fanout` a fifth). `due` queues
/// `cold`'s probe times in order; an entry that no longer matches its
/// connection's time (it went hot, or is gone) is dropped, never probed.
struct Conns<C> {
    hot: HashMap<ConnId, C>,
    cold: HashMap<ConnId, (Instant, C)>,
    due: VecDeque<(Instant, ConnId)>,
    epoch: Instant,
}

impl<C> Conns<C> {
    fn new(epoch: Instant) -> Self {
        Conns { hot: HashMap::new(), cold: HashMap::new(), due: VecDeque::new(), epoch }
    }

    /// `t` rounded down to a slot boundary.
    fn align(&self, t: Instant) -> Instant {
        let since = t.saturating_duration_since(self.epoch).as_nanos();
        self.epoch + Duration::from_nanos((since - since % COLD_SLOT.as_nanos()) as u64)
    }

    fn remove(&mut self, id: ConnId) -> Option<C> {
        self.hot.remove(&id).or_else(|| self.cold.remove(&id).map(|(_, c)| c))
    }

    /// Takes a hot connection out of the sweep, first probe one interval on.
    fn cool(&mut self, id: ConnId, now: Instant) {
        if let Some(c) = self.hot.remove(&id) {
            let due = self.align(now + COLD_PROBE);
            self.cold.insert(id, (due, c));
            self.due.push_back((due, id));
        }
    }

    /// Puts a cold connection back in the sweep (a no-op on any other).
    fn heat(&mut self, id: ConnId) {
        if let Some((_, c)) = self.cold.remove(&id) {
            self.hot.insert(id, c);
        }
    }

    /// The next cold connection due at `now`, its next probe one interval
    /// on in the same slot (or the next slot, if a whole interval late).
    /// Call before `cool` in a pass: what each pushes then stays in order.
    fn next_due(&mut self, now: Instant) -> Option<(ConnId, &mut C)> {
        let (id, next) = loop {
            let &(at, id) = self.due.front().filter(|&&(at, _)| at <= now)?;
            self.due.pop_front();
            if self.cold.get(&id).is_some_and(|&(due, _)| due == at) {
                break (id, (at + COLD_PROBE).max(self.align(now) + COLD_SLOT));
            }
        };
        let (due, c) = self.cold.get_mut(&id)?;
        *due = next;
        self.due.push_back((next, id));
        Some((id, c))
    }
}

// --------------------------------------------------------------------------
// poll thread
// --------------------------------------------------------------------------

/// Mail from a host to one of its pool's threads.
pub(crate) enum Cmd {
    /// Adopt a connected socket.
    Register(ConnId, TcpStream, Arc<ConnShared>),
    /// A batch was queued on the connection: put it back in the sweep.
    Dirty(ConnId),
    /// Tear one connection down (eviction or disconnect) and surface its
    /// `Disconnected` event.
    Close(ConnId),
    /// An event for the turn this thread runs: another poll thread's, or
    /// a `Connected` from the accept thread.
    Event(NetEvent),
    /// Tear everything down and exit.
    Shutdown,
}

/// Per-connection state owned by its poll thread.
struct PollConn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    frames: FrameReader,
    /// Sweeps left before the next read probe.
    skip: u32,
    /// Current read-backoff ceiling; doubles while the connection stays
    /// quiet, resets to 0 on any traffic.
    skip_limit: u32,
    /// When the connection must have produced its first complete frame;
    /// `None` once it has (or when the host runs without a handshake
    /// deadline). Expiry tears the connection down, so a dialer that
    /// never speaks the protocol cannot hold a socket open forever.
    handshake_deadline: Option<Instant>,
    /// Start of the last sweep that moved bytes (or registration).
    last_traffic: Instant,
    /// Since when a write has found the backlog over budget, while it
    /// stays so; past the enqueue timeout the connection is evicted.
    over_since: Option<Instant>,
}

impl PollConn {
    /// `TimedOut` once the handshake deadline has passed without a frame.
    fn check_handshake(&self, counters: &Counters) -> io::Result<()> {
        if self.handshake_deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            counters.handshake_timeouts.fetch_add(1, Ordering::Relaxed);
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok(())
    }

    /// Writes what the socket takes of the outbox, in the pass that
    /// started at `now`. Returns whether bytes moved and whether nothing
    /// is left queued; `TimedOut` (counted as an eviction) once the
    /// backlog has stayed over budget for the enqueue timeout, any other
    /// `Err` the socket's.
    fn write(&mut self, pool: &Pool, now: Instant) -> io::Result<(bool, bool)> {
        let (stream, shared, counters) = (&self.stream, &self.shared, &pool.counters);
        let left =
            flush(&shared.outbox, |ob| ob.write_to(stream), |w| shared.drained(w, counters))?;
        if left.wrote {
            // A write usually provokes a reply; probe eagerly again.
            (self.skip, self.skip_limit) = (0, 0);
        }
        self.over_since = pool
            .config
            .over_budget(left.batches, left.bytes)
            .then(|| self.over_since.unwrap_or(now));
        if self.over_since.is_some_and(|since| {
            now.saturating_duration_since(since) >= pool.config.enqueue_timeout
        }) {
            counters.slow_consumer_evictions.fetch_add(1, Ordering::Relaxed);
            return Err(io::ErrorKind::TimedOut.into());
        }
        Ok((left.wrote, left.batches == 0))
    }
}

/// The host's turn, on the thread that runs it.
struct Ticked {
    turn: Turn,
    /// Longest time between two turns.
    tick: Duration,
    /// When the turn runs with no event.
    due: Instant,
}

/// One thread of the readiness pool: owns its connections' sockets,
/// flushes outboxes on writability, reassembles inbound frames, runs the
/// host's turn if it is thread 0 of a host with one, and parks on its
/// inbox (its one wait) between unproductive sweeps.
struct PollThread {
    pool: Arc<Pool>,
    inbox: Arc<Inbox<Cmd>>,
    conns: Conns<PollConn>,
    /// Events of this pass (and, for a turn, those its budget left), in
    /// the order they happened.
    events: VecDeque<NetEvent>,
    turn: Option<Ticked>,
}

impl PollThread {
    /// The loop. Exits on `Cmd::Shutdown`.
    fn run(mut self) {
        let mut scratch = vec![0u8; 64 * 1024];
        let mut mail = VecDeque::new();
        let mut ids = Vec::new();
        let mut park = MIN_PARK;
        // How long the next take may wait for mail: after a pass that made
        // progress, not at all. Mail posted during a pass ends the wait.
        let mut wait = Duration::ZERO;
        loop {
            let _ = self.inbox.take(&mut mail, wait);
            for cmd in mail.drain(..) {
                match cmd {
                    Cmd::Register(id, stream, shared) => {
                        let now = Instant::now();
                        let handshake = self.pool.config.handshake_timeout;
                        self.conns.hot.insert(
                            id,
                            PollConn {
                                stream,
                                shared,
                                frames: FrameReader::default(),
                                skip: 0,
                                skip_limit: 0,
                                handshake_deadline: (!handshake.is_zero())
                                    .then(|| deadline(now, handshake)),
                                last_traffic: now,
                                over_since: None,
                            },
                        );
                    }
                    Cmd::Dirty(id) => self.conns.heat(id),
                    Cmd::Close(id) => self.teardown(id),
                    Cmd::Event(event) => self.events.push_back(event),
                    Cmd::Shutdown => {
                        let Conns { hot, cold, .. } = &self.conns;
                        ids.clear();
                        ids.extend(hot.keys().chain(cold.keys()).copied());
                        for &id in &ids {
                            self.teardown(id);
                        }
                        if self.turn.is_none() {
                            self.pool.post_events(self.events.drain(..));
                        }
                        return;
                    }
                }
            }

            let now = Instant::now();
            let mut progressed = false;
            // A cold probe is the handshake deadline and one read (an enqueue heats).
            while let Some((id, conn)) = self.conns.next_due(now) {
                let probe = conn.check_handshake(&self.pool.counters).and_then(|()| {
                    Self::read_ready(conn, id, &self.pool.counters, &mut scratch, &mut self.events)
                });
                match probe {
                    Ok(false) => continue,
                    Ok(true) => {
                        (conn.skip, conn.skip_limit, conn.last_traffic) = (0, 0, now);
                        self.conns.heat(id);
                    }
                    Err(_) => self.teardown(id),
                }
                progressed = true;
            }
            // Ids taken after the mail stay live: a sweep drops only its own.
            ids.clear();
            ids.extend(self.conns.hot.keys().copied());
            for &id in &ids {
                match self.sweep_one(id, now, &mut scratch) {
                    Ok(p) => progressed |= p,
                    Err(_) => {
                        self.teardown(id);
                        progressed = true;
                    }
                }
            }
            progressed |= self.deliver(now, &mut ids, &mut scratch);

            if progressed {
                park = MIN_PARK;
                wait = Duration::ZERO;
                continue;
            }
            // No park outlasts the next cold probe, or the turn's tick:
            // each has its deadline. With neither and none hot, only mail
            // can bring work, and every post wakes the thread.
            let next = self.conns.due.front().map(|&(at, _)| at.saturating_duration_since(now));
            let idle = self.conns.hot.is_empty() && next.is_none();
            wait = if idle { Duration::MAX } else { next.map_or(park, |d| d.min(park)) };
            if let Some(ticked) = &self.turn {
                wait = wait.min(ticked.due.saturating_duration_since(now));
            }
            park = (park * 2).min(MAX_PARK);
        }
    }

    /// Hands the pass's events on. Without the turn, they are posted where
    /// the host hears them. With it, the turn runs on them (or, with none,
    /// at its tick), and the frames it returns are queued: each of this
    /// thread's connections among their destinations (listed in `ids`)
    /// gets the sweep's step again here and now, so its frames leave in
    /// this pass and its read probe climbs the ladder as a sweep's write
    /// makes it. Returns whether that moved bytes, tore a connection down
    /// or left events for the next pass.
    fn deliver(&mut self, now: Instant, ids: &mut Vec<ConnId>, scratch: &mut [u8]) -> bool {
        let Some(ticked) = &mut self.turn else {
            if !self.events.is_empty() {
                self.pool.post_events(self.events.drain(..));
            }
            return false;
        };
        if self.events.is_empty() && now < ticked.due {
            return false;
        }
        ticked.due = deadline(now, ticked.tick);
        // What the turn locks is its own: no transport lock is held here.
        lock::assert_holds_none();
        let events = &mut self.events;
        let frames = (ticked.turn)(&mut std::iter::from_fn(|| events.pop_front()));
        // Another thread's connection is mailed; this thread's, listed in
        // `ids`, are written below. One gone is skipped: its
        // `Disconnected` cleans up.
        ids.clear();
        for (id, batch) in Pool::batches(&frames) {
            match self.pool.queue(id, batch) {
                Ok(conn) if Arc::ptr_eq(&conn.inbox, &self.inbox) => ids.push(id),
                Ok(conn) => conn.inbox.post(Cmd::Dirty(id)),
                Err(_) => {}
            }
        }
        let mut progressed = false;
        for &id in ids.iter() {
            self.conns.heat(id);
            match self.sweep_one(id, now, scratch) {
                Ok(p) => progressed |= p,
                Err(_) => {
                    self.teardown(id);
                    progressed = true;
                }
            }
        }
        progressed || !self.events.is_empty()
    }

    /// Write phase then (backoff-gated) read phase for one hot
    /// connection, in the sweep that started at `now`; cools it if quiet.
    /// An `Err` means the connection is dead and must be torn down.
    fn sweep_one(&mut self, id: ConnId, now: Instant, scratch: &mut [u8]) -> io::Result<bool> {
        let Some(conn) = self.conns.hot.get_mut(&id) else { return Ok(false) };
        conn.check_handshake(&self.pool.counters)?;
        let (mut progressed, drained) = conn.write(&self.pool, now)?;
        let (read_any, counters) = skip_ladder((conn.skip, conn.skip_limit), || {
            Self::read_ready(conn, id, &self.pool.counters, scratch, &mut self.events)
        })?;
        progressed |= read_any;
        (conn.skip, conn.skip_limit) = counters;
        if progressed {
            conn.last_traffic = now;
        } else if conn.skip_limit == MAX_SKIP
            && now.saturating_duration_since(conn.last_traffic) >= COLD_AFTER
            && drained
        {
            self.conns.cool(id, now);
        }
        Ok(progressed)
    }

    /// Reads until `WouldBlock` (bounded per sweep), queueing complete
    /// messages on `events`. Returns whether bytes arrived;
    /// `Err` on EOF, transport error, or a malformed frame.
    fn read_ready(
        conn: &mut PollConn,
        id: ConnId,
        counters: &Counters,
        scratch: &mut [u8],
        events: &mut VecDeque<NetEvent>,
    ) -> io::Result<bool> {
        let mut read_any = false;
        let mut budget = MAX_READ_PER_SWEEP;
        loop {
            counters.read_probes.fetch_add(1, Ordering::Relaxed);
            let n = match conn.stream.read(scratch) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(read_any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            read_any = true;
            counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
            // read(2) returns at most buf.len() bytes, so the fallback
            // slice is unreachable.
            conn.frames.push(scratch.get(..n).unwrap_or(&[]));
            while let Some(msg) = conn.frames.next()? {
                counters.frames_in.fetch_add(1, Ordering::Relaxed);
                // First complete frame: the peer speaks the protocol,
                // the handshake deadline (if any) is met.
                conn.handshake_deadline = None;
                events.push_back(NetEvent::Message(id, msg));
            }
            budget = budget.saturating_sub(n);
            if budget == 0 || n < scratch.len() {
                // Short read: the socket is (almost certainly) drained;
                // anything left is picked up next sweep.
                return Ok(read_any);
            }
        }
    }

    /// Single teardown path: deregisters the connection everywhere,
    /// counts abandoned frames, wakes blocked enqueuers, and surfaces
    /// `Disconnected` exactly once (mail for already-gone connections is
    /// ignored).
    fn teardown(&mut self, id: ConnId) {
        let Some(PollConn { stream, shared: conn, .. }) = self.conns.remove(id) else { return };
        self.pool.conns.held().remove(&id);
        let dropped = conn.outbox.held().close();
        self.pool.counters.frames_dropped.fetch_add(dropped, Ordering::Relaxed);
        conn.gate.notify();
        let _ = stream.shutdown(std::net::Shutdown::Both);
        self.events.push_back(NetEvent::Disconnected(id));
    }
}

/// One sweep's read-probe decision for a hot connection, a function of
/// its two counters `(skip, skip_limit)` alone: a pass with `skip` left
/// counts it down and reads nothing; any other pass probes with `read`
/// and sets both counters to the new ceiling — 0 once the probe read
/// bytes, else `2 × skip_limit + 1` capped at [`MAX_SKIP`]. So a quiet
/// connection is probed on every `MAX_SKIP + 1`th pass, and one that just
/// had traffic (a write resets both counters) on the next. Returns
/// whether the probe read bytes, and the counters the pass leaves.
fn skip_ladder(
    (skip, skip_limit): (u32, u32),
    read: impl FnOnce() -> io::Result<bool>,
) -> io::Result<(bool, (u32, u32))> {
    if skip > 0 {
        return Ok((false, (skip - 1, skip_limit)));
    }
    let read_any = read()?;
    let limit = if read_any { 0 } else { (skip_limit * 2 + 1).min(MAX_SKIP) };
    Ok((read_any, (limit, limit)))
}

/// What a [`flush`] did and left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flushed {
    /// Whether any bytes moved.
    pub(crate) wrote: bool,
    /// Batches still queued.
    pub(crate) batches: usize,
    /// Bytes still queued.
    pub(crate) bytes: usize,
}

/// Flushes as much of the outbox under `outbox` as `write` takes, one
/// write of its head at a time (a poll thread's is [`Outbox::write_to`]
/// the socket; a client's, the same through [`nonblocking`]), handing
/// what each write moved to `drained` once the lock is released.
/// `WouldBlock` ends the flush, any other error is the connection's.
pub(crate) fn flush<T: BorrowMut<Outbox>>(
    outbox: &OutboxLock<T>,
    mut write: impl FnMut(&mut T) -> io::Result<Written>,
    mut drained: impl FnMut(Written),
) -> io::Result<Flushed> {
    let mut wrote = false;
    loop {
        // The per-connection outbox lock is held over the nonblocking
        // write so head accounting stays atomic with the bytes the
        // socket took; only enqueuers contend.
        let mut ob = outbox.held();
        let left = |ob: &Outbox| Flushed { wrote, batches: ob.len(), bytes: ob.queued() };
        if ob.borrow().is_empty() {
            return Ok(left(ob.borrow()));
        }
        // That outbox lock and no other: a host-wide lock held here would
        // stall every sender behind one socket.
        lock::assert_holds_only(lock::OUTBOX);
        let written = match write(&mut ob) {
            Ok(written) => written,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(left(ob.borrow())),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        drop(ob);
        wrote = true;
        drained(written);
    }
}

/// Runs `io` on `stream` switched to nonblocking. A client's socket stays
/// blocking, so that its receiving thread sleeps in `read` until bytes
/// come; the client's writes and a zero-wait receive go through here
/// under the client's outbox lock, so two switches never overlap, and a
/// blocking read that starts inside one returns `WouldBlock` early.
pub(crate) fn nonblocking<T>(
    stream: &TcpStream,
    io: impl FnOnce(&TcpStream) -> io::Result<T>,
) -> io::Result<T> {
    stream.set_nonblocking(true)?;
    let done = io(stream);
    stream.set_nonblocking(false)?;
    done
}

// --------------------------------------------------------------------------
// pool
// --------------------------------------------------------------------------

/// A host's pool of poll threads as the host and its threads hold it: the
/// host's config, the connections it owns, its counters, its event
/// mailbox, and each thread's inbox. The host shares it with its accept
/// thread, and stops it before dropping it.
pub(crate) struct Pool {
    pub(crate) config: TcpHostConfig,
    pub(crate) conns: ConnMap,
    pub(crate) counters: Arc<Counters>,
    /// Where the host hears its events when no turn of its own takes them.
    pub(crate) events: Arc<Inbox<NetEvent>>,
    inboxes: Vec<Arc<Inbox<Cmd>>>,
    /// Whether thread 0 runs a turn, and so takes every event.
    turn: bool,
    next_id: AtomicU64,
}

impl Pool {
    /// Starts `config.io_threads` (at least one) poll threads, thread `i`
    /// named `cosoft-poll-{i}`. With a `turn` (its tick, and the step),
    /// thread 0 runs it on every event the pool hears; without one, the
    /// events go to the pool's `events`. On a spawn failure the threads
    /// already started are stopped.
    pub(crate) fn spawn(
        config: TcpHostConfig,
        turn: Option<(Duration, Turn)>,
    ) -> io::Result<(Arc<Pool>, Vec<JoinHandle<()>>)> {
        let pool = Arc::new(Pool {
            config,
            conns: Arc::new(ConnMapLock::new(HashMap::new())),
            counters: Arc::default(),
            events: Arc::default(),
            inboxes: (0..config.io_threads.max(1)).map(|_| Arc::default()).collect(),
            turn: turn.is_some(),
            next_id: AtomicU64::new(1),
        });
        let mut turn =
            turn.map(|(tick, turn)| Ticked { turn, tick, due: deadline(Instant::now(), tick) });
        let mut handles = Vec::new();
        for (i, inbox) in pool.inboxes.iter().enumerate() {
            let body = PollThread {
                pool: pool.clone(),
                inbox: inbox.clone(),
                conns: Conns::new(Instant::now()),
                events: VecDeque::new(),
                turn: turn.take(),
            };
            let name = format!("cosoft-poll-{i}");
            match std::thread::Builder::new().name(name).spawn(move || body.run()) {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    pool.stop(handles);
                    return Err(e);
                }
            }
        }
        Ok((pool, handles))
    }

    /// Posts connection events, in order, where the host hears them: to
    /// the thread that runs its turn, or to its mailbox.
    fn post_events(&self, events: impl IntoIterator<Item = NetEvent>) {
        match self.inboxes.first().filter(|_| self.turn) {
            Some(turn) => turn.post_all(events.into_iter().map(Cmd::Event)),
            None => self.events.post_all(events),
        }
    }

    /// Makes a connected socket nonblocking, hands it to a poll thread
    /// (round-robin by id) and posts its `Connected`. Socket-option
    /// failures are counted.
    pub(crate) fn register(&self, stream: TcpStream) -> io::Result<ConnId> {
        if stream.set_nodelay(true).is_err() {
            // Tolerated: the connection works, just slower.
            self.counters.sockopt_failures.fetch_add(1, Ordering::Relaxed);
        }
        // Not tolerated: a reading poll loop cannot own a blocking socket
        // without stalling its peers.
        if let Err(e) = stream.set_nonblocking(true) {
            self.counters.sockopt_failures.fetch_add(1, Ordering::Relaxed);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Err(e);
        }
        let id = ConnId(self.next_id.fetch_add(1, Ordering::SeqCst));
        let inbox = self.inboxes.get((id.0 as usize) % self.inboxes.len().max(1));
        let inbox = inbox.ok_or(io::ErrorKind::NotConnected)?.clone();
        let conn =
            Arc::new(ConnShared { outbox: OutboxLock::default(), gate: Gate::default(), inbox });
        self.conns.held().insert(id, conn.clone());
        // Before the socket reaches its thread, so before any of its frames.
        self.post_events([NetEvent::Connected(id)]);
        conn.inbox.post(Cmd::Register(id, stream, conn.clone()));
        Ok(id)
    }

    /// A turn's frames, each connection's gathered into one batch (one
    /// vectored write), the connections in the order they first appear.
    /// A frame fanned out to many connections is cheap clones of one
    /// buffer, never re-encoded or concatenated per destination.
    fn batches(outgoing: &[(ConnId, SharedFrame)]) -> Vec<(ConnId, OutBatch)> {
        let mut batches: Vec<(ConnId, OutBatch)> = Vec::new();
        let mut at: HashMap<ConnId, usize> = HashMap::new();
        for (conn, frame) in outgoing {
            let i = *at.entry(*conn).or_insert_with(|| {
                batches.push((*conn, OutBatch { segments: Vec::new(), frames: 0, bytes: 0 }));
                batches.len() - 1
            });
            // `i` indexes the entry pushed for `conn`.
            if let Some((_, batch)) = batches.get_mut(i) {
                batch.segments.push(frame.bytes().clone());
                batch.bytes += frame.len();
                batch.frames += 1;
            }
        }
        batches
    }

    /// Sends a turn's frames from a thread outside the pool, each
    /// connection's [`Pool::batches`] entry through [`Pool::enqueue`],
    /// which may wait. Returns the connections it failed for: gone, or
    /// evicted as slow consumers; their `Disconnected` follows.
    pub(crate) fn send_batch(&self, outgoing: &[(ConnId, SharedFrame)]) -> Vec<ConnId> {
        let batches = Pool::batches(outgoing);
        batches
            .into_iter()
            .filter_map(|(id, batch)| self.enqueue(id, batch).err().map(|_| id))
            .collect()
    }

    /// The connection's shared half, if it is still in the map; if not,
    /// `batch`'s frames count as dropped. Holds the map lock only to clone
    /// the handle, so no wait on one connection blocks sends to its peers.
    fn lookup(&self, id: ConnId, batch: &OutBatch) -> io::Result<Arc<ConnShared>> {
        let conn = self.conns.held().get(&id).cloned();
        conn.ok_or_else(|| self.dropped(batch.frames))
    }

    /// Counts `frames` as dropped: `NotConnected`.
    fn dropped(&self, frames: u64) -> io::Error {
        self.counters.frames_dropped.fetch_add(frames, Ordering::Relaxed);
        io::Error::new(io::ErrorKind::NotConnected, "connection closed")
    }

    /// Queues `batch` on connection `id`'s outbox without waiting, over
    /// budget or not (over budget counts in `enqueue_full_waits`): the
    /// connection's poll thread writes the backlog and evicts the
    /// connection once it has stayed over budget for `enqueue_timeout`.
    /// `NotConnected`, the frames counted as dropped, once it is gone.
    /// What a turn sends goes through here.
    fn queue(&self, id: ConnId, batch: OutBatch) -> io::Result<Arc<ConnShared>> {
        let conn = self.lookup(id, &batch)?;
        let mut ob = conn.outbox.held();
        if ob.closed {
            return Err(self.dropped(batch.frames));
        }
        ob.push(batch);
        if self.config.over_budget(ob.len(), ob.queued()) {
            self.counters.enqueue_full_waits.fetch_add(1, Ordering::Relaxed);
        }
        drop(ob);
        Ok(conn)
    }

    /// Queues `batch` on connection `id`'s outbox and posts it dirty to
    /// its poll thread, waiting on the connection's gate while the batch
    /// would put its backlog over budget (`TcpHostConfig::over_budget`).
    /// `NotConnected` once the connection is gone; `TimedOut` when the
    /// backlog stayed over budget for `enqueue_timeout`, and the
    /// connection is then evicted as a slow consumer. Either way the
    /// batch's frames count as dropped.
    pub(crate) fn enqueue(&self, id: ConnId, batch: OutBatch) -> io::Result<()> {
        let conn = self.lookup(id, &batch)?;
        let (frames, bytes) = (batch.frames, batch.bytes);
        let deadline = deadline(Instant::now(), self.config.enqueue_timeout);
        let mut waited = false;
        loop {
            // Capture the gate generation *before* checking admission:
            // a drain that lands in between bumps it, so the wait below
            // returns immediately instead of losing the wakeup.
            let seen = conn.gate.generation();
            {
                let mut ob = conn.outbox.held();
                if ob.closed {
                    return Err(self.dropped(frames));
                }
                if !self.config.over_budget(ob.len() + 1, ob.queued() + bytes) {
                    ob.push(batch);
                    drop(ob);
                    conn.inbox.post(Cmd::Dirty(id));
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
                if self.shut(id) {
                    self.counters.slow_consumer_evictions.fetch_add(1, Ordering::Relaxed);
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "outbound backlog stayed over its limits past the enqueue timeout",
                ));
            }
            conn.gate.wait(seen, deadline - now);
        }
    }

    /// Takes connection `id` out of the map and has its poll thread tear
    /// it down (shutting the socket), which surfaces its `Disconnected`.
    /// `false` (and a no-op) if it was not in the map.
    pub(crate) fn shut(&self, id: ConnId) -> bool {
        // Not an `if let` scrutinee, whose guard would live through the
        // block: the map lock is not held over a post.
        let conn = self.conns.held().remove(&id);
        let Some(conn) = conn else { return false };
        conn.inbox.post(Cmd::Close(id));
        true
    }

    /// Has every thread tear its connections down (counting unwritten
    /// frames as dropped) and exit, then joins `threads`.
    pub(crate) fn stop(&self, threads: Vec<JoinHandle<()>>) {
        for inbox in &self.inboxes {
            inbox.post(Cmd::Shutdown);
        }
        for thread in threads {
            thread.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_rng::{forall, Rng};

    const A: ConnId = ConnId(1);
    const B: ConnId = ConnId(2);
    const C: ConnId = ConnId(3);

    fn ms(k: u64) -> Duration {
        Duration::from_millis(k)
    }

    /// Every probe due at `now`, in order.
    fn due_at(conns: &mut Conns<()>, now: Instant) -> Vec<ConnId> {
        std::iter::from_fn(|| conns.next_due(now).map(|(id, _)| id)).collect()
    }

    /// When the poll thread wakes for its next cold probe.
    fn next_probe(conns: &Conns<()>) -> Option<Instant> {
        conns.due.front().map(|&(at, _)| at)
    }

    /// The passes, from 0, on which a connection with `counters` is
    /// read-probed over `passes` sweeps, each probe reading bytes or not
    /// as `reads` says for that pass.
    fn probes(
        mut counters: (u32, u32),
        passes: usize,
        reads: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let mut probed = Vec::new();
        for pass in 0..passes {
            let (_, next) = skip_ladder(counters, || {
                probed.push(pass);
                Ok(reads(pass))
            })
            .unwrap();
            counters = next;
        }
        probed
    }

    #[test]
    fn a_quiet_connection_is_probed_every_max_skip_plus_one_passes() {
        let quiet = probes((0, 0), 40, |_| false);
        // The ceiling climbs 1, 3, then the cap: gaps of 2 and 4 passes,
        // then MAX_SKIP + 1 for good.
        assert_eq!(&quiet[..4], &[0, 2, 6, 11]);
        let gap = MAX_SKIP as usize + 1;
        assert!(quiet[2..].windows(2).all(|w| w[1] - w[0] == gap), "{quiet:?}");
        // A probe that reads bytes resets the ladder: the next pass probes
        // at once; so does a write (both counters zeroed by the sweep).
        let capped = (MAX_SKIP, MAX_SKIP);
        let busy = probes(capped, 20, |pass| pass == gap - 1);
        assert_eq!(&busy[..3], &[gap - 1, gap, gap + 2]);
        assert_eq!(probes((0, 0), 1, |_| false), vec![0]);
        assert_eq!(probes(capped, gap, |_| false), vec![gap - 1]);
    }

    fn with_hot(epoch: Instant, ids: &[ConnId]) -> Conns<()> {
        let mut conns = Conns::new(epoch);
        for &id in ids {
            conns.hot.insert(id, ());
        }
        conns
    }

    #[test]
    fn cold_probes_come_due_in_order_each_in_its_own_slot() {
        let t = Instant::now();
        let mut conns = with_hot(t, &[A, B, C]);
        conns.cool(B, t);
        conns.cool(A, t + ms(1));
        conns.cool(C, t + ms(2));
        assert!(conns.hot.is_empty());
        assert_eq!(next_probe(&conns), Some(t + COLD_PROBE));
        assert_eq!(due_at(&mut conns, t + COLD_PROBE - ms(1)), []);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE), [B]);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE + ms(2)), [A, C]);
        // A was probed a millisecond late and keeps its own slot: due
        // again with B's next probe, a millisecond before C's.
        assert_eq!(due_at(&mut conns, t + COLD_PROBE * 2 + ms(1)), [B, A]);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE * 2 + ms(2)), [C]);
    }

    #[test]
    fn a_probe_a_whole_interval_late_moves_to_the_next_slot_once() {
        let t = Instant::now();
        let mut conns = with_hot(t, &[A]);
        conns.cool(A, t);
        let late = t + COLD_PROBE * 4;
        assert_eq!(due_at(&mut conns, late), [A]);
        assert_eq!(next_probe(&conns), Some(late + COLD_SLOT));
        assert_eq!(due_at(&mut conns, late + COLD_SLOT), [A]);
        assert_eq!(next_probe(&conns), Some(late + COLD_SLOT + COLD_PROBE));
    }

    #[test]
    fn a_connection_cooled_twice_is_probed_once_per_interval() {
        let t = Instant::now();
        let mut conns = with_hot(t, &[A]);
        conns.cool(A, t);
        conns.heat(A);
        assert!(conns.hot.contains_key(&A) && conns.cold.is_empty());
        conns.cool(A, t + ms(3));
        // The first cooling's entry is still queued and no longer A's.
        assert_eq!(conns.due.len(), 2);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE), []);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE + ms(3)), [A]);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE * 2 + ms(2)), []);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE * 2 + ms(3)), [A]);
        assert_eq!(conns.due.len(), 1);

        // Heated and cooled again in one slot: two entries for that
        // slot, one probe.
        let u = t + COLD_PROBE * 3;
        conns.heat(A);
        conns.cool(A, u);
        conns.heat(A);
        conns.cool(A, u);
        assert_eq!(due_at(&mut conns, u + COLD_PROBE), [A]);
        assert_eq!(conns.due.len(), 1);
    }

    #[test]
    fn a_torn_down_connection_leaves_no_probe() {
        let t = Instant::now();
        let mut conns = with_hot(t, &[A, B]);
        conns.cool(A, t);
        conns.cool(B, t);
        assert_eq!(conns.remove(A), Some(()));
        assert_eq!(conns.remove(A), None);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE), [B]);
        assert_eq!(conns.remove(B), Some(()));
        assert_eq!(due_at(&mut conns, t + COLD_PROBE * 2), []);
        assert!(conns.due.is_empty() && conns.cold.is_empty());
        assert_eq!(next_probe(&conns), None);
    }

    #[test]
    fn a_dirty_mark_on_a_hot_or_unknown_connection_is_a_no_op() {
        let t = Instant::now();
        let mut conns = with_hot(t, &[A, B]);
        conns.cool(B, t);
        conns.heat(A);
        conns.heat(C);
        assert!(conns.hot.contains_key(&A) && !conns.hot.contains_key(&C));
        assert_eq!(conns.hot.len(), 1);
        assert_eq!(conns.cold.len(), 1);
        assert_eq!(conns.due.len(), 1);
        // And a dirty cold one is swept again, its probe forgotten.
        conns.heat(B);
        assert_eq!(conns.hot.len(), 2);
        assert_eq!(due_at(&mut conns, t + COLD_PROBE), []);
        assert!(conns.due.is_empty());
    }

    /// What a mail is, for comparing: its kind and connection.
    fn label(cmd: &Cmd) -> (&'static str, Option<ConnId>) {
        match cmd {
            Cmd::Register(id, ..) => ("register", Some(*id)),
            Cmd::Dirty(id) => ("dirty", Some(*id)),
            Cmd::Close(id) => ("close", Some(*id)),
            Cmd::Event(_) => ("event", None),
            Cmd::Shutdown => ("shutdown", None),
        }
    }

    #[test]
    fn the_inbox_keeps_post_order_trades_buffers_and_ends_a_park() {
        let inbox = Arc::new(Inbox::default());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let shared = Arc::new(conn());
        let mut spare = VecDeque::with_capacity(8);
        inbox.post(Cmd::Dirty(A));
        inbox.post(Cmd::Register(B, stream, shared));
        inbox.post(Cmd::Dirty(B));
        inbox.post(Cmd::Close(A));
        inbox.post(Cmd::Shutdown);
        inbox.take(&mut spare, Duration::ZERO).unwrap();
        let got: Vec<_> = spare.iter().map(label).collect();
        assert_eq!(
            got,
            [
                ("dirty", Some(A)),
                ("register", Some(B)),
                ("dirty", Some(B)),
                ("close", Some(A)),
                ("shutdown", None)
            ]
        );
        // The inbox got the spare buffer, capacity and all; the next take
        // finds no mail and leaves the spare empty.
        assert!(inbox.mail.held().queue.capacity() >= 8);
        assert_eq!(inbox.take(&mut spare, Duration::ZERO), Err(RecvTimeoutError::Timeout));
        assert!(spare.is_empty());

        // Mail already queued ends a timed park at once.
        inbox.post(Cmd::Dirty(C));
        let start = Instant::now();
        inbox.take(&mut spare, Duration::from_secs(5)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));

        // A post from another thread ends an untimed park.
        let poster = inbox.clone();
        let posting = std::thread::spawn(move || poster.post(Cmd::Close(C)));
        let mut parked = VecDeque::new();
        inbox.take(&mut parked, Duration::MAX).unwrap();
        posting.join().unwrap();
        spare.append(&mut parked);
        assert_eq!(
            spare.iter().map(label).collect::<Vec<_>>(),
            [("dirty", Some(C)), ("close", Some(C))]
        );
    }

    const SHORT: Duration = Duration::from_millis(20);
    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn two_posting_threads_share_one_fifo() {
        let inbox = Arc::new(Inbox::default());
        inbox.post((0, 1));
        inbox.post((1, 2));
        inbox.post((0, 3));
        assert_eq!(
            [inbox.try_recv(), inbox.try_recv(), inbox.try_recv()],
            [Ok((0, 1)), Ok((1, 2)), Ok((0, 3))]
        );
        assert_eq!(inbox.try_recv(), Err(RecvTimeoutError::Timeout));
        // Across threads each poster's own order survives, taken one at a
        // time and in batches.
        let threads: Vec<_> = (0..2)
            .map(|who| {
                let inbox = inbox.clone();
                std::thread::spawn(move || (0..500).for_each(|i| inbox.post((who, i))))
            })
            .collect();
        let mut next = [0, 0];
        let mut batch = VecDeque::new();
        while next != [500, 500] {
            match inbox.try_recv() {
                Ok(item) => batch.push_back(item),
                Err(_) => inbox.take(&mut batch, LONG).unwrap(),
            }
            for (who, i) in batch.drain(..) {
                assert_eq!(i, next[who], "poster {who} reordered");
                next[who] += 1;
            }
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        assert_eq!(inbox.try_recv(), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn an_expired_wait_says_timeout_not_disconnected() {
        let inbox = Inbox::<u8>::default();
        let err = inbox.recv_timeout(SHORT).unwrap_err();
        assert!(err.is_timeout() && err == RecvTimeoutError::Timeout);
        inbox.close();
        let err = inbox.recv_timeout(LONG).unwrap_err();
        assert!(!err.is_timeout() && err == RecvTimeoutError::Disconnected);
        assert_eq!(inbox.take(&mut VecDeque::new(), LONG), Err(RecvTimeoutError::Disconnected));
        assert_eq!(inbox.try_recv(), Err(RecvTimeoutError::Disconnected));
    }

    /// `Duration::MAX` is a deadline (`tcp::deadline`), not an overflow.
    #[test]
    fn a_wait_of_duration_max_takes_what_is_queued() {
        let inbox = Inbox::default();
        inbox.post(1u8);
        assert_eq!(inbox.recv_timeout(Duration::MAX), Ok(1));
        inbox.post(2);
        let mut batch = VecDeque::new();
        assert_eq!(inbox.take(&mut batch, Duration::MAX), Ok(()));
        assert_eq!(batch, [2]);
    }

    #[test]
    fn close_wakes_a_parked_receiver_after_it_drains_the_queue() {
        let inbox = Arc::new(Inbox::default());
        inbox.post(7u8);
        let receiver = inbox.clone();
        let parked = std::thread::spawn(move || {
            [receiver.recv_timeout(LONG), receiver.recv_timeout(LONG), receiver.recv_timeout(LONG)]
        });
        inbox.post(8);
        inbox.close();
        // What was queued before the close is still delivered.
        assert_eq!(parked.join().unwrap(), [Ok(7), Ok(8), Err(RecvTimeoutError::Disconnected)]);
    }

    #[test]
    fn a_post_after_close_is_dropped() {
        let inbox = Inbox::default();
        inbox.post(3u8);
        inbox.close();
        inbox.post(4);
        assert_eq!(inbox.try_recv(), Ok(3));
        assert_eq!(inbox.try_recv(), Err(RecvTimeoutError::Disconnected));
    }

    // ----------------------------------------------------------------------
    // the byte path: an outbox written through a scripted writer, the
    // bytes read back through a `FrameReader`
    // ----------------------------------------------------------------------

    /// What a test writer does on one call.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Takes at most this many of the bytes offered.
        Take(usize),
        /// Takes nothing: `WouldBlock`.
        Block,
        /// Fails with this error.
        Fail(io::ErrorKind),
    }

    /// Takes every byte offered.
    const ALL: Step = Step::Take(usize::MAX);

    /// A socket as the outbox sees it: each call plays the next step of
    /// `next` and keeps what it took, in order.
    struct Sink<F> {
        next: F,
        took: Vec<u8>,
        calls: usize,
    }

    impl<F: FnMut() -> Step> Write for Sink<F> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut left = match (self.next)() {
                Step::Take(n) => n,
                Step::Block => return Err(io::ErrorKind::WouldBlock.into()),
                Step::Fail(kind) => return Err(kind.into()),
            };
            let start = self.took.len();
            for buf in bufs {
                let take = buf.len().min(left);
                self.took.extend_from_slice(&buf[..take]);
                left -= take;
            }
            Ok(self.took.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer playing `script`, then taking everything.
    fn scripted(script: impl IntoIterator<Item = Step>) -> Sink<impl FnMut() -> Step> {
        let mut steps = script.into_iter();
        Sink { next: move || steps.next().unwrap_or(ALL), took: Vec::new(), calls: 0 }
    }

    /// A message whose frame carries `payload` bytes besides its header.
    fn blob(i: usize, payload: usize) -> Message {
        Message::CommandDelivery {
            from: cosoft_wire::InstanceId(i as u64),
            command: format!("blob-{i}"),
            payload: (0..payload).map(|b| (b % 251) as u8).collect(),
        }
    }

    /// One batch of `msgs`' frames, a segment each.
    fn batch(msgs: &[Message]) -> OutBatch {
        let segments: Vec<Bytes> =
            msgs.iter().map(|m| Bytes::from(codec::frame_message(m))).collect();
        OutBatch {
            bytes: segments.iter().map(|s| s.len()).sum(),
            frames: msgs.len() as u64,
            segments,
        }
    }

    /// What an enqueue does to the outbox.
    fn queue(conn: &ConnShared, batch: OutBatch) {
        conn.outbox.held().push(batch);
    }

    /// Bytes `conn`'s outbox counts as queued.
    fn queued(conn: &ConnShared) -> usize {
        conn.outbox.held().queued()
    }

    fn conn() -> ConnShared {
        ConnShared { outbox: OutboxLock::default(), gate: Gate::default(), inbox: Arc::default() }
    }

    /// A poll thread's flush of `conn`: each write counted and released.
    fn drain(
        conn: &ConnShared,
        counters: &Counters,
        write: impl FnMut(&mut Outbox) -> io::Result<Written>,
    ) -> io::Result<bool> {
        flush(&conn.outbox, write, |w| conn.drained(w, counters)).map(|left| left.wrote)
    }

    /// Bytes of the front batch already on the wire.
    fn front_written(ob: &Outbox) -> usize {
        let Some(front) = ob.batches.front() else { return 0 };
        front.segments.iter().take(ob.head_seg).map(|b| b.len()).sum::<usize>() + ob.head_off
    }

    /// The head as a write leaves it: batches left and bytes of the
    /// front one written.
    fn head(ob: &Outbox) -> (usize, usize) {
        (ob.batches.len(), front_written(ob))
    }

    /// The bytes left to write, counted from the batches and the head.
    fn unwritten(ob: &Outbox) -> usize {
        ob.batches.iter().map(|b| b.bytes).sum::<usize>() - front_written(ob)
    }

    /// The messages in `bytes`, pushed into a `FrameReader` in chunks of
    /// the sizes `chunk` returns.
    fn reassemble(bytes: &[u8], mut chunk: impl FnMut() -> usize) -> Vec<Message> {
        let (mut reader, mut got, mut at) = (FrameReader::default(), Vec::new(), 0);
        while at < bytes.len() {
            let end = at.saturating_add(chunk().max(1)).min(bytes.len());
            reader.push(&bytes[at..end]);
            at = end;
            while let Some(msg) = reader.next().expect("a well-formed frame") {
                got.push(msg);
            }
        }
        got
    }

    #[test]
    fn partial_writes_reassemble_into_the_frames_sent() {
        let sent: Vec<Message> = (0..6).map(|i| blob(i, 512 + i * 137)).collect();
        let mut sink = scripted([
            Step::Take(1),
            Step::Take(2),
            Step::Block,
            Step::Take(3),
            Step::Take(64),
            Step::Block,
            Step::Take(700),
            ALL,
            Step::Take(5),
        ]);
        let mut ob = Outbox::default();
        // Frames arrive before calls 1–5 and 9, as if queued while the
        // socket drains: every cut lands on queued bytes.
        let mut arrivals = sent.iter();
        for call in 1.. {
            if call <= 5 || call == 9 {
                if let Some(msg) = arrivals.next() {
                    ob.push(batch(std::slice::from_ref(msg)));
                }
            }
            if ob.batches.is_empty() {
                break;
            }
            match ob.write_to(&mut sink) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("write {call}: {e}"),
            }
        }
        // The whole script ran, then one more call took the rest.
        assert_eq!(sink.calls, 10);
        assert_eq!(head(&ob), (0, 0));
        assert_eq!(reassemble(&sink.took, || usize::MAX), sent);
    }

    #[test]
    fn a_wouldblock_storm_leaves_the_outbox_as_it_was() {
        let sent: Vec<Message> = (0..3).map(|i| blob(i, 2048)).collect();
        let mut ob = Outbox::default();
        ob.push(batch(&sent[..2]));
        ob.push(batch(&sent[2..]));
        let mut sink = scripted(std::iter::once(Step::Take(10)).chain([Step::Block; 100]));
        assert_eq!(ob.write_to(&mut sink).unwrap(), Written { bytes: 10, frames: 0, batches: 1 });
        let before = head(&ob);
        for _ in 0..100 {
            let e = ob.write_to(&mut sink).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
            assert_eq!(head(&ob), before);
        }
        let rest = ob.write_to(&mut sink).unwrap();
        assert_eq!((rest.frames, rest.batches), (3, 2));
        assert_eq!(reassemble(&sink.took, || usize::MAX), sent);
    }

    #[test]
    fn a_writer_error_is_returned_and_the_outbox_kept() {
        let mut ob = Outbox::default();
        ob.push(batch(&[blob(0, 100), blob(1, 100)]));
        let mut sink = scripted([Step::Take(7), Step::Fail(io::ErrorKind::ConnectionReset)]);
        ob.write_to(&mut sink).unwrap();
        let before = head(&ob);
        let e = ob.write_to(&mut sink).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(head(&ob), before);
        assert_eq!(sink.took.len(), 7);
    }

    #[test]
    fn one_write_across_three_batches_counts_their_frames_and_each_batch() {
        let sent: Vec<Message> = (0..6).map(|i| blob(i, 40 + i)).collect();
        let mut ob = Outbox::default();
        for range in [0..2, 2..3, 3..6] {
            ob.push(batch(&sent[range]));
        }
        let total: usize = ob.batches.iter().map(|b| b.bytes).sum();
        let mut sink = scripted([Step::Take(3), Step::Take(total - 3 - 10)]);
        assert_eq!(ob.write_to(&mut sink).unwrap(), Written { bytes: 3, frames: 0, batches: 1 });
        // From inside the first batch to inside the third: the first two
        // complete (2 + 1 frames) and all three are touched.
        let spanning = ob.write_to(&mut sink).unwrap();
        assert_eq!(spanning, Written { bytes: total - 13, frames: 3, batches: 3 });
        assert_eq!(ob.write_to(&mut sink).unwrap(), Written { bytes: 10, frames: 3, batches: 1 });
        assert!(ob.batches.is_empty());
        assert_eq!(reassemble(&sink.took, || usize::MAX), sent);
    }

    #[test]
    fn flush_stops_at_wouldblock_retries_an_interrupt_and_returns_an_error() {
        let (conn, counters) = (conn(), Counters::default());
        let sent: Vec<Message> = (0..3).map(|i| blob(i, 300)).collect();
        queue(&conn, batch(&sent[..1]));
        queue(&conn, batch(&sent[1..]));
        let total = queued(&conn);
        let mut sink = scripted([
            Step::Take(5),
            Step::Fail(io::ErrorKind::Interrupted),
            Step::Take(6),
            Step::Block,
            Step::Fail(io::ErrorKind::ConnectionReset),
        ]);
        assert!(drain(&conn, &counters, |ob| ob.write_to(&mut sink)).unwrap());
        assert_eq!(queued(&conn), total - 11);
        assert_eq!(counters.bytes_out.load(Ordering::Relaxed), 11);
        let held = head(&conn.outbox.held());
        // A socket error is the connection's: returned, nothing counted.
        let e = drain(&conn, &counters, |ob| ob.write_to(&mut sink)).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(head(&conn.outbox.held()), held);
        assert_eq!(queued(&conn), total - 11);
        assert_eq!(counters.bytes_out.load(Ordering::Relaxed), 11);
        // The rest goes in one write across both batches.
        assert!(drain(&conn, &counters, |ob| ob.write_to(&mut sink)).unwrap());
        assert_eq!(queued(&conn), 0);
        assert_eq!(counters.bytes_out.load(Ordering::Relaxed), total as u64);
        assert_eq!(counters.frames_out.load(Ordering::Relaxed), 3);
        assert_eq!(counters.coalesced_writes.load(Ordering::Relaxed), 1);
        assert!(!drain(&conn, &counters, |_| panic!("an empty outbox is not written")).unwrap());
        assert_eq!(reassemble(&sink.took, || usize::MAX), sent);
    }

    #[test]
    fn frames_fed_one_to_seven_bytes_at_a_time_come_out_whole() {
        let sent: Vec<Message> = (0..4).map(|i| blob(i, 64 + i * 41)).collect();
        let bytes: Vec<u8> = sent.iter().flat_map(codec::frame_message).collect();
        let mut i = 0;
        let got = reassemble(&bytes, || {
            i += 1;
            1 + i % 7
        });
        assert_eq!(got, sent);
    }

    /// Random frames in random batches, queued while a writer that cuts,
    /// would-blocks and interrupts at random drains them through `flush`,
    /// read back in random chunks: each frame arrives once, in order and
    /// whole, every counter adds up, and after every write the outbox's
    /// own backlog count is the bytes its batches and head leave.
    #[test]
    fn any_cuts_and_chunks_deliver_every_frame_once_in_order() {
        let gen = |r: &mut Rng| {
            let batches = r.vec(1..12, |r| r.vec(1..5, |r| r.range(0..=3000usize)));
            (batches, r.next_u64())
        };
        forall(0..64, gen, |(batches, io_seed): (Vec<Vec<usize>>, u64)| {
            let (conn, counters) = (conn(), Counters::default());
            let mut io = Rng::new(io_seed);
            let mut sink = Sink {
                next: || match io.range(0..8) {
                    0 => Step::Block,
                    1 => Step::Fail(io::ErrorKind::Interrupted),
                    2..=4 => Step::Take(io.range(1..=64)),
                    5 | 6 => Step::Take(io.range(1..=4096)),
                    _ => ALL,
                },
                took: Vec::new(),
                calls: 0,
            };
            let mut write = |ob: &mut Outbox| {
                let written = ob.write_to(&mut sink);
                assert_eq!(ob.queued(), unwritten(ob), "the backlog count after {written:?}");
                written
            };
            let mut sent = Vec::new();
            for sizes in &batches {
                let msgs: Vec<Message> = sizes.iter().map(|&n| blob(sent.len(), n)).collect();
                sent.extend(msgs.iter().cloned());
                queue(&conn, batch(&msgs));
                drain(&conn, &counters, &mut write).unwrap();
            }
            while queued(&conn) > 0 {
                drain(&conn, &counters, &mut write).unwrap();
            }
            assert_eq!(head(&conn.outbox.held()), (0, 0));
            assert_eq!(counters.frames_out.load(Ordering::Relaxed), sent.len() as u64);
            assert_eq!(counters.bytes_out.load(Ordering::Relaxed), sink.took.len() as u64);
            let mut chunks = Rng::new(!io_seed);
            assert_eq!(reassemble(&sink.took, || chunks.range(1..=2048)), sent);
        });
    }
}
