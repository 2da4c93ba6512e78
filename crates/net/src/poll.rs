//! Readiness-driven I/O internals for the TCP host: a fixed pool of
//! poll threads owning nonblocking sockets, per-connection ring-buffer
//! outboxes flushed on writability, incremental frame reassembly on
//! readability, and condvar wakeup tokens replacing every sleep-poll.
//!
//! # Why this is a sweep loop and not epoll
//!
//! The workspace forbids `unsafe` in every crate (`unsafe_code =
//! "forbid"` in the root manifest's `[workspace.lints]`) and the build
//! environment carries no FFI crates, so raw `epoll`/`kqueue` is out of
//! reach. The layer therefore has the *shape* of a mio-style poller —
//! one thread owns N sockets, writes are
//! buffered in ring outboxes and flushed on writability, a wake token
//! lets other threads signal the loop — but readiness is discovered by
//! adaptive nonblocking sweeps: each connection is read-probed on a
//! per-connection backoff schedule, and the loop parks on its waker with
//! an escalating timeout whenever a sweep makes no progress. Swapping
//! the sweep for a real `Poll::poll` is a local change to [`PollThread`];
//! nothing above this module would notice.
//!
//! The thread count is fixed at bind time by the host config's
//! `io_threads` — connection count no longer adds threads.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use cosoft_wire::{codec, Bytes, Message};

use crate::fault::{FaultInjector, ReadDecision, WriteDecision};
use crate::lock::{self, ConnMapLock, LeafLock, OutboxLock};
use crate::queue::{PollReceiver, Sender, TryRecvError};
use crate::tcp::{ConnId, Counters, NetEvent};

/// Most segments gathered into one vectored write (IOV_MAX headroom).
const MAX_IOV: usize = 256;

/// Most bytes read from one connection per sweep, so a firehose peer
/// cannot starve its neighbours on the same poll thread.
const MAX_READ_PER_SWEEP: usize = 256 * 1024;

/// Shortest park when a sweep made progress recently.
const MIN_PARK: Duration = Duration::from_micros(200);

/// Longest park between sweeps on a fully idle poll thread.
const MAX_PARK: Duration = Duration::from_millis(2);

/// Most consecutive sweeps a quiet connection skips between read
/// probes. Worst-case added read latency is `MAX_SKIP × MAX_PARK` plus
/// sweep time; any traffic in either direction resets the backoff.
const MAX_SKIP: u32 = 4;

// --------------------------------------------------------------------------
// wakeup primitives
// --------------------------------------------------------------------------

/// Generation-counted condvar: waiters capture the generation, check
/// their condition, and sleep only if no notification happened in
/// between — the classic lost-wakeup-free handshake. Replaces the 1 ms
/// `thread::sleep` poll loops the thread-per-connection transport used
/// for backpressure and flush waiting.
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
        if *guard != seen {
            return;
        }
        drop(guard.wait_timeout(&self.cv, timeout));
    }
}

/// Wake token for one poll thread: `wake` is cheap, latches, and never
/// blocks; `park` sleeps until woken or the timeout elapses.
#[derive(Debug, Default)]
pub(crate) struct PollWaker {
    woken: LeafLock<bool>,
    cv: Condvar,
}

impl PollWaker {
    /// Signals the poll thread; latched, so a wake during a sweep makes
    /// the following park return immediately.
    pub(crate) fn wake(&self) {
        *self.woken.held() = true;
        self.cv.notify_one();
    }

    /// Parks until woken or `timeout`; consumes the latch.
    pub(crate) fn park(&self, timeout: Duration) {
        let mut guard = self.woken.held();
        if !*guard {
            guard = guard.wait_timeout(&self.cv, timeout);
        }
        *guard = false;
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

/// Per-connection ring buffer of pending writes. The router thread
/// appends under the lock; the owning poll thread flushes from the head
/// on writability, tracking partial progress so a short `writev` never
/// re-sends bytes.
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    /// Queued batches, oldest first.
    pub(crate) batches: VecDeque<OutBatch>,
    /// Index of the first unwritten segment of the front batch.
    head_seg: usize,
    /// Bytes of that segment already written.
    head_off: usize,
    /// Set at teardown; enqueues observing it fail with `NotConnected`
    /// instead of waiting out their timeout.
    pub(crate) closed: bool,
}

impl Outbox {
    /// Bytes of the front batch already on the wire.
    fn front_written(&self) -> usize {
        let Some(front) = self.batches.front() else { return 0 };
        front.segments.iter().take(self.head_seg).map(|b| b.len()).sum::<usize>() + self.head_off
    }
}

/// Handles shared between the host (enqueue/evict/stats) and the poll
/// thread that owns the connection's socket.
pub(crate) struct ConnShared {
    /// The outbound ring buffer.
    pub(crate) outbox: Arc<OutboxLock<Outbox>>,
    /// Unwritten outbound bytes; the backpressure budget is accounted
    /// against this (reserved at enqueue, released as bytes hit the
    /// socket).
    pub(crate) queued_bytes: Arc<AtomicUsize>,
    /// Signaled whenever the poll thread drains bytes or tears the
    /// connection down, waking blocked enqueuers.
    pub(crate) gate: Arc<Gate>,
    /// Duplicate handle used to shut the socket down from outside the
    /// poll thread (eviction, explicit disconnect, host drop).
    pub(crate) control: TcpStream,
    /// Index of the owning poll thread in the host's pool.
    pub(crate) thread: usize,
}

/// Connection registry shared by the host handle and the poll pool.
pub(crate) type ConnMap = Arc<ConnMapLock<HashMap<ConnId, ConnShared>>>;

// --------------------------------------------------------------------------
// frame reassembly
// --------------------------------------------------------------------------

/// Incremental `u32-le length ‖ body` reassembler for nonblocking
/// reads: bytes go in as they arrive, complete messages come out.
#[derive(Debug, Default)]
struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReader {
    fn push(&mut self, data: &[u8]) {
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
    fn next(&mut self) -> io::Result<Option<Message>> {
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

// --------------------------------------------------------------------------
// poll thread
// --------------------------------------------------------------------------

/// Control messages from the host to one poll thread.
pub(crate) enum Cmd {
    /// Adopt a freshly accepted nonblocking socket.
    Register(ConnId, TcpStream, Arc<OutboxLock<Outbox>>, Arc<AtomicUsize>, Arc<Gate>),
    /// Tear one connection down (eviction or explicit disconnect) and
    /// surface its `Disconnected` event.
    Close(ConnId),
    /// Tear everything down and exit.
    Shutdown,
}

/// Per-connection state owned by its poll thread.
struct PollConn {
    stream: TcpStream,
    outbox: Arc<OutboxLock<Outbox>>,
    queued_bytes: Arc<AtomicUsize>,
    gate: Arc<Gate>,
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
}

/// One thread of the readiness pool: owns its connections' sockets,
/// flushes outboxes on writability, reassembles inbound frames, and
/// parks on its waker between unproductive sweeps.
pub(crate) struct PollThread {
    cmds: PollReceiver<Cmd>,
    waker: Arc<PollWaker>,
    events: Sender<NetEvent>,
    conns_shared: ConnMap,
    counters: Arc<Counters>,
    /// Freshly registered connections must produce a first complete
    /// frame within this long; `None` disables the deadline.
    handshake_timeout: Option<Duration>,
    /// Fault injector for chaos tests; `None` (the only possibility
    /// without the `fault-injection` feature) means every I/O operation
    /// passes straight through to the kernel.
    faults: Option<Arc<FaultInjector>>,
    conns: HashMap<ConnId, PollConn>,
}

impl PollThread {
    pub(crate) fn new(
        cmds: PollReceiver<Cmd>,
        waker: Arc<PollWaker>,
        events: Sender<NetEvent>,
        conns_shared: ConnMap,
        counters: Arc<Counters>,
        handshake_timeout: Option<Duration>,
        faults: Option<Arc<FaultInjector>>,
    ) -> PollThread {
        PollThread {
            cmds,
            waker,
            events,
            conns_shared,
            counters,
            handshake_timeout,
            faults,
            conns: HashMap::new(),
        }
    }

    /// The loop. Exits on `Cmd::Shutdown` or when the host drops its
    /// command sender.
    pub(crate) fn run(mut self) {
        let mut scratch = vec![0u8; 64 * 1024];
        let mut park = MIN_PARK;
        loop {
            loop {
                match self.cmds.try_recv() {
                    Ok(Cmd::Register(id, stream, outbox, queued_bytes, gate)) => {
                        self.conns.insert(
                            id,
                            PollConn {
                                stream,
                                outbox,
                                queued_bytes,
                                gate,
                                frames: FrameReader::default(),
                                skip: 0,
                                skip_limit: 0,
                                handshake_deadline: self
                                    .handshake_timeout
                                    .map(|t| Instant::now() + t),
                            },
                        );
                    }
                    Ok(Cmd::Close(id)) => self.teardown(id),
                    Ok(Cmd::Shutdown) | Err(TryRecvError::Disconnected) => {
                        let ids: Vec<ConnId> = self.conns.keys().copied().collect();
                        for id in ids {
                            self.teardown(id);
                        }
                        return;
                    }
                    Err(TryRecvError::Empty) => break,
                }
            }

            let mut progressed = false;
            let ids: Vec<ConnId> = self.conns.keys().copied().collect();
            for id in ids {
                match self.sweep_one(id, &mut scratch) {
                    Ok(p) => progressed |= p,
                    Err(_) => {
                        self.teardown(id);
                        progressed = true;
                    }
                }
            }

            if progressed {
                park = MIN_PARK;
                continue;
            }
            self.waker.park(park);
            park = (park * 2).min(MAX_PARK);
        }
    }

    /// Write phase then (backoff-gated) read phase for one connection.
    /// An `Err` means the connection is dead and must be torn down. A
    /// connection missing from the live map (torn down earlier in the
    /// same sweep pass) is counted in `stale_sweeps` and skipped rather
    /// than treated as a poll-thread invariant.
    fn sweep_one(&mut self, id: ConnId, scratch: &mut [u8]) -> io::Result<bool> {
        let Some(conn) = self.conns.get_mut(&id) else {
            self.counters.stale_sweeps.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        };
        if let Some(deadline) = conn.handshake_deadline {
            if Instant::now() >= deadline {
                self.counters.handshake_timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no complete frame within the handshake deadline",
                ));
            }
        }
        let faults = self.faults.as_deref();
        let mut progressed = false;
        let wrote = Self::flush(conn, id, &self.counters, faults)?;
        if wrote {
            progressed = true;
            // A write usually provokes a reply; probe eagerly again.
            conn.skip = 0;
            conn.skip_limit = 0;
        }
        let due = if conn.skip > 0 {
            conn.skip -= 1;
            false
        } else {
            true
        };
        if due {
            let read_any =
                Self::read_ready(conn, id, &self.counters, &self.events, scratch, faults)?;
            if read_any {
                progressed = true;
                conn.skip_limit = 0;
            } else {
                conn.skip_limit = (conn.skip_limit * 2 + 1).min(MAX_SKIP);
            }
            conn.skip = conn.skip_limit;
        }
        Ok(progressed)
    }

    /// Flushes as much of the outbox as the socket accepts with vectored
    /// writes, releasing backpressure bytes and signaling the gate.
    /// Returns whether any bytes moved. With a fault injector attached,
    /// every write attempt first consults it: the gather may be cut
    /// short (partial write), skipped for a sweep (`WouldBlock`), or
    /// turned into a connection-fatal error.
    fn flush(
        conn: &mut PollConn,
        id: ConnId,
        counters: &Counters,
        faults: Option<&FaultInjector>,
    ) -> io::Result<bool> {
        let mut wrote_any = false;
        loop {
            // The per-connection outbox lock is held over the nonblocking
            // write so head accounting stays atomic with the bytes the
            // socket took; only enqueuers contend.
            let mut ob = conn.outbox.held();
            if ob.batches.is_empty() {
                return Ok(wrote_any);
            }
            let limit = match faults.map_or(WriteDecision::Pass, |f| f.on_write(id)) {
                WriteDecision::Pass => usize::MAX,
                WriteDecision::Truncate(n) => n,
                WriteDecision::Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(wrote_any);
                }
                WriteDecision::Err(e) => return Err(e),
            };
            let n = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
                let mut gathered = 0usize;
                'gather: for (bi, batch) in ob.batches.iter().enumerate() {
                    let first_seg = if bi == 0 { ob.head_seg } else { 0 };
                    for (si, seg) in batch.segments.iter().enumerate().skip(first_seg) {
                        let off = if bi == 0 && si == ob.head_seg { ob.head_off } else { 0 };
                        let avail = seg.get(off..).unwrap_or(&[]);
                        let take = avail.len().min(limit - gathered);
                        slices.push(IoSlice::new(avail.get(..take).unwrap_or(avail)));
                        gathered += take;
                        if gathered >= limit || slices.len() >= MAX_IOV {
                            break 'gather;
                        }
                    }
                }
                // That outbox lock and no other: a host-wide lock held
                // here would stall every sender behind one socket.
                lock::assert_holds_only(lock::OUTBOX);
                match conn.stream.write_vectored(&slices) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "socket write returned zero",
                        ));
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(wrote_any),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            wrote_any = true;
            // Advance the head past the written bytes; count batches as
            // they complete.
            let mut remaining = n;
            let mut batches_touched = 1u64;
            while remaining > 0 {
                let (seg_len, seg_count, batch_frames) = {
                    // The socket cannot have taken more bytes than were
                    // queued; if the accounting ever disagrees, drop the
                    // connection instead of the whole poll thread.
                    let Some(batch) = ob.batches.front() else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "outbox accounting underflow: wrote past queued batches",
                        ));
                    };
                    let Some(seg) = batch.segments.get(ob.head_seg) else {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "outbox accounting underflow: head segment out of range",
                        ));
                    };
                    (seg.len(), batch.segments.len(), batch.frames)
                };
                let take = remaining.min(seg_len - ob.head_off);
                ob.head_off += take;
                remaining -= take;
                if ob.head_off == seg_len {
                    ob.head_seg += 1;
                    ob.head_off = 0;
                    if ob.head_seg == seg_count {
                        counters.frames_out.fetch_add(batch_frames, Ordering::Relaxed);
                        ob.batches.pop_front();
                        ob.head_seg = 0;
                        if remaining > 0 {
                            batches_touched += 1;
                        }
                    }
                }
            }
            drop(ob);
            counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
            if batches_touched > 1 {
                counters.coalesced_writes.fetch_add(1, Ordering::Relaxed);
            }
            conn.queued_bytes.fetch_sub(n, Ordering::AcqRel);
            conn.gate.notify();
        }
    }

    /// Reads until `WouldBlock` (bounded per sweep), pushing complete
    /// messages into the event channel. Returns whether bytes arrived;
    /// `Err` on EOF, transport error, or a malformed frame. With a
    /// fault injector attached, every read attempt first consults it:
    /// the read buffer may be shortened (forcing incremental frame
    /// reassembly), the probe skipped (`WouldBlock`), or the read turned
    /// into a connection-fatal error.
    fn read_ready(
        conn: &mut PollConn,
        id: ConnId,
        counters: &Counters,
        events: &Sender<NetEvent>,
        scratch: &mut [u8],
        faults: Option<&FaultInjector>,
    ) -> io::Result<bool> {
        let mut read_any = false;
        let mut budget = MAX_READ_PER_SWEEP;
        loop {
            let cap = match faults.map_or(ReadDecision::Pass, |f| f.on_read(id)) {
                ReadDecision::Pass => scratch.len(),
                ReadDecision::Short(n) => n.min(scratch.len()),
                ReadDecision::Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(read_any);
                }
                ReadDecision::Err(e) => return Err(e),
            };
            let buf = scratch.get_mut(..cap).unwrap_or(&mut []);
            let cap = buf.len();
            let n = match conn.stream.read(buf) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed"));
                }
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
                // Host gone; the shutdown command will arrive shortly.
                let _ = events.send(NetEvent::Message(id, msg));
            }
            budget = budget.saturating_sub(n);
            if budget == 0 || n < cap {
                // Short read: the socket is (almost certainly) drained;
                // anything left is picked up next sweep.
                return Ok(read_any);
            }
        }
    }

    /// Single teardown path: deregisters the connection everywhere,
    /// counts abandoned frames, releases their backpressure bytes,
    /// wakes blocked enqueuers, and surfaces `Disconnected` exactly
    /// once (commands for already-gone connections are ignored).
    fn teardown(&mut self, id: ConnId) {
        let Some(conn) = self.conns.remove(&id) else { return };
        self.conns_shared.held().remove(&id);
        let (dropped_frames, dropped_bytes) = {
            let mut ob = conn.outbox.held();
            ob.closed = true;
            let frames: u64 = ob.batches.iter().map(|b| b.frames).sum();
            let bytes: usize =
                ob.batches.iter().map(|b| b.bytes).sum::<usize>() - ob.front_written();
            ob.batches.clear();
            ob.head_seg = 0;
            ob.head_off = 0;
            (frames, bytes)
        };
        if dropped_frames > 0 {
            self.counters.frames_dropped.fetch_add(dropped_frames, Ordering::Relaxed);
        }
        if dropped_bytes > 0 {
            conn.queued_bytes.fetch_sub(dropped_bytes, Ordering::AcqRel);
        }
        conn.gate.notify();
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        let _ = self.events.send(NetEvent::Disconnected(id));
    }
}
