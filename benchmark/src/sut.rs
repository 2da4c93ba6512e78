//! The adapter: every call into the program under test is in this file.
//!
//! A later change that alters one of these signatures has to edit this
//! file and nothing else of the benchmark, and can see here exactly what
//! the benchmark holds the program to. The frozen surface is:
//!
//! * `cosoft::runtime::TcpServer::{spawn_with_overload, addr,
//!   server_stats, router_stats, net_stats}` — the deployed server;
//! * `cosoft_net::tcp::TcpHost::{bind_with_config, local_addr, events,
//!   stats_handle, send_batch}`, `TcpStatsHandle::snapshot`,
//!   `TcpHostConfig`, `NetEvent`, `ConnId`, and
//!   `cosoft_server::ShardRouter::{with_liveness, set_overload, handle,
//!   disconnect, tick, stats, router_stats}`, `Outgoing::{new, extend,
//!   into_frames}`, `LivenessConfig`, `OverloadConfig` — the traced copy
//!   of the dispatch loop;
//! * `cosoft_core::session::Session::{new, instance, user_event, couple,
//!   copy_to, undo, on_message, drain_outbox, take_events, group_of,
//!   remote_executions, toolkit, toolkit_mut}`, `SessionEvent` — clients;
//! * `cosoft_uikit::spec::build_tree`, `Toolkit::{from_tree, on, tree,
//!   tree_mut, executed_callbacks}`, `WidgetTree::{resolve_required,
//!   snapshot, attr, set_attr}`;
//! * `cosoft_wire::codec::{frame_message, decode_message,
//!   encode_state_shared, get_state}`, `delta::{diff, apply,
//!   state_version}`, `Message`, `UiEvent`, `EventKind`, `Value`,
//!   `AttrName`, `ObjectPath`, `GlobalObjectId`, `UserId`, `CopyMode`,
//!   `StateNode`;
//! * `cosoft_server::HistoryStore::{new, record_overwrite, pop_undo}`.
//!
//! Clients are real `Session`s over raw blocking `TcpStream`s driven from
//! the one generator thread. `TcpClient`/`TcpSession` are not used: they
//! add two OS threads per client, and on a two-core box the benchmark
//! would then time the scheduler.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cosoft::runtime::TcpServer;
use cosoft_core::session::{Session, SessionEvent};
use cosoft_net::tcp::{ConnId, NetEvent, TcpHost, TcpHostConfig, TcpStats, TcpStatsHandle};
use cosoft_server::{
    HistoryStore, LivenessConfig, Outgoing, OverloadConfig, RouterStats, ServerStats, ShardRouter,
};
use cosoft_uikit::{spec, Toolkit};
use cosoft_wire::{
    codec, delta, AttrName, CopyMode, EventKind, GlobalObjectId, InstanceId, Message, ObjectPath,
    StateNode, UiEvent, UserId, Value,
};

use crate::trace::{Clock, Recorder, Span};
use crate::workload::Payload;

/// Poll threads of the host. Part of every workload's definition, not a
/// flag: one, as `TcpHostConfig::default()` deploys it.
pub const IO_THREADS: usize = 1;

/// A round whose next frame does not arrive within this long has failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// Offset of the dispatch loop's span ids from the generator's `id_base`.
const SERVER_SPAN_BASE: u64 = 1 << 40;

// --------------------------------------------------------------------------
// failures
// --------------------------------------------------------------------------

/// Why a round (or set-up step) did not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// No frame within [`READ_TIMEOUT`].
    Timeout,
    /// The server closed the connection.
    Disconnected,
    /// The server refused the operation (`EventRejected`, `ErrorReply`,
    /// `Busy`, `PermissionDenied`).
    Refused(&'static str),
    /// A frame of another kind than the protocol step calls for.
    Unexpected {
        /// The kind the step waits for.
        want: &'static str,
        /// The kind that arrived.
        got: &'static str,
    },
    /// Socket, codec or session error.
    Other(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Timeout => write!(f, "no frame within {READ_TIMEOUT:?}"),
            Failure::Disconnected => write!(f, "server closed the connection"),
            Failure::Refused(kind) => write!(f, "server refused with {kind}"),
            Failure::Unexpected { want, got } => write!(f, "expected {want}, got {got}"),
            Failure::Other(e) => f.write_str(e),
        }
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe => Failure::Disconnected,
            _ => Failure::Other(e.to_string()),
        }
    }
}

fn other(e: impl std::fmt::Display) -> Failure {
    Failure::Other(e.to_string())
}

// --------------------------------------------------------------------------
// counters
// --------------------------------------------------------------------------

/// Declares [`Counters`] with one `u64` field per name and the
/// field-wise arithmetic over them.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The program's public counters the benchmark reads, flattened so
        /// the rest of the benchmark never names a field of the program's
        /// structs. Each field is the program's counter of the same name.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// What was counted since `earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            /// Field-wise sum.
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counters!(
    events_granted,
    events_rejected,
    lock_conflicts,
    messages_out,
    unexpected_messages,
    shared_frames_encoded,
    shared_deliveries,
    payload_encodes,
    payload_reuses,
    delta_legs_sent,
    delta_fallbacks,
    transfers_completed,
    transfers_failed,
    busy_replies,
    cross_shard_commands,
    handoffs_completed,
    frames_in,
    frames_out,
    bytes_in,
    bytes_out,
    enqueue_full_waits,
    slow_consumer_evictions,
    frames_dropped,
);

impl Counters {
    fn from_stats(s: &ServerStats, r: &RouterStats, n: &TcpStats) -> Counters {
        Counters {
            events_granted: s.events_granted,
            events_rejected: s.events_rejected,
            lock_conflicts: s.lock_conflicts,
            messages_out: s.messages_out,
            unexpected_messages: s.unexpected_messages,
            shared_frames_encoded: s.shared_frames_encoded,
            shared_deliveries: s.shared_deliveries,
            payload_encodes: s.payload_encodes,
            payload_reuses: s.payload_reuses,
            delta_legs_sent: s.delta_legs_sent,
            delta_fallbacks: s.delta_fallbacks,
            transfers_completed: s.transfers_completed,
            transfers_failed: s.transfers_failed,
            busy_replies: s.busy_replies,
            cross_shard_commands: r.cross_shard_commands,
            handoffs_completed: r.handoffs_completed,
            frames_in: n.frames_in,
            frames_out: n.frames_out,
            bytes_in: n.bytes_in,
            bytes_out: n.bytes_out,
            enqueue_full_waits: n.enqueue_full_waits,
            slow_consumer_evictions: n.slow_consumer_evictions,
            frames_dropped: n.frames_dropped,
        }
    }
}

// --------------------------------------------------------------------------
// the server: deployed, or the traced copy of its dispatch loop
// --------------------------------------------------------------------------

/// What the traced dispatch loop recorded.
#[derive(Debug, Default)]
pub struct ServerTrace {
    /// `runtime.idle`, `runtime.turn`, `server.handle`, `server.tick`,
    /// `server.into_frames` and `net.send_batch` spans.
    pub spans: Vec<Span>,
    /// `(conn, ns)` for every frame handed to `send_batch`, stamped when
    /// the call returned.
    pub sends: Vec<(u32, u64)>,
    /// `(id of the turn's span, events handled in the turn)`.
    pub turns: Vec<(u64, u32)>,
}

type Published = Arc<Mutex<(ServerStats, RouterStats)>>;

/// The benchmark-owned copy of `runtime.rs`'s dispatch loop, built only
/// from public calls, with a span around each of them.
pub struct TracedServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    published: Published,
    net_stats: TcpStatsHandle,
    thread: Option<JoinHandle<ServerTrace>>,
}

/// The server a workload runs against.
pub enum Server {
    /// `cosoft::runtime::TcpServer`, as deployed. All end-to-end metrics
    /// come from this one.
    Deployed(TcpServer),
    /// The traced copy; per-layer spans come from this one.
    Traced(TracedServer),
}

fn host_config() -> TcpHostConfig {
    TcpHostConfig { io_threads: IO_THREADS, ..TcpHostConfig::default() }
}

impl Server {
    /// Spawns on an ephemeral loopback port. `trace` selects the traced
    /// loop and gives it the clock it shares with the generator and the
    /// base of its span ids.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn spawn(shards: usize, trace: Option<(Clock, u64)>) -> io::Result<Server> {
        match trace {
            None => TcpServer::spawn_with_overload(
                "127.0.0.1:0",
                host_config(),
                LivenessConfig::default(),
                shards,
                OverloadConfig::default(),
            )
            .map(Server::Deployed),
            Some((clock, id_base)) => {
                TracedServer::spawn(shards, clock, id_base + SERVER_SPAN_BASE).map(Server::Traced)
            }
        }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        match self {
            Server::Deployed(s) => s.addr(),
            Server::Traced(s) => s.addr,
        }
    }

    fn counters_now(&self) -> Counters {
        match self {
            Server::Deployed(s) => {
                Counters::from_stats(&s.server_stats(), &s.router_stats(), &s.net_stats())
            }
            Server::Traced(s) => {
                let (server, router) = *s.published.lock().unwrap_or_else(|e| e.into_inner());
                Counters::from_stats(&server, &router, &s.net_stats.snapshot())
            }
        }
    }

    /// The counters once they stopped moving. The dispatch thread
    /// publishes its counters at the end of a turn and the poll thread
    /// counts bytes after the write returns, both possibly after the
    /// generator has already read the frame that ended the round; so wait
    /// until two readings a few milliseconds apart agree. Only called
    /// between windows, when no traffic is in flight.
    pub fn settled_counters(&self) -> Counters {
        let mut last = self.counters_now();
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(5));
            let now = self.counters_now();
            if now == last {
                break;
            }
            last = now;
        }
        last
    }

    /// Stops the server and joins its threads.
    pub fn stop(self) -> ServerTrace {
        match self {
            Server::Deployed(s) => {
                drop(s);
                ServerTrace::default()
            }
            Server::Traced(mut s) => s.join(),
        }
    }
}

impl TracedServer {
    fn spawn(shards: usize, clock: Clock, id_base: u64) -> io::Result<TracedServer> {
        let host = TcpHost::bind_with_config("127.0.0.1:0", host_config())?;
        let addr = host.local_addr();
        let net_stats = host.stats_handle();
        let published: Published = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (stop_flag, publish_to) = (stop.clone(), published.clone());
        let thread = std::thread::Builder::new()
            .name("bench-traced-server".into())
            .spawn(move || dispatch_loop(&host, shards, &stop_flag, &publish_to, clock, id_base))?;
        Ok(TracedServer { addr, stop, published, net_stats, thread: Some(thread) })
    }

    fn join(&mut self) -> ServerTrace {
        self.stop.store(true, Ordering::SeqCst);
        // As `TcpServer::drop` does: a dummy connection surfaces as a
        // `Connected` event and the loop re-checks its flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
        self.thread.take().and_then(|t| t.join().ok()).unwrap_or_default()
    }
}

impl Drop for TracedServer {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.join();
        }
    }
}

/// `TcpServer::spawn_with_overload`'s loop, statement for statement, with
/// the default liveness policy (so the tick is one second) and a span
/// around each call. Keep it in step with `src/runtime.rs`;
/// `trace.overhead_ratio` bounds how far the copy may drift.
fn dispatch_loop(
    host: &TcpHost,
    shards: usize,
    stop: &AtomicBool,
    published: &Published,
    clock: Clock,
    id_base: u64,
) -> ServerTrace {
    let mut rec = Recorder::new(clock, true, id_base);
    let mut trace = ServerTrace::default();
    let mut router: ShardRouter<ConnId> =
        ShardRouter::with_liveness(shards, LivenessConfig::default());
    router.set_overload(OverloadConfig::default());
    let tick = Duration::from_secs(1);
    let start = Instant::now();
    let mut last_published = (router.stats(), router.router_stats());
    let mut published_at = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        let idle_from = rec.open();
        let first = match host.events().recv_timeout(tick) {
            Ok(e) => Some(e),
            Err(e) if e.is_timeout() => None,
            Err(_) => break,
        };
        rec.close("runtime.idle", idle_from, 0, 0, 0);
        let turn = rec.reserve();
        let turn_from = rec.open();
        let mut outgoing = Outgoing::new();
        let mut next = first;
        let mut budget = 256usize;
        let mut events = 0u32;
        while let Some(event) = next {
            match event {
                NetEvent::Connected(_) => {}
                NetEvent::Message(conn, msg) => {
                    // The span's start is also the moment the frame was
                    // popped from the event channel: `net.inbound` ends
                    // here.
                    let t = rec.open();
                    outgoing.extend(router.handle(conn, msg));
                    rec.close("server.handle", t, turn, 0, conn.0 as u32);
                    events += 1;
                }
                NetEvent::Disconnected(conn) => outgoing.extend(router.disconnect(conn)),
            }
            budget -= 1;
            if budget == 0 {
                break;
            }
            next = host.events().try_recv().ok();
        }
        let t = rec.open();
        outgoing.extend(router.tick(start.elapsed().as_micros() as u64));
        rec.close("server.tick", t, turn, 0, 0);
        let t = rec.open();
        let frames = outgoing.into_frames();
        rec.close("server.into_frames", t, turn, 0, 0);
        let t = rec.open();
        let _ = host.send_batch(&frames);
        rec.close("net.send_batch", t, turn, 0, 0);
        let sent_at = clock.now_ns();
        trace.sends.extend(frames.iter().map(|(conn, _)| (conn.0 as u32, sent_at)));
        let current = (router.stats(), router.router_stats());
        if current != last_published || published_at.elapsed() >= Duration::from_secs(1) {
            *published.lock().unwrap_or_else(|e| e.into_inner()) = current;
            last_published = current;
            published_at = Instant::now();
        }
        rec.close_reserved(turn, "runtime.turn", turn_from, 0, 0, 0);
        trace.turns.push((turn, events));
    }
    *published.lock().unwrap_or_else(|e| e.into_inner()) = (router.stats(), router.router_stats());
    trace.spans = rec.into_spans();
    trace
}

// --------------------------------------------------------------------------
// the generator's side: instrumented clients
// --------------------------------------------------------------------------

/// What the generator thread records while it drives its clients.
#[derive(Debug)]
pub struct GenIo {
    /// The generator's spans (off in the untraced pass).
    pub rec: Recorder,
    /// Round the generator is working on; stamped on its spans.
    pub round: u64,
    /// Span the generator's calls are caused by (`gen.round`).
    pub cause: u64,
    /// Nanoseconds spent inside `read` on a client socket. Always
    /// counted: `gen.busy_ratio` says whether a number measures the
    /// program or the generator.
    pub blocked_ns: u64,
    /// Nanoseconds the generator paused between batches (think time).
    pub think_ns: u64,
    /// `(conn, ns, frames)` per socket write, stamped when `write_all`
    /// returned. Traced pass only.
    pub writes: Vec<(u32, u64, u32)>,
    /// `(conn, ns)` per frame received, stamped when the `read` that
    /// completed it returned. Traced pass only.
    pub reads: Vec<(u32, u64)>,
    scratch: Vec<u8>,
}

impl GenIo {
    /// A recorder for the generator thread; `traced` turns spans on,
    /// with ids from `id_base + 1`.
    pub fn new(clock: Clock, traced: bool, id_base: u64) -> GenIo {
        GenIo {
            rec: Recorder::new(clock, traced, id_base),
            round: 0,
            cause: 0,
            blocked_ns: 0,
            think_ns: 0,
            writes: Vec::new(),
            reads: Vec::new(),
            scratch: vec![0u8; 64 * 1024],
        }
    }

    /// Forgets what warm-up recorded.
    pub fn reset(&mut self) {
        self.rec.clear();
        self.blocked_ns = 0;
        self.think_ns = 0;
        self.writes.clear();
        self.reads.clear();
    }
}

/// The kinds of server frame a protocol step can wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `Welcome`.
    Welcome,
    /// `CoupleUpdate`.
    CoupleUpdate,
    /// `EventGranted`.
    EventGranted,
    /// `ExecuteEvent`.
    ExecuteEvent,
    /// `GroupUnlocked`.
    GroupUnlocked,
    /// `ApplyDelta`, or `ApplyState` on a destination without a base.
    Apply,
    /// `StateApplied`.
    StateApplied,
}

impl Expect {
    fn name(self) -> &'static str {
        match self {
            Expect::Welcome => "welcome",
            Expect::CoupleUpdate => "couple-update",
            Expect::EventGranted => "event-granted",
            Expect::ExecuteEvent => "execute-event",
            Expect::GroupUnlocked => "group-unlocked",
            Expect::Apply => "apply-delta|apply-state",
            Expect::StateApplied => "state-applied",
        }
    }

    fn matches(self, msg: &Message) -> bool {
        matches!(
            (self, msg),
            (Expect::Welcome, Message::Welcome { .. })
                | (Expect::CoupleUpdate, Message::CoupleUpdate { .. })
                | (Expect::EventGranted, Message::EventGranted { .. })
                | (Expect::ExecuteEvent, Message::ExecuteEvent { .. })
                | (Expect::GroupUnlocked, Message::GroupUnlocked { .. })
                | (Expect::Apply, Message::ApplyDelta { .. } | Message::ApplyState { .. })
                | (Expect::StateApplied, Message::StateApplied { .. })
        )
    }
}

/// The attribute a payload lands in, and its value.
fn attr_of(payload: &Payload) -> (AttrName, Value) {
    match payload {
        Payload::Text(s) => (AttrName::Text, Value::Text(s.clone())),
        Payload::Value(x) => (AttrName::ValueNum, Value::Float(*x)),
    }
}

/// The callback event a payload travels in.
fn event_kind(payload: &Payload) -> EventKind {
    match payload {
        Payload::Text(_) => EventKind::TextCommitted,
        Payload::Value(_) => EventKind::ValueChanged,
    }
}

/// One real `Session` on one raw blocking socket.
pub struct Client {
    session: Session,
    stream: TcpStream,
    /// The host's `ConnId` for this socket: accept order, from 1.
    pub conn: u32,
    rx: Vec<u8>,
    rx_pos: usize,
    rx_stamp: u64,
}

impl Client {
    /// Builds the client's widget tree from `ui_spec`, connects, and
    /// queues the registration (sent by the next [`Client::flush`]).
    ///
    /// # Errors
    ///
    /// A malformed spec or a connection failure.
    pub fn connect(
        addr: SocketAddr,
        ui_spec: &str,
        user: u64,
        conn: u32,
    ) -> Result<Client, Failure> {
        let tree = spec::build_tree(ui_spec).map_err(other)?;
        let session = Session::new(Toolkit::from_tree(tree), UserId(user), "loopback", "bench");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Client { session, stream, conn, rx: Vec::new(), rx_pos: 0, rx_stamp: 0 })
    }

    /// Gives up the session and keeps the registered socket open and
    /// silent: a parked connection is state at the host, not load.
    pub fn park(self) -> TcpStream {
        self.stream
    }

    /// The instance id the server assigned.
    pub fn instance(&self) -> Option<u64> {
        self.session.instance().map(|i| i.0)
    }

    /// Attaches an application callback to `path` for the event that
    /// carries payloads like `sample`, so that re-execution runs
    /// application code, as §3.2 has it. The toolkit counts the runs.
    pub fn attach_callback(&mut self, path: &str, sample: &Payload) -> Result<(), Failure> {
        let path = ObjectPath::parse(path).map_err(other)?;
        self.session.toolkit_mut().on(path, event_kind(sample), |_tree, event| {
            std::hint::black_box(event);
        });
        Ok(())
    }

    /// Callbacks the toolkit executed so far (own and re-executed).
    pub fn executed_callbacks(&self) -> u64 {
        self.session.toolkit().executed_callbacks()
    }

    /// Events re-executed on behalf of remote origins so far.
    pub fn remote_executions(&self) -> u64 {
        self.session.remote_executions()
    }

    /// The relevant attributes of the object at `path`, encoded: what the
    /// paper's convergence criterion compares across `CO(o)`.
    pub fn relevant_state(&self, path: &str) -> Result<Vec<u8>, Failure> {
        let path = ObjectPath::parse(path).map_err(other)?;
        let tree = self.session.toolkit().tree();
        let id = tree.resolve_required(&path).map_err(other)?;
        let snapshot = tree.snapshot(id, true).map_err(other)?;
        Ok(codec::encode_state_shared(&snapshot).to_vec())
    }

    /// Whether the widget at `path` holds `payload` in the attribute an
    /// event or mutation with that payload writes.
    pub fn holds(&self, path: &str, payload: &Payload) -> Result<bool, Failure> {
        let path = ObjectPath::parse(path).map_err(other)?;
        let tree = self.session.toolkit().tree();
        let id = tree.resolve_required(&path).map_err(other)?;
        let (name, value) = attr_of(payload);
        Ok(tree.attr(id, &name).is_ok_and(|held| *held == value))
    }

    /// Members of the couple group of the local object at `path`, as the
    /// session's replicated coupling information has it (0 if uncoupled).
    pub fn group_size(&self, path: &str) -> Result<usize, Failure> {
        let path = ObjectPath::parse(path).map_err(other)?;
        Ok(self.session.group_of(&path).map_or(0, <[_]>::len))
    }

    /// A local change the coupling layer does not see: sets one
    /// attribute of a widget directly, as the presenter's application
    /// would before pushing its state.
    pub fn mutate(&mut self, path: &str, payload: &Payload) -> Result<(), Failure> {
        let path = ObjectPath::parse(path).map_err(other)?;
        let tree = self.session.toolkit_mut().tree_mut();
        let id = tree.resolve_required(&path).map_err(other)?;
        let (name, value) = attr_of(payload);
        tree.set_attr(id, name, value).map_err(other)?;
        Ok(())
    }

    /// One `core.emit` span around a session call and `drain_outbox`,
    /// then sends what the session queued.
    fn emit<T>(
        &mut self,
        io: &mut GenIo,
        call: impl FnOnce(&mut Session) -> Result<T, Failure>,
    ) -> Result<T, Failure> {
        let t = io.rec.open();
        let result = call(&mut self.session)?;
        let out = self.session.drain_outbox();
        io.rec.close("core.emit", t, io.cause, io.round, self.conn);
        self.send(io, &out)?;
        Ok(result)
    }

    /// `Session::user_event` with the event `payload` describes.
    pub fn emit_event(
        &mut self,
        io: &mut GenIo,
        path: &str,
        payload: &Payload,
    ) -> Result<(), Failure> {
        let path = ObjectPath::parse(path).map_err(other)?;
        let event = UiEvent::new(path, event_kind(payload), vec![attr_of(payload).1]);
        self.emit(io, |session| session.user_event(event).map_err(other))
    }

    /// `Session::couple(local, (instance, remote))`, sent at once.
    pub fn couple(
        &mut self,
        io: &mut GenIo,
        local: &str,
        instance: u64,
        remote: &str,
    ) -> Result<(), Failure> {
        let local = ObjectPath::parse(local).map_err(other)?;
        let remote = ObjectPath::parse(remote).map_err(other)?;
        self.session
            .couple(&local, GlobalObjectId::new(InstanceId(instance), remote))
            .map_err(other)?;
        self.flush(io)
    }

    /// `Session::copy_to(local, (instance, remote), Strict)`; returns the
    /// request id `CopyCompleted` will carry. The `core.emit` span
    /// contains the snapshot.
    pub fn copy_to(
        &mut self,
        io: &mut GenIo,
        local: &str,
        instance: u64,
        remote: &str,
    ) -> Result<u64, Failure> {
        let local = ObjectPath::parse(local).map_err(other)?;
        let remote = ObjectPath::parse(remote).map_err(other)?;
        let dst = GlobalObjectId::new(InstanceId(instance), remote);
        self.emit(io, |session| session.copy_to(&local, dst, CopyMode::Strict).map_err(other))
    }

    /// `Session::undo((instance, remote))`. The server answers an undo
    /// with request id 0.
    pub fn undo(&mut self, io: &mut GenIo, instance: u64, remote: &str) -> Result<(), Failure> {
        let remote = ObjectPath::parse(remote).map_err(other)?;
        self.emit(io, |session| {
            session.undo(GlobalObjectId::new(InstanceId(instance), remote));
            Ok(())
        })
    }

    /// Whether the session reported `CopyCompleted { req_id }` since the
    /// last call; any `Error`/`PermissionDenied`/`EventRejected` it
    /// reported instead is a refusal.
    pub fn copy_completed(&mut self, req_id: u64) -> Result<bool, Failure> {
        let mut done = false;
        for event in self.session.take_events() {
            match event {
                SessionEvent::CopyCompleted { req_id: r } if r == req_id => done = true,
                SessionEvent::Error { .. } => return Err(Failure::Refused("error-reply")),
                SessionEvent::PermissionDenied { .. } => {
                    return Err(Failure::Refused("permission-denied"))
                }
                SessionEvent::EventRejected { .. } => {
                    return Err(Failure::Refused("event-rejected"))
                }
                _ => {}
            }
        }
        Ok(done)
    }

    /// Sends whatever the session has queued (registration, replies).
    pub fn flush(&mut self, io: &mut GenIo) -> Result<(), Failure> {
        let out = self.session.drain_outbox();
        self.send(io, &out)
    }

    fn send(&mut self, io: &mut GenIo, msgs: &[Message]) -> Result<(), Failure> {
        if msgs.is_empty() {
            return Ok(());
        }
        let mut wire = Vec::new();
        for m in msgs {
            let t = io.rec.open();
            wire.extend_from_slice(&codec::frame_message(m));
            io.rec.close("wire.encode", t, io.cause, io.round, self.conn);
        }
        let t = io.rec.open();
        self.stream.write_all(&wire)?;
        io.rec.close("net.write", t, io.cause, io.round, self.conn);
        if io.rec.enabled() {
            io.writes.push((self.conn, io.rec.clock().now_ns(), msgs.len() as u32));
        }
        Ok(())
    }

    /// Blocks until the next frame, checks it is the kind the protocol
    /// step calls for, feeds it to `Session::on_message` (one
    /// `core.apply` span: toolkit re-execution, apply-delta) and sends
    /// the session's reply, if it queued one.
    pub fn step(&mut self, io: &mut GenIo, want: Expect) -> Result<(), Failure> {
        let msg = self.recv(io)?;
        if !want.matches(&msg) {
            return Err(match &msg {
                Message::EventRejected { .. }
                | Message::ErrorReply { .. }
                | Message::Busy { .. }
                | Message::PermissionDenied { .. } => Failure::Refused(msg.kind_name()),
                _ => Failure::Unexpected { want: want.name(), got: msg.kind_name() },
            });
        }
        let t = io.rec.open();
        self.session.on_message(msg);
        io.rec.close("core.apply", t, io.cause, io.round, self.conn);
        self.flush(io)
    }

    /// Like [`Client::step`] for frames set-up does not care about: feeds
    /// every frame to the session until one of kind `want` went through.
    pub fn step_until(&mut self, io: &mut GenIo, want: Expect) -> Result<(), Failure> {
        loop {
            let msg = self.recv(io)?;
            let hit = want.matches(&msg);
            self.session.on_message(msg);
            self.flush(io)?;
            if hit {
                return Ok(());
            }
        }
    }

    fn recv(&mut self, io: &mut GenIo) -> Result<Message, Failure> {
        loop {
            if let Some(body) = self.buffered_frame()? {
                let t = io.rec.open();
                let msg = codec::decode_message(&self.rx[body.clone()]).map_err(other)?;
                io.rec.close("wire.decode", t, io.cause, io.round, self.conn);
                self.rx_pos = body.end;
                if io.rec.enabled() {
                    io.reads.push((self.conn, self.rx_stamp));
                }
                return Ok(msg);
            }
            let clock = io.rec.clock();
            let from = clock.now_ns();
            let n = self.stream.read(&mut io.scratch)?;
            let until = clock.now_ns();
            io.blocked_ns += until - from;
            io.rec.close("gen.read", from, io.cause, io.round, self.conn);
            if n == 0 {
                return Err(Failure::Disconnected);
            }
            // Consumed frames are dropped before the buffer grows.
            self.rx.drain(..self.rx_pos);
            self.rx_pos = 0;
            self.rx.extend_from_slice(&io.scratch[..n]);
            self.rx_stamp = until;
        }
    }

    /// Byte range of the next complete frame body in the receive buffer.
    fn buffered_frame(&self) -> Result<Option<std::ops::Range<usize>>, Failure> {
        let rest = &self.rx[self.rx_pos..];
        let Some(head) = rest.get(..4) else { return Ok(None) };
        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as u64;
        if len > codec::MAX_LEN {
            return Err(Failure::Other(format!("frame length {len} exceeds the codec's maximum")));
        }
        let start = self.rx_pos + 4;
        let end = start + len as usize;
        Ok((end <= self.rx.len()).then_some(start..end))
    }
}

// --------------------------------------------------------------------------
// probes: timed calls of pure public functions on a workload's own inputs
// --------------------------------------------------------------------------

/// Median cost of the pure state functions on the `state_sync` tree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[allow(missing_docs)] // each field is the per-layer metric of the same name
pub struct Probes {
    pub wire_state_encode_us: f64,
    pub wire_state_decode_us: f64,
    pub wire_delta_diff_us: f64,
    pub wire_delta_apply_us: f64,
    pub wire_delta_version_us: f64,
    pub wire_delta_bytes_ratio: f64,
    pub server_history_record_us: f64,
    pub server_history_undo_us: f64,
    pub uikit_snapshot_us: f64,
    /// Encoded size of the relevant-attribute snapshot, in bytes.
    pub snapshot_bytes: f64,
    /// Widgets in the tree.
    pub nodes: f64,
}

fn median_us(calls: usize, mut call: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    crate::stats::nearest_rank(&ns, 50.0) / 1000.0
}

/// Times the pure functions a state transfer goes through, on the tree
/// `ui_spec` builds and the change `leaf`/`payload` makes to it.
///
/// # Errors
///
/// A malformed spec or leaf path.
pub fn probe_state_path(
    ui_spec: &str,
    root: &str,
    leaf: &str,
    payload: &Payload,
    calls: usize,
) -> Result<Probes, Failure> {
    use std::hint::black_box;
    let mut client_tree = spec::build_tree(ui_spec).map_err(other)?;
    let root_path = ObjectPath::parse(root).map_err(other)?;
    let root_id = client_tree.resolve_required(&root_path).map_err(other)?;
    let base: StateNode = client_tree.snapshot(root_id, true).map_err(other)?;
    let full: StateNode = client_tree.snapshot(root_id, false).map_err(other)?;
    let uikit_snapshot_us = median_us(calls, || {
        black_box(client_tree.snapshot(root_id, true).ok());
    });
    let leaf_id =
        client_tree.resolve_required(&ObjectPath::parse(leaf).map_err(other)?).map_err(other)?;
    let (name, value) = attr_of(payload);
    client_tree.set_attr(leaf_id, name, value).map_err(other)?;
    let next: StateNode = client_tree.snapshot(root_id, true).map_err(other)?;

    let encoded = codec::encode_state_shared(&next);
    let change = delta::diff(&base, &next);
    let object = GlobalObjectId::new(InstanceId(1), root_path.clone());
    let frame_len = |m: &Message| codec::frame_message(m).len() as f64;
    let delta_frame = frame_len(&Message::ApplyDelta {
        req_id: 1,
        path: root_path.clone(),
        base_version: delta::state_version(&base),
        new_version: delta::state_version(&next),
        delta: change.clone(),
        mode: CopyMode::Strict,
    });
    let state_frame = frame_len(&Message::ApplyState {
        req_id: 1,
        path: root_path,
        snapshot: next.clone(),
        mode: CopyMode::Strict,
    });

    // The history probe alternates record and undo on a chain that is
    // never empty, as the server's is in the steady state.
    let mut history = HistoryStore::new();
    for _ in 0..8 {
        history.record_overwrite(object.clone(), full.clone());
    }
    let mut record_ns = Vec::with_capacity(calls);
    let mut undo_ns = Vec::with_capacity(calls);
    for i in 0..calls {
        let overwritten = if i % 2 == 0 { next.clone() } else { full.clone() };
        let t = Instant::now();
        history.record_overwrite(object.clone(), overwritten);
        record_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        black_box(history.pop_undo(&object));
        undo_ns.push(t.elapsed().as_nanos() as f64);
    }
    record_ns.sort_by(f64::total_cmp);
    undo_ns.sort_by(f64::total_cmp);

    Ok(Probes {
        wire_state_encode_us: median_us(calls, || {
            black_box(codec::encode_state_shared(black_box(&next)));
        }),
        wire_state_decode_us: median_us(calls, || {
            black_box(codec::get_state(&mut encoded.clone()).ok());
        }),
        wire_delta_diff_us: median_us(calls, || {
            black_box(delta::diff(black_box(&base), black_box(&next)));
        }),
        wire_delta_apply_us: median_us(calls, || {
            black_box(delta::apply(black_box(&base), black_box(&change)).ok());
        }),
        wire_delta_version_us: median_us(calls, || {
            black_box(delta::state_version(black_box(&next)));
        }),
        wire_delta_bytes_ratio: delta_frame / state_frame,
        server_history_record_us: crate::stats::nearest_rank(&record_ns, 50.0) / 1000.0,
        server_history_undo_us: crate::stats::nearest_rank(&undo_ns, 50.0) / 1000.0,
        uikit_snapshot_us,
        snapshot_bytes: encoded.len() as f64,
        nodes: next.node_count() as f64,
    })
}
