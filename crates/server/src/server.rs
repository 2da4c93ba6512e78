//! The COSOFT central server (§2.2, Figure 4).
//!
//! `ServerCore` is written sans-I/O: [`ServerCore::handle`] maps one
//! incoming message to the set of outgoing messages, keyed by a generic
//! endpoint type `E` (a simulated node id or a TCP connection id). The
//! same core therefore drives both the deterministic simulation and the
//! real TCP transport.
//!
//! The server owns the centralized database of §2.2: registration records
//! ([`crate::Registry`]), access permissions ([`crate::AccessTable`]),
//! historical UI states ([`crate::HistoryStore`]) and the lock table
//! ([`crate::LockTable`]), plus the couple directory implementing the
//! couple relation and its transitive closure.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use bytes::Bytes;
use cosoft_wire::{
    codec, delta, AccessRight, CopyMode, EncodedState, GlobalObjectId, InstanceId, Message,
    ObjectPath, Overwritten, SharedFrame, StateDelta, StateNode, Target, UserId,
};

use crate::access::AccessTable;
use crate::couple::CoupleDirectory;
use crate::history::{HistoryStack, HistoryStore};
use crate::locks::LockTable;
use crate::overload::{Admission, MessageClass, OverloadConfig, Verdict};
use crate::registry::Registry;

/// What a state transfer is doing, which decides how its completion is
/// recorded in the history store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransferKind {
    /// A CopyFrom / CopyTo / RemoteCopy.
    Copy,
    /// An undo restoring a historical state.
    Undo,
    /// A redo re-applying an undone state.
    Redo,
}

/// One per-target leg of a state transfer. A copy onto a *coupled*
/// destination fans out to every member of its group (the group must stay
/// consistent), so a logical transfer owns several legs.
#[derive(Debug, Clone)]
struct Transfer {
    dst: GlobalObjectId,
    kind: TransferKind,
    group: u64,
    /// The state this leg is installing at its destination, kept until
    /// the destination acknowledges: a success installs it as the
    /// destination's sync base for future delta diffs; a failed
    /// delta-encoded leg resends its encoding as a full `ApplyState`.
    sync: Option<AppliedSync>,
}

/// A state that crossed (or is being sent down) an object's connection,
/// in the three forms the server uses it in. All three are shared: across
/// the legs of one fan-out, with the sync bases they become — the
/// pushing source's and each acknowledging destination's — and, the
/// encoding, with the history entries filed from it.
#[derive(Debug, Clone)]
struct SyncBase {
    /// Content version of the state ([`delta::state_version`]).
    version: u64,
    /// The tree, which the next transfer is diffed against and the next
    /// `CopyDelta` edits a clone of.
    state: Arc<StateNode>,
    /// The canonical encoding `version` is the fingerprint of: what a
    /// full `ApplyState` leg splices in, and what the history files when
    /// a destination acknowledges by reference that it overwrote this.
    encoded: EncodedState,
}

impl SyncBase {
    /// Encodes `state`, once, and fingerprints that encoding.
    fn of(state: StateNode) -> SyncBase {
        let encoded = EncodedState::of(&state);
        SyncBase {
            version: delta::version_of_encoded(encoded.as_slice()),
            state: Arc::new(state),
            encoded,
        }
    }
}

/// Bookkeeping for the snapshot a transfer leg carries (see
/// [`Transfer::sync`]).
#[derive(Debug, Clone)]
struct AppliedSync {
    /// The carried state: the destination's sync base once it
    /// acknowledges, and the payload of the full-snapshot fallback.
    carried: SyncBase,
    /// Reconciliation mode of the original leg, reused by the fallback.
    mode: CopyMode,
    /// For a leg that went out as an `ApplyDelta` (and may therefore fall
    /// back), the encoding of the base it was diffed against — what an
    /// [`Overwritten::Base`] acknowledgement refers to. `None` for a full
    /// `ApplyState` leg.
    diffed_against: Option<EncodedState>,
}

/// The logical transfer a requester is waiting on.
#[derive(Debug, Clone)]
struct TransferGroup {
    requester: InstanceId,
    client_req: u64,
    outstanding: usize,
    failed: Option<String>,
}

#[derive(Debug, Clone)]
struct ExecState {
    /// The object each instance actually executed on: the member base
    /// joined with the event's path relative to the origin's base. These
    /// are the paths clients disabled, so `GroupUnlocked` must list them.
    targets: Vec<GlobalObjectId>,
    /// Outstanding `ExecuteDone` replies per instance.
    owed: HashMap<InstanceId, usize>,
}

/// A pull-mode transfer waiting for the source's `StateReply`. Records
/// *both* ends: the destination (so destination death fails the leg) and
/// the source (so a source dying before it replies fails the leg too,
/// instead of leaving the transfer group outstanding forever).
#[derive(Debug, Clone)]
struct PendingPull {
    /// The object asked for: only its instance may answer, and the state
    /// it answers with becomes the object's sync base.
    src: GlobalObjectId,
    dst: GlobalObjectId,
    mode: CopyMode,
    group: u64,
}

/// One delivery item produced by the server's outgoing path.
///
/// Unicast replies carry an owned [`Message`], encoded by whichever
/// transport actually sends it. Broadcast fan-out instead carries one
/// pre-encoded [`SharedFrame`] next to the full list of destination
/// endpoints: the frame body is encoded exactly once and the cheaply
/// clonable frame is delivered everywhere (§3.2's multiple execution
/// makes broadcast the server's hottest path).
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery<E> {
    /// A message for exactly one endpoint, not yet encoded.
    Unicast(E, Message),
    /// One shared pre-encoded frame for every listed endpoint.
    Shared(Vec<E>, SharedFrame),
}

/// Outgoing deliveries produced by one [`ServerCore::handle`] call.
///
/// Transport-facing consumers either walk [`Outgoing::items`] (or
/// [`Outgoing::into_frames`]) to deliver shared frames without
/// re-encoding, or flatten via [`Outgoing::into_messages`] when
/// per-endpoint owned messages are more convenient (tests, the
/// deterministic simulation's message-level introspection).
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing<E> {
    items: Vec<Delivery<E>>,
}

impl<E> Default for Outgoing<E> {
    fn default() -> Self {
        Outgoing { items: Vec::new() }
    }
}

impl<E> Outgoing<E> {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an owned message for one endpoint.
    pub fn push_unicast(&mut self, endpoint: E, msg: Message) {
        self.items.push(Delivery::Unicast(endpoint, msg));
    }

    /// Queues one pre-encoded frame for every endpoint in `endpoints`.
    /// An empty endpoint list is dropped — there is nothing to deliver.
    pub fn push_shared(&mut self, endpoints: Vec<E>, frame: SharedFrame) {
        if !endpoints.is_empty() {
            self.items.push(Delivery::Shared(endpoints, frame));
        }
    }

    /// The queued delivery items, in production order.
    pub fn items(&self) -> &[Delivery<E>] {
        &self.items
    }

    /// Consumes the batch into its delivery items.
    pub fn into_items(self) -> Vec<Delivery<E>> {
        self.items
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of per-endpoint messages this batch delivers (a shared
    /// frame counts once per destination endpoint).
    pub fn message_count(&self) -> usize {
        self.items
            .iter()
            .map(|d| match d {
                Delivery::Unicast(..) => 1,
                Delivery::Shared(endpoints, _) => endpoints.len(),
            })
            .sum()
    }

    /// Appends every item of `other`, preserving order.
    pub fn extend(&mut self, other: Outgoing<E>) {
        self.items.extend(other.items);
    }

    /// Flattens into per-endpoint owned messages. A shared frame is
    /// decoded once and the message cloned per endpoint — the
    /// compatibility path for consumers that want `(endpoint, Message)`
    /// pairs; the TCP hot path uses [`Outgoing::into_frames`] instead.
    pub fn into_messages(self) -> Vec<(E, Message)> {
        let mut flat = Vec::with_capacity(self.items.len());
        for item in self.items {
            match item {
                Delivery::Unicast(e, m) => flat.push((e, m)),
                Delivery::Shared(endpoints, frame) => {
                    // audit: infallible — frames here are built by frame_message_shared from valid messages
                    let msg = frame.decode().expect("server-encoded frame decodes");
                    let mut endpoints = endpoints.into_iter();
                    if let Some(last) = endpoints.next_back() {
                        for e in endpoints {
                            flat.push((e, msg.clone()));
                        }
                        flat.push((last, msg));
                    }
                }
            }
        }
        flat
    }

    /// Flattens into per-endpoint pre-encoded frames: unicast messages
    /// are framed here (exactly once each), shared frames are cheaply
    /// cloned per destination. The result is ready for a transport
    /// `send_batch`.
    pub fn into_frames(self) -> Vec<(E, SharedFrame)> {
        let mut flat = Vec::with_capacity(self.items.len());
        for item in self.items {
            match item {
                Delivery::Unicast(e, m) => flat.push((e, codec::frame_message_shared(&m))),
                Delivery::Shared(endpoints, frame) => {
                    for e in endpoints {
                        flat.push((e, frame.clone()));
                    }
                }
            }
        }
        flat
    }
}

/// Client-liveness policy: how long a silently dropped connection keeps
/// its instance resumable, and when a silent-but-connected instance is
/// presumed dead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LivenessConfig {
    /// How long (virtual µs) a disconnected instance stays quarantined —
    /// registered, coupled, resumable via its token — before the regular
    /// §3.2 auto-decoupling deregistration runs. `0` disables quarantine:
    /// a disconnect deregisters immediately (the pre-liveness behavior).
    pub grace_us: u64,
    /// Quarantine an instance whose connection has produced no traffic
    /// (not even a [`Message::Ping`]) for this long. `0` disables the
    /// idle check.
    pub idle_timeout_us: u64,
    /// Upper bound on concurrently quarantined instances (and therefore
    /// on live resume tokens held for disconnected peers). When a new
    /// quarantine would exceed it, the entry with the *oldest* deadline
    /// is expired early through the full deregistration path, so a
    /// register/disconnect flood cannot grow the quarantine and token
    /// stores without limit. `0` = unbounded (the pre-cap behavior).
    pub max_quarantined: usize,
}

/// A disconnected instance whose grace period is still running.
#[derive(Debug, Clone, Copy)]
struct Quarantined {
    deadline_us: u64,
}

/// Declares [`ServerStats`] from one field list: the struct, how each
/// field merges across shard cores (`sum`, or `max` for a high-water
/// mark) and the `(name, value)` listing all come from the line that
/// declares the field.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $merge:ident $name:ident: $ty:ty,)*) => {
        /// Snapshot of the server's observability counters: floor control,
        /// locking, broadcast fan-out, and state-transfer liveness.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServerStats {
            $($(#[$doc])* pub $name: $ty,)*
        }

        impl ServerStats {
            /// Merges another core's counters into this snapshot (used by
            /// the shard router to expose one aggregate [`ServerStats`]):
            /// sums everything except high-water marks, which take the
            /// maximum.
            pub fn merge(&mut self, other: &ServerStats) {
                $(server_stats!(@$merge self.$name, other.$name);)*
            }

            /// Every field as `(name, value)`, in declaration order.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name as u64)),*]
            }
        }
    };
    (@sum $mine:expr, $theirs:expr) => { $mine += $theirs };
    (@max $mine:expr, $theirs:expr) => { $mine = $mine.max($theirs) };
}

server_stats! {
    /// Events granted by floor control.
    sum events_granted: u64,
    /// Events rejected (permission or lock conflict).
    sum events_rejected: u64,
    /// Rejections caused specifically by a lock conflict.
    sum lock_conflicts: u64,
    /// `PermissionDenied` replies sent.
    sum permission_denials: u64,
    /// Total messages produced for delivery.
    sum messages_out: u64,
    /// Largest fan-out produced by a single incoming message.
    max max_fanout: usize,
    /// State-transfer groups started (copies, undos, redos).
    sum transfers_started: u64,
    /// Transfer groups that completed successfully.
    sum transfers_completed: u64,
    /// Transfer groups that finished with an error (including peers
    /// dying mid-transfer).
    sum transfers_failed: u64,
    /// Currently registered instances (bound + quarantined).
    sum registered_instances: usize,
    /// Transfer groups still in flight.
    sum live_transfer_groups: usize,
    /// Push legs (`ApplyState` awaiting `StateApplied`) still in flight.
    sum live_transfer_legs: usize,
    /// Pull legs (`StateRequest` awaiting `StateReply`) still in flight.
    sum live_pending_pulls: usize,
    /// Multiple-execution groups still awaiting `ExecuteDone`s.
    sum live_execs: usize,
    /// Locks currently held.
    sum held_locks: usize,
    /// `Ping` probes answered.
    sum pings: u64,
    /// Instances placed in quarantine after a disconnect or idle timeout.
    sum quarantines: u64,
    /// Quarantined instances successfully resumed via `Rejoin`.
    sum resumes: u64,
    /// `Rejoin` attempts refused (unknown or expired token).
    sum rejoins_rejected: u64,
    /// Quarantines that expired into a full deregistration.
    sum quarantine_expiries: u64,
    /// Instances currently quarantined.
    sum quarantined_instances: usize,
    /// Messages of a kind the server never accepts from clients
    /// (server-to-client-only kinds arriving inbound); each one is
    /// answered with an [`Message::ErrorReply`] rather than dropped.
    sum unexpected_messages: u64,
    /// Shared frames encoded on the outgoing path — each counts one
    /// encode regardless of how many endpoints it reaches.
    sum shared_frames_encoded: u64,
    /// Per-endpoint deliveries served by shared frames.
    sum shared_deliveries: u64,
    /// Bytes encoded into shared frames (counted once per frame).
    sum shared_bytes_encoded: u64,
    /// Bytes handed to transports via shared frames (counted once per
    /// delivery); the gap to `shared_bytes_encoded` is what encode-once
    /// saved over the old clone-and-re-encode fan-out.
    sum shared_bytes_delivered: u64,
    /// Heavy payloads (event bodies, state snapshots) serialized.
    sum payload_encodes: u64,
    /// Fan-out legs that spliced an already-serialized heavy payload
    /// into their frame instead of re-encoding it.
    sum payload_reuses: u64,
    /// `tick` calls whose `now_us` was earlier than the stored virtual
    /// clock. The clock is clamped (it never rewinds — a rewind would
    /// re-arm quarantine grace periods and idle timeouts), and each
    /// regression is counted here so a misbehaving time source is
    /// observable instead of silent.
    sum clock_regressions: u64,
    /// Control-class messages shed by admission control.
    sum overload_sheds_control: u64,
    /// Bulk-class messages shed by admission control.
    sum overload_sheds_bulk: u64,
    /// [`Message::Busy`] replies sent (at most one per endpoint per
    /// budget window, so this counts advisory notifications, not sheds).
    sum busy_replies: u64,
    /// Endpoints evicted via §3.2 auto-decoupling after sustained
    /// admission-control abuse (strikes exhausted).
    sum overload_evictions: u64,
    /// Quarantine entries expired *early* because
    /// [`LivenessConfig::max_quarantined`] was reached (oldest-deadline
    /// first). Disjoint from `quarantine_expiries`, which counts
    /// on-time expiries.
    sum quarantine_store_evictions: u64,
    /// Endpoints currently holding an admission budget window (gauge,
    /// bounded by pruning of idle windows).
    sum overload_tracked_endpoints: usize,
    /// Objects whose history stacks were purged on the teardown path
    /// (instance deregistration or an `ObjectDestroyed` notification).
    sum history_purges: u64,
    /// Fan-out legs sent as attribute-level `ApplyDelta` (the destination
    /// held a matching sync base) instead of a full `ApplyState`.
    sum delta_legs_sent: u64,
    /// Delta legs the receiver refused (diverged or unknown base) that
    /// were resent as full snapshots.
    sum delta_fallbacks: u64,
    /// Delta legs whose destination acknowledged by reference: what the
    /// apply overwrote was the base the delta was diffed against, so the
    /// reply named it and the history filed the server's own encoding.
    sum acks_by_reference: u64,
    /// Pushes that arrived as a `CopyDelta` and were rebuilt from the
    /// source's sync base.
    sum pushes_by_delta: u64,
    /// `CopyDelta` pushes the server could not rebuild (no base, another
    /// version, edits that do not apply, a result that hashes otherwise)
    /// and pulled from the sender in full instead.
    sum push_fallbacks: u64,
}

/// A routing-relevant lifecycle change, recorded by the core for its
/// router (when enabled via [`ServerCore::enable_route_log`]) so the
/// instance→shard, endpoint→shard, and token→shard maps stay exactly in
/// sync with the registries without the router sniffing outgoing
/// traffic.
///
/// Shard migrations ([`ServerCore::extract_component`] /
/// [`ServerCore::absorb_component`]) deliberately record nothing: the
/// router rebinds routes itself from the migrated slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEvent<E> {
    /// An instance became bound to an endpoint (register or rejoin).
    Bound {
        /// The instance that gained an endpoint.
        instance: InstanceId,
        /// Its endpoint.
        endpoint: E,
    },
    /// An instance lost its endpoint but kept its record (quarantine).
    Unbound {
        /// The instance that lost its endpoint.
        instance: InstanceId,
        /// The endpoint it was bound to.
        endpoint: E,
    },
    /// An instance left the registry entirely.
    Deregistered {
        /// The departed instance.
        instance: InstanceId,
        /// The endpoint it was bound to, if it was not quarantined.
        endpoint: Option<E>,
    },
    /// A resume token was issued (registration or rotation on rejoin).
    TokenIssued {
        /// The token value.
        token: u64,
        /// The instance it resumes.
        instance: InstanceId,
    },
    /// A resume token stopped being honored (rotation or deregistration).
    TokenRetired {
        /// The retired token value.
        token: u64,
    },
}

/// Everything one couple-component owns inside a [`ServerCore`],
/// extracted for migration to another shard: registration records,
/// liveness bookkeeping, couple links, history stacks, access tuples,
/// and the protocol state (executions with their locks, transfer groups
/// with their legs and pulls) that lives entirely inside the component.
///
/// Produced by [`ServerCore::extract_component`] and consumed by
/// [`ServerCore::absorb_component`]; opaque to everything in between.
#[derive(Debug, Clone)]
pub struct ComponentSlice<E> {
    records: Vec<(cosoft_wire::InstanceInfo, Option<E>)>,
    last_seen: Vec<(InstanceId, u64)>,
    quarantined: Vec<(InstanceId, u64)>,
    tokens: Vec<(u64, InstanceId)>,
    links: Vec<(GlobalObjectId, GlobalObjectId)>,
    history: Vec<(GlobalObjectId, HistoryStack, HistoryStack)>,
    /// Sync bases (version, tree and encoding of the last state that
    /// crossed each object's connection): delta legs, delta pushes and
    /// by-reference acknowledgements keep working across a shard
    /// migration because all three travel in the slice.
    sync_bases: Vec<(GlobalObjectId, SyncBase)>,
    access: Vec<(UserId, GlobalObjectId, AccessRight)>,
    execs: Vec<(u64, ExecState, Vec<GlobalObjectId>)>,
    transfer_groups: Vec<(u64, TransferGroup)>,
    transfers: Vec<(u64, Transfer)>,
    pulls: Vec<(u64, PendingPull)>,
}

impl<E: Copy> ComponentSlice<E> {
    /// The migrated instances, in extraction order.
    pub fn instances(&self) -> Vec<InstanceId> {
        self.records.iter().map(|(info, _)| info.instance).collect()
    }

    /// The migrated instances that are bound to an endpoint, with their
    /// endpoints (quarantined members migrate without one).
    pub fn bound_endpoints(&self) -> Vec<(InstanceId, E)> {
        self.records.iter().filter_map(|(info, e)| e.map(|e| (info.instance, e))).collect()
    }

    /// The resume tokens travelling with the slice (quarantined members
    /// keep their credential across the migration).
    pub fn resume_tokens(&self) -> Vec<u64> {
        self.tokens.iter().map(|(t, _)| *t).collect()
    }

    /// Whether the slice carries no instances at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of migrated instances.
    pub fn len(&self) -> usize {
        self.records.len()
    }
}

/// The sans-I/O COSOFT server state machine.
///
/// `Clone` produces an independent snapshot of the entire database —
/// the schedule-exploring model checker (`crates/server/tests/lock_model.rs`)
/// forks the server state at every branching point of its search.
#[derive(Debug, Clone)]
pub struct ServerCore<E> {
    registry: Registry<E>,
    access: AccessTable,
    locks: LockTable,
    couples: CoupleDirectory,
    history: HistoryStore,
    /// Per object: the last state that crossed its connection, in either
    /// direction — acknowledged as applied there, pushed from there, or
    /// given in answer to a `StateRequest` — which its session holds too.
    /// `ApplyDelta` legs to the object are diffed against it and
    /// `CopyDelta` pushes of the object replayed on it.
    sync_bases: HashMap<GlobalObjectId, SyncBase>,
    next_exec: u64,
    next_transfer: u64,
    execs: HashMap<u64, ExecState>,
    transfers: HashMap<u64, Transfer>,
    transfer_groups: HashMap<u64, TransferGroup>,
    next_transfer_group: u64,
    /// Pull-mode transfers awaiting a `StateReply`.
    pending_pulls: HashMap<u64, PendingPull>,
    /// The monotone counters, bumped in place; the gauges stay zero here
    /// and are read off the tables by [`ServerCore::stats`].
    stats: ServerStats,
    /// Liveness policy (grace period, idle timeout).
    liveness: LivenessConfig,
    /// Virtual clock, advanced by [`ServerCore::tick`].
    now_us: u64,
    /// Disconnected instances whose grace period is still running.
    quarantined: HashMap<InstanceId, Quarantined>,
    /// Resume token → instance (issued at registration, rotated on rejoin).
    tokens: HashMap<u64, InstanceId>,
    /// Instance → its current resume token.
    token_of: HashMap<InstanceId, u64>,
    /// Counter feeding deterministic token generation.
    next_token_seq: u64,
    /// Last time (virtual µs) each bound instance produced any traffic.
    last_seen: HashMap<InstanceId, u64>,
    /// Admission-control state (token-bucket budgets per endpoint).
    admission: Admission<E>,
    /// Increment applied to every id counter (exec, transfer, transfer
    /// group, token seq). Shard `i` of `n` starts its counters at `i + 1`
    /// with stride `n`, so ids minted by different shards never collide.
    id_stride: u64,
    /// Routing-relevant lifecycle changes since the last
    /// [`ServerCore::take_route_events`], recorded only when enabled.
    route_log: Vec<RouteEvent<E>>,
    /// Whether lifecycle changes are recorded (routers only; leaving it
    /// off keeps standalone cores from accumulating an undrained log).
    route_log_enabled: bool,
}

impl<E: Copy + Eq + Hash> Default for ServerCore<E> {
    fn default() -> Self {
        ServerCore::new()
    }
}

impl<E: Copy + Eq + Hash> ServerCore<E> {
    /// Creates a server with the permissive default access policy.
    pub fn new() -> Self {
        ServerCore {
            registry: Registry::new(),
            access: AccessTable::new(),
            locks: LockTable::new(),
            couples: CoupleDirectory::new(),
            history: HistoryStore::new(),
            sync_bases: HashMap::new(),
            next_exec: 1,
            next_transfer: 1,
            execs: HashMap::new(),
            transfers: HashMap::new(),
            transfer_groups: HashMap::new(),
            next_transfer_group: 1,
            pending_pulls: HashMap::new(),
            stats: ServerStats::default(),
            liveness: LivenessConfig::default(),
            now_us: 0,
            quarantined: HashMap::new(),
            tokens: HashMap::new(),
            token_of: HashMap::new(),
            next_token_seq: 1,
            last_seen: HashMap::new(),
            admission: Admission::new(OverloadConfig::default()),
            id_stride: 1,
            route_log: Vec::new(),
            route_log_enabled: false,
        }
    }

    /// Creates shard `index` of `stride` shards: every id this core mints
    /// (instance, exec, transfer, transfer group, resume-token sequence)
    /// stays in the residue class `index + 1` modulo `stride`, so ids
    /// from different shards never collide and a migrated component's
    /// ids can be adopted verbatim. The resume tokens themselves stay
    /// globally unique because SplitMix64 is a bijection on `u64`.
    pub fn with_shard_ids(index: u64, stride: u64) -> Self {
        let stride = stride.max(1);
        let first = index.min(stride - 1) + 1;
        let mut s = Self::new();
        s.registry = Registry::with_id_stride(first, stride);
        s.next_exec = first;
        s.next_transfer = first;
        s.next_transfer_group = first;
        s.next_token_seq = first;
        s.id_stride = stride;
        s
    }

    /// Creates a server with an explicit default access right.
    pub fn with_default_right(right: AccessRight) -> Self {
        let mut s = Self::new();
        s.access = AccessTable::with_default(right);
        s
    }

    /// Creates a server with an explicit liveness policy.
    pub fn with_liveness(liveness: LivenessConfig) -> Self {
        let mut s = Self::new();
        s.liveness = liveness;
        s
    }

    /// Replaces the liveness policy.
    pub fn set_liveness(&mut self, liveness: LivenessConfig) {
        self.liveness = liveness;
    }

    /// The active liveness policy.
    pub fn liveness(&self) -> LivenessConfig {
        self.liveness
    }

    /// Creates a server with an explicit overload-control policy.
    pub fn with_overload(overload: OverloadConfig) -> Self {
        let mut s = Self::new();
        s.set_overload(overload);
        s
    }

    /// Replaces the overload-control policy. Budget windows restart:
    /// existing strikes and partially-spent budgets are discarded.
    pub fn set_overload(&mut self, overload: OverloadConfig) {
        self.admission.set_config(overload);
    }

    /// The active overload-control policy.
    pub fn overload(&self) -> OverloadConfig {
        self.admission.config()
    }

    /// The registration records.
    pub fn registry(&self) -> &Registry<E> {
        &self.registry
    }

    /// The couple directory.
    pub fn couples(&self) -> &CoupleDirectory {
        &self.couples
    }

    /// The lock table.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// The historical-UI-state store.
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// Events rejected by floor control so far.
    pub fn rejected_events(&self) -> u64 {
        self.stats.events_rejected
    }

    /// Events granted by floor control so far.
    pub fn granted_events(&self) -> u64 {
        self.stats.events_granted
    }

    /// Snapshot of the server's observability counters: the counters
    /// as bumped, plus the gauges read off the tables.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            registered_instances: self.registry.len(),
            live_transfer_groups: self.transfer_groups.len(),
            live_transfer_legs: self.transfers.len(),
            live_pending_pulls: self.pending_pulls.len(),
            live_execs: self.execs.len(),
            held_locks: self.locks.len(),
            quarantined_instances: self.quarantined.len(),
            overload_tracked_endpoints: self.admission.tracked_endpoints(),
            ..self.stats
        }
    }

    /// Turns on the route log: lifecycle changes ([`RouteEvent`]) are
    /// recorded for the owning router to drain via
    /// [`ServerCore::take_route_events`].
    pub fn enable_route_log(&mut self) {
        self.route_log_enabled = true;
    }

    /// Drains the recorded routing-relevant lifecycle changes, in order.
    pub fn take_route_events(&mut self) -> Vec<RouteEvent<E>> {
        std::mem::take(&mut self.route_log)
    }

    #[inline]
    fn route_event(&mut self, event: RouteEvent<E>) {
        if self.route_log_enabled {
            self.route_log.push(event);
        }
    }

    /// Refreshes the liveness timestamp of the instance bound to
    /// `endpoint`, as if it had produced traffic. Routers call this when
    /// they answer a message on the core's behalf (merged instance
    /// queries, cross-shard command delivery), so the sender is not
    /// idle-quarantined despite being active.
    pub fn touch(&mut self, endpoint: E) {
        if let Some(id) = self.registry.instance_at(endpoint) {
            self.last_seen.insert(id, self.now_us);
        }
    }

    /// Whether this core issued (and still honors) `token` as a resume
    /// credential.
    pub fn owns_resume_token(&self, token: u64) -> bool {
        self.tokens.contains_key(&token)
    }

    /// Number of live resume tokens (router invariant checks).
    pub fn token_count(&self) -> usize {
        self.tokens.len()
    }

    /// The couple-component of `id` at instance granularity — the shard
    /// key. Empty when `id` is not registered here; always includes `id`
    /// itself otherwise (an uncoupled instance is a singleton component).
    pub fn component_of(&self, id: InstanceId) -> Vec<InstanceId> {
        if !self.registry.contains(id) {
            return Vec::new();
        }
        let mut members = self.couples.instance_component(id);
        // The BFS only sees instances with coupled objects; keep the
        // component closed over membership regardless.
        members.retain(|m| self.registry.contains(*m));
        if !members.contains(&id) {
            members.push(id);
            members.sort();
        }
        members
    }

    /// The server-wide invariant pack (§2.2/§3.2), promoted from the lock
    /// table's index check into a whole-database consistency audit. The
    /// schedule-exploring checker (`crates/server/tests/lock_model.rs`)
    /// runs it after every step of every explored interleaving; production
    /// message paths run it under `debug_assertions`.
    ///
    /// Checked invariants:
    ///
    /// * registry endpoint index ↔ instance records agree, ids never
    ///   reused ([`Registry::check_invariants`]);
    /// * lock-table holder map ↔ reverse index agree
    ///   ([`LockTable::check_invariants`]);
    /// * couple links ↔ adjacency agree
    ///   ([`CoupleDirectory::check_invariants`]);
    /// * no lost or leaked locks: every held lock belongs to a live
    ///   multiple-execution round, and every live round still holds at
    ///   least one lock (its group cannot have been unlocked twice);
    /// * no deadlock: locks are acquired atomically per group
    ///   ([`LockTable::try_lock_group`]), so the wait-for graph has no
    ///   edges between execs; what must hold instead is that every
    ///   instance a live round is waiting on (`ExecuteDone` owed) is a
    ///   bound, reachable instance — a round waiting on a dead or
    ///   quarantined connection would hold its group's locks forever;
    /// * transfer-liveness accounting: each transfer group's
    ///   `outstanding` equals its live push legs plus pull legs, and no
    ///   leg or pull references a dropped group (a late reply would
    ///   otherwise resurrect state for a dead requester);
    /// * liveness bookkeeping: quarantined instances are registered but
    ///   unbound, resume tokens form a bijection with their instances,
    ///   and traffic timestamps only exist for registered instances.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.registry.check_invariants()?;
        self.locks.check_invariants()?;
        self.couples.check_invariants()?;
        // Lock ↔ exec liveness, both directions.
        let mut holders: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (object, exec) in self.locks.held_locks() {
            if !self.execs.contains_key(&exec) {
                return Err(format!("lock on {object} held by finished exec {exec}"));
            }
            holders.insert(exec);
        }
        for (exec_id, exec) in &self.execs {
            if !holders.contains(exec_id) {
                return Err(format!("live exec {exec_id} holds no locks (doubled unlock?)"));
            }
            for (inst, owed) in &exec.owed {
                if *owed > 0 && !self.registry.is_bound(*inst) {
                    return Err(format!(
                        "exec {exec_id} waits on {owed} done(s) from unreachable instance {inst}"
                    ));
                }
            }
        }
        // Transfer accounting: outstanding == live legs + live pulls.
        let mut per_group: HashMap<u64, usize> = HashMap::new();
        for (req_id, t) in &self.transfers {
            if !self.transfer_groups.contains_key(&t.group) {
                return Err(format!("push leg {req_id} references dropped group {}", t.group));
            }
            *per_group.entry(t.group).or_insert(0) += 1;
        }
        for (req_id, p) in &self.pending_pulls {
            if !self.transfer_groups.contains_key(&p.group) {
                return Err(format!("pull leg {req_id} references dropped group {}", p.group));
            }
            *per_group.entry(p.group).or_insert(0) += 1;
        }
        for (group_id, g) in &self.transfer_groups {
            let live = per_group.get(group_id).copied().unwrap_or(0);
            if g.outstanding != live {
                return Err(format!(
                    "group {group_id} outstanding={} but {live} live leg(s)",
                    g.outstanding
                ));
            }
            if !self.registry.contains(g.requester) {
                return Err(format!(
                    "group {group_id} awaited by unregistered instance {}",
                    g.requester
                ));
            }
        }
        // Liveness bookkeeping.
        for id in self.quarantined.keys() {
            if !self.registry.contains(*id) {
                return Err(format!("quarantined instance {id} is not registered"));
            }
            if self.registry.is_bound(*id) {
                return Err(format!("quarantined instance {id} is still bound to an endpoint"));
            }
        }
        for (token, id) in &self.tokens {
            if self.token_of.get(id) != Some(token) {
                return Err(format!("resume token of {id} diverged between the two maps"));
            }
        }
        for (id, token) in &self.token_of {
            if self.tokens.get(token) != Some(id) {
                return Err(format!("resume token of {id} missing from the token index"));
            }
        }
        for id in self.last_seen.keys() {
            if !self.registry.contains(*id) {
                return Err(format!("traffic timestamp retained for unregistered instance {id}"));
            }
        }
        // Delta sync bases must be purged with their instance, or the
        // cache grows without bound under register/leave churn.
        for (object, base) in &self.sync_bases {
            if !self.registry.contains(object.instance) {
                return Err(format!("sync base retained for unregistered object {object}"));
            }
            // What a by-reference acknowledgement files must be the state
            // the destination compared its record against.
            if delta::version_of_encoded(base.encoded.as_slice()) != base.version {
                return Err(format!("sync base of {object} does not hash to its version"));
            }
        }
        Ok(())
    }

    /// Runs [`ServerCore::check_invariants`] in debug builds, panicking on
    /// violation; compiled out of release builds.
    #[inline]
    fn debug_check_invariants(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_invariants() {
            // audit: infallible — deliberate debug-build assert, compiled out of release binaries
            panic!("server invariant violated: {e}");
        }
    }

    /// Accounts one incoming message's outgoing batch.
    fn note_outgoing(&mut self, out: &Outgoing<E>) {
        let n = out.message_count();
        self.stats.messages_out += n as u64;
        self.stats.max_fanout = self.stats.max_fanout.max(n);
        for item in out.items() {
            match item {
                Delivery::Unicast(_, m) => {
                    if matches!(m, Message::PermissionDenied { .. }) {
                        self.stats.permission_denials += 1;
                    }
                }
                Delivery::Shared(endpoints, frame) => {
                    self.stats.shared_frames_encoded += 1;
                    self.stats.shared_deliveries += endpoints.len() as u64;
                    self.stats.shared_bytes_encoded += frame.len() as u64;
                    self.stats.shared_bytes_delivered += (frame.len() * endpoints.len()) as u64;
                }
            }
        }
    }

    /// Effective right of `user` on `object`: the object's owner always
    /// has write access; otherwise the permission table decides.
    fn right_of(&self, user: UserId, object: &GlobalObjectId) -> AccessRight {
        if self.registry.user_of(object.instance) == Some(user) {
            return AccessRight::Write;
        }
        self.access.right_of(user, object)
    }

    fn to_instance(&self, id: InstanceId, msg: Message, out: &mut Outgoing<E>) {
        if let Some(e) = self.registry.endpoint_of(id) {
            out.push_unicast(e, msg);
        }
    }

    /// Delivers one identical message to a set of instances. With more
    /// than one reachable endpoint the message is encoded exactly once
    /// into a [`SharedFrame`] fanned out to all of them; with a single
    /// receiver it stays an owned unicast message (pre-framing for one
    /// destination buys nothing).
    fn to_group(&self, instances: &[InstanceId], msg: Message, out: &mut Outgoing<E>) {
        let mut endpoints: Vec<E> =
            instances.iter().filter_map(|id| self.registry.endpoint_of(*id)).collect();
        if endpoints.len() > 1 {
            out.push_shared(endpoints, codec::frame_message_shared(&msg));
        } else if let Some(endpoint) = endpoints.pop() {
            out.push_unicast(endpoint, msg);
        }
    }

    /// Handles a transport-level disconnect of `endpoint`.
    ///
    /// With the default zero grace period this behaves exactly like a
    /// graceful `Deregister` (§3.2: decoupling "is applied automatically
    /// when ... an application instance terminates"). With a non-zero
    /// grace period the instance is quarantined instead: its execution
    /// and transfer participation is severed immediately (peers must not
    /// block on a dead connection) but its registration record, couples,
    /// and access rights survive until the grace expires, so a `Rejoin`
    /// carrying its resume token can reclaim them.
    pub fn disconnect(&mut self, endpoint: E) -> Outgoing<E> {
        let out = match self.registry.instance_at(endpoint) {
            Some(id) if self.liveness.grace_us > 0 => self.quarantine_instance(id),
            Some(id) => self.deregister_instance(id),
            None => Outgoing::new(),
        };
        self.note_outgoing(&out);
        self.debug_check_invariants();
        out
    }

    /// Advances the server's virtual clock, expiring quarantines whose
    /// grace period has run out (each runs the regular deregistration
    /// path, fanning out `CoupleUpdate`s) and quarantining bound
    /// instances that have been silent past the idle timeout.
    ///
    /// Transports call this periodically; the deterministic simulation
    /// calls it with the virtual clock.
    pub fn tick(&mut self, now_us: u64) -> Outgoing<E> {
        if now_us < self.now_us {
            // Clamp: a rewinding clock (NTP step, suspend/resume, a
            // misbehaving caller) must not re-arm grace periods that
            // already ran down. Count it so the regression is visible.
            self.stats.clock_regressions += 1;
        } else {
            self.now_us = now_us;
        }
        let mut out = Outgoing::new();
        let mut expired: Vec<InstanceId> = self
            .quarantined
            .iter()
            .filter(|(_, q)| q.deadline_us <= self.now_us)
            .map(|(id, _)| *id)
            .collect();
        expired.sort();
        for id in expired {
            self.quarantined.remove(&id);
            self.stats.quarantine_expiries += 1;
            let dereg = self.deregister_instance(id);
            out.extend(dereg);
        }
        if self.liveness.idle_timeout_us > 0 && self.liveness.grace_us > 0 {
            let mut idle: Vec<InstanceId> = self
                .last_seen
                .iter()
                .filter(|(id, seen)| {
                    self.registry.is_bound(**id)
                        && seen.saturating_add(self.liveness.idle_timeout_us) <= self.now_us
                })
                .map(|(id, _)| *id)
                .collect();
            idle.sort();
            for id in idle {
                let q = self.quarantine_instance(id);
                out.extend(q);
            }
        }
        self.admission.prune(self.now_us);
        self.note_outgoing(&out);
        self.debug_check_invariants();
        out
    }

    /// Deterministic resume-token generation (SplitMix64 over a counter):
    /// unique per issuance, reproducible in the simulation.
    fn mint_token(&mut self, id: InstanceId) -> u64 {
        let token = loop {
            let mut z = self.next_token_seq.wrapping_add(0x9e37_79b9_7f4a_7c15);
            self.next_token_seq += self.id_stride;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if !self.tokens.contains_key(&z) {
                break z;
            }
        };
        if let Some(old) = self.token_of.insert(id, token) {
            self.tokens.remove(&old);
            self.route_event(RouteEvent::TokenRetired { token: old });
        }
        self.tokens.insert(token, id);
        self.route_event(RouteEvent::TokenIssued { token, instance: id });
        token
    }

    /// Handles a pre-registration `Rejoin`: a returning connection
    /// presenting the resume token of a quarantined instance reclaims
    /// that instance — id, couples, access rights — on its new endpoint.
    fn do_rejoin(&mut self, endpoint: E, resume_token: u64) -> Outgoing<E> {
        let resumable = self
            .tokens
            .get(&resume_token)
            .copied()
            .filter(|id| self.quarantined.contains_key(id))
            .filter(|_| self.registry.instance_at(endpoint).is_none());
        let mut out = Outgoing::new();
        let Some(id) = resumable else {
            self.stats.rejoins_rejected += 1;
            out.push_unicast(
                endpoint,
                Message::ErrorReply {
                    context: "rejoin".to_owned(),
                    reason: "unknown or expired resume token".to_owned(),
                },
            );
            return out;
        };
        self.quarantined.remove(&id);
        self.registry.rebind(id, endpoint);
        self.route_event(RouteEvent::Bound { instance: id, endpoint });
        self.last_seen.insert(id, self.now_us);
        self.stats.resumes += 1;
        // Rotate the token: a resume credential is single-use.
        let fresh = self.mint_token(id);
        out.push_unicast(endpoint, Message::Welcome { instance: id });
        out.push_unicast(endpoint, Message::SessionToken { resume_token: fresh });
        out
    }

    /// Processes one message from `endpoint`, returning the messages to
    /// send in response (to any endpoints).
    pub fn handle(&mut self, endpoint: E, msg: Message) -> Outgoing<E> {
        let out = self.handle_inner(endpoint, msg);
        self.debug_check_invariants();
        out
    }

    /// Runs admission control for one inbound message without processing
    /// it. `None` admits (and charges the message against the endpoint's
    /// budgets); `Some(out)` sheds, where `out` carries at most one
    /// [`Message::Busy`] advisory per endpoint per budget window and, if
    /// sustained abuse crossed the strike threshold, the §3.2
    /// auto-decoupling fan-out of the evicted sender.
    ///
    /// [`ServerCore::handle`] calls this itself; the only external caller
    /// is the shard router, for messages it answers without forwarding to
    /// a core (merged queries, cross-shard reads and command delivery).
    /// Calling it *and* `handle` for the same message double-charges the
    /// budget.
    pub fn admit(&mut self, endpoint: E, msg: &Message) -> Option<Outgoing<E>> {
        let verdict = self.admission.admit(endpoint, msg, self.now_us);
        let Verdict::Shed { class, reply_busy, escalate } = verdict else {
            return None;
        };
        match class {
            MessageClass::Control => self.stats.overload_sheds_control += 1,
            MessageClass::Bulk => self.stats.overload_sheds_bulk += 1,
            // Liveness is never shed.
            MessageClass::Liveness => {}
        }
        let mut out = Outgoing::new();
        if reply_busy {
            self.stats.busy_replies += 1;
            let retry_after_ms = self.admission.config().retry_after_ms;
            out.push_unicast(endpoint, Message::Busy { retry_after_ms });
        }
        if let Some(id) = self.registry.instance_at(endpoint) {
            // A shed message still proves the peer is alive: keep the
            // idle-timeout clock from quarantining a throttled-but-live
            // client.
            self.last_seen.insert(id, self.now_us);
            if escalate {
                self.stats.overload_evictions += 1;
                self.admission.forget(&endpoint);
                let evicted = if self.liveness.grace_us > 0 {
                    self.quarantine_instance(id)
                } else {
                    self.deregister_instance(id)
                };
                out.extend(evicted);
            }
        }
        self.note_outgoing(&out);
        self.debug_check_invariants();
        Some(out)
    }

    fn handle_inner(&mut self, endpoint: E, msg: Message) -> Outgoing<E> {
        // Admission control runs before anything else — including
        // registration, so a pre-registration `Register` flood is shed
        // like any other control traffic.
        if let Some(shed) = self.admit(endpoint, &msg) {
            return shed;
        }
        // Registration and rejoin are the only messages legal before a
        // Welcome.
        if let Message::Register { user, host, app_name } = &msg {
            let id = self.registry.register(endpoint, *user, host, app_name);
            self.route_event(RouteEvent::Bound { instance: id, endpoint });
            self.last_seen.insert(id, self.now_us);
            let mut out = Outgoing::new();
            out.push_unicast(endpoint, Message::Welcome { instance: id });
            if self.liveness.grace_us > 0 {
                let token = self.mint_token(id);
                out.push_unicast(endpoint, Message::SessionToken { resume_token: token });
            }
            self.note_outgoing(&out);
            return out;
        }
        if let Message::Rejoin { resume_token } = &msg {
            let out = self.do_rejoin(endpoint, *resume_token);
            self.note_outgoing(&out);
            return out;
        }
        let Some(from) = self.registry.instance_at(endpoint) else {
            let mut out = Outgoing::new();
            out.push_unicast(
                endpoint,
                Message::ErrorReply {
                    context: msg.kind_name().to_owned(),
                    reason: "endpoint is not registered".to_owned(),
                },
            );
            self.note_outgoing(&out);
            return out;
        };
        self.last_seen.insert(from, self.now_us);
        let out = self.handle_registered(from, msg);
        self.note_outgoing(&out);
        out
    }

    fn handle_registered(&mut self, from: InstanceId, msg: Message) -> Outgoing<E> {
        let mut out = Outgoing::new();
        match msg {
            Message::Register { .. } | Message::Rejoin { .. } => {
                // audit: infallible — handle() dispatches Register/Rejoin before reaching here
                unreachable!("handled in handle()")
            }
            Message::Ping { nonce } => {
                self.stats.pings += 1;
                self.to_instance(from, Message::Pong { nonce }, &mut out);
            }
            // Any traffic counts as liveness; a Pong needs no reply.
            Message::Pong { .. } => {}
            Message::Deregister => {
                out.extend(self.deregister_instance(from));
            }
            Message::QueryInstances => {
                let entries = self.registry.all();
                self.to_instance(from, Message::InstanceList { entries }, &mut out);
            }
            Message::Couple { src, dst } | Message::RemoteCouple { a: src, b: dst } => {
                out.extend(self.do_couple(from, src, dst));
            }
            Message::Decouple { src, dst } | Message::RemoteDecouple { a: src, b: dst } => {
                out.extend(self.do_decouple(from, src, dst));
            }
            Message::ListCoupled { object } => {
                let coupled = self.couples.coupled_with(&object);
                self.to_instance(from, Message::CoupledSet { object, coupled }, &mut out);
            }
            Message::ObjectDestroyed { object } => {
                if object.instance != from {
                    self.to_instance(
                        from,
                        Message::PermissionDenied {
                            what: format!("destroy notification for foreign object {object}"),
                        },
                        &mut out,
                    );
                } else {
                    let survivors = self.couples.remove_object(&object);
                    if self.history.forget(&object) {
                        self.stats.history_purges += 1;
                    }
                    self.sync_bases.remove(&object);
                    // Each survivor (and the destroyer) learns the new
                    // grouping of the remaining objects.
                    for o in &survivors {
                        let group = self.couples.group_of(o);
                        let members = self.couples.instances_in_group(o);
                        self.to_group(&members, Message::CoupleUpdate { group }, &mut out);
                    }
                    self.to_instance(from, Message::CoupleUpdate { group: vec![object] }, &mut out);
                }
            }
            Message::Event { origin, event, seq } => {
                out.extend(self.do_event(from, origin, event, seq));
            }
            Message::ExecuteDone { exec_id } => {
                out.extend(self.do_execute_done(from, exec_id));
            }
            Message::CopyFrom { src, dst, mode, req_id } => {
                out.extend(self.do_copy(from, src, dst, mode, req_id, None));
            }
            Message::RemoteCopy { src, dst, mode, req_id } => {
                out.extend(self.do_copy(from, src, dst, mode, req_id, None));
            }
            Message::CopyTo { src, dst, snapshot, mode, req_id } => {
                let pushed = SyncBase::of(snapshot);
                out.extend(self.do_copy(from, src, dst, mode, req_id, Some(pushed)));
            }
            Message::CopyDelta { src, dst, base_version, new_version, delta, mode, req_id } => {
                if src.instance != from {
                    self.to_instance(
                        from,
                        Message::PermissionDenied {
                            what: format!("push edits of foreign object {src}"),
                        },
                        &mut out,
                    );
                } else {
                    // Whatever the sender's copy of the base and ours
                    // disagree on, ours goes: the push degrades to a pull
                    // of the state in full, whose reply seeds both anew.
                    let pushed = self.rebuild_push(&src, base_version, new_version, &delta);
                    match pushed {
                        Some(_) => self.stats.pushes_by_delta += 1,
                        None => self.stats.push_fallbacks += 1,
                    }
                    out.extend(self.do_copy(from, src, dst, mode, req_id, pushed));
                }
            }
            Message::StateReply { req_id, snapshot } => {
                out.extend(self.do_state_reply(from, req_id, snapshot));
            }
            Message::StateApplied { req_id, overwritten, error } => {
                out.extend(self.do_state_applied(from, req_id, overwritten, error));
            }
            Message::UndoState { object } => {
                out.extend(self.do_undo(from, object, TransferKind::Undo));
            }
            Message::RedoState { object } => {
                out.extend(self.do_undo(from, object, TransferKind::Redo));
            }
            Message::SetPermission { user, object, right } => {
                if object.instance == from {
                    self.access.set(user, object, right);
                } else {
                    self.to_instance(
                        from,
                        Message::PermissionDenied {
                            what: format!("set-permission on {object} (not the owner)"),
                        },
                        &mut out,
                    );
                }
            }
            Message::CoSendCommand { to, command, payload } => {
                out.extend(self.do_command(from, to, command, payload));
            }
            // Server-originated kinds arriving at the server are protocol
            // misuse; answer with an error instead of panicking. The
            // variants are listed exhaustively — no wildcard — so adding a
            // `Message` variant without deciding its dispatch here is a
            // compile error (and a `cosoft-audit` lint failure).
            unexpected @ (Message::Welcome { .. }
            | Message::InstanceList { .. }
            | Message::SessionToken { .. }
            | Message::CoupleUpdate { .. }
            | Message::CoupledSet { .. }
            | Message::EventGranted { .. }
            | Message::EventRejected { .. }
            | Message::ExecuteEvent { .. }
            | Message::GroupUnlocked { .. }
            | Message::StateRequest { .. }
            | Message::ApplyState { .. }
            | Message::ApplyDelta { .. }
            | Message::PermissionDenied { .. }
            | Message::CommandDelivery { .. }
            | Message::ErrorReply { .. }
            | Message::Busy { .. }) => {
                self.stats.unexpected_messages += 1;
                self.to_instance(
                    from,
                    Message::ErrorReply {
                        context: unexpected.kind_name().to_owned(),
                        reason: "message kind is server-to-client only".to_owned(),
                    },
                    &mut out,
                );
            }
        }
        out
    }

    // ---- coupling ---------------------------------------------------------

    fn check_objects_exist(&self, objs: &[&GlobalObjectId]) -> Result<(), String> {
        for o in objs {
            if !self.registry.contains(o.instance) {
                return Err(format!("instance {} is not registered", o.instance));
            }
        }
        Ok(())
    }

    fn do_couple(
        &mut self,
        from: InstanceId,
        src: GlobalObjectId,
        dst: GlobalObjectId,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        if let Err(reason) = self.check_objects_exist(&[&src, &dst]) {
            self.to_instance(
                from,
                Message::ErrorReply { context: "couple".into(), reason },
                &mut out,
            );
            return out;
        }
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
        for o in [&src, &dst] {
            if !self.right_of(user, o).allows_write() {
                self.to_instance(
                    from,
                    Message::PermissionDenied { what: format!("couple {o}") },
                    &mut out,
                );
                return out;
            }
        }
        self.couples.couple(src.clone(), dst);
        // "The coupling information is replicated for each object": every
        // instance owning a group member receives the full closure —
        // encoded once, delivered to all of them.
        let group = self.couples.group_of(&src);
        let members = self.couples.instances_in_group(&src);
        self.to_group(&members, Message::CoupleUpdate { group }, &mut out);
        out
    }

    fn do_decouple(
        &mut self,
        from: InstanceId,
        src: GlobalObjectId,
        dst: GlobalObjectId,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        if !self.couples.decouple(&src, &dst) {
            self.to_instance(
                from,
                Message::ErrorReply {
                    context: "decouple".into(),
                    reason: format!("no couple link between {src} and {dst}"),
                },
                &mut out,
            );
            return out;
        }
        // The removal may have split the group; notify both halves (they
        // may still be one group if a cycle keeps them connected).
        let group_a = self.couples.group_of(&src);
        let group_b = self.couples.group_of(&dst);
        let split = group_b != group_a;
        let members_a = self.couples.instances_in_group(&src);
        self.to_group(&members_a, Message::CoupleUpdate { group: group_a }, &mut out);
        if split {
            let members_b = self.couples.instances_in_group(&dst);
            self.to_group(&members_b, Message::CoupleUpdate { group: group_b }, &mut out);
        }
        out
    }

    // ---- multiple execution (§3.2) ----------------------------------------

    fn do_event(
        &mut self,
        from: InstanceId,
        origin: GlobalObjectId,
        event: cosoft_wire::UiEvent,
        seq: u64,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
        if !self.right_of(user, &origin).allows_write() {
            self.to_instance(from, Message::EventRejected { seq }, &mut out);
            self.stats.events_rejected += 1;
            return out;
        }
        // Events inside a coupled complex object route through the
        // enclosing object's couple links: resolve the coupled base and
        // the event path relative to it.
        let base = self.couples.coupled_base_of(&origin).unwrap_or_else(|| origin.clone());
        let rel = origin.path.strip_prefix(&base.path).unwrap_or_else(ObjectPath::root);
        let group = self.couples.group_of(&base);
        let exec_id = self.next_exec;
        if self.locks.try_lock_group(&group, exec_id).is_err() {
            self.stats.events_rejected += 1;
            self.stats.lock_conflicts += 1;
            self.to_instance(from, Message::EventRejected { seq }, &mut out);
            return out;
        }
        self.next_exec += self.id_stride;
        self.stats.events_granted += 1;

        let mut owed: HashMap<InstanceId, usize> = HashMap::new();
        let mut targets = Vec::with_capacity(group.len());
        // Origin instance owes one done for its own callback execution.
        *owed.entry(from).or_insert(0) += 1;
        targets.push(origin.clone());
        self.to_instance(from, Message::EventGranted { seq, exec_id }, &mut out);
        // The event body — the heavy part of `ExecuteEvent` — is encoded
        // once (lazily, in case every other member is quarantined) and
        // spliced behind each leg's tiny header (exec id + target path).
        let mut event_bytes: Option<Bytes> = None;
        for member in &group {
            if *member == base {
                continue;
            }
            // A quarantined member can neither execute the event nor send
            // `ExecuteDone`; skip it so the group's locks don't hang on a
            // dead connection. It reconverges by state on rejoin.
            let Some(endpoint) = self.registry.endpoint_of(member.instance) else {
                continue;
            };
            *owed.entry(member.instance).or_insert(0) += 1;
            let target = member.path.join(&rel);
            targets.push(GlobalObjectId::new(member.instance, target.clone()));
            let payload = if let Some(b) = &event_bytes {
                self.stats.payload_reuses += 1;
                b.clone()
            } else {
                self.stats.payload_encodes += 1;
                event_bytes.insert(codec::encode_event_shared(&event)).clone()
            };
            out.push_shared(vec![endpoint], codec::frame_execute_event(exec_id, &target, &payload));
        }
        self.execs.insert(exec_id, ExecState { targets, owed });
        out
    }

    fn do_execute_done(&mut self, from: InstanceId, exec_id: u64) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(exec) = self.execs.get_mut(&exec_id) else {
            return out;
        };
        match exec.owed.get_mut(&from) {
            Some(n) if *n > 0 => *n -= 1,
            Some(_) | None => return out, // spurious done; ignore
        }
        if exec.owed.values().all(|&n| n == 0) {
            if let Some(exec) = self.execs.remove(&exec_id) {
                self.finish_exec(exec_id, &exec.targets, &mut out);
            }
        }
        out
    }

    fn finish_exec(&mut self, exec_id: u64, targets: &[GlobalObjectId], out: &mut Outgoing<E>) {
        self.locks.unlock_exec(exec_id);
        // Tell each involved instance which of its local objects to
        // re-enable: the paths the event actually executed on.
        let mut per_instance: HashMap<InstanceId, Vec<ObjectPath>> = HashMap::new();
        for t in targets {
            per_instance.entry(t.instance).or_default().push(t.path.clone());
        }
        for (inst, objects) in per_instance {
            self.to_instance(inst, Message::GroupUnlocked { exec_id, objects }, out);
        }
    }

    // ---- synchronization by state (§3.1) -----------------------------------

    fn do_copy(
        &mut self,
        from: InstanceId,
        src: GlobalObjectId,
        dst: GlobalObjectId,
        mode: CopyMode,
        client_req: u64,
        pushed: Option<SyncBase>,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // What a session pushes of its own object is that object's sync
        // base from here on — at the session since it sent this — whether
        // or not the copy below is allowed: a refused copy must not leave
        // the two ends a version apart.
        if let Some(pushed) = pushed.as_ref().filter(|_| src.instance == from) {
            self.sync_bases.insert(src.clone(), pushed.clone());
        }
        if let Err(reason) = self.check_objects_exist(&[&src, &dst]) {
            self.to_instance(
                from,
                Message::ErrorReply { context: "copy".into(), reason },
                &mut out,
            );
            return out;
        }
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
        if !self.right_of(user, &src).allows_read() {
            self.to_instance(
                from,
                Message::PermissionDenied { what: format!("read state of {src}") },
                &mut out,
            );
            return out;
        }
        if dst.instance != from && !self.right_of(user, &dst).allows_write() {
            self.to_instance(
                from,
                Message::PermissionDenied { what: format!("write state of {dst}") },
                &mut out,
            );
            return out;
        }
        let group_id = self.next_transfer_group;
        self.next_transfer_group += self.id_stride;
        self.stats.transfers_started += 1;
        self.transfer_groups.insert(
            group_id,
            TransferGroup { requester: from, client_req, outstanding: 0, failed: None },
        );
        match pushed {
            // CopyTo / CopyDelta: the sender supplied the state; apply
            // directly.
            Some(pushed) => {
                self.fan_out_apply(group_id, &dst, pushed, mode, TransferKind::Copy, &mut out);
                // All destinations unreachable -> the group failed with
                // zero legs outstanding; report instead of hanging.
                self.maybe_finish_group(group_id, &mut out);
            }
            // CopyFrom / RemoteCopy, or a CopyDelta that could not be
            // rebuilt: pull the state from the source first.
            None => {
                // A quarantined source will never answer a `StateRequest`;
                // fail the transfer now rather than after the grace period.
                if !self.registry.is_bound(src.instance) {
                    if let Some(g) = self.transfer_groups.get_mut(&group_id) {
                        g.failed = Some("source instance is unreachable".into());
                    }
                    self.maybe_finish_group(group_id, &mut out);
                    return out;
                }
                let req_id = self.next_transfer;
                self.next_transfer += self.id_stride;
                let request = Message::StateRequest { req_id, path: src.path.clone() };
                self.to_instance(src.instance, request, &mut out);
                self.pending_pulls.insert(req_id, PendingPull { src, dst, mode, group: group_id });
                if let Some(g) = self.transfer_groups.get_mut(&group_id) {
                    g.outstanding += 1;
                }
            }
        }
        out
    }

    /// The state a `CopyDelta` stands for: `delta` replayed on a clone of
    /// `src`'s sync base, encoded once — the encoding the fan-out sends
    /// and files. `None`, and no base left, when the base is missing or
    /// carries another version, an edit does not apply, or that encoding
    /// does not hash to `new_version`.
    fn rebuild_push(
        &mut self,
        src: &GlobalObjectId,
        base_version: u64,
        new_version: u64,
        delta: &StateDelta,
    ) -> Option<SyncBase> {
        let base = self.sync_bases.remove(src).filter(|base| base.version == base_version)?;
        let pushed = SyncBase::of(delta::apply(&base.state, delta).ok()?);
        (pushed.version == new_version).then_some(pushed)
    }

    /// Sends `carried` to `dst` *and every object coupled with it*: a
    /// state copy onto a coupled object must keep its whole group
    /// consistent. Each leg gets its own transfer id so the overwritten
    /// states land in the right history stacks.
    fn fan_out_apply(
        &mut self,
        group_id: u64,
        dst: &GlobalObjectId,
        carried: SyncBase,
        mode: CopyMode,
        kind: TransferKind,
        out: &mut Outgoing<E>,
    ) {
        // The group can be gone (its requester died between the pull and
        // the reply) or already failed (an earlier leg errored). Fanning
        // out `ApplyState` then would create legs no one will collect.
        match self.transfer_groups.get(&group_id) {
            Some(g) if g.failed.is_none() => {}
            Some(_) | None => return,
        }
        // Quarantined destinations cannot receive state; they reconverge
        // via their own `CopyFrom` resync on rejoin instead of holding
        // the whole transfer group hostage.
        let targets: Vec<GlobalObjectId> = self
            .couples
            .group_of(dst)
            .into_iter()
            .filter(|t| self.registry.is_bound(t.instance))
            .collect();
        let Some(group) = self.transfer_groups.get_mut(&group_id) else {
            return;
        };
        if targets.is_empty() {
            group.failed = Some("destination instance is unreachable".into());
            return;
        }
        group.outstanding += targets.len();
        // The snapshot — by far the heavy part of a state transfer — was
        // serialized exactly once, by whoever built `carried`; each leg's
        // frame splices a shared payload behind its own req-id and target
        // path. Destinations holding a known-good sync base (they
        // acknowledged an earlier snapshot) get an attribute-level
        // `ApplyDelta` diffed against that base instead of the full
        // snapshot; deltas are cached per base version, so one encoded
        // delta serves every group member that last acknowledged the
        // same state.
        self.stats.payload_encodes += 1;
        let mut snapshot_spliced = false;
        let mut delta_cache: HashMap<u64, Bytes> = HashMap::new();
        for target in targets {
            let req_id = self.next_transfer;
            self.next_transfer += self.id_stride;
            let Some(endpoint) = self.registry.endpoint_of(target.instance) else {
                // Cannot happen (targets are filtered to bound instances)
                // but losing the endpoint must not lose the leg record.
                self.transfers.insert(
                    req_id,
                    Transfer { dst: target.clone(), kind, group: group_id, sync: None },
                );
                continue;
            };
            let (frame, diffed_against) = match self.sync_bases.get(&target) {
                Some(base) => {
                    let payload = match delta_cache.entry(base.version) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            self.stats.payload_reuses += 1;
                            e.into_mut()
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            self.stats.payload_encodes += 1;
                            e.insert(codec::encode_delta_shared(&delta::diff(
                                &base.state,
                                &carried.state,
                            )))
                        }
                    };
                    let frame = codec::frame_apply_delta(
                        req_id,
                        &target.path,
                        base.version,
                        carried.version,
                        payload,
                        mode,
                    );
                    (frame, Some(base.encoded.clone()))
                }
                None => {
                    if snapshot_spliced {
                        self.stats.payload_reuses += 1;
                    }
                    snapshot_spliced = true;
                    let snapshot = carried.encoded.as_slice();
                    (codec::frame_apply_state(req_id, &target.path, snapshot, mode), None)
                }
            };
            if diffed_against.is_some() {
                self.stats.delta_legs_sent += 1;
            }
            self.transfers.insert(
                req_id,
                Transfer {
                    dst: target.clone(),
                    kind,
                    group: group_id,
                    sync: Some(AppliedSync { carried: carried.clone(), mode, diffed_against }),
                },
            );
            out.push_shared(vec![endpoint], frame);
        }
    }

    fn do_state_reply(
        &mut self,
        from: InstanceId,
        req_id: u64,
        snapshot: Option<StateNode>,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // Transfer ids are sequential, hence guessable: only the instance
        // that was asked may answer. Anyone else leaves the pull waiting.
        if self.pending_pulls.get(&req_id).is_some_and(|pull| pull.src.instance != from) {
            self.to_instance(
                from,
                Message::PermissionDenied { what: format!("answer state request {req_id}") },
                &mut out,
            );
            return out;
        }
        let Some(PendingPull { src, dst, mode, group: group_id }) =
            self.pending_pulls.remove(&req_id)
        else {
            return out;
        };
        if let Some(g) = self.transfer_groups.get_mut(&group_id) {
            g.outstanding -= 1;
        }
        match snapshot {
            Some(snapshot) => {
                // The state crossed the source's connection: it is the
                // source's sync base, at the session since it answered.
                let pulled = SyncBase::of(snapshot);
                self.sync_bases.insert(src, pulled.clone());
                self.fan_out_apply(group_id, &dst, pulled, mode, TransferKind::Copy, &mut out);
                self.maybe_finish_group(group_id, &mut out);
            }
            None => {
                if let Some(g) = self.transfer_groups.get_mut(&group_id) {
                    g.failed = Some("source object does not exist".into());
                }
                self.maybe_finish_group(group_id, &mut out);
            }
        }
        out
    }

    fn maybe_finish_group(&mut self, group_id: u64, out: &mut Outgoing<E>) {
        let done = self.transfer_groups.get(&group_id).map(|g| g.outstanding == 0).unwrap_or(false);
        if !done {
            return;
        }
        let Some(g) = self.transfer_groups.remove(&group_id) else {
            return;
        };
        match g.failed {
            Some(reason) => {
                self.stats.transfers_failed += 1;
                self.to_instance(
                    g.requester,
                    Message::ErrorReply { context: "copy".into(), reason },
                    out,
                );
            }
            None => {
                self.stats.transfers_completed += 1;
                self.to_instance(
                    g.requester,
                    Message::StateApplied { req_id: g.client_req, overwritten: None, error: None },
                    out,
                );
            }
        }
    }

    fn do_state_applied(
        &mut self,
        from: InstanceId,
        req_id: u64,
        overwritten: Option<Overwritten>,
        mut error: Option<String>,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // As for a `StateReply`: only the leg's destination may answer it;
        // anyone else's word leaves the leg outstanding, files nothing
        // and installs no base.
        if self.transfers.get(&req_id).is_some_and(|t| t.dst.instance != from) {
            self.to_instance(
                from,
                Message::PermissionDenied { what: format!("acknowledge transfer leg {req_id}") },
                &mut out,
            );
            return out;
        }
        let Some(t) = self.transfers.remove(&req_id) else {
            return out;
        };
        // A refused delta leg — the receiver's sync base was unknown or
        // diverged — falls back to the full snapshot: drop the stale
        // base, mint a replacement leg splicing the stored encoding, and
        // leave the group's accounting untouched (outstanding stays the
        // same, no failure is recorded, the other legs are unaffected).
        if error.is_some() && t.sync.as_ref().is_some_and(|s| s.diffed_against.is_some()) {
            self.sync_bases.remove(&t.dst);
            if let Some(endpoint) = self.registry.endpoint_of(t.dst.instance) {
                self.stats.delta_fallbacks += 1;
                let new_req = self.next_transfer;
                self.next_transfer += self.id_stride;
                let mut fallback = t;
                if let Some(sync) = fallback.sync.as_mut() {
                    sync.diffed_against = None;
                    self.stats.payload_reuses += 1;
                    out.push_shared(
                        vec![endpoint],
                        codec::frame_apply_state(
                            new_req,
                            &fallback.dst.path,
                            sync.carried.encoded.as_slice(),
                            sync.mode,
                        ),
                    );
                }
                self.transfers.insert(new_req, fallback);
                return out;
            }
            // No endpoint to resend to: fall through to the normal
            // failure accounting below.
            if let Some(g) = self.transfer_groups.get_mut(&t.group) {
                g.outstanding -= 1;
                g.failed = Some("delta fallback target unreachable".into());
            }
            self.maybe_finish_group(t.group, &mut out);
            return out;
        }
        // What the apply overwrote, as the bytes to file: the slice of the
        // reply frame, or — acknowledged by reference — the encoding this
        // leg's delta was diffed against, which the server kept. Only a
        // delta leg has one; the reference in answer to any other leg
        // names nothing, and fails the leg.
        let prev = match (overwritten, t.sync.as_ref().and_then(|s| s.diffed_against.as_ref())) {
            (Some(Overwritten::State(prev)), _) => Some(prev),
            (Some(Overwritten::Base), Some(base)) => {
                self.stats.acks_by_reference += 1;
                Some(base.clone())
            }
            (Some(Overwritten::Base), None) => {
                error.get_or_insert_with(|| {
                    "acknowledged by reference to a base the leg did not carry".into()
                });
                None
            }
            (None, _) => None,
        };
        let succeeded = error.is_none();
        if let Some(g) = self.transfer_groups.get_mut(&t.group) {
            g.outstanding -= 1;
            if let Some(reason) = error {
                g.failed = Some(reason);
            }
        }
        // A successful apply makes the carried state the destination's
        // sync base — the next transfer to this object can travel as an
        // attribute-level delta against it — and what it overwrote a
        // historical UI state. A failed one leaves both as they were.
        if succeeded {
            if let Some(sync) = t.sync {
                self.sync_bases.insert(t.dst.clone(), sync.carried);
            }
            if let Some(prev) = prev {
                match t.kind {
                    TransferKind::Copy => self.history.record_overwrite(t.dst, prev),
                    TransferKind::Undo => self.history.record_undone(t.dst, prev),
                    TransferKind::Redo => self.history.record_redone(t.dst, prev),
                }
            }
        }
        self.maybe_finish_group(t.group, &mut out);
        out
    }

    fn do_undo(
        &mut self,
        from: InstanceId,
        object: GlobalObjectId,
        kind: TransferKind,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        let Some(user) = self.registry.user_of(from) else {
            // Caller races a deregistration: nothing to authorize.
            return out;
        };
        if !self.right_of(user, &object).allows_write() {
            self.to_instance(
                from,
                Message::PermissionDenied { what: format!("undo/redo on {object}") },
                &mut out,
            );
            return out;
        }
        // Refuse before popping: a state taken off its stack for a group
        // no member of which is bound (`fan_out_apply` sends to no other)
        // would be lost for good.
        let reachable =
            self.couples.group_of(&object).iter().any(|t| self.registry.is_bound(t.instance));
        let popped = match kind {
            TransferKind::Undo if reachable => self.history.pop_undo(&object),
            TransferKind::Redo if reachable => self.history.pop_redo(&object),
            _ => None,
        };
        let Some(snapshot) = popped else {
            let reason = if reachable {
                "no historical state recorded"
            } else {
                "destination instance is unreachable"
            };
            self.to_instance(
                from,
                Message::ErrorReply {
                    context: if kind == TransferKind::Undo { "undo" } else { "redo" }.into(),
                    reason: reason.into(),
                },
                &mut out,
            );
            return out;
        };
        let group_id = self.next_transfer_group;
        self.next_transfer_group += self.id_stride;
        self.stats.transfers_started += 1;
        self.transfer_groups.insert(
            group_id,
            TransferGroup { requester: from, client_req: 0, outstanding: 0, failed: None },
        );
        // Undo/redo also fans out to the object's coupling group so the
        // group stays consistent.
        let restored = SyncBase::of(snapshot);
        self.fan_out_apply(group_id, &object, restored, CopyMode::DestructiveMerge, kind, &mut out);
        self.maybe_finish_group(group_id, &mut out);
        out
    }

    // ---- protocol extension (§3.4) ------------------------------------------

    fn do_command(
        &mut self,
        from: InstanceId,
        to: Target,
        command: String,
        payload: Vec<u8>,
    ) -> Outgoing<E> {
        match self.command_out(from, to, &command, &payload) {
            Ok(out) => out,
            Err(reason) => {
                let mut out = Outgoing::new();
                self.to_instance(
                    from,
                    Message::ErrorReply { context: "co-send-command".into(), reason },
                    &mut out,
                );
                out
            }
        }
    }

    /// Delivers a §3.4 application command on this core's local members
    /// on behalf of `from`, which may be registered on *another* shard:
    /// the shard router fans `Target::Broadcast` to every shard and
    /// routes `Target::Instance`/`Target::Group` to the shard hosting
    /// the target, without migrating the sender's component for a
    /// fire-and-forget delivery.
    ///
    /// # Errors
    ///
    /// Returns the reason an instance-targeted command was undeliverable
    /// (unknown here, or quarantined); the caller owns the sender's
    /// endpoint and builds the `ErrorReply`.
    pub fn deliver_command(
        &mut self,
        from: InstanceId,
        to: Target,
        command: &str,
        payload: &[u8],
    ) -> Result<Outgoing<E>, String> {
        let result = self.command_out(from, to, command, payload);
        if let Ok(out) = &result {
            self.note_outgoing(out);
        }
        self.debug_check_invariants();
        result
    }

    fn command_out(
        &mut self,
        from: InstanceId,
        to: Target,
        command: &str,
        payload: &[u8],
    ) -> Result<Outgoing<E>, String> {
        let mut out = Outgoing::new();
        let delivery = |command: &str, payload: &[u8]| Message::CommandDelivery {
            from,
            command: command.to_owned(),
            payload: payload.to_vec(),
        };
        match to {
            Target::Instance(i) => {
                if self.registry.is_bound(i) {
                    self.to_instance(i, delivery(command, payload), &mut out);
                } else {
                    // Unknown or quarantined: either way the command cannot
                    // be delivered right now, and commands are not queued.
                    return Err(format!("instance {i} is not reachable"));
                }
            }
            Target::Broadcast => {
                let others: Vec<InstanceId> =
                    self.registry.ids().into_iter().filter(|i| *i != from).collect();
                self.to_group(&others, delivery(command, payload), &mut out);
            }
            Target::Group(object) => {
                let members: Vec<InstanceId> = self
                    .couples
                    .instances_in_group(&object)
                    .into_iter()
                    .filter(|i| *i != from)
                    .collect();
                self.to_group(&members, delivery(command, payload), &mut out);
            }
        }
        Ok(out)
    }

    // ---- termination ---------------------------------------------------------

    /// Severs an instance's participation in live protocol work: settles
    /// executions waiting on it, fails transfer legs and pulls touching
    /// it, and drops transfer groups it requested — *including their
    /// orphaned legs*, so a late `StateReply`/`StateApplied` for a dead
    /// requester finds nothing to act on instead of a dangling pull whose
    /// group is gone. Shared by deregistration and quarantine: peers must
    /// never block on a dead connection, whether or not it may return.
    fn sever_instance_io(&mut self, id: InstanceId, out: &mut Outgoing<E>) {
        // Settle pending executions that were waiting on the dead instance.
        let exec_ids: Vec<u64> = self.execs.keys().copied().collect();
        for exec_id in exec_ids {
            let finished = {
                let Some(exec) = self.execs.get_mut(&exec_id) else { continue };
                exec.owed.remove(&id);
                exec.owed.values().all(|&n| n == 0)
            };
            if finished {
                if let Some(exec) = self.execs.remove(&exec_id) {
                    let targets: Vec<GlobalObjectId> =
                        exec.targets.iter().filter(|t| t.instance != id).cloned().collect();
                    self.finish_exec(exec_id, &targets, out);
                }
            }
        }
        // Fail transfer legs touching the dead instance.
        let dead_legs: Vec<u64> =
            self.transfers.iter().filter(|(_, t)| t.dst.instance == id).map(|(k, _)| *k).collect();
        for req_id in dead_legs {
            let Some(t) = self.transfers.remove(&req_id) else { continue };
            if let Some(g) = self.transfer_groups.get_mut(&t.group) {
                g.outstanding -= 1;
                g.failed = Some("peer instance terminated".into());
            }
            self.maybe_finish_group(t.group, out);
        }
        // A pull leg dies with either end: the destination can no longer
        // apply, and a source that dies before its `StateReply` would
        // otherwise leave the transfer group outstanding forever (the
        // requester would never see completion).
        let dead_pulls: Vec<u64> = self
            .pending_pulls
            .iter()
            .filter(|(_, pull)| pull.dst.instance == id || pull.src.instance == id)
            .map(|(k, _)| *k)
            .collect();
        for req_id in dead_pulls {
            let Some(pull) = self.pending_pulls.remove(&req_id) else { continue };
            if let Some(g) = self.transfer_groups.get_mut(&pull.group) {
                g.outstanding -= 1;
                g.failed = Some(if pull.src.instance == id {
                    "source instance terminated before replying".into()
                } else {
                    "peer instance terminated".into()
                });
            }
            self.maybe_finish_group(pull.group, &mut *out);
        }
        // Groups whose requester died evaporate (there is no one left to
        // answer); they still count as failed transfers. Their remaining
        // legs and pulls must go with them — a group-less leg would make
        // a late `StateReply` resurrect state for a dead requester (and,
        // before this purge existed, panic in `fan_out_apply`).
        let dead_groups: Vec<u64> = self
            .transfer_groups
            .iter()
            .filter(|(_, g)| g.requester == id)
            .map(|(k, _)| *k)
            .collect();
        if !dead_groups.is_empty() {
            self.stats.transfers_failed += dead_groups.len() as u64;
            for group_id in &dead_groups {
                self.transfer_groups.remove(group_id);
            }
            self.transfers.retain(|_, t| !dead_groups.contains(&t.group));
            self.pending_pulls.retain(|_, p| !dead_groups.contains(&p.group));
        }
    }

    /// Places an instance in quarantine: live I/O is severed and the
    /// endpoint unbound, but the registration record, couples, and
    /// access rights survive until the grace period expires.
    fn quarantine_instance(&mut self, id: InstanceId) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // Bounded store: make room before inserting by expiring the
        // oldest-deadline entries early (ties broken by smallest id for
        // determinism). Each eviction runs the full deregistration path,
        // so couples dissolve and resume tokens retire exactly as they
        // would at on-time expiry.
        let cap = self.liveness.max_quarantined;
        if cap > 0 {
            while self.quarantined.len() >= cap {
                let oldest =
                    self.quarantined.iter().map(|(i, q)| (q.deadline_us, *i)).min().map(|(_, i)| i);
                let Some(victim) = oldest else { break };
                self.quarantined.remove(&victim);
                self.stats.quarantine_store_evictions += 1;
                let dereg = self.deregister_instance(victim);
                out.extend(dereg);
            }
        }
        self.sever_instance_io(id, &mut out);
        if let Some(endpoint) = self.registry.unbind(id) {
            self.route_event(RouteEvent::Unbound { instance: id, endpoint });
            self.admission.forget(&endpoint);
        }
        self.last_seen.remove(&id);
        let deadline_us = self.now_us.saturating_add(self.liveness.grace_us);
        self.quarantined.insert(id, Quarantined { deadline_us });
        self.stats.quarantines += 1;
        out
    }

    fn deregister_instance(&mut self, id: InstanceId) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // Auto-decouple: notify each surviving group of its new membership.
        let affected = self.couples.remove_instance(id);
        for survivors in affected {
            let mut instances: Vec<InstanceId> = survivors.iter().map(|g| g.instance).collect();
            instances.sort();
            instances.dedup();
            instances.retain(|i| *i != id);
            self.to_group(&instances, Message::CoupleUpdate { group: survivors }, &mut out);
        }
        self.sever_instance_io(id, &mut out);
        // The departed instance's objects are gone for good: their
        // history stacks and delta sync bases must go with them, or the
        // stores grow monotonically under register/leave churn.
        self.stats.history_purges += self.history.purge_instance(id) as u64;
        self.sync_bases.retain(|o, _| o.instance != id);
        self.quarantined.remove(&id);
        self.last_seen.remove(&id);
        if let Some(token) = self.token_of.remove(&id) {
            self.tokens.remove(&token);
            self.route_event(RouteEvent::TokenRetired { token });
        }
        let endpoint = self.registry.endpoint_of(id);
        if let Some(e) = endpoint {
            self.admission.forget(&e);
        }
        self.registry.deregister(id);
        self.route_event(RouteEvent::Deregistered { instance: id, endpoint });
        out
    }

    // ---- shard migration ------------------------------------------------------

    /// Extracts the couple-component of `seed` — registration records,
    /// liveness bookkeeping, couple links, history, access tuples, and
    /// all protocol state living entirely inside the component — for
    /// absorption by another shard ([`ServerCore::absorb_component`]).
    ///
    /// Protocol state that *straddles* the component boundary cannot
    /// migrate (its two halves would land on different shards):
    ///
    /// * a multiple-execution round whose submitter sits outside the
    ///   locked group's component sheds the far side's owed replies,
    ///   finishing the round if nothing else is outstanding — the same
    ///   sever semantics a far-side death would apply;
    /// * a transfer group with legs on both sides is failed outright and
    ///   its requester told, exactly like a peer dying mid-transfer.
    ///
    /// The returned [`Outgoing`] carries those settlement messages
    /// (`GroupUnlocked`, `ErrorReply`); deliver it like any handle
    /// output. Extraction records no [`RouteEvent`]s — the router
    /// rebinds routes itself from the returned slice.
    ///
    /// An unregistered `seed` yields an empty slice.
    pub fn extract_component(&mut self, seed: InstanceId) -> (ComponentSlice<E>, Outgoing<E>) {
        let members_vec = self.component_of(seed);
        let members: std::collections::HashSet<InstanceId> = members_vec.iter().copied().collect();
        let mut out = Outgoing::new();
        if members.is_empty() {
            let slice = ComponentSlice {
                records: Vec::new(),
                last_seen: Vec::new(),
                quarantined: Vec::new(),
                tokens: Vec::new(),
                links: Vec::new(),
                history: Vec::new(),
                sync_bases: Vec::new(),
                access: Vec::new(),
                execs: Vec::new(),
                transfer_groups: Vec::new(),
                transfers: Vec::new(),
                pulls: Vec::new(),
            };
            return (slice, out);
        }
        // Snapshot which objects each live execution round has locked:
        // the locked group's side of the boundary is the round's home.
        let mut lock_objects: HashMap<u64, Vec<GlobalObjectId>> = HashMap::new();
        for (object, exec) in self.locks.held_locks() {
            lock_objects.entry(exec).or_default().push(object.clone());
        }
        let mut exec_ids: Vec<u64> = self.execs.keys().copied().collect();
        exec_ids.sort();
        let mut inside_execs: Vec<u64> = Vec::new();
        for exec_id in exec_ids {
            let home_inside = lock_objects
                .get(&exec_id)
                .and_then(|objs| objs.first())
                .map(|o| members.contains(&o.instance))
                .unwrap_or(false);
            let straddles = {
                let Some(exec) = self.execs.get(&exec_id) else { continue };
                exec.owed.keys().any(|i| members.contains(i) != home_inside)
                    || exec.targets.iter().any(|t| members.contains(&t.instance) != home_inside)
            };
            if straddles {
                let finished = {
                    let Some(exec) = self.execs.get_mut(&exec_id) else { continue };
                    exec.owed.retain(|i, _| members.contains(i) == home_inside);
                    exec.targets.retain(|t| members.contains(&t.instance) == home_inside);
                    exec.owed.values().all(|&n| n == 0)
                };
                if finished {
                    if let Some(exec) = self.execs.remove(&exec_id) {
                        self.finish_exec(exec_id, &exec.targets, &mut out);
                    }
                    continue;
                }
            }
            if home_inside {
                inside_execs.push(exec_id);
            }
        }
        // Transfer groups: wholly inside migrates, wholly outside stays,
        // straddling fails sever-style.
        let mut group_ids: Vec<u64> = self.transfer_groups.keys().copied().collect();
        group_ids.sort();
        let mut inside_groups: Vec<u64> = Vec::new();
        for gid in group_ids {
            let Some((requester, req_inside)) = self
                .transfer_groups
                .get(&gid)
                .map(|g| (g.requester, members.contains(&g.requester)))
            else {
                continue;
            };
            let uniform = self
                .transfers
                .values()
                .filter(|t| t.group == gid)
                .all(|t| members.contains(&t.dst.instance) == req_inside)
                && self.pending_pulls.values().filter(|p| p.group == gid).all(|p| {
                    members.contains(&p.dst.instance) == req_inside
                        && members.contains(&p.src.instance) == req_inside
                });
            if uniform {
                if req_inside {
                    inside_groups.push(gid);
                }
                continue;
            }
            self.stats.transfers_failed += 1;
            self.transfer_groups.remove(&gid);
            self.transfers.retain(|_, t| t.group != gid);
            self.pending_pulls.retain(|_, p| p.group != gid);
            self.to_instance(
                requester,
                Message::ErrorReply {
                    context: "copy".into(),
                    reason: "transfer interrupted by a shard migration".into(),
                },
                &mut out,
            );
        }
        // Lift the component's state out of every store.
        let mut records = Vec::with_capacity(members_vec.len());
        for id in &members_vec {
            if let Some(rec) = self.registry.extract(*id) {
                records.push(rec);
            }
        }
        let last_seen = members_vec
            .iter()
            .filter_map(|id| self.last_seen.remove(id).map(|t| (*id, t)))
            .collect();
        let quarantined = members_vec
            .iter()
            .filter_map(|id| self.quarantined.remove(id).map(|q| (*id, q.deadline_us)))
            .collect();
        let tokens = members_vec
            .iter()
            .filter_map(|id| {
                self.token_of.remove(id).map(|tok| {
                    self.tokens.remove(&tok);
                    (tok, *id)
                })
            })
            .collect();
        let links = self.couples.extract_instance_links(&members);
        let history = self.history.extract_instances(&members);
        let mut sync_bases: Vec<(GlobalObjectId, SyncBase)> = Vec::new();
        self.sync_bases.retain(|o, base| {
            let inside = members.contains(&o.instance);
            if inside {
                sync_bases.push((o.clone(), base.clone()));
            }
            !inside
        });
        sync_bases.sort_by(|a, b| a.0.cmp(&b.0));
        let access = self.access.extract_instances(&members);
        let execs = inside_execs
            .into_iter()
            .filter_map(|eid| {
                self.execs.remove(&eid).map(|ex| {
                    let objs = lock_objects.remove(&eid).unwrap_or_default();
                    self.locks.unlock_exec(eid);
                    (eid, ex, objs)
                })
            })
            .collect();
        let transfer_groups = inside_groups
            .iter()
            .filter_map(|gid| self.transfer_groups.remove(gid).map(|g| (*gid, g)))
            .collect();
        let leg_ids: Vec<u64> = self
            .transfers
            .iter()
            .filter(|(_, t)| inside_groups.contains(&t.group))
            .map(|(k, _)| *k)
            .collect();
        let transfers =
            leg_ids.into_iter().filter_map(|k| self.transfers.remove(&k).map(|t| (k, t))).collect();
        let pull_ids: Vec<u64> = self
            .pending_pulls
            .iter()
            .filter(|(_, p)| inside_groups.contains(&p.group))
            .map(|(k, _)| *k)
            .collect();
        let pulls = pull_ids
            .into_iter()
            .filter_map(|k| self.pending_pulls.remove(&k).map(|p| (k, p)))
            .collect();
        self.note_outgoing(&out);
        let slice = ComponentSlice {
            records,
            last_seen,
            quarantined,
            tokens,
            links,
            history,
            sync_bases,
            access,
            execs,
            transfer_groups,
            transfers,
            pulls,
        };
        self.debug_check_invariants();
        (slice, out)
    }

    /// Installs a component extracted from another shard. Ids never
    /// collide (each shard mints ids in its own residue class, and the
    /// registry bumps its counter past adopted ids), so adoption is a
    /// plain insertion into every store.
    pub fn absorb_component(&mut self, slice: ComponentSlice<E>) {
        let ComponentSlice {
            records,
            last_seen,
            quarantined,
            tokens,
            links,
            history,
            sync_bases,
            access,
            execs,
            transfer_groups,
            transfers,
            pulls,
        } = slice;
        for (info, endpoint) in records {
            self.registry.adopt(info, endpoint);
        }
        for (id, t) in last_seen {
            self.last_seen.insert(id, t);
        }
        for (id, deadline_us) in quarantined {
            self.quarantined.insert(id, Quarantined { deadline_us });
        }
        for (token, id) in tokens {
            self.tokens.insert(token, id);
            self.token_of.insert(id, token);
        }
        self.couples.adopt_links(links);
        self.history.adopt(history);
        self.sync_bases.extend(sync_bases);
        self.access.adopt(access);
        for (exec_id, exec, objects) in execs {
            // Cannot conflict: the objects arrive with the component that
            // locked them, and no other component can reference them.
            let _ = self.locks.try_lock_group(&objects, exec_id);
            self.execs.insert(exec_id, exec);
        }
        for (gid, g) in transfer_groups {
            self.transfer_groups.insert(gid, g);
        }
        for (req_id, t) in transfers {
            self.transfers.insert(req_id, t);
        }
        for (req_id, p) in pulls {
            self.pending_pulls.insert(req_id, p);
        }
        self.debug_check_invariants();
    }
}

#[cfg(test)]
mod tests {
    use super::ServerStats;

    #[test]
    fn stats_merge_sums_counters_and_keeps_the_widest_fanout() {
        let mut a =
            ServerStats { events_granted: 2, max_fanout: 7, held_locks: 1, ..Default::default() };
        let b =
            ServerStats { events_granted: 3, max_fanout: 4, held_locks: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!((a.events_granted, a.max_fanout, a.held_locks), (5, 7, 3));
        let entries = a.entries();
        assert_eq!(entries[0], ("events_granted", 5));
        assert!(entries.contains(&("max_fanout", 7)) && entries.contains(&("held_locks", 3)));
    }
}
