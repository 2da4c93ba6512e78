//! The client-side coupling runtime.
//!
//! A [`Session`] wraps one application instance's [`Toolkit`] and speaks
//! the COSOFT protocol: it intercepts user events on coupled objects
//! (§3.2 multiple execution), serves and applies state transfers (§3.1
//! synchronization by UI state), keeps the locally replicated coupling
//! information up to date, and dispatches application-defined commands
//! (§3.4).
//!
//! Like the server core, a `Session` is sans-I/O: callers feed incoming
//! messages through [`Session::on_message`] and pump
//! [`Session::drain_outbox`] into whatever transport carries the
//! protocol.

use std::collections::HashMap;
use std::fmt;

use cosoft_uikit::{FeedbackUndo, Toolkit, TreeStamp, UiError, WidgetId};
use cosoft_wire::{
    delta, AccessRight, AttrName, CopyMode, EditOp, EncodedState, GlobalObjectId, InstanceId,
    InstanceInfo, Message, NodePatch, ObjectPath, Overwritten, StateNode, Target, UiEvent, UserId,
    Value,
};

use crate::compat::{apply_recorded, CompatError, CorrespondenceTable};
use crate::semantic::SemanticHooks;

/// Application-visible notification produced by a [`Session`].
#[derive(Debug)]
pub enum SessionEvent {
    /// The server accepted registration and assigned this instance id.
    Registered(InstanceId),
    /// A rejoin after a connection loss succeeded: the session kept (or
    /// was reassigned) this instance id and queued its resynchronization
    /// (couple re-assertion + state pulls).
    Resumed(InstanceId),
    /// The coupling group of a local object changed; an empty `group`
    /// means the object is no longer coupled.
    CoupleChanged {
        /// Local object.
        local: ObjectPath,
        /// New full group (empty when decoupled).
        group: Vec<GlobalObjectId>,
    },
    /// Floor control rejected a local event; its feedback was rolled back.
    EventRejected {
        /// The rejected event.
        event: UiEvent,
    },
    /// A state transfer initiated by this instance completed.
    CopyCompleted {
        /// The request id returned by the initiating call.
        req_id: u64,
    },
    /// A command arrived with no registered handler.
    CommandReceived {
        /// Sending instance.
        from: InstanceId,
        /// Symbolic command name.
        command: String,
        /// Packed message.
        payload: Vec<u8>,
    },
    /// Reply to [`Session::query_instances`].
    InstanceList(Vec<InstanceInfo>),
    /// Reply to [`Session::list_coupled`].
    CoupledSet {
        /// Queried object.
        object: GlobalObjectId,
        /// Its coupled set.
        coupled: Vec<GlobalObjectId>,
    },
    /// The server refused an operation.
    PermissionDenied {
        /// Description of the refused operation.
        what: String,
    },
    /// A server-side error.
    Error {
        /// What failed.
        context: String,
        /// Why.
        reason: String,
    },
}

/// Handler for an application-defined command (§3.4): "in the receiver
/// instances, a function (corresponding to the command) is defined to
/// unpack and interpret the message".
pub type CommandHandler = Box<dyn FnMut(&mut Toolkit, InstanceId, &[u8]) + Send>;

/// An object's sync base: the last state of it that crossed the
/// connection (see [`Session`]'s `sync_bases`).
#[derive(Debug)]
struct SyncBase {
    /// Content version of `state` ([`delta::state_version`]).
    version: u64,
    state: StateNode,
    /// The *mirror*: the tree's stamp at which the object's widgets last
    /// held exactly `state` — its shape, kinds and names, and every
    /// attribute it carries, with no semantic payload anywhere. Only an
    /// apply that answered [`Overwritten::Base`] records one; every other
    /// install of a base leaves it `None`.
    mirror: Option<TreeStamp>,
}

impl SyncBase {
    fn new(state: StateNode) -> SyncBase {
        SyncBase { version: delta::state_version(&state), state, mirror: None }
    }
}

#[derive(Debug)]
struct PendingEvent {
    event: UiEvent,
    undo: FeedbackUndo,
    /// The path's remote-execution epoch when the echo was applied.
    epoch: u64,
}

/// Error produced by session operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The session has not received its [`Message::Welcome`] yet.
    NotRegistered,
    /// A toolkit operation failed.
    Ui(UiError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NotRegistered => write!(f, "session is not registered yet"),
            SessionError::Ui(e) => write!(f, "toolkit error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<UiError> for SessionError {
    fn from(e: UiError) -> Self {
        SessionError::Ui(e)
    }
}

/// One application instance's connection to the COSOFT world.
pub struct Session {
    toolkit: Toolkit,
    corr: CorrespondenceTable,
    hooks: SemanticHooks,
    instance: Option<InstanceId>,
    /// Registration credentials, kept so the session can re-register from
    /// scratch when a resume token is rejected after a reconnect.
    user: UserId,
    host: String,
    app_name: String,
    /// Resume token from the server's last `SessionToken` (present only
    /// when the server runs with a liveness grace period).
    resume_token: Option<u64>,
    /// Set between [`Session::begin_rejoin`] and the next `Welcome`.
    rejoining: bool,
    /// The instance id held before the rejoin started; group members
    /// carrying it are *us* under a previous identity and must not be
    /// used as resync sources.
    stale_instance: Option<InstanceId>,
    /// Locally replicated coupling information: local object → full group
    /// ("the coupling information is replicated for each object (to be
    /// completely available locally)", §3.2).
    coupling: HashMap<ObjectPath, Vec<GlobalObjectId>>,
    pending_events: HashMap<u64, PendingEvent>,
    /// Sequence numbers of pending events in issue order — the optimistic
    /// echo *stack*. A rejection in the middle unwinds the suffix in
    /// reverse and replays the survivors so nested echoes resolve
    /// correctly.
    pending_order: Vec<u64>,
    /// Per-path remote-execution epoch: bumped every time a remote
    /// `ExecuteEvent` applies to a local object. A rejected echo is only
    /// rolled back if no remote execution touched its object since the
    /// echo was applied — otherwise the (authoritative) remote value must
    /// survive, even when it happens to equal the echo.
    remote_epoch: HashMap<ObjectPath, u64>,
    /// The local objects this session disabled for each execution it
    /// takes part in, as `(exec_id, path)` in the order disabled: the
    /// origin's object on `EventGranted`, each target of an
    /// `ExecuteEvent`. `GroupUnlocked` names only the execution, so
    /// this is what it re-enables; a rejoin re-enables all of it, since
    /// an unlock in flight on the old connection is lost.
    disabled: Vec<(u64, ObjectPath)>,
    command_handlers: HashMap<String, CommandHandler>,
    /// Per local object, the last state of it that crossed the connection
    /// in either direction (version, state): applied from a transfer leg
    /// as transmitted, pushed by [`Session::copy_to`], or given in answer
    /// to a `StateRequest`. The server keeps the same state for the
    /// object, so either end sends the other only the edits since — the
    /// server its `ApplyDelta` legs, this session its `CopyDelta` pushes.
    /// When the two copies differ the receiver notices by the version and
    /// the state travels in full once: a session missing the base of a
    /// leg rejects it (the server resends an `ApplyState`), a server
    /// missing the base of a push asks for the state (`StateRequest`).
    /// Kept across rejoins so resync transfers can still ride the delta
    /// path.
    sync_bases: HashMap<ObjectPath, SyncBase>,
    next_seq: u64,
    next_req: u64,
    outbox: Vec<Message>,
    events: Vec<SessionEvent>,
    /// Events re-executed locally on behalf of remote origins (metric).
    remote_executions: u64,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("instance", &self.instance)
            .field("coupled_objects", &self.coupling.len())
            .field("pending_events", &self.pending_events.len())
            .finish()
    }
}

impl Session {
    /// Creates a session around a toolkit and queues its registration.
    pub fn new(toolkit: Toolkit, user: UserId, host: &str, app_name: &str) -> Self {
        let mut s = Session {
            toolkit,
            corr: CorrespondenceTable::new(),
            hooks: SemanticHooks::new(),
            instance: None,
            user,
            host: host.to_owned(),
            app_name: app_name.to_owned(),
            resume_token: None,
            rejoining: false,
            stale_instance: None,
            coupling: HashMap::new(),
            pending_events: HashMap::new(),
            pending_order: Vec::new(),
            remote_epoch: HashMap::new(),
            disabled: Vec::new(),
            command_handlers: HashMap::new(),
            sync_bases: HashMap::new(),
            next_seq: 1,
            next_req: 1,
            outbox: Vec::new(),
            events: Vec::new(),
            remote_executions: 0,
        };
        s.outbox.push(Message::Register {
            user,
            host: host.to_owned(),
            app_name: app_name.to_owned(),
        });
        s
    }

    /// The toolkit (widget tree + callbacks).
    pub fn toolkit(&self) -> &Toolkit {
        &self.toolkit
    }

    /// Mutable toolkit access.
    pub fn toolkit_mut(&mut self) -> &mut Toolkit {
        &mut self.toolkit
    }

    /// Mutable access to the correspondence table for declaring cross-kind
    /// compatibility.
    pub fn correspondences_mut(&mut self) -> &mut CorrespondenceTable {
        &mut self.corr
    }

    /// Mutable access to the semantic store/load hook registry.
    pub fn hooks_mut(&mut self) -> &mut SemanticHooks {
        &mut self.hooks
    }

    /// The sync base of a local object, as (version, state): the last
    /// state of it that crossed the connection, which the next transfer
    /// either way is a delta against.
    pub fn sync_base(&self, path: &ObjectPath) -> Option<(u64, &StateNode)> {
        self.sync_bases.get(path).map(|base| (base.version, &base.state))
    }

    /// The instance id assigned at registration, if received.
    pub fn instance(&self) -> Option<InstanceId> {
        self.instance
    }

    /// Events re-executed locally on behalf of remote origins.
    pub fn remote_executions(&self) -> u64 {
        self.remote_executions
    }

    /// The resume token from the server's last `SessionToken`, if any.
    pub fn resume_token(&self) -> Option<u64> {
        self.resume_token
    }

    /// Whether a rejoin is in flight (between [`Session::begin_rejoin`]
    /// and the server's `Welcome`).
    pub fn is_rejoining(&self) -> bool {
        self.rejoining
    }

    /// Queues a liveness probe; the server answers with a `Pong` carrying
    /// the returned nonce.
    pub fn ping(&mut self) -> u64 {
        let nonce = self.next_req;
        self.next_req += 1;
        self.outbox.push(Message::Ping { nonce });
        nonce
    }

    /// Starts session resumption after the transport reconnected.
    ///
    /// Optimistic echoes and in-flight floor-control requests are
    /// abandoned — their grants or rejections were lost with the old
    /// connection — and every object disabled for an execution is
    /// re-enabled, since its `GroupUnlocked` may have been lost too (the
    /// server settles an execution when a member's connection drops).
    /// If the server handed out a resume token, a
    /// [`Message::Rejoin`] is queued to reclaim the old instance id,
    /// couples, and access rights; otherwise the session falls back to a
    /// fresh [`Message::Register`]. Either way, the next `Welcome`
    /// triggers resynchronization: couples are re-asserted and each
    /// coupled group's authoritative state is pulled via `CopyFrom`
    /// (§3.1), after which [`SessionEvent::Resumed`] is reported.
    pub fn begin_rejoin(&mut self) {
        self.pending_events.clear();
        self.pending_order.clear();
        for (_, path) in std::mem::take(&mut self.disabled) {
            self.set_lock_disabled(&path, false);
        }
        self.rejoining = true;
        self.stale_instance = self.instance;
        match self.resume_token {
            Some(token) => self.outbox.push(Message::Rejoin { resume_token: token }),
            None => self.outbox.push(Message::Register {
                user: self.user,
                host: self.host.clone(),
                app_name: self.app_name.clone(),
            }),
        }
    }

    /// The global id of a local object.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`] before the `Welcome` arrived.
    pub fn gid(&self, path: &ObjectPath) -> Result<GlobalObjectId, SessionError> {
        let instance = self.instance.ok_or(SessionError::NotRegistered)?;
        Ok(GlobalObjectId::new(instance, path.clone()))
    }

    /// Whether a local object (or an enclosing complex object) is coupled.
    pub fn is_coupled(&self, path: &ObjectPath) -> bool {
        self.coupled_base(path).is_some()
    }

    /// The coupling group of a local object, if coupled.
    pub fn group_of(&self, path: &ObjectPath) -> Option<&[GlobalObjectId]> {
        self.coupling.get(path).map(Vec::as_slice)
    }

    fn coupled_base(&self, path: &ObjectPath) -> Option<ObjectPath> {
        if self.coupling.contains_key(path) {
            return Some(path.clone());
        }
        let mut cur = path.clone();
        while let Some(parent) = cur.parent() {
            if self.coupling.contains_key(&parent) {
                return Some(parent);
            }
            cur = parent;
        }
        None
    }

    /// Messages waiting to be carried to the server.
    pub fn drain_outbox(&mut self) -> Vec<Message> {
        std::mem::take(&mut self.outbox)
    }

    /// Application-visible notifications gathered since the last call.
    pub fn take_events(&mut self) -> Vec<SessionEvent> {
        std::mem::take(&mut self.events)
    }

    // ---- user-facing operations -------------------------------------------

    /// Processes a user event.
    ///
    /// Events on uncoupled objects are delivered entirely locally. Events
    /// on coupled objects apply their syntactic feedback immediately, then
    /// travel to the server for floor control; callbacks run only after
    /// [`Message::EventGranted`] arrives (§3.2).
    ///
    /// # Errors
    ///
    /// Toolkit validation errors ([`UiError::Disabled`] when the object is
    /// locked, unknown paths, malformed parameters), and
    /// [`SessionError::NotRegistered`] for a coupled object before the
    /// `Welcome` arrived.
    pub fn user_event(&mut self, event: UiEvent) -> Result<(), SessionError> {
        match self.coupled_base(&event.path) {
            None => {
                self.toolkit.deliver(&event)?;
                Ok(())
            }
            Some(_) => {
                if self.instance.is_none() {
                    return Err(SessionError::NotRegistered);
                }
                let undo = self.toolkit.input(&event)?;
                let seq = self.next_seq;
                self.next_seq += 1;
                let epoch = self.remote_epoch.get(&event.path).copied().unwrap_or(0);
                self.pending_events.insert(seq, PendingEvent { event: event.clone(), undo, epoch });
                self.pending_order.push(seq);
                self.outbox.push(Message::Event { event, seq });
                Ok(())
            }
        }
    }

    /// Requests a couple link from a local object to a remote object.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`].
    pub fn couple(&mut self, src: &ObjectPath, dst: GlobalObjectId) -> Result<(), SessionError> {
        let src = self.gid(src)?;
        self.outbox.push(Message::Couple { src, dst });
        Ok(())
    }

    /// Removes the couple link between a local object and a remote object.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`].
    pub fn decouple(&mut self, src: &ObjectPath, dst: GlobalObjectId) -> Result<(), SessionError> {
        let src = self.gid(src)?;
        self.outbox.push(Message::Decouple { src, dst });
        Ok(())
    }

    /// The complete join procedure of §3.1: initial synchronization by
    /// copying the remote object's state into the local object, then the
    /// couple link for continuous synchronization by multiple execution.
    /// Returns the copy's request id.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`].
    pub fn join(
        &mut self,
        remote: GlobalObjectId,
        local: &ObjectPath,
        mode: CopyMode,
    ) -> Result<u64, SessionError> {
        let req = self.copy_from(remote.clone(), local, mode)?;
        self.couple(local, remote)?;
        Ok(req)
    }

    /// Leaves a coupling group entirely: removes the links between the
    /// local object and every remote member recorded in the locally
    /// replicated coupling information. Returns how many decouple
    /// requests were issued (0 when the object is not coupled).
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`].
    pub fn leave_group(&mut self, local: &ObjectPath) -> Result<usize, SessionError> {
        let me = self.instance.ok_or(SessionError::NotRegistered)?;
        let peers: Vec<GlobalObjectId> = self
            .coupling
            .get(local)
            .map(|group| {
                group.iter().filter(|g| !(g.instance == me && g.path == *local)).cloned().collect()
            })
            .unwrap_or_default();
        for peer in &peers {
            self.decouple(local, peer.clone())?;
        }
        Ok(peers.len())
    }

    /// Third-party coupling of two remote objects (§3.3 `RemoteCouple`).
    pub fn remote_couple(&mut self, a: GlobalObjectId, b: GlobalObjectId) {
        self.outbox.push(Message::RemoteCouple { a, b });
    }

    /// Third-party decoupling of two remote objects.
    pub fn remote_decouple(&mut self, a: GlobalObjectId, b: GlobalObjectId) {
        self.outbox.push(Message::RemoteDecouple { a, b });
    }

    /// Active synchronization (§3.1 `CopyFrom`): pull the state of a
    /// remote object into a local one. Returns the request id echoed by
    /// [`SessionEvent::CopyCompleted`].
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`].
    pub fn copy_from(
        &mut self,
        src: GlobalObjectId,
        dst: &ObjectPath,
        mode: CopyMode,
    ) -> Result<u64, SessionError> {
        let dst = self.gid(dst)?;
        let req_id = self.next_req;
        self.next_req += 1;
        self.outbox.push(Message::CopyFrom { src, dst, mode, req_id });
        Ok(req_id)
    }

    /// Passive synchronization (§3.1 `CopyTo`): push a local object's
    /// state to a remote object. Returns the request id.
    ///
    /// The snapshot shipped becomes the object's sync base, and when the
    /// session already holds one — the server then holds it too — only
    /// the edits since travel ([`Message::CopyDelta`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`] or a toolkit error resolving `src`.
    pub fn copy_to(
        &mut self,
        src: &ObjectPath,
        dst: GlobalObjectId,
        mode: CopyMode,
    ) -> Result<u64, SessionError> {
        let src_gid = self.gid(src)?;
        let id = self.toolkit.tree().resolve_required(src).map_err(SessionError::Ui)?;
        let mut snapshot = self.toolkit.tree().snapshot(id, true).map_err(SessionError::Ui)?;
        self.hooks.fill_snapshot(self.toolkit.tree(), src, &mut snapshot);
        let req_id = self.next_req;
        self.next_req += 1;
        let pushed = SyncBase::new(snapshot);
        let push = match self.sync_bases.get(src) {
            Some(base) => Message::CopyDelta {
                src: src_gid,
                dst,
                base_version: base.version,
                new_version: pushed.version,
                delta: delta::diff(&base.state, &pushed.state),
                mode,
                req_id,
            },
            None => {
                Message::CopyTo { src: src_gid, dst, snapshot: pushed.state.clone(), mode, req_id }
            }
        };
        self.sync_bases.insert(src.clone(), pushed);
        self.outbox.push(push);
        Ok(req_id)
    }

    /// Third-party copy (§3.1 `RemoteCopy`) between two remote objects.
    /// Returns the request id.
    pub fn remote_copy(&mut self, src: GlobalObjectId, dst: GlobalObjectId, mode: CopyMode) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.outbox.push(Message::RemoteCopy { src, dst, mode, req_id });
        req_id
    }

    /// Asks the server to restore the last overwritten state of an object.
    pub fn undo(&mut self, object: GlobalObjectId) {
        self.outbox.push(Message::UndoState { object });
    }

    /// Asks the server to re-apply the last undone state of an object.
    pub fn redo(&mut self, object: GlobalObjectId) {
        self.outbox.push(Message::RedoState { object });
    }

    /// Declares an access-permission tuple for a local object.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`].
    pub fn set_permission(
        &mut self,
        user: UserId,
        object: &ObjectPath,
        right: AccessRight,
    ) -> Result<(), SessionError> {
        let object = self.gid(object)?;
        self.outbox.push(Message::SetPermission { user, object, right });
        Ok(())
    }

    /// Sends an application-defined command (§3.4 `CoSendCommand`).
    pub fn send_command(&mut self, to: Target, command: &str, payload: Vec<u8>) {
        self.outbox.push(Message::CoSendCommand { to, command: command.to_owned(), payload });
    }

    /// Registers the unpack-and-interpret function for a command name.
    pub fn on_command<F>(&mut self, command: &str, handler: F)
    where
        F: FnMut(&mut Toolkit, InstanceId, &[u8]) + Send + 'static,
    {
        self.command_handlers.insert(command.to_owned(), Box::new(handler));
    }

    /// Requests the registration records of all instances.
    pub fn query_instances(&mut self) {
        self.outbox.push(Message::QueryInstances);
    }

    /// Requests the coupled set of any object.
    pub fn list_coupled(&mut self, object: GlobalObjectId) {
        self.outbox.push(Message::ListCoupled { object });
    }

    /// Destroys a local widget subtree; destroyed coupled objects are
    /// reported to the server, which applies the decoupling algorithm
    /// (§3.2).
    ///
    /// # Errors
    ///
    /// Toolkit errors resolving or destroying the widget.
    pub fn destroy(&mut self, path: &ObjectPath) -> Result<(), SessionError> {
        let id = self.toolkit.tree().resolve_required(path).map_err(SessionError::Ui)?;
        let destroyed = self.toolkit.tree_mut().destroy(id).map_err(SessionError::Ui)?;
        self.forget_destroyed(destroyed);
        Ok(())
    }

    /// The decoupling algorithm "applied automatically when a UI object
    /// is destroyed" (§3.2), for widgets already gone from the tree —
    /// by [`Session::destroy`] or by a merge that removed them: hooks,
    /// sync base and coupling entry go, and the server hears of every
    /// coupled one.
    fn forget_destroyed(&mut self, destroyed: Vec<ObjectPath>) {
        for p in destroyed {
            self.hooks.unregister(&p);
            self.sync_bases.remove(&p);
            if self.coupling.remove(&p).is_some() {
                if let Ok(gid) = self.gid(&p) {
                    self.outbox.push(Message::ObjectDestroyed { object: gid });
                }
            }
        }
    }

    /// Queues a graceful deregistration.
    pub fn leave(&mut self) {
        self.outbox.push(Message::Deregister);
    }

    // ---- server-message processing -------------------------------------------

    /// Processes one message from the server.
    pub fn on_message(&mut self, msg: Message) {
        match msg {
            Message::Welcome { instance } => {
                self.instance = Some(instance);
                if self.rejoining {
                    self.rejoining = false;
                    let stale = self.stale_instance.take();
                    self.resync_after_rejoin(instance, stale);
                    self.events.push(SessionEvent::Resumed(instance));
                } else {
                    self.events.push(SessionEvent::Registered(instance));
                }
            }
            Message::SessionToken { resume_token } => {
                self.resume_token = Some(resume_token);
            }
            Message::CoupleUpdate { group } => self.on_couple_update(group),
            Message::EventGranted { seq, exec_id } => {
                self.pending_order.retain(|s| *s != seq);
                if let Some(PendingEvent { event, .. }) = self.pending_events.remove(&seq) {
                    // Disable the origin object for the duration of the
                    // group execution, run the callbacks, report done.
                    if self.set_lock_disabled(&event.path, true) {
                        self.disabled.push((exec_id, event.path.clone()));
                    }
                    self.toolkit.run_callbacks(&event);
                    self.outbox.push(Message::ExecuteDone { exec_id });
                }
            }
            Message::EventRejected { seq } => self.on_event_rejected(seq),
            Message::ExecuteEvent { exec_id, event } => {
                if self.set_lock_disabled(&event.path, true) {
                    // The remote value is authoritative over any local
                    // optimistic echo still pending on this object.
                    *self.remote_epoch.entry(event.path.clone()).or_insert(0) += 1;
                    if self.toolkit.execute_remote(&event).is_ok() {
                        self.remote_executions += 1;
                    }
                    self.disabled.push((exec_id, event.path));
                }
                // Always report done so the group never stalls on us.
                self.outbox.push(Message::ExecuteDone { exec_id });
            }
            Message::GroupUnlocked { exec_id } => {
                let mut held = std::mem::take(&mut self.disabled);
                held.retain(|(id, path)| {
                    if *id == exec_id {
                        self.set_lock_disabled(path, false);
                    }
                    *id != exec_id
                });
                self.disabled = held;
            }
            Message::StateRequest { req_id, path } => {
                let snapshot = self.toolkit.tree().resolve(&path).and_then(|id| {
                    let mut snap = self.toolkit.tree().snapshot(id, true).ok()?;
                    self.hooks.fill_snapshot(self.toolkit.tree(), &path, &mut snap);
                    Some(snap)
                });
                // The reply crosses the connection in full, so it is the
                // object's sync base at both ends — also after the server
                // lost its copy and asked because of that.
                if let Some(snap) = &snapshot {
                    self.sync_bases.insert(path, SyncBase::new(snap.clone()));
                }
                self.outbox.push(Message::StateReply { req_id, snapshot });
            }
            Message::ApplyState { req_id, path, snapshot, mode } => {
                let reply = self
                    .apply_state(&path, &snapshot, mode)
                    .map(|prev| Overwritten::State(EncodedState::of(&prev)))
                    .map_err(|e| e.to_string());
                if reply.is_ok() {
                    // Cache the *transmitted* snapshot (not the
                    // post-reconciliation widget state) as the delta
                    // base: the server diffs against what it sent, so
                    // both sides must agree on the base bytes even
                    // when flexible reconciliation dropped attributes.
                    self.sync_bases.insert(path, SyncBase::new(snapshot));
                }
                self.reply_state_applied(req_id, reply);
            }
            Message::ApplyDelta { req_id, path, base_version, new_version, delta, mode } => {
                let reply = self.apply_delta(&path, base_version, new_version, &delta, mode);
                self.reply_state_applied(req_id, reply);
            }
            Message::StateApplied { req_id, .. } => {
                self.events.push(SessionEvent::CopyCompleted { req_id });
            }
            Message::CommandDelivery { from, command, payload } => {
                match self.command_handlers.get_mut(&command) {
                    Some(handler) => handler(&mut self.toolkit, from, &payload),
                    None => {
                        self.events.push(SessionEvent::CommandReceived { from, command, payload })
                    }
                }
            }
            Message::InstanceList { entries } => {
                self.events.push(SessionEvent::InstanceList(entries));
            }
            Message::CoupledSet { object, coupled } => {
                self.events.push(SessionEvent::CoupledSet { object, coupled });
            }
            Message::PermissionDenied { what } => {
                self.events.push(SessionEvent::PermissionDenied { what });
            }
            Message::ErrorReply { context, reason } => {
                // A rejected rejoin (token expired past the grace period)
                // degrades to a fresh registration: the old identity is
                // gone, but the session can still come back as a new
                // instance and resync its couples from local knowledge.
                if self.rejoining && context == "rejoin" {
                    self.resume_token = None;
                    self.outbox.push(Message::Register {
                        user: self.user,
                        host: self.host.clone(),
                        app_name: self.app_name.clone(),
                    });
                } else {
                    self.events.push(SessionEvent::Error { context, reason });
                }
            }
            // Client-originated kinds arriving at a client are ignored.
            _ => {}
        }
    }

    /// Sets the floor-control lock of the local object at `path`; whether
    /// the object exists.
    fn set_lock_disabled(&mut self, path: &ObjectPath, disabled: bool) -> bool {
        let Some(id) = self.toolkit.tree().resolve(path) else { return false };
        self.toolkit.tree_mut().set_lock_disabled(id, disabled).ok();
        true
    }

    /// Handles a floor-control rejection: the rejected echo and every
    /// *later* pending echo are rolled back in reverse order (they may
    /// stack on the same attributes), then the surviving later echoes are
    /// re-applied so their optimistic feedback — and their undo records —
    /// reflect the corrected base state.
    ///
    /// An echo whose object was touched by a remote execution since the
    /// echo was applied is *not* rolled back: the remote value is
    /// authoritative (the winner's re-execution already replaced the
    /// echo, possibly with an identical value).
    fn on_event_rejected(&mut self, seq: u64) {
        let Some(pos) = self.pending_order.iter().position(|s| *s == seq) else {
            return;
        };
        let suffix = self.pending_order.split_off(pos);
        let mut replay = Vec::new();
        for s in suffix.iter().rev() {
            if let Some(PendingEvent { event, undo, epoch }) = self.pending_events.remove(s) {
                let current_epoch = self.remote_epoch.get(&event.path).copied().unwrap_or(0);
                if epoch == current_epoch {
                    if let Some(id) = self.toolkit.tree().resolve(&event.path) {
                        undo.rollback(self.toolkit.tree_mut(), id).ok();
                    }
                }
                if *s == seq {
                    self.events.push(SessionEvent::EventRejected { event });
                } else {
                    replay.push((*s, event));
                }
            }
        }
        replay.reverse();
        for (s, event) in replay {
            let epoch = self.remote_epoch.get(&event.path).copied().unwrap_or(0);
            let undo = self
                .toolkit
                .tree()
                .resolve(&event.path)
                .and_then(|id| {
                    cosoft_uikit::feedback::apply_feedback(self.toolkit.tree_mut(), id, &event).ok()
                })
                .unwrap_or_default();
            self.pending_events.insert(s, PendingEvent { event, undo, epoch });
            self.pending_order.push(s);
        }
    }

    /// Resynchronizes after a successful rejoin (or fallback
    /// re-registration): for every locally coupled object, re-assert the
    /// couple links to the surviving remote members and pull one member's
    /// authoritative state with a flexible-match `CopyFrom` — the same
    /// §3.1 join procedure used for an initial join, replayed from the
    /// locally replicated coupling information.
    ///
    /// Members carrying our own id (current or pre-rejoin) are skipped:
    /// they are this very session, not a source of truth. Re-coupling is
    /// idempotent on the server, so asserting links that survived
    /// quarantine is harmless, while after a fallback re-registration it
    /// is what rebuilds the groups under the new identity.
    fn resync_after_rejoin(&mut self, me: InstanceId, stale: Option<InstanceId>) {
        let mut entries: Vec<(ObjectPath, Vec<GlobalObjectId>)> =
            self.coupling.iter().map(|(p, g)| (p.clone(), g.clone())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (local, group) in entries {
            let peers: Vec<GlobalObjectId> = group
                .into_iter()
                .filter(|g| g.instance != me && Some(g.instance) != stale)
                .collect();
            let local_gid = GlobalObjectId::new(me, local.clone());
            for peer in &peers {
                self.outbox.push(Message::Couple { src: local_gid.clone(), dst: peer.clone() });
            }
            if let Some(source) = peers.first() {
                let req_id = self.next_req;
                self.next_req += 1;
                self.outbox.push(Message::CopyFrom {
                    src: source.clone(),
                    dst: local_gid,
                    mode: CopyMode::FlexibleMatch,
                    req_id,
                });
            }
        }
    }

    fn on_couple_update(&mut self, group: Vec<GlobalObjectId>) {
        let Some(me) = self.instance else { return };
        for member in group.iter().filter(|g| g.instance == me) {
            if group.len() > 1 {
                self.coupling.insert(member.path.clone(), group.clone());
                self.events.push(SessionEvent::CoupleChanged {
                    local: member.path.clone(),
                    group: group.clone(),
                });
            } else {
                self.coupling.remove(&member.path);
                self.events.push(SessionEvent::CoupleChanged {
                    local: member.path.clone(),
                    group: Vec::new(),
                });
            }
        }
    }

    /// Answers an `ApplyState`/`ApplyDelta` leg. The overwritten state was
    /// encoded once, by the leg, and travels (and is filed by the server)
    /// as those bytes — or as the reference to them.
    fn reply_state_applied(&mut self, req_id: u64, reply: Result<Overwritten, String>) {
        let (overwritten, error) = match reply {
            Ok(prev) => (Some(prev), None),
            Err(e) => (None, Some(e)),
        };
        self.outbox.push(Message::StateApplied { req_id, overwritten, error });
    }

    /// Applies a transmitted state and returns the record of what the
    /// apply overwrote ([`crate::compat::Applied::overwritten`]) — the
    /// attributes it wrote, not the whole object.
    fn apply_state(
        &mut self,
        path: &ObjectPath,
        snapshot: &StateNode,
        mode: CopyMode,
    ) -> Result<StateNode, CompatError> {
        let id = self
            .toolkit
            .tree()
            .resolve(path)
            .ok_or_else(|| CompatError::Ui(UiError::UnknownPath { path: path.clone() }))?;
        let applied = apply_recorded(self.toolkit.tree_mut(), id, snapshot, mode, &self.corr)?;
        self.forget_destroyed(applied.destroyed);
        self.hooks.deliver_snapshot(self.toolkit.tree_mut(), path, snapshot);
        Ok(applied.overwritten)
    }

    /// Reconstructs the full transmitted state from a delta against the
    /// cached base, then applies it exactly like a snapshot transfer.
    /// Any mismatch (no base, wrong base version, unapplicable edit,
    /// reconstructed-version disagreement) is reported back as an error so
    /// the server falls back to a full snapshot.
    ///
    /// The base is taken out of the cache and edited in place; it goes
    /// back, as the new base, only when the whole leg succeeded. A failed
    /// leg leaves no base, and the server's fallback `ApplyState` seeds
    /// the next one.
    ///
    /// When nothing the transfers write has changed here since the last
    /// one, what this apply overwrote *is* that base — same kinds, names,
    /// attributes and values, so the same bytes and the same fingerprint
    /// — and the server, which diffed against it, holds it: the reply
    /// then names it ([`Overwritten::Base`]) instead of carrying it.
    ///
    /// A leg onto widgets that still mirror the base ([`SyncBase::mirror`])
    /// whose edits only rewrite attributes the base carries is that case
    /// known in advance: the full apply would rewrite every attribute to
    /// the value it holds but the edited ones, and overwrite the base. So
    /// only the edited attributes are written, and the reply is `Base`.
    fn apply_delta(
        &mut self,
        path: &ObjectPath,
        base_version: u64,
        new_version: u64,
        d: &delta::StateDelta,
        mode: CopyMode,
    ) -> Result<Overwritten, String> {
        let (mut next, mirror) = match self.sync_bases.remove(path) {
            Some(base) if base.version == base_version => (base.state, base.mirror),
            Some(base) => {
                return Err(format!(
                    "delta base version mismatch: have {}, server assumed {base_version}",
                    base.version
                ));
            }
            None => return Err("delta base version mismatch: no base cached".to_owned()),
        };
        // Read off the base before the edits replay on it.
        let writes = mirror.and_then(|since| self.mirror_writes(path, &next, d, since));
        delta::apply_in_place(&mut next, d).map_err(|e| format!("delta base diverged: {e}"))?;
        if delta::state_version(&next) != new_version {
            return Err("delta base diverged: reconstructed state version mismatch".to_owned());
        }
        let (reply, mirrored) = match writes {
            Some(writes) => {
                let tree = self.toolkit.tree_mut();
                for (id, attr, value) in writes {
                    tree.set_attr_unchecked(id, attr, value).map_err(|e| e.to_string())?;
                }
                self.hooks.deliver_snapshot(self.toolkit.tree_mut(), path, &next);
                (Overwritten::Base, true)
            }
            None => {
                let prev = self.apply_state(path, &next, mode).map_err(|e| e.to_string())?;
                let prev = EncodedState::of(&prev);
                if delta::version_of_encoded(prev.as_slice()) == base_version {
                    (Overwritten::Base, d.edits.iter().all(|e| simple_patch(&e.op).is_some()))
                } else {
                    (Overwritten::State(prev), false)
                }
            }
        };
        let mirror = mirrored.then(|| self.toolkit.tree().stamp());
        self.sync_bases
            .insert(path.clone(), SyncBase { version: new_version, state: next, mirror });
        Ok(reply)
    }

    /// The attribute writes a leg of `d` comes to when the object's
    /// widgets have not changed since they mirrored `base` (`since`) and
    /// every edit is a [`simple_patch`] of attributes `base` already
    /// carries. `None` sends the leg down the full apply.
    fn mirror_writes(
        &self,
        path: &ObjectPath,
        base: &StateNode,
        d: &delta::StateDelta,
        since: TreeStamp,
    ) -> Option<Vec<(WidgetId, AttrName, Value)>> {
        let tree = self.toolkit.tree();
        let root = tree.resolve(path)?;
        if !tree.unchanged_since(root, since) {
            return None;
        }
        let mut writes = Vec::new();
        for edit in &d.edits {
            let patch = simple_patch(&edit.op)?;
            let node = edit.path.iter().try_fold(base, |n, seg| n.child(seg))?;
            let id = edit.path.iter().try_fold(root, |id, seg| {
                let children = tree.widget(id).ok()?.children();
                children.iter().copied().find(|&c| tree.widget(c).is_ok_and(|w| w.name() == seg))
            })?;
            for (attr, value) in &patch.upserts {
                node.attrs.contains_key(attr).then_some(())?;
                writes.push((id, attr.clone(), value.clone()));
            }
        }
        Some(writes)
    }
}

/// The patch of an edit that only upserts attributes: no kind change, no
/// removal, no semantic payload — an edit that leaves a mirrored object's
/// shape, kinds and names, and its lack of payloads, as they were.
fn simple_patch(op: &EditOp) -> Option<&NodePatch> {
    match op {
        EditOp::Patch(p) if p.kind.is_none() && p.removals.is_empty() && p.semantic.is_none() => {
            Some(p)
        }
        EditOp::Patch(_) | EditOp::Replace(_) | EditOp::Restructure { .. } => None,
    }
}
