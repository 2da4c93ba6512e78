use crate::codec::{EncodedState, Wire};
use crate::{
    Bytes, BytesMut, GlobalObjectId, InstanceId, ObjectPath, StateDelta, StateNode, UiEvent,
    UserId, WireError,
};

named! {
    /// Access-right category of the server's three-valued permission tuples
    /// `(user, UI-state identifier, access right)` (§2.2).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum AccessRight: "AccessRight" {
        /// No access: the user may neither read (copy) nor couple the state.
        Denied = 0, "denied",
        /// Read access: the user's instances may copy the UI state.
        Read = 1, "read",
        /// Write access: the user's instances may couple with and modify the
        /// state. Implies `Read`.
        Write = 2, "write",
    }
}

impl AccessRight {
    /// Whether this right permits reading (state copy).
    pub fn allows_read(self) -> bool {
        matches!(self, AccessRight::Read | AccessRight::Write)
    }

    /// Whether this right permits writing (coupling, event re-execution).
    pub fn allows_write(self) -> bool {
        matches!(self, AccessRight::Write)
    }
}

named! {
    /// How a UI-state snapshot is applied to a destination object (§3.3).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum CopyMode: "CopyMode" {
        /// Require structural compatibility; fail otherwise.
        Strict = 0, "strict",
        /// Destructive merging: copy attribute values *and structure*,
        /// destroying conflicting children of the destination and creating
        /// missing ones.
        DestructiveMerge = 1, "destructive-merge",
        /// Flexible matching: synchronize the identical substructure and
        /// conserve differing substructures.
        FlexibleMatch = 2, "flexible-match",
    }
}

tagged! {
    /// Routing target of a `CoSendCommand` application command (§3.4).
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub enum Target: "Target" {
        /// Deliver to one instance.
        Instance = 0 (instance: InstanceId),
        /// Deliver to every registered instance except the sender.
        Broadcast = 1,
        /// Deliver to every instance owning an object coupled with the given
        /// object (the coupling group of §3).
        Group = 2 (object: GlobalObjectId),
    }
}

tagged! {
    /// What a destination reports its apply overwrote, in
    /// [`Message::StateApplied`]: the record, or a reference to a state the
    /// server already holds. The field is optional, and its three values
    /// share one tag byte: none and the state keep the tags and bytes of
    /// the `Option<EncodedState>` the field once was; the reference to the
    /// base is a third tag with no payload.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Overwritten: "Option<Overwritten>", none = 0 {
        /// The record itself, in its wire encoding.
        State = 1 (state: EncodedState),
        /// The record is, byte for byte, the sync base the
        /// [`Message::ApplyDelta`] being answered was diffed against
        /// (its fingerprint equals the leg's `base_version`), so the server
        /// files the copy of that base it kept. Answers an `ApplyDelta` only;
        /// in answer to any other leg it fails the leg.
        Base = 2,
    }
}

impl From<StateNode> for Overwritten {
    fn from(state: StateNode) -> Overwritten {
        Overwritten::State(EncodedState::of(&state))
    }
}

record! {
    /// Registration record of one application instance (§2.2: "application
    /// instance identifier, host name, and user name, etc.").
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct InstanceInfo {
        /// Server-assigned instance id.
        pub instance: InstanceId,
        /// Owning user.
        pub user: UserId,
        /// Host the instance runs on.
        pub host: String,
        /// Application name ("the trainer's application may differ
        /// significantly from the students' version").
        pub app_name: String,
    }
}

/// Priority class of a message kind, deciding what admission control
/// sheds first when budgets run out (`cosoft-server`'s overload module);
/// a column of the protocol table, read with [`MessageKind::class`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageClass {
    /// Liveness probes and teardown: always admitted. Shedding a `Ping`
    /// would make an overloaded server look dead (triggering reconnect
    /// storms — the opposite of load shedding), and shedding teardown
    /// (`Deregister`, `Rejoin`) would keep dead state alive.
    Liveness,
    /// Ordinary control-plane traffic (coupling, events, permissions,
    /// commands) plus the completion messages of in-flight transfers
    /// (`StateReply`, `StateApplied`, `ExecuteDone`) — completions
    /// *free* server state, so shedding them would wedge live transfer
    /// groups and make overload worse. Server-to-client kinds arriving
    /// inbound are protocol misuse; they are budgeted as control traffic
    /// and then answered by the dispatch's counted `unexpected` arm.
    Control,
    /// Bulk state-synchronization *initiators* (`CopyFrom`, `CopyTo`,
    /// `CopyDelta`, `RemoteCopy`, undo/redo): the most expensive work a
    /// client can request, shed first.
    Bulk,
}

/// Expands the protocol table — one row per wire kind: the variant with
/// its doc comment, its tag byte, its kind name, its [`MessageClass`] and
/// its typed fields in wire order — into [`Message`], [`MessageKind`] and
/// the per-kind codec arms behind [`crate::codec::encode_message`] /
/// [`crate::codec::decode_message`]. A field type is anything implementing
/// [`Wire`].
///
/// A tag used twice does not compile: the `MessageKind` discriminants
/// collide and the second `from_tag` arm is unreachable.
macro_rules! protocol {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal, $kind:literal, $class:ident $({
            $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
        })? ,
    )*) => {
        /// A message of the COSOFT client↔server protocol.
        ///
        /// The protocol is application-independent: it is defined entirely
        /// over UI objects, their states and their callback events, plus the
        /// `CoSendCommand` escape hatch for application-defined extensions
        /// (§3.4).
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $( $(#[$vmeta])* $variant $({ $( $(#[$fmeta])* $field: $fty ),* })? , )*
        }

        /// The kind of a [`Message`] without its fields; the discriminant
        /// is the wire tag byte.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum MessageKind {
            $( $(#[$vmeta])* $variant = $tag, )*
        }

        impl MessageKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [MessageKind] = &[$(MessageKind::$variant),*];

            /// The kind a wire tag byte stands for.
            pub fn from_tag(tag: u8) -> Option<MessageKind> {
                #[deny(unreachable_patterns)]
                match tag {
                    $( $tag => Some(MessageKind::$variant), )*
                    _ => None,
                }
            }

            /// Short kind name for logging and metrics.
            pub fn name(self) -> &'static str {
                match self {
                    $( MessageKind::$variant => $kind, )*
                }
            }

            /// The kind's overload priority class. A row cannot leave
            /// the column out, so a new kind does not compile until its
            /// class is decided.
            pub fn class(self) -> MessageClass {
                match self {
                    $( MessageKind::$variant => MessageClass::$class, )*
                }
            }
        }

        impl Message {
            /// Every kind name in the protocol, in declaration order. The
            /// golden-vector suite (`crates/wire/tests/golden.rs`) asserts
            /// its vector table covers exactly this list.
            pub const ALL_KINDS: &'static [&'static str] = &[$($kind),*];

            /// The kind of this message.
            pub fn kind(&self) -> MessageKind {
                match self {
                    $( Message::$variant { .. } => MessageKind::$variant, )*
                }
            }

            /// Short variant name for logging and metrics.
            pub fn kind_name(&self) -> &'static str {
                self.kind().name()
            }

            /// Appends the fields (everything after the tag byte).
            pub(crate) fn put_fields(&self, buf: &mut BytesMut) {
                match self {
                    $( Message::$variant { $($($field),*)? } => {
                        $($( Wire::put($field, buf); )*)?
                    } )*
                }
            }

            /// Decodes the fields of a `kind` message.
            pub(crate) fn get_fields(
                kind: MessageKind,
                buf: &mut Bytes,
            ) -> Result<Message, WireError> {
                Ok(match kind {
                    $( MessageKind::$variant => {
                        Message::$variant { $($($field: Wire::get(buf)?),*)? }
                    } )*
                })
            }
        }
    };
}

protocol! {
    // ---- session management (client → server) -------------------------
    /// Register a new application instance; the server assigns an
    /// [`InstanceId`] and answers with [`Message::Welcome`].
    Register = 0, "register", Control {
        /// The registering user.
        user: UserId,
        /// Host name of the workstation.
        host: String,
        /// Application name.
        app_name: String,
    },
    /// Graceful instance termination; triggers automatic decoupling.
    Deregister = 1, "deregister", Liveness,
    /// Reclaim a quarantined instance after a connection drop. Carries the
    /// opaque token issued in [`Message::SessionToken`]; on success the
    /// server re-binds the old [`InstanceId`] — with its couples and access
    /// rights intact — to the new connection and answers with
    /// [`Message::Welcome`] followed by a fresh [`Message::SessionToken`].
    Rejoin = 33, "rejoin", Liveness {
        /// Token proving ownership of the quarantined instance.
        resume_token: u64,
    },
    /// Liveness probe. Either side may send it; the peer answers with
    /// [`Message::Pong`] echoing the nonce. Any traffic counts as liveness,
    /// so pings are only needed on otherwise-idle connections.
    Ping = 34, "ping", Liveness {
        /// Opaque nonce echoed in the reply.
        nonce: u64,
    },
    /// Reply to [`Message::Ping`].
    Pong = 35, "pong", Liveness {
        /// Echo of the probe nonce.
        nonce: u64,
    },
    /// Ask for the registration records of all instances (used by the
    /// classroom join UI to show the "stylized classroom situation").
    QueryInstances = 2, "query-instances", Control,

    // ---- session management (server → client) -------------------------
    /// Registration accepted.
    Welcome = 3, "welcome", Control {
        /// The id assigned to the newly registered instance.
        instance: InstanceId,
    },
    /// Reply to [`Message::QueryInstances`].
    InstanceList = 4, "instance-list", Control {
        /// One record per live instance.
        entries: Vec<InstanceInfo>,
    },
    /// Resume credential for the instance this connection is bound to,
    /// sent right after [`Message::Welcome`] (and re-issued, rotated, after
    /// every successful [`Message::Rejoin`]). Presenting it within the
    /// server's grace period reclaims the instance.
    SessionToken = 36, "session-token", Control {
        /// The (rotating) resume token.
        resume_token: u64,
    },

    // ---- coupling management -------------------------------------------
    /// Create a couple link from `src` to `dst` (client → server).
    Couple = 5, "couple", Control {
        /// Source object of the directed couple link.
        src: GlobalObjectId,
        /// Destination object.
        dst: GlobalObjectId,
    },
    /// Remove the couple link between `src` and `dst` (client → server).
    Decouple = 6, "decouple", Control {
        /// Source object of the link to remove.
        src: GlobalObjectId,
        /// Destination object of the link to remove.
        dst: GlobalObjectId,
    },
    /// Third-party coupling: couple objects in two *remote* instances
    /// (§3.3 `RemoteCouple`), e.g. initiated from the teacher's control UI.
    RemoteCouple = 7, "remote-couple", Control {
        /// First object.
        a: GlobalObjectId,
        /// Second object.
        b: GlobalObjectId,
    },
    /// Third-party decoupling (§3.3 `RemoteDecouple`).
    RemoteDecouple = 8, "remote-decouple", Control {
        /// First object.
        a: GlobalObjectId,
        /// Second object.
        b: GlobalObjectId,
    },
    /// Server → all group members: the membership of a coupling group
    /// changed; "the coupling information is replicated for each object
    /// (to be completely available locally)" (§3.2).
    CoupleUpdate = 9, "couple-update", Control {
        /// Complete transitive closure of the group, including local
        /// members of the receiving instance.
        group: Vec<GlobalObjectId>,
    },
    /// Ask the server for the coupled set `CO(o)` of an object.
    ListCoupled = 10, "list-coupled", Control {
        /// The object whose group is queried.
        object: GlobalObjectId,
    },
    /// Client → server: a UI object was destroyed; the server applies the
    /// decoupling algorithm automatically (§3.2: "when a UI object is
    /// destroyed or an application instance terminates").
    ObjectDestroyed = 32, "object-destroyed", Control {
        /// The destroyed object.
        object: GlobalObjectId,
    },
    /// Reply to [`Message::ListCoupled`].
    CoupledSet = 11, "coupled-set", Control {
        /// The queried object.
        object: GlobalObjectId,
        /// All objects transitively coupled with it (excluding itself).
        coupled: Vec<GlobalObjectId>,
    },

    // ---- synchronization by multiple execution (§3.2) -------------------
    /// Client → server: a callback event occurred on a coupled object.
    Event = 12, "event", Control {
        /// The object the event occurred on.
        origin: GlobalObjectId,
        /// The event, packed with parameters.
        event: UiEvent,
        /// Client-chosen sequence number echoed in grant/reject replies.
        seq: u64,
    },
    /// Server → origin: floor control granted; proceed with local callback
    /// execution and reply [`Message::ExecuteDone`] when finished.
    EventGranted = 13, "event-granted", Control {
        /// Echo of the client sequence number.
        seq: u64,
        /// Server-assigned execution id shared by the whole group.
        exec_id: u64,
    },
    /// Server → origin: a member of the group was already locked; "undo
    /// syntactic built-in feedback of the event".
    EventRejected = 14, "event-rejected", Control {
        /// Echo of the client sequence number.
        seq: u64,
    },
    /// Server → other group members: disable the target object, simulate
    /// the feedback of the event and execute its callbacks.
    ExecuteEvent = 15, "execute-event", Control {
        /// Server-assigned execution id.
        exec_id: u64,
        /// Local object the event is re-executed on.
        target: ObjectPath,
        /// The original event (its path is the *origin's* path; apply to
        /// `target` via [`UiEvent::retarget`]).
        event: UiEvent,
    },
    /// Client → server: re-execution of `exec_id` finished locally.
    ExecuteDone = 16, "execute-done", Control {
        /// The finished execution.
        exec_id: u64,
    },
    /// Server → all group members: all re-executions finished; unlock and
    /// re-enable the listed local objects.
    GroupUnlocked = 17, "group-unlocked", Control {
        /// The finished execution.
        exec_id: u64,
        /// Local objects to re-enable.
        objects: Vec<ObjectPath>,
    },

    // ---- synchronization by UI state (§3.1) ------------------------------
    /// Active synchronization: the requesting instance pulls the state of
    /// `src` into its own object `dst` ("monitoring another person's
    /// activities").
    CopyFrom = 18, "copy-from", Bulk {
        /// Remote source object.
        src: GlobalObjectId,
        /// Local destination object of the requester.
        dst: GlobalObjectId,
        /// How to reconcile structure differences.
        mode: CopyMode,
        /// Request id echoed through the state-transfer sub-protocol.
        req_id: u64,
    },
    /// Passive synchronization: the sending instance pushes a snapshot of
    /// its object `src` to remote object `dst` ("one person lets another
    /// person see his or her work").
    CopyTo = 19, "copy-to", Bulk {
        /// Local source object of the sender.
        src: GlobalObjectId,
        /// Remote destination object.
        dst: GlobalObjectId,
        /// Snapshot of `src`'s relevant state (incl. semantic payloads).
        snapshot: StateNode,
        /// How to reconcile structure differences.
        mode: CopyMode,
        /// Request id.
        req_id: u64,
    },
    /// [`Message::CopyTo`] as the edits since the last state of `src`
    /// that crossed the sender's connection — pushed, requested
    /// ([`Message::StateReply`]) or applied there — which both ends hold
    /// as the object's sync base. The server replays `delta` on its copy
    /// of that base and goes on as for a `CopyTo` of the result. If it
    /// holds no base carrying `base_version`, the edits do not apply, or
    /// the result does not hash to `new_version`, it asks for the state
    /// in full ([`Message::StateRequest`]) instead; only the owner of
    /// `src` may send one.
    CopyDelta = 39, "copy-delta", Bulk {
        /// Local source object of the sender.
        src: GlobalObjectId,
        /// Remote destination object.
        dst: GlobalObjectId,
        /// Content version of the sync base the delta was diffed against.
        base_version: u64,
        /// Content version of the snapshot the delta reconstructs.
        new_version: u64,
        /// The attribute-level edits.
        delta: StateDelta,
        /// How to reconcile structure differences.
        mode: CopyMode,
        /// Request id.
        req_id: u64,
    },
    /// Third-party copy (§3.1 `RemoteCopy`): copy `src` (in one remote
    /// instance) to `dst` (in another) on behalf of the sender.
    RemoteCopy = 20, "remote-copy", Bulk {
        /// Remote source object.
        src: GlobalObjectId,
        /// Remote destination object.
        dst: GlobalObjectId,
        /// How to reconcile structure differences.
        mode: CopyMode,
        /// Request id.
        req_id: u64,
    },
    /// Server → source instance: produce a snapshot of the object at
    /// `path` (relevant attributes + semantic `store` payloads).
    StateRequest = 21, "state-request", Control {
        /// Server-side transfer id.
        req_id: u64,
        /// Local object to snapshot.
        path: ObjectPath,
    },
    /// Source instance → server: the requested snapshot.
    StateReply = 22, "state-reply", Control {
        /// Echo of the transfer id.
        req_id: u64,
        /// The snapshot, or `None` if the object does not exist.
        snapshot: Option<StateNode>,
    },
    /// Server → destination instance: apply `snapshot` to the object at
    /// `path` using `mode`; reply with [`Message::StateApplied`].
    ApplyState = 23, "apply-state", Control {
        /// Server-side transfer id.
        req_id: u64,
        /// Local destination object.
        path: ObjectPath,
        /// Snapshot to apply.
        snapshot: StateNode,
        /// Reconciliation mode.
        mode: CopyMode,
    },
    /// Server → destination instance: apply an attribute-level delta to
    /// the object at `path`, provided the receiver's sync base for that
    /// object still carries `base_version`; reply with
    /// [`Message::StateApplied`]. On a version mismatch the receiver
    /// replies with an error and the server falls back to a full
    /// [`Message::ApplyState`] snapshot.
    ApplyDelta = 38, "apply-delta", Control {
        /// Server-side transfer id.
        req_id: u64,
        /// Local destination object.
        path: ObjectPath,
        /// Content version of the sync base the delta was diffed against.
        base_version: u64,
        /// Content version of the state the delta reconstructs.
        new_version: u64,
        /// The attribute-level edits.
        delta: StateDelta,
        /// Reconciliation mode for applying the reconstructed state.
        mode: CopyMode,
    },
    /// Destination instance → server: state applied; `overwritten` holds
    /// the attributes the apply overwrote, with the values they had —
    /// not the whole object — stored by the server as a historical UI
    /// state for undo (§2.2). The server only files it and reads it
    /// again at undo, so the field stays encoded: decoding the message
    /// checks the state's bytes and slices them out of the frame, and
    /// the history stack keeps that slice. In steady state those bytes
    /// are the very base an [`Message::ApplyDelta`] leg was diffed
    /// against; the destination then answers [`Overwritten::Base`] — one
    /// byte — and the server files the encoding of that base it kept.
    StateApplied = 24, "state-applied", Control {
        /// Echo of the transfer id.
        req_id: u64,
        /// What the apply overwrote on the destination object, if it
        /// existed and the apply succeeded: option tag 0 for none, 1
        /// followed by the state, 2 for [`Overwritten::Base`].
        overwritten: Option<Overwritten>,
        /// Error description if the apply failed (e.g. strict-mode
        /// incompatibility).
        error: Option<String>,
    },
    /// Ask the server to restore the most recent overwritten state of an
    /// object (undo of synchronization-by-state).
    UndoState = 25, "undo-state", Bulk {
        /// The object to restore.
        object: GlobalObjectId,
    },
    /// Ask the server to re-apply an undone state (redo).
    RedoState = 26, "redo-state", Bulk {
        /// The object to restore.
        object: GlobalObjectId,
    },

    // ---- access control ---------------------------------------------------
    /// Declare an access-permission tuple (owner of the state → server).
    SetPermission = 27, "set-permission", Control {
        /// The user the right is granted to.
        user: UserId,
        /// The UI state (object) the right applies to.
        object: GlobalObjectId,
        /// The granted right.
        right: AccessRight,
    },
    /// Server → client: an operation was refused by access control.
    PermissionDenied = 28, "permission-denied", Control {
        /// Human-readable description of the refused operation.
        what: String,
    },

    // ---- protocol extension (§3.4) -----------------------------------------
    /// Application-defined command: "a symbolic name of a function together
    /// with a packed message"; routed by the server without interpretation.
    CoSendCommand = 29, "co-send-command", Control {
        /// Routing target.
        to: Target,
        /// Symbolic command name; the receiver looks up the corresponding
        /// unpack-and-interpret function.
        command: String,
        /// Packed message.
        payload: Vec<u8>,
    },
    /// Server → receiver: delivery of a `CoSendCommand`.
    CommandDelivery = 30, "command-delivery", Control {
        /// Originating instance.
        from: InstanceId,
        /// Symbolic command name.
        command: String,
        /// Packed message.
        payload: Vec<u8>,
    },

    // ---- errors -------------------------------------------------------------
    /// Server → client: an operation failed.
    ErrorReply = 31, "error-reply", Control {
        /// What the client asked for.
        context: String,
        /// Why it failed.
        reason: String,
    },

    // ---- overload control ---------------------------------------------------
    /// Server → client: the message was shed by admission control (the
    /// endpoint's budget or the server's byte budget is exhausted). The
    /// request was *not* processed; the client should back off for at
    /// least `retry_after_ms` before retrying. Unlike a disconnect this
    /// keeps the session alive — only sustained abuse escalates to the
    /// §3.2 auto-decoupling path.
    Busy = 37, "busy", Control {
        /// Advisory back-off in milliseconds before retrying.
        retry_after_ms: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_right_lattice() {
        assert!(!AccessRight::Denied.allows_read());
        assert!(!AccessRight::Denied.allows_write());
        assert!(AccessRight::Read.allows_read());
        assert!(!AccessRight::Read.allows_write());
        assert!(AccessRight::Write.allows_read());
        assert!(AccessRight::Write.allows_write());
        assert!(AccessRight::Denied < AccessRight::Read);
        assert!(AccessRight::Read < AccessRight::Write);
    }

    #[test]
    fn kind_names_are_distinct() {
        use std::collections::HashSet;
        let msgs = [
            Message::Deregister,
            Message::QueryInstances,
            Message::Welcome { instance: InstanceId(1) },
            Message::ExecuteDone { exec_id: 1 },
            Message::EventRejected { seq: 1 },
        ];
        let names: HashSet<&str> = msgs.iter().map(|m| m.kind_name()).collect();
        assert_eq!(names.len(), msgs.len());
    }

    #[test]
    fn display_impls() {
        assert_eq!(AccessRight::Write.to_string(), "write");
        assert_eq!(CopyMode::FlexibleMatch.to_string(), "flexible-match");
    }
}
