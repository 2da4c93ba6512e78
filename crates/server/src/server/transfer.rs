//! Synchronization by state (§3.1): copies, undo and redo as transfer
//! groups that own their legs, and the per-object sync bases that let a
//! leg or a push travel as a delta.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use cosoft_wire::delta::{self, VersionedState};
use cosoft_wire::{
    codec, Bytes, CopyMode, EncodedState, GlobalObjectId, InstanceId, Message, Overwritten,
    StateDelta, StateNode,
};

use super::{Outgoing, ServerCore};

/// What a state transfer is doing, which decides how its completion is
/// recorded in the history store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TransferKind {
    /// A CopyFrom / CopyTo / RemoteCopy.
    Copy,
    /// An undo restoring a historical state.
    Undo,
    /// A redo re-applying an undone state.
    Redo,
}

/// A state that crossed (or is being sent down) an object's connection,
/// in the three forms the server uses it in. All three are shared: across
/// the legs of one fan-out, with the sync bases they become — the
/// pushing source's and each acknowledging destination's — and, the
/// encoding, with the history entries filed from it. An object's sync
/// base is kept in its instance's registry record.
#[derive(Debug, Clone)]
pub(crate) struct SyncBase {
    /// The tree with the hash of every node, the root's being its version
    /// ([`delta::state_version`]): the next transfer is diffed against
    /// it, and the next `CopyDelta` edits and rehashes a clone of it.
    state: Arc<VersionedState>,
    /// The canonical encoding of the tree: what a full `ApplyState` leg
    /// splices in, and what the history files when a destination
    /// acknowledges by reference that it overwrote this. Made at once,
    /// because in the steady state of a presenter and its viewers every
    /// base is filed so a round later.
    pub(crate) encoded: EncodedState,
}

impl SyncBase {
    /// Hashes `state` and encodes it, once each.
    pub(super) fn of(state: StateNode) -> SyncBase {
        SyncBase::hashed(VersionedState::new(state))
    }

    /// Encodes a state whose hashes are known.
    fn hashed(state: VersionedState) -> SyncBase {
        SyncBase { encoded: EncodedState::of(state.state()), state: Arc::new(state) }
    }

    /// The state's version.
    pub(crate) fn version(&self) -> u64 {
        self.state.version()
    }
}

/// A state a fan-out installs and, when a `CopyDelta` brought it, that
/// push's base version and edits: the edits that turn the state of that
/// version into this one.
#[derive(Debug)]
pub(super) struct Carried<'a> {
    pub(super) state: SyncBase,
    pub(super) edits: Option<(u64, &'a StateDelta)>,
}

impl Carried<'_> {
    /// A state that came whole.
    pub(super) fn whole(state: SyncBase) -> Self {
        Carried { state, edits: None }
    }
}

/// Bookkeeping for the snapshot an apply leg carries.
#[derive(Debug, Clone)]
pub(super) struct AppliedSync {
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

/// One request of a state transfer that is still waiting for its answer.
#[derive(Debug, Clone)]
pub(super) enum Leg {
    /// A `StateRequest` waiting for the source's `StateReply`. Records
    /// *both* ends: the destination (so destination death fails the leg)
    /// and the source (so a source dying before it replies fails the leg
    /// too, instead of leaving the group waiting forever). Only `src`'s
    /// instance may answer, and the state it answers with becomes
    /// `src`'s sync base.
    Pull { src: GlobalObjectId, dst: GlobalObjectId, mode: CopyMode },
    /// An `ApplyState`/`ApplyDelta` waiting for the destination's
    /// `StateApplied`. A copy onto a *coupled* destination fans out to
    /// every member of its group (the group must stay consistent), so a
    /// logical transfer owns several of these. `sync` is the state the
    /// leg is installing, kept until the destination acknowledges: a
    /// success installs it as the destination's sync base for future
    /// delta diffs; a failed delta-encoded leg resends its encoding as a
    /// full `ApplyState`.
    Apply { dst: GlobalObjectId, kind: TransferKind, sync: AppliedSync },
}

impl Leg {
    /// The instances whose connections the leg runs between.
    pub(super) fn ends(&self) -> impl Iterator<Item = InstanceId> {
        let (src, dst) = match self {
            Leg::Pull { src, dst, .. } => (Some(src.instance), dst.instance),
            Leg::Apply { dst, .. } => (None, dst.instance),
        };
        src.into_iter().chain([dst])
    }

    /// Why the death of `id` fails the leg, if it does.
    pub(super) fn severed_by(&self, id: InstanceId) -> Option<&'static str> {
        match self {
            Leg::Pull { src, .. } if src.instance == id => {
                Some("source instance terminated before replying")
            }
            Leg::Pull { dst, .. } | Leg::Apply { dst, .. } if dst.instance == id => {
                Some("peer instance terminated")
            }
            Leg::Pull { .. } | Leg::Apply { .. } => None,
        }
    }
}

/// The logical transfer a requester is waiting on, with the legs still
/// outstanding: it is finished when the last one is answered.
#[derive(Debug, Clone)]
pub(super) struct TransferGroup {
    pub(super) requester: InstanceId,
    client_req: u64,
    /// Keyed by the `req_id` each leg went out under.
    pub(super) legs: BTreeMap<u64, Leg>,
    failed: Option<String>,
}

impl<E: Copy + Eq + Hash> ServerCore<E> {
    // ---- groups and their legs ---------------------------------------------

    /// Opens a transfer group for `requester`, with no legs yet.
    fn start_group(&mut self, requester: InstanceId, client_req: u64) -> u64 {
        let group_id = self.next_transfer_group;
        self.next_transfer_group += self.id_stride;
        self.stats.transfers_started += 1;
        self.transfer_groups.insert(
            group_id,
            TransferGroup { requester, client_req, legs: BTreeMap::new(), failed: None },
        );
        group_id
    }

    /// The id the next leg goes out under.
    fn next_leg_id(&mut self) -> u64 {
        let req_id = self.next_transfer;
        self.next_transfer += self.id_stride;
        req_id
    }

    /// Files `leg` under `req_id` with its group (a group that is gone
    /// takes no legs).
    fn add_leg(&mut self, group_id: u64, req_id: u64, leg: Leg) {
        if let Some(group) = self.transfer_groups.get_mut(&group_id) {
            group.legs.insert(req_id, leg);
            self.leg_groups.insert(req_id, group_id);
        }
    }

    /// The outstanding leg that went out under `req_id`.
    fn leg(&self, req_id: u64) -> Option<&Leg> {
        self.transfer_groups.get(self.leg_groups.get(&req_id)?)?.legs.get(&req_id)
    }

    /// Takes the leg that went out under `req_id` off its group: it has
    /// been answered, or never will be.
    pub(super) fn take_leg(&mut self, req_id: u64) -> Option<(u64, Leg)> {
        let group_id = self.leg_groups.remove(&req_id)?;
        let leg = self.transfer_groups.get_mut(&group_id)?.legs.remove(&req_id)?;
        Some((group_id, leg))
    }

    /// Removes a group and, from the index, every leg it still owns, so
    /// that a late `StateReply`/`StateApplied` for one of them finds
    /// nothing to act on.
    pub(super) fn drop_group(&mut self, group_id: u64) -> Option<TransferGroup> {
        let group = self.transfer_groups.remove(&group_id)?;
        for req_id in group.legs.keys() {
            self.leg_groups.remove(req_id);
        }
        Some(group)
    }

    /// Installs a group extracted from another shard, legs included.
    pub(super) fn adopt_group(&mut self, group_id: u64, group: TransferGroup) {
        self.leg_groups.extend(group.legs.keys().map(|req_id| (*req_id, group_id)));
        self.transfer_groups.insert(group_id, group);
    }

    /// Marks a group failed; its requester hears why once the last leg
    /// is in.
    pub(super) fn fail_group(&mut self, group_id: u64, reason: impl Into<String>) {
        if let Some(group) = self.transfer_groups.get_mut(&group_id) {
            group.failed = Some(reason.into());
        }
    }

    /// Answers the requester once no leg is outstanding.
    pub(super) fn maybe_finish_group(&mut self, group_id: u64, out: &mut Outgoing<E>) {
        if self.transfer_groups.get(&group_id).is_none_or(|g| !g.legs.is_empty()) {
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

    /// Checks that the `req_id` index and the groups' leg maps describe
    /// the same legs, and that every group's requester is still there to
    /// be answered.
    pub(super) fn check_transfers(&self) -> Result<(), String> {
        let mut owned = 0;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "the order only decides which violation is reported first"
        )]
        for (group_id, g) in &self.transfer_groups {
            for req_id in g.legs.keys() {
                if self.leg_groups.get(req_id) != Some(group_id) {
                    return Err(format!("leg {req_id} of group {group_id} is not indexed to it"));
                }
            }
            owned += g.legs.len();
            if !self.registry.contains(g.requester) {
                return Err(format!(
                    "group {group_id} awaited by unregistered instance {}",
                    g.requester
                ));
            }
        }
        // Every owned leg is indexed, so a surplus is an entry whose leg
        // or whole group is gone (a late reply would otherwise resurrect
        // state for a dead requester).
        if self.leg_groups.len() != owned {
            return Err(format!(
                "{} leg(s) indexed but the live groups own {owned}",
                self.leg_groups.len()
            ));
        }
        Ok(())
    }

    // ---- the protocol ------------------------------------------------------

    pub(super) fn do_copy(
        &mut self,
        from: InstanceId,
        src: GlobalObjectId,
        dst: GlobalObjectId,
        mode: CopyMode,
        client_req: u64,
        pushed: Option<Carried<'_>>,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // What a session pushes of its own object is that object's sync
        // base from here on — at the session since it sent this — whether
        // or not the copy below is allowed: a refused copy must not leave
        // the two ends a version apart.
        if let Some(pushed) = pushed.as_ref().filter(|_| src.instance == from) {
            if let Some(objects) = self.registry.objects_mut(from) {
                objects.sync_bases.insert(src.path.clone(), pushed.state.clone());
            }
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
        let group_id = self.start_group(from, client_req);
        match pushed {
            // CopyTo / CopyDelta: the sender supplied the state; apply
            // directly.
            Some(pushed) => {
                self.fan_out_apply(group_id, &dst, pushed, mode, TransferKind::Copy, &mut out);
            }
            // CopyFrom / RemoteCopy, or a CopyDelta that could not be
            // rebuilt: pull the state from the source first. A quarantined
            // source will never answer a `StateRequest`; fail the transfer
            // now rather than after the grace period.
            None if !self.registry.is_bound(src.instance) => {
                self.fail_group(group_id, "source instance is unreachable");
            }
            None => {
                let req_id = self.next_leg_id();
                let request = Message::StateRequest { req_id, path: src.path.clone() };
                self.to_instance(src.instance, request, &mut out);
                self.add_leg(group_id, req_id, Leg::Pull { src, dst, mode });
            }
        }
        // No leg went out (the source or every destination unreachable):
        // report instead of hanging.
        self.maybe_finish_group(group_id, &mut out);
        out
    }

    /// The state a `CopyDelta` stands for: `delta` replayed on a clone of
    /// `src`'s sync base, which rehashes only the nodes it edits and their
    /// ancestors, then encoded once — the encoding the fan-out sends and
    /// files. `None`, and no base left, when the base is missing or
    /// carries another version, an edit does not apply, or the result
    /// does not hash to `new_version`.
    pub(super) fn rebuild_push(
        &mut self,
        src: &GlobalObjectId,
        base_version: u64,
        new_version: u64,
        delta: &StateDelta,
    ) -> Option<SyncBase> {
        let bases = &mut self.registry.objects_mut(src.instance)?.sync_bases;
        let base = bases.remove(&src.path).filter(|base| base.version() == base_version)?;
        let mut pushed = VersionedState::clone(&base.state);
        pushed.apply(delta).ok()?;
        (pushed.version() == new_version).then(|| SyncBase::hashed(pushed))
    }

    /// Sends `carried` to `dst` *and every object coupled with it*: a
    /// state copy onto a coupled object must keep its whole group
    /// consistent. Each leg gets its own transfer id so the overwritten
    /// states land in the right history stacks.
    ///
    /// A member holding the base of the `CopyDelta` being fanned out is
    /// sent that push's edits instead of a diff: equal versions are equal
    /// trees, and `diff` of equal trees is the same edits.
    fn fan_out_apply(
        &mut self,
        group_id: u64,
        dst: &GlobalObjectId,
        carried: Carried<'_>,
        mode: CopyMode,
        kind: TransferKind,
        out: &mut Outgoing<E>,
    ) {
        // Quarantined destinations cannot receive state; they reconverge
        // via their own `CopyFrom` resync on rejoin instead of holding
        // the whole transfer group hostage.
        let targets: Vec<(GlobalObjectId, E)> = self
            .couples
            .group_of(dst)
            .into_iter()
            .filter_map(|t| self.registry.endpoint_of(t.instance).map(|endpoint| (t, endpoint)))
            .collect();
        if targets.is_empty() {
            self.fail_group(group_id, "destination instance is unreachable");
            return;
        }
        // The snapshot — by far the heavy part of a state transfer — was
        // serialized exactly once, by whoever built `carried`; each leg's
        // frame splices a shared payload behind its own req-id and target
        // path. Destinations holding a known-good sync base (they
        // acknowledged an earlier snapshot) get an attribute-level
        // `ApplyDelta` diffed against that base instead of the full
        // snapshot; deltas are cached per base version, so one encoded
        // delta serves every group member that last acknowledged the
        // same state.
        let Carried { state: carried, edits: known_edits } = carried;
        self.stats.payload_encodes += 1;
        let mut snapshot_spliced = false;
        let mut delta_cache: HashMap<u64, Bytes> = HashMap::new();
        for (target, endpoint) in targets {
            let req_id = self.next_leg_id();
            let base =
                self.registry.objects(target.instance).and_then(|o| o.sync_bases.get(&target.path));
            let (frame, diffed_against) = match base {
                Some(base) => {
                    let payload = match delta_cache.entry(base.version()) {
                        std::collections::hash_map::Entry::Occupied(e) => {
                            self.stats.payload_reuses += 1;
                            e.into_mut()
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            self.stats.payload_encodes += 1;
                            e.insert(match known_edits {
                                Some((from, edits)) if from == base.version() => {
                                    codec::encode_delta_shared(edits)
                                }
                                _ => codec::encode_delta_shared(&delta::diff(
                                    base.state.state(),
                                    carried.state.state(),
                                )),
                            })
                        }
                    };
                    let frame = codec::frame_apply_delta(
                        req_id,
                        &target.path,
                        base.version(),
                        carried.version(),
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
            let sync = AppliedSync { carried: carried.clone(), mode, diffed_against };
            self.add_leg(group_id, req_id, Leg::Apply { dst: target, kind, sync });
            out.push_shared(vec![endpoint], frame);
        }
    }

    pub(super) fn do_state_reply(
        &mut self,
        from: InstanceId,
        req_id: u64,
        snapshot: Option<StateNode>,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // Transfer ids are sequential, hence guessable: only the instance
        // that was asked may answer. Anyone else leaves the pull waiting.
        match self.leg(req_id) {
            Some(Leg::Pull { src, .. }) if src.instance == from => {}
            Some(Leg::Pull { .. }) => {
                let what = format!("answer state request {req_id}");
                self.to_instance(from, Message::PermissionDenied { what }, &mut out);
                return out;
            }
            // An id that names no outstanding pull gets no answer.
            Some(Leg::Apply { .. }) | None => return out,
        }
        let Some((group_id, Leg::Pull { src, dst, mode })) = self.take_leg(req_id) else {
            return out;
        };
        match snapshot {
            Some(snapshot) => {
                // The state crossed the source's connection: it is the
                // source's sync base, at the session since it answered.
                let pulled = SyncBase::of(snapshot);
                if let Some(objects) = self.registry.objects_mut(from) {
                    objects.sync_bases.insert(src.path, pulled.clone());
                }
                let pulled = Carried::whole(pulled);
                self.fan_out_apply(group_id, &dst, pulled, mode, TransferKind::Copy, &mut out);
            }
            None => self.fail_group(group_id, "source object does not exist"),
        }
        self.maybe_finish_group(group_id, &mut out);
        out
    }

    pub(super) fn do_state_applied(
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
        match self.leg(req_id) {
            Some(Leg::Apply { dst, .. }) if dst.instance == from => {}
            Some(Leg::Apply { .. }) => {
                let what = format!("acknowledge transfer leg {req_id}");
                self.to_instance(from, Message::PermissionDenied { what }, &mut out);
                return out;
            }
            Some(Leg::Pull { .. }) | None => return out,
        }
        let Some((group_id, Leg::Apply { dst, kind, mut sync })) = self.take_leg(req_id) else {
            return out;
        };
        // A refused delta leg — the receiver's sync base was unknown or
        // diverged — falls back to the full snapshot: drop the stale
        // base and put the leg back under a new id, splicing the stored
        // encoding (no failure is recorded, the other legs are
        // unaffected). The receiver just spoke, so it has an endpoint.
        if error.is_some() && sync.diffed_against.is_some() {
            if let Some(objects) = self.registry.objects_mut(dst.instance) {
                objects.sync_bases.remove(&dst.path);
            }
            if let Some(endpoint) = self.registry.endpoint_of(dst.instance) {
                sync.diffed_against = None;
                self.stats.delta_fallbacks += 1;
                self.stats.payload_reuses += 1;
                let new_req = self.next_leg_id();
                let snapshot = sync.carried.encoded.as_slice();
                let frame = codec::frame_apply_state(new_req, &dst.path, snapshot, sync.mode);
                out.push_shared(vec![endpoint], frame);
                self.add_leg(group_id, new_req, Leg::Apply { dst, kind, sync });
                return out;
            }
        }
        // What the apply overwrote, as the bytes to file: the slice of the
        // reply frame, or — acknowledged by reference — the encoding this
        // leg's delta was diffed against, which the server kept. Only a
        // delta leg has one; the reference in answer to any other leg
        // names nothing, and fails the leg.
        let prev = match (overwritten, sync.diffed_against) {
            (Some(Overwritten::State(prev)), _) => Some(prev),
            (Some(Overwritten::Base), Some(base)) => {
                self.stats.acks_by_reference += 1;
                Some(base)
            }
            (Some(Overwritten::Base), None) => {
                error.get_or_insert_with(|| {
                    "acknowledged by reference to a base the leg did not carry".into()
                });
                None
            }
            (None, _) => None,
        };
        match error {
            Some(reason) => self.fail_group(group_id, reason),
            // A successful apply makes the carried state the destination's
            // sync base — the next transfer to this object can travel as
            // an attribute-level delta against it — and what it overwrote
            // a historical UI state. A failed one leaves both as they
            // were.
            None => {
                if let Some(objects) = self.registry.objects_mut(dst.instance) {
                    objects.sync_bases.insert(dst.path.clone(), sync.carried);
                    let history = &mut objects.history;
                    match (kind, prev) {
                        (TransferKind::Copy, Some(prev)) => history.record_overwrite(dst, prev),
                        (TransferKind::Undo, Some(prev)) => history.record_undone(dst, prev),
                        (TransferKind::Redo, Some(prev)) => history.record_redone(dst, prev),
                        (_, None) => {}
                    }
                }
            }
        }
        self.maybe_finish_group(group_id, &mut out);
        out
    }

    pub(super) fn do_undo(
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
        let history = self.registry.objects_mut(object.instance).map(|o| &mut o.history);
        let popped = match (kind, history) {
            (TransferKind::Undo, Some(history)) if reachable => history.pop_undo(&object),
            (TransferKind::Redo, Some(history)) if reachable => history.pop_redo(&object),
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
        let group_id = self.start_group(from, 0);
        // Undo/redo also fans out to the object's coupling group so the
        // group stays consistent.
        let restored = Carried::whole(SyncBase::of(snapshot));
        self.fan_out_apply(group_id, &object, restored, CopyMode::DestructiveMerge, kind, &mut out);
        self.maybe_finish_group(group_id, &mut out);
        out
    }
}
