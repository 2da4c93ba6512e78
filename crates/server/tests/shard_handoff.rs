//! Cross-shard component migration seen from the clients: a cross-shard
//! `Couple` merging two components, what a migration carries (sync
//! bases, rights, rounds it has to cut), and what a deployment can do in
//! the turns around one — the requester disconnecting, an instance
//! expiring before it is named. `ShardRouter::migrate` moves a component
//! in one call, so nothing can reach it mid-move. Two tests at the end
//! pin what a client may not be able to tell from its deliveries: how
//! many shards there are (the same deliveries on 1, 2 and 4 shards), and
//! how hard a stranger is flooding (a polite group's deliveries
//! unchanged by a 1×/4×/16× flooder that is shed, told `Busy`, then
//! evicted).

use cosoft_net::NetEvent;
use cosoft_server::{LivenessConfig, OverloadConfig, ShardRouter};
use cosoft_wire::{
    delta, AccessRight, AttrName, CopyMode, EventKind, GlobalObjectId, InstanceId, Message,
    ObjectPath, Overwritten, StateNode, Target, UiEvent, UserId, Value, WidgetKind,
};

type Endpoint = u32;

fn gid(i: InstanceId, p: &str) -> GlobalObjectId {
    GlobalObjectId::new(i, ObjectPath::parse(p).unwrap())
}

/// Registers `n` clients on a fresh 2-shard router (round-robin: even
/// endpoints on shard 0, odd on shard 1) and returns their instances.
fn registered(n: u32) -> (ShardRouter<Endpoint>, Vec<InstanceId>) {
    registered_on(ShardRouter::new(2), n)
}

fn registered_on(
    mut router: ShardRouter<Endpoint>,
    n: u32,
) -> (ShardRouter<Endpoint>, Vec<InstanceId>) {
    let mut instances = Vec::new();
    for e in 0..n {
        let out = router
            .handle(
                e,
                Message::Register {
                    user: UserId(u64::from(e) + 1),
                    host: format!("ws{e}"),
                    app_name: "handoff".into(),
                },
            )
            .into_messages();
        let welcome = out.iter().find_map(|(_, m)| match m {
            Message::Welcome { instance } => Some(*instance),
            _ => None,
        });
        instances.push(welcome.expect("registration yields Welcome"));
        router.check_invariants().unwrap();
    }
    (router, instances)
}

/// A cross-shard `Couple` runs the merge transparently: afterwards both
/// instances live on one shard, the registries stay disjoint, and the
/// sender gets its normal `CoupleUpdate` — no client-visible shard
/// seams.
#[test]
fn cross_shard_couple_merges_components() {
    let (mut router, inst) = registered(2);
    assert_ne!(
        router.shard_of_instance(inst[0]),
        router.shard_of_instance(inst[1]),
        "round-robin must have split the two instances"
    );
    let out = router
        .handle(0, Message::Couple { src: gid(inst[0], "a"), dst: gid(inst[1], "a") })
        .into_messages();
    assert!(
        out.iter().any(|(_, m)| matches!(m, Message::CoupleUpdate { .. })),
        "couple must fan out CoupleUpdate, got {out:?}"
    );
    assert!(
        !out.iter().any(|(_, m)| matches!(m, Message::ErrorReply { .. })),
        "merge must be invisible, got {out:?}"
    );
    assert_eq!(router.shard_of_instance(inst[0]), router.shard_of_instance(inst[1]));
    assert_eq!(router.router_stats().cross_shard_merges, 1);
    assert_eq!(router.router_stats().handoffs_completed, 1);
    assert!(router.router_stats().instances_migrated >= 1);
    router.check_invariants().unwrap();
}

/// The requester disconnects in the turn after its cross-shard `Couple`
/// moved it: the disconnect finds it on the merged shard, where it is
/// torn down, and its partners learn the group they are left with.
#[test]
fn requester_disconnects_the_turn_after_its_cross_shard_couple() {
    let (mut router, inst) = registered(4);
    // The partners couple on shard 1 first, so the requester's singleton
    // is the smaller side and moves.
    router.handle(1, Message::Couple { src: gid(inst[1], "a"), dst: gid(inst[3], "a") });
    let home = router.shard_of_instance(inst[0]).unwrap();
    let merged = router.shard_of_instance(inst[1]).unwrap();
    assert_ne!(home, merged);

    let couple = Message::Couple { src: gid(inst[0], "a"), dst: gid(inst[1], "a") };
    router.turn([NetEvent::Message(0, couple)], 0);
    assert_eq!(router.shard_of_instance(inst[0]), Some(merged), "the requester moved");
    assert_eq!(router.router_stats().handoffs_completed, 1);

    let out = router.turn([NetEvent::Disconnected(0)], 1).into_messages();
    assert_eq!(router.shard_of_instance(inst[0]), None, "torn down");
    let left = vec![gid(inst[1], "a"), gid(inst[3], "a")];
    let update = Message::CoupleUpdate { group: left };
    assert_eq!(out, [(1, update.clone()), (3, update)]);
    assert_eq!(router.shard(merged).registry().len(), 2);
    router.check_invariants().unwrap();
}

/// A `Couple` naming an instance that expired earlier in the same turn
/// moves nothing. Instance 1 sits in quarantine on shard 1; in one turn
/// instance 3 disconnects there too, and the one-entry quarantine store
/// expires instance 1 early to make room, before instance 0 names it.
#[test]
fn couple_naming_an_instance_expired_earlier_in_the_turn_migrates_nothing() {
    let liveness = LivenessConfig { grace_us: 1_000_000, idle_timeout_us: 0, max_quarantined: 1 };
    let (mut router, inst) = registered_on(ShardRouter::with_liveness(2, liveness), 4);
    router.turn([NetEvent::Disconnected(1)], 0);
    let quarantined = router.shard_of_instance(inst[1]).unwrap();
    assert!(!router.shard(quarantined).registry().is_bound(inst[1]));
    assert_ne!(router.shard_of_instance(inst[0]), Some(quarantined));
    let before = router.router_stats();

    let couple = Message::Couple { src: gid(inst[0], "a"), dst: gid(inst[1], "a") };
    let out = router.turn([NetEvent::Disconnected(3), NetEvent::Message(0, couple)], 1);
    assert_eq!(router.shard_of_instance(inst[1]), None, "expired to make room");
    assert_eq!(router.stats().quarantine_store_evictions, 1);
    let after = router.router_stats();
    assert_eq!(after.handoffs_completed, before.handoffs_completed, "nothing migrated");
    assert_eq!(after.cross_shard_merges, before.cross_shard_merges);
    assert!(out.into_messages().iter().all(|(e, _)| *e == 0), "only the requester hears back");
    router.check_invariants().unwrap();
}

/// A `Rejoin` from an endpoint that is already bound is refused, as one
/// core refuses it, even when the token belongs to a quarantined
/// instance on another shard: the rejoin goes to the sender's own shard,
/// so one endpoint is never bound on two.
#[test]
fn a_bound_endpoint_presenting_another_shards_token_is_refused() {
    let liveness = LivenessConfig { grace_us: 1_000_000, idle_timeout_us: 0, max_quarantined: 0 };
    let transcript = |shards: usize| {
        let mut router: ShardRouter<Endpoint> = ShardRouter::with_liveness(shards, liveness);
        let mut tokens = Vec::new();
        for e in 0..2 {
            let msg =
                Message::Register { user: UserId(1), host: "ws".into(), app_name: "r".into() };
            let out = router.handle(e, msg).into_messages();
            tokens.extend(out.iter().filter_map(|(_, m)| match m {
                Message::SessionToken { resume_token } => Some(*resume_token),
                _ => None,
            }));
        }
        router.disconnect(1);
        let out = router.handle(0, Message::Rejoin { resume_token: tokens[1] }).into_messages();
        router.check_invariants().unwrap();
        assert_eq!(router.stats().quarantined_instances, 1, "instance 2 stays quarantined");
        out
    };
    let one = transcript(1);
    assert!(matches!(&one[..], [(0, Message::ErrorReply { .. })]), "{one:?}");
    assert_eq!(transcript(2), one);
}

/// A round whose group is decoupled under it straddles two components.
/// When one of them migrates, the round sheds the far side — its owed
/// replies and its locks alike: a lock kept on an object that now lives
/// on another shard would meet that object's own next round when the two
/// components are coupled again.
#[test]
fn straddling_round_sheds_the_far_sides_locks_with_its_replies() {
    let (mut router, inst) = registered(2);
    let (a, b) = (gid(inst[0], "o"), gid(inst[1], "o"));
    let event = || UiEvent::simple(a.path.clone(), EventKind::Activate);
    router.handle(0, Message::Couple { src: a.clone(), dst: b.clone() });
    router.handle(0, Message::Event { event: event(), seq: 1 });
    router.handle(0, Message::Decouple { src: a.clone(), dst: b.clone() });
    let home = router.shard_of_instance(inst[1]).unwrap();
    assert!(router.shard(home).locks().is_locked(&b), "the round locked the whole group");

    // `b` moves away alone; the round stays with `a`, its submitter.
    router.migrate(inst[1], 1 - home);
    assert!(router.shard(home).locks().is_locked(&a));
    assert!(!router.shard(home).locks().is_locked(&b), "a lock on an object that left");
    router.check_invariants().unwrap();

    // `b` runs a round of its own where it lives now, and while that one
    // is open the two are coupled again: each round arrives with exactly
    // the locks of its own side.
    router.handle(1, Message::Event { event: event(), seq: 2 });
    router.handle(0, Message::Couple { src: a.clone(), dst: b.clone() });
    router.check_invariants().unwrap();
    let merged = router.shard_of_instance(inst[0]).unwrap();
    assert_eq!(router.shard_of_instance(inst[1]), Some(merged));
    assert_eq!((router.stats().live_execs, router.stats().held_locks), (2, 2));
}

/// Re-merging an already-merged component is an idempotent no-op: the
/// second `Couple` finds everything colocated (no second migration), and
/// a migration toward the component's own shard, of an unknown instance
/// or toward a shard that does not exist changes nothing.
#[test]
fn re_merge_is_idempotent() {
    let (mut router, inst) = registered(2);
    router
        .handle(0, Message::Couple { src: gid(inst[0], "a"), dst: gid(inst[1], "a") })
        .into_messages();
    let merged_stats = router.router_stats();
    assert_eq!(merged_stats.handoffs_completed, 1);
    let home = router.shard_of_instance(inst[0]).unwrap();

    // Same couple again: already colocated, no cross-shard machinery.
    router
        .handle(0, Message::Couple { src: gid(inst[0], "a"), dst: gid(inst[1], "a") })
        .into_messages();
    assert_eq!(router.router_stats(), merged_stats);

    for (seed, target) in [(inst[0], home), (InstanceId(9_999), 1 - home), (inst[0], 2)] {
        assert!(router.migrate(seed, target).into_messages().is_empty());
    }
    assert_eq!(router.router_stats(), merged_stats);
    assert_eq!(router.shard_of_instance(inst[0]), Some(home));
    router.check_invariants().unwrap();
}

/// A destination's sync base migrates whole — version, tree and the
/// encoding a by-reference acknowledgement files. Copy onto a lone viewer,
/// couple it across shards into a larger component (which moves it, base
/// and history with it), copy again: the migrated viewer gets a delta and
/// may answer by reference, the history entry filed on the new shard is
/// the first copy's state, and the undo of it restores that state on
/// every viewer of the merged group.
#[test]
fn sync_base_survives_migration_and_is_filed_by_reference() {
    let (mut router, inst) = registered(4);
    let (presenter, lone, pair) = (inst[0], inst[2], [inst[1], inst[3]]);
    assert_eq!(router.shard_of_instance(presenter), router.shard_of_instance(lone));
    let board = gid(lone, "f");
    let state = |text: &str| {
        StateNode::new(WidgetKind::Form, "f").with_child(
            StateNode::new(WidgetKind::TextField, "t")
                .with_attr(AttrName::Text, Value::Text(text.into())),
        )
    };
    let (v1, v2) = (state("v1"), state("v2"));
    let copy = |router: &mut ShardRouter<Endpoint>, snapshot: &StateNode, req_id: u64| {
        let msg = Message::CopyTo {
            src: gid(presenter, "f"),
            dst: board.clone(),
            snapshot: snapshot.clone(),
            mode: CopyMode::Strict,
            req_id,
        };
        let out = router.handle(0, msg).into_messages();
        router.check_invariants().unwrap();
        out
    };
    let ack = |router: &mut ShardRouter<Endpoint>, endpoint, req_id, overwritten| {
        let out = router
            .handle(endpoint, Message::StateApplied { req_id, overwritten, error: None })
            .into_messages();
        assert!(!out.iter().any(|(_, m)| matches!(m, Message::ErrorReply { .. })), "{out:?}");
        router.check_invariants().unwrap();
    };

    // First contact, on the shard the presenter and the viewer share.
    let out = copy(&mut router, &v1, 1);
    let [(2, Message::ApplyState { req_id, .. })] = &out[..] else {
        panic!("one full leg to the lone viewer, got {out:?}");
    };
    ack(&mut router, 2, *req_id, Some(state("own").into()));

    // The other shard's pair couples the viewer in: the smaller
    // component — the viewer's, with its base and history — moves.
    let home = router.shard_of_instance(lone).unwrap();
    router.handle(1, Message::Couple { src: gid(pair[0], "f"), dst: gid(pair[1], "f") });
    router.handle(1, Message::Couple { src: gid(pair[0], "f"), dst: board.clone() });
    assert_eq!(router.shard_of_instance(lone), Some(1 - home), "the viewer migrated");
    assert_eq!(router.shard_of_instance(pair[0]), Some(1 - home));
    router.check_invariants().unwrap();

    // Second copy: a delta against the migrated base for the viewer,
    // which overwrote exactly that base; full snapshots for the newcomers.
    let out = copy(&mut router, &v2, 2);
    for (endpoint, leg) in &out {
        match leg {
            Message::ApplyDelta { req_id, base_version, delta: d, .. } if *endpoint == 2 => {
                assert_eq!(*base_version, delta::state_version(&v1));
                assert_eq!(delta::apply(&v1, d).unwrap(), v2);
                ack(&mut router, 2, *req_id, Some(Overwritten::Base));
            }
            Message::ApplyState { req_id, .. } if *endpoint != 2 => {
                ack(&mut router, *endpoint, *req_id, Some(state("own").into()));
            }
            other => panic!("unexpected leg to endpoint {endpoint}: {other:?}"),
        }
    }
    assert_eq!(out.len(), 3);
    assert_eq!(router.stats().acks_by_reference, 1);
    let history = router.shard(1 - home).history(lone).unwrap();
    assert_eq!(history.undo_depth(&board), 2);
    assert_eq!(history.newest_undo(&board).unwrap().decode().unwrap(), v1);

    // Undo on the viewer: the first copy's state, to all three.
    let out = router.handle(0, Message::UndoState { object: board.clone() }).into_messages();
    assert_eq!(out.len(), 3);
    for (endpoint, leg) in &out {
        let Message::ApplyDelta { req_id, delta: d, .. } = leg else {
            panic!("expected a delta leg to endpoint {endpoint}, got {leg:?}");
        };
        assert_eq!(delta::apply(&v2, d).unwrap(), v1);
        ack(&mut router, *endpoint, *req_id, Some(Overwritten::Base));
    }
    let stats = router.stats();
    assert_eq!((stats.acks_by_reference, stats.delta_fallbacks, stats.transfers_failed), (4, 0, 0));
}

/// A source's sync base migrates like a destination's, and a `CopyDelta`
/// merges shards like the `CopyTo` it stands for. Presenter and coupled
/// viewers start on different shards: the first push merges them, the
/// presenter's component is then moved away again, and the next push —
/// the edits since the first, across shards once more — is rebuilt from
/// the base that travelled in both slices, not pulled.
#[test]
fn delta_push_merges_shards_and_its_base_survives_migration() {
    let (mut router, inst) = registered(4);
    let (presenter, viewers) = (inst[0], [(1, inst[1]), (3, inst[3])]);
    let board = gid(viewers[0].1, "f");
    router.handle(1, Message::Couple { src: board.clone(), dst: gid(viewers[1].1, "f") });
    router.check_invariants().unwrap();
    let viewers_shard = router.shard_of_instance(viewers[0].1).unwrap();
    assert_ne!(router.shard_of_instance(presenter), Some(viewers_shard));
    let state = |text: &str| {
        StateNode::new(WidgetKind::Form, "f").with_child(
            StateNode::new(WidgetKind::TextField, "t")
                .with_attr(AttrName::Text, Value::Text(text.into())),
        )
    };
    let (v1, v2) = (state("v1"), state("v2"));
    // Sends the presenter's push and acknowledges its legs, which must
    // all be of `kind`, one per viewer.
    let push = |router: &mut ShardRouter<Endpoint>, msg: Message, kind: &str| {
        let out = router.handle(0, msg).into_messages();
        router.check_invariants().unwrap();
        assert_eq!(out.len(), 2, "{out:?}");
        for (endpoint, leg) in out {
            assert_eq!(leg.kind_name(), kind, "leg to endpoint {endpoint}: {leg:?}");
            let (Message::ApplyState { req_id, .. } | Message::ApplyDelta { req_id, .. }) = leg
            else {
                unreachable!()
            };
            router
                .handle(endpoint, Message::StateApplied { req_id, overwritten: None, error: None });
            router.check_invariants().unwrap();
        }
    };

    // First contact, in full: merges as any cross-shard copy does, the
    // lone presenter moving to the viewers.
    let first = Message::CopyTo {
        src: gid(presenter, "f"),
        dst: board.clone(),
        snapshot: v1.clone(),
        mode: CopyMode::Strict,
        req_id: 1,
    };
    push(&mut router, first, "apply-state");
    assert_eq!(router.router_stats().cross_shard_merges, 1);
    assert_eq!(router.shard_of_instance(presenter), Some(viewers_shard));

    // The presenter's component — it alone, with the base it pushed —
    // moves back out.
    router.migrate(presenter, 1 - viewers_shard);
    router.check_invariants().unwrap();
    assert_eq!(router.shard_of_instance(presenter), Some(1 - viewers_shard));

    // Second push, as the edits since the first.
    let second = Message::CopyDelta {
        src: gid(presenter, "f"),
        dst: board,
        base_version: delta::state_version(&v1),
        new_version: delta::state_version(&v2),
        delta: delta::diff(&v1, &v2),
        mode: CopyMode::Strict,
        req_id: 2,
    };
    push(&mut router, second, "apply-delta");
    assert_eq!(router.router_stats().cross_shard_merges, 2, "a CopyDelta colocates src and dst");
    assert_eq!(router.shard_of_instance(presenter), Some(viewers_shard));
    let stats = router.stats();
    assert_eq!((stats.pushes_by_delta, stats.push_fallbacks, stats.transfers_failed), (1, 0, 0));
    assert_eq!(stats.transfers_completed, 2);
}

/// A right travels with the object it protects. The owner denies a
/// user its board, a cross-shard `Couple` moves the owner's component,
/// and that user's `CopyFrom` of the board is still refused on the new
/// shard — while the owner is quarantined there, and after it rejoins.
#[test]
fn rights_survive_migration_quarantine_and_rejoin() {
    let liveness = LivenessConfig { grace_us: 1_000_000, idle_timeout_us: 0, max_quarantined: 0 };
    let mut router: ShardRouter<Endpoint> = ShardRouter::with_liveness(2, liveness);
    // Endpoint `e` registers as user `e + 1`; even endpoints land on
    // shard 0, odd on shard 1. Returns its instance and resume token.
    let register = |router: &mut ShardRouter<Endpoint>, e: Endpoint| {
        let user = UserId(u64::from(e) + 1);
        let out = router
            .handle(e, Message::Register { user, host: format!("ws{e}"), app_name: "r".into() })
            .into_messages();
        let instance = out.iter().find_map(|(_, m)| match m {
            Message::Welcome { instance } => Some(*instance),
            _ => None,
        });
        let token = out.iter().find_map(|(_, m)| match m {
            Message::SessionToken { resume_token } => Some(*resume_token),
            _ => None,
        });
        (instance.expect("welcome"), token.expect("token"))
    };
    let (owner, token) = register(&mut router, 0);
    let [pair, reader, pair2] = [1, 2, 3].map(|e| register(&mut router, e).0);
    let reader_user = UserId(3);
    let board = gid(owner, "f");
    let read = |router: &mut ShardRouter<Endpoint>| {
        let msg = Message::CopyFrom {
            src: board.clone(),
            dst: gid(reader, "f"),
            mode: CopyMode::Strict,
            req_id: 7,
        };
        let out = router.handle(2, msg).into_messages();
        router.check_invariants().unwrap();
        out
    };
    let refused =
        |out: &[(Endpoint, Message)]| matches!(out, [(2, Message::PermissionDenied { .. })]);

    let right = Message::SetPermission {
        user: reader_user,
        object: board.clone(),
        right: AccessRight::Denied,
    };
    assert!(router.handle(0, right).into_messages().is_empty());
    // The pair couples on shard 1 first, so the owner's singleton is the
    // smaller side of the cross-shard couple and moves.
    let home = router.shard_of_instance(owner).unwrap();
    router.handle(1, Message::Couple { src: gid(pair, "f"), dst: gid(pair2, "f") });
    router.handle(0, Message::Couple { src: board.clone(), dst: gid(pair, "f") });
    assert_eq!(router.shard_of_instance(owner), Some(1 - home), "the owner migrated");
    router.check_invariants().unwrap();
    let out = read(&mut router);
    assert!(refused(&out), "{out:?}");

    // Quarantine keeps the record, and the right with it.
    router.disconnect(0);
    assert!(!router.shard(1 - home).registry().is_bound(owner));
    let out = read(&mut router);
    assert!(refused(&out), "{out:?}");
    let out = router.handle(10, Message::Rejoin { resume_token: token }).into_messages();
    assert!(out
        .iter()
        .any(|(_, m)| matches!(m, Message::Welcome { instance } if *instance == owner)));
    let out = read(&mut router);
    assert!(refused(&out), "{out:?}");
    let stats = router.stats();
    assert_eq!((stats.permission_denials, stats.transfers_started), (3, 0));
}

/// Couples `members` (consecutive endpoints from `first`) on object
/// `obj` into one group: every other link of the chain first, so the
/// links between them merge components that already carry a link.
fn couple_chain(router: &mut ShardRouter<Endpoint>, first: Endpoint, members: &[InstanceId]) {
    let links: Vec<_> = (first..).zip(members.windows(2)).collect();
    for (e, pair) in links.iter().step_by(2).chain(links.iter().skip(1).step_by(2)) {
        router.handle(*e, Message::Couple { src: gid(pair[0], "obj"), dst: gid(pair[1], "obj") });
    }
}

/// Sends one group-targeted command from `sender` and returns the
/// `CommandDelivery` fan-out, ordered by receiving endpoint.
fn group_command(
    router: &mut ShardRouter<Endpoint>,
    (sender, instance): (Endpoint, InstanceId),
    command: String,
) -> Vec<(Endpoint, Message)> {
    let to = Target::Group(gid(instance, "obj"));
    let msg = Message::CoSendCommand { to, command, payload: vec![0x5A; 64] };
    let mut out = router.handle(sender, msg).into_messages();
    out.retain(|(_, m)| matches!(m, Message::CommandDelivery { .. }));
    out.sort_by_key(|(e, _)| *e);
    out
}

/// Sharding must not change delivery semantics: 8 disjoint groups of 4
/// get the same deliveries per group command on 1, 2 and 4 shards (on
/// more than one, every group first has to be merged onto one shard).
#[test]
fn disjoint_groups_deliver_alike_at_every_shard_count() {
    let deliveries = |shards: usize| -> Vec<Vec<(Endpoint, Message)>> {
        let (mut router, inst) = registered_on(ShardRouter::new(shards), 32);
        for (g, members) in inst.chunks(4).enumerate() {
            couple_chain(&mut router, 4 * g as Endpoint, members);
        }
        router.check_invariants().unwrap();
        let senders = (0..32).step_by(4);
        senders
            .map(|e| group_command(&mut router, (e, inst[e as usize]), format!("c{e}")))
            .collect()
    };
    let one = deliveries(1);
    for (sender, fan_out) in (0..).step_by(4).zip(&one) {
        let receivers: Vec<Endpoint> = fan_out.iter().map(|(e, _)| *e).collect();
        assert_eq!(receivers, [sender + 1, sender + 2, sender + 3], "the group's other members");
    }
    assert_eq!(deliveries(2), one);
    assert_eq!(deliveries(4), one);
}

/// The paper's teacher decoupling two students: a third party's
/// `RemoteDecouple` finds the link wherever the students' component
/// lives. One teacher couples `a` and `b`, another — registered on yet
/// another shard — decouples them; every client sees the same on 1 and
/// on 4 shards, and the link is gone.
#[test]
fn third_party_decouple_reaches_a_component_on_another_shard() {
    let transcript = |shards: usize| -> Vec<Vec<(Endpoint, Message)>> {
        let (mut router, inst) = registered_on(ShardRouter::new(shards), 4);
        let (teacher, a, b, other_teacher) = (0, gid(inst[1], "obj"), gid(inst[2], "obj"), 3);
        let steps = [
            (teacher, Message::RemoteCouple { a: a.clone(), b: b.clone() }),
            (other_teacher, Message::RemoteDecouple { a: a.clone(), b: b.clone() }),
            (other_teacher, Message::ListCoupled { object: a.clone() }),
        ];
        let log = steps.map(|(e, msg)| router.handle(e, msg).into_messages()).to_vec();
        router.check_invariants().unwrap();
        log
    };
    let one = transcript(1);
    let (a, b) = (gid(InstanceId(2), "obj"), gid(InstanceId(3), "obj"));
    let alone = |object: &GlobalObjectId| Message::CoupleUpdate { group: vec![object.clone()] };
    assert_eq!(one[1], [(1, alone(&a)), (2, alone(&b))], "each student learns it stands alone");
    assert_eq!(one[2], [(3, Message::CoupledSet { object: a, coupled: Vec::new() })]);
    assert_eq!(transcript(4), one);
}

/// Admission budgets are per endpoint (DESIGN.md §10): a polite 4-member
/// group offering half its control budget per window sees the same
/// deliveries whether a stranger floods at 1x, 4x or 16x its rate, and
/// the flooder is answered in stages — shed, told `Busy` once per
/// window, and evicted only after three struck windows. An evicted
/// flooder stops: the transport has closed its connection.
#[test]
fn flooder_is_shed_then_evicted_and_the_polite_group_never_notices() {
    const POLITE_PER_WINDOW: u32 = 32;
    let run = |multiplier: u32| {
        let (mut router, inst) = registered_on(ShardRouter::new(2), 5);
        couple_chain(&mut router, 0, &inst[..4]);
        // Flooder and group must share a shard, hence an admission table:
        // keep the tick-time rebalancer from moving the flooder away.
        router.set_rebalance_threshold(usize::MAX);
        assert_eq!(router.shard_of_instance(inst[4]), router.shard_of_instance(inst[0]));
        // Armed after setup: registrations and couples are not offered load.
        router.set_overload(OverloadConfig {
            window_us: 10_000,
            control_budget: 2 * POLITE_PER_WINDOW,
            bulk_budget: 8,
            max_window_bytes: 0,
            retry_after_ms: 50,
            strikes_before_evict: 3,
        });
        let (mut delivered, mut flooded, mut busy_in, mut evicted_in) =
            (Vec::new(), 0u64, Vec::new(), None);
        for window in 0..30u64 {
            router.tick(window * 10_000);
            // The flood goes first, so a budget it could drain is gone
            // by the time the polite sender asks.
            for _ in 0..POLITE_PER_WINDOW * multiplier {
                if evicted_in.is_some() {
                    break;
                }
                flooded += 1;
                let out = router.handle(4, Message::QueryInstances).into_messages();
                if out.iter().any(|(e, m)| *e == 4 && matches!(m, Message::Busy { .. })) {
                    busy_in.push(window);
                }
                if router.stats().overload_evictions > 0 {
                    evicted_in = Some(window);
                }
            }
            for i in 0..POLITE_PER_WINDOW {
                delivered.push(group_command(&mut router, (0, inst[0]), format!("w{window}c{i}")));
            }
        }
        let stats = router.stats();
        let sheds = stats.overload_sheds_control + stats.overload_sheds_bulk;
        (delivered, (sheds, flooded), busy_in, evicted_in)
    };
    let (polite, (sheds, _), busy_in, evicted_in) = run(1);
    assert!(polite.iter().all(|fan_out| fan_out.len() == 3), "every command reaches the group");
    assert_eq!((sheds, busy_in.len(), evicted_in), (0, 0, None), "in budget, never shed");

    assert!(run(4).0 == polite, "a 4x flood changed the polite group's deliveries");
    let (delivered, (sheds, flooded), busy_in, evicted_in) = run(16);
    assert!(delivered == polite, "a 16x flood changed the polite group's deliveries");
    assert!(2 * sheds > flooded, "most of a 16x flood is shed: {sheds} of {flooded}");
    // Windows 0-2 each earn a strike and one Busy; the first shed of
    // window 3 carries that window's Busy and then the eviction.
    assert_eq!((busy_in, evicted_in), (vec![0, 1, 2, 3], Some(3)));
}
