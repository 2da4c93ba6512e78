//! Properties of the server's data structures against simple
//! reference models: the lock table never double-grants; the history
//! store behaves like a pair of stacks; the couple directory's closure
//! matches a brute-force reachability computation.
//! `no_leaks_after_all_instances_deregister` is the no-leak gate: once
//! every instance is gone, every table of the server database is empty.

use std::collections::{HashMap, HashSet};

use cosoft_rng::{forall, Rng};
use cosoft_server::{CoupleDirectory, HistoryStore, LockTable};
use cosoft_wire::{AttrName, GlobalObjectId, InstanceId, ObjectPath, StateNode, Value, WidgetKind};

fn gid(i: u8) -> GlobalObjectId {
    GlobalObjectId::new(
        InstanceId(u64::from(i % 4)),
        ObjectPath::parse(&format!("o{}", i / 4)).expect("valid"),
    )
}

#[derive(Debug, Clone)]
enum LockOp {
    Lock(Vec<u8>, u64),
    Unlock(u64),
}

fn arb_lock_op(r: &mut Rng) -> LockOp {
    match r.range(0..2) {
        0 => LockOp::Lock(r.vec(1..5, |r| r.range(0..16)), r.range(1..5)),
        _ => LockOp::Unlock(r.range(1..5)),
    }
}

/// The lock table agrees with a reference `HashMap<object, exec>`
/// model under random lock/unlock schedules, and never grants a group
/// containing an object held by a different exec.
#[test]
fn lock_table_matches_reference_model() {
    let gen = |r: &mut Rng| r.vec(1..40, arb_lock_op);
    forall(0..128, gen, |ops| {
        let mut table = LockTable::new();
        let mut model: HashMap<GlobalObjectId, u64> = HashMap::new();
        for op in ops {
            match op {
                LockOp::Lock(group, exec) => {
                    let objs: Vec<GlobalObjectId> = group.iter().map(|&i| gid(i)).collect();
                    let model_conflict =
                        objs.iter().any(|o| model.get(o).map(|&e| e != exec).unwrap_or(false));
                    match table.try_lock_group(&objs, exec) {
                        Ok(()) => {
                            assert!(!model_conflict, "table granted over a held lock");
                            for o in objs {
                                model.insert(o, exec);
                            }
                        }
                        Err(conflicting) => {
                            assert!(model_conflict, "table refused a free group");
                            assert!(
                                model.get(&conflicting).map(|&e| e != exec).unwrap_or(false),
                                "reported conflict object is not actually conflicting"
                            );
                        }
                    }
                }
                LockOp::Unlock(exec) => {
                    let mut released = table.unlock_exec(exec);
                    released.sort();
                    let mut expected: Vec<GlobalObjectId> =
                        model.iter().filter(|(_, &e)| e == exec).map(|(o, _)| o.clone()).collect();
                    expected.sort();
                    assert_eq!(released, expected);
                    model.retain(|_, &mut e| e != exec);
                }
            }
            assert_eq!(table.len(), model.len());
        }
    });
}

/// The couple directory's `group_of` equals brute-force undirected
/// reachability over the surviving links.
#[test]
fn closure_matches_brute_force() {
    let gen = |r: &mut Rng| {
        let links = r.vec(0..25, |r| (r.range(0..12), r.range(0..12)));
        (links, r.vec(0..10, |r| r.range(..)))
    };
    forall(0..128, gen, |(links, removals): (Vec<(u8, u8)>, Vec<usize>)| {
        let mut dir = CoupleDirectory::new();
        let mut live: Vec<(GlobalObjectId, GlobalObjectId)> = Vec::new();
        for (a, b) in &links {
            if dir.couple(gid(*a), gid(*b)) {
                live.push((gid(*a), gid(*b)));
            }
        }
        for idx in removals {
            if live.is_empty() {
                break;
            }
            let (a, b) = live.remove(idx % live.len());
            assert!(dir.decouple(&a, &b));
        }
        // Brute-force reachability.
        let mut nodes: HashSet<GlobalObjectId> = HashSet::new();
        for (a, b) in &live {
            nodes.insert(a.clone());
            nodes.insert(b.clone());
        }
        for probe in nodes {
            let mut reach: HashSet<GlobalObjectId> = HashSet::new();
            let mut stack = vec![probe.clone()];
            while let Some(cur) = stack.pop() {
                if !reach.insert(cur.clone()) {
                    continue;
                }
                for (a, b) in &live {
                    if *a == cur && !reach.contains(b) {
                        stack.push(b.clone());
                    }
                    if *b == cur && !reach.contains(a) {
                        stack.push(a.clone());
                    }
                }
            }
            let mut expected: Vec<GlobalObjectId> = reach.into_iter().collect();
            expected.sort();
            assert_eq!(dir.group_of(&probe), expected);
        }
    });
}

/// The history store behaves like a pair of reference stacks under
/// random overwrite/undo/redo schedules.
#[test]
fn history_matches_stack_model() {
    let gen = |r: &mut Rng| r.vec(1..40, |r| r.range(0..3));
    forall(0..128, gen, |ops| {
        let object = gid(1);
        let state = |i: usize| {
            StateNode::new(WidgetKind::Label, "l")
                .with_attr(AttrName::Text, Value::Text(format!("v{i}")))
        };
        let mut store = HistoryStore::new();
        let mut undo_model: Vec<StateNode> = Vec::new();
        let mut redo_model: Vec<StateNode> = Vec::new();
        let mut counter = 0usize;
        // `current` is the hypothetical live state being displaced.
        let mut current = state(usize::MAX);
        for op in ops {
            match op {
                0 => {
                    // Fresh overwrite: current goes to undo, redo clears.
                    counter += 1;
                    let newer = state(counter);
                    store.record_overwrite(object.clone(), current.clone());
                    undo_model.push(current.clone());
                    redo_model.clear();
                    current = newer;
                }
                1 => {
                    // Undo if possible.
                    let popped = store.pop_undo(&object);
                    assert_eq!(popped.clone(), undo_model.pop());
                    if let Some(restored) = popped {
                        store.record_undone(object.clone(), current.clone());
                        redo_model.push(current.clone());
                        current = restored;
                    }
                }
                _ => {
                    // Redo if possible.
                    let popped = store.pop_redo(&object);
                    assert_eq!(popped.clone(), redo_model.pop());
                    if let Some(reapplied) = popped {
                        store.record_redone(object.clone(), current.clone());
                        undo_model.push(current.clone());
                        current = reapplied;
                    }
                }
            }
            assert_eq!(store.undo_depth(&object), undo_model.len());
            assert_eq!(store.redo_depth(&object), redo_model.len());
        }
    });
}

// ---- whole-core teardown invariant ---------------------------------------

use cosoft_server::ServerCore;
use cosoft_wire::{CopyMode, EventKind, Message, Overwritten, UiEvent, UserId};

#[derive(Debug, Clone)]
enum CoreOp {
    Couple(u8, u8),
    Event(u8),
    CopyFrom(u8, u8),
    CopyTo(u8, u8),
    RemoteCopy(u8, u8, u8),
    Disconnect(u8),
    Reconnect(u8),
    /// Answer up to N queued server→client messages.
    Pump(u8),
}

fn arb_core_op(r: &mut Rng) -> CoreOp {
    let kind = r.range(0..8);
    let mut slot = || r.range(0..4);
    match kind {
        0 => CoreOp::Couple(slot(), slot()),
        1 => CoreOp::Event(slot()),
        2 => CoreOp::CopyFrom(slot(), slot()),
        3 => CoreOp::CopyTo(slot(), slot()),
        4 => CoreOp::RemoteCopy(slot(), slot(), slot()),
        5 => CoreOp::Disconnect(slot()),
        6 => CoreOp::Reconnect(slot()),
        _ => CoreOp::Pump(r.range(1..6)),
    }
}

fn obj(i: InstanceId, name: &str) -> GlobalObjectId {
    GlobalObjectId::new(i, ObjectPath::parse(name).expect("valid"))
}

fn snap() -> StateNode {
    StateNode::new(WidgetKind::Label, "x").with_attr(AttrName::Text, Value::Text("s".into()))
}

/// After every instance deregisters, no in-flight work survives:
/// transfer groups, push legs, pull legs, execution groups, and
/// locks are all empty — whatever the interleaving of transfers,
/// events, partially answered requests, and abrupt disconnects.
#[test]
fn no_leaks_after_all_instances_deregister() {
    let gen = |r: &mut Rng| r.vec(1..60, arb_core_op);
    forall(0..64, gen, |ops| {
        let mut s: ServerCore<u64> = ServerCore::new();
        // Four client slots; each holds its current endpoint + instance
        // while connected.
        let mut slots: [Option<(u64, InstanceId)>; 4] = [None, None, None, None];
        let mut next_endpoint = 1u64;
        // Server→client traffic awaiting a (possible) client reaction.
        let mut inbox: Vec<(u64, Message)> = Vec::new();
        let mut req = 100u64;

        let register = |s: &mut ServerCore<u64>, next_endpoint: &mut u64| {
            let e = *next_endpoint;
            *next_endpoint += 1;
            let out = s
                .handle(
                    e,
                    Message::Register { user: UserId(7), host: "h".into(), app_name: "app".into() },
                )
                .into_messages();
            let instance = out
                .iter()
                .find_map(|(_, m)| match m {
                    Message::Welcome { instance } => Some(*instance),
                    _ => None,
                })
                .expect("welcome");
            (e, instance)
        };
        for slot in &mut slots {
            *slot = Some(register(&mut s, &mut next_endpoint));
        }

        for op in ops {
            match op {
                CoreOp::Couple(a, b) => {
                    let (Some((ea, ia)), Some((_, ib))) = (slots[a as usize], slots[b as usize])
                    else {
                        continue;
                    };
                    inbox.extend(
                        s.handle(ea, Message::Couple { src: obj(ia, "x"), dst: obj(ib, "y") })
                            .into_messages(),
                    );
                }
                CoreOp::Event(a) => {
                    let Some((ea, ia)) = slots[a as usize] else { continue };
                    let event = UiEvent::new(
                        ObjectPath::parse("x").expect("valid"),
                        EventKind::TextCommitted,
                        vec![Value::Text("v".into())],
                    );
                    req += 1;
                    inbox.extend(
                        s.handle(ea, Message::Event { origin: obj(ia, "x"), event, seq: req })
                            .into_messages(),
                    );
                }
                CoreOp::CopyFrom(a, b) => {
                    let (Some((ea, ia)), Some((_, ib))) = (slots[a as usize], slots[b as usize])
                    else {
                        continue;
                    };
                    req += 1;
                    inbox.extend(
                        s.handle(
                            ea,
                            Message::CopyFrom {
                                src: obj(ib, "x"),
                                dst: obj(ia, "x"),
                                mode: CopyMode::Strict,
                                req_id: req,
                            },
                        )
                        .into_messages(),
                    );
                }
                CoreOp::CopyTo(a, b) => {
                    let (Some((ea, ia)), Some((_, ib))) = (slots[a as usize], slots[b as usize])
                    else {
                        continue;
                    };
                    req += 1;
                    inbox.extend(
                        s.handle(
                            ea,
                            Message::CopyTo {
                                src: obj(ia, "x"),
                                dst: obj(ib, "y"),
                                snapshot: snap(),
                                mode: CopyMode::Strict,
                                req_id: req,
                            },
                        )
                        .into_messages(),
                    );
                }
                CoreOp::RemoteCopy(a, b, c) => {
                    let (Some((ea, _)), Some((_, ib)), Some((_, ic))) =
                        (slots[a as usize], slots[b as usize], slots[c as usize])
                    else {
                        continue;
                    };
                    req += 1;
                    inbox.extend(
                        s.handle(
                            ea,
                            Message::RemoteCopy {
                                src: obj(ib, "x"),
                                dst: obj(ic, "y"),
                                mode: CopyMode::Strict,
                                req_id: req,
                            },
                        )
                        .into_messages(),
                    );
                }
                CoreOp::Disconnect(a) => {
                    let Some((ea, _)) = slots[a as usize].take() else { continue };
                    inbox.extend(s.disconnect(ea).into_messages());
                }
                CoreOp::Reconnect(a) => {
                    if slots[a as usize].is_none() {
                        slots[a as usize] = Some(register(&mut s, &mut next_endpoint));
                    }
                }
                CoreOp::Pump(n) => {
                    for _ in 0..n {
                        if inbox.is_empty() {
                            break;
                        }
                        let (e, msg) = inbox.remove(0);
                        if !slots.iter().flatten().any(|(se, _)| *se == e) {
                            continue; // addressed to a dead connection
                        }
                        let reply = match msg {
                            Message::StateRequest { req_id, .. } => {
                                let snapshot = if req_id % 3 == 0 { None } else { Some(snap()) };
                                Some(Message::StateReply { req_id, snapshot })
                            }
                            Message::ApplyState { req_id, .. } => Some(Message::StateApplied {
                                req_id,
                                overwritten: Some(snap().into()),
                                error: if req_id % 5 == 0 {
                                    Some("apply failed".into())
                                } else {
                                    None
                                },
                            }),
                            // Delta legs appear once a destination has an
                            // acknowledged base; erroring some of them
                            // exercises the full-snapshot fallback resend,
                            // and some are acknowledged by reference.
                            Message::ApplyDelta { req_id, .. } => Some(Message::StateApplied {
                                req_id,
                                overwritten: Some(if req_id % 3 == 0 {
                                    Overwritten::Base
                                } else {
                                    snap().into()
                                }),
                                error: if req_id % 4 == 0 {
                                    Some("delta base version mismatch".into())
                                } else {
                                    None
                                },
                            }),
                            Message::EventGranted { exec_id, .. }
                            | Message::ExecuteEvent { exec_id, .. } => {
                                Some(Message::ExecuteDone { exec_id })
                            }
                            _ => None,
                        };
                        if let Some(reply) = reply {
                            inbox.extend(s.handle(e, reply).into_messages());
                        }
                    }
                }
            }
        }

        // Tear everything down; unanswered requests die with their
        // instances.
        for slot in &mut slots {
            if let Some((e, _)) = slot.take() {
                s.disconnect(e).into_messages();
            }
        }
        let stats = s.stats();
        assert_eq!(stats.registered_instances, 0);
        assert_eq!(stats.live_transfer_groups, 0);
        assert_eq!(stats.live_transfer_legs, 0);
        assert_eq!(stats.live_pending_pulls, 0);
        assert_eq!(stats.live_execs, 0);
        assert_eq!(stats.held_locks, 0);
    });
}
