//! Virtual-time models of the three architectures of §2.1 (Figures 1–3),
//! run against the same scripted workloads.
//!
//! Each runner is a small deterministic discrete-event model over the
//! shared [`Workload`] scripts; protocol traffic is accounted by encoding
//! the representative wire messages each architecture would send, so
//! byte-per-action comparisons are apples-to-apples. The fully replicated
//! model is cross-validated against the real protocol by the
//! `cosoft_live` runner (which drives actual [`cosoft_core::Session`]s)
//! and the core integration tests.

use cosoft_wire::{codec, Message, ObjectPath, StateNode, WidgetKind};

use crate::stats::{ActionKind, ActionSample, RunStats};
use crate::workload::Workload;

/// Timing parameters shared by the architecture models.
#[derive(Debug, Clone, Copy)]
pub struct ArchConfig {
    /// One-way network latency in microseconds.
    pub one_way_latency_us: u64,
    /// Service time of a pure UI action (event dispatch + redraw).
    pub ui_service_us: u64,
    /// Service time of a semantic action (application functionality).
    pub semantic_service_us: u64,
}

impl Default for ArchConfig {
    fn default() -> Self {
        // 2 ms LAN hop, 200 µs UI dispatch, 5 ms semantic action.
        ArchConfig { one_way_latency_us: 2_000, ui_service_us: 200, semantic_service_us: 5_000 }
    }
}

fn service(cfg: &ArchConfig, kind: ActionKind) -> u64 {
    match kind {
        ActionKind::Ui => cfg.ui_service_us,
        ActionKind::Semantic => cfg.semantic_service_us,
    }
}

/// Representative wire sizes (bytes) for the protocol messages each
/// architecture exchanges, derived from the real codec.
#[derive(Debug, Clone, Copy)]
struct MsgSizes {
    event: u64,
    display_update: u64,
}

fn msg_sizes() -> MsgSizes {
    let event = Message::Event {
        event: cosoft_wire::UiEvent::new(
            ObjectPath::parse("work.field").expect("static"),
            cosoft_wire::EventKind::TextCommitted,
            vec![cosoft_wire::Value::Text("u0-v00".into())],
        ),
        seq: 1,
    };
    let update = Message::ApplyState {
        req_id: 1,
        path: ObjectPath::parse("work.field").expect("static"),
        snapshot: StateNode::new(WidgetKind::TextField, "field")
            .with_attr(cosoft_wire::AttrName::Text, cosoft_wire::Value::Text("u0-v00".into())),
        mode: cosoft_wire::CopyMode::Strict,
    };
    MsgSizes {
        event: codec::encode_message(&event).len() as u64,
        display_update: codec::encode_message(&update).len() as u64,
    }
}

/// Figure 1 — the multiplex (single-instance, SharedX-style) architecture.
///
/// Every action, UI or semantic, private or shared, is an input event sent
/// to the single application instance, processed sequentially there, and
/// answered by display updates multiplexed to *all* participants. "This
/// architecture does not fit in with the requirements of highly parallel
/// processing and real-time response."
pub fn run_multiplex(workload: &Workload, cfg: &ArchConfig) -> RunStats {
    let sizes = msg_sizes();
    let l = cfg.one_way_latency_us;
    let mut center_busy = 0u64;
    let mut stats = RunStats::default();
    for action in &workload.actions {
        let arrival = action.issue_us + l;
        let start = arrival.max(center_busy);
        let done = start + service(cfg, action.kind);
        center_busy = done;
        // Input event + one display update per participant.
        stats.messages_sent += 1 + workload.users as u64;
        stats.bytes_sent += sizes.event + workload.users as u64 * sizes.display_update;
        let completed = done + l;
        stats.samples.push(ActionSample {
            user: action.user,
            kind: action.kind,
            issued_us: action.issue_us,
            completed_us: completed,
        });
        stats.makespan_us = stats.makespan_us.max(completed);
    }
    stats
}

/// Figure 2 — the UI-replicated (Suite/Rendezvous-style) architecture.
///
/// The user interface is replicated per user, so pure UI actions are
/// local; but there is exactly one semantic component, and *all* semantic
/// actions — even logically private ones — are buffered and executed
/// sequentially there ("if such a semantic action is time-consuming, it
/// may block the execution of other user's actions").
pub fn run_ui_replicated(workload: &Workload, cfg: &ArchConfig) -> RunStats {
    let sizes = msg_sizes();
    let l = cfg.one_way_latency_us;
    let mut center_busy = 0u64;
    let mut user_blocked = vec![0u64; workload.users];
    let mut stats = RunStats::default();
    for action in &workload.actions {
        let eff_issue = action.issue_us.max(user_blocked[action.user]);
        let completed = match action.kind {
            ActionKind::Ui => {
                // Local echo in the user's own UI replica; committed shared
                // values are redistributed through the centre (traffic
                // only, the issuer does not wait).
                stats.messages_sent += workload.users as u64;
                stats.bytes_sent +=
                    sizes.event + (workload.users as u64 - 1) * sizes.display_update;
                eff_issue + cfg.ui_service_us
            }
            ActionKind::Semantic => {
                let arrival = eff_issue + l;
                let start = arrival.max(center_busy);
                let done = start + cfg.semantic_service_us;
                center_busy = done;
                stats.messages_sent += 1 + workload.users as u64;
                stats.bytes_sent += sizes.event + workload.users as u64 * sizes.display_update;
                let completed = done + l;
                // The replica buffers further actions until the semantic
                // result returns.
                user_blocked[action.user] = completed;
                completed
            }
        };
        stats.samples.push(ActionSample {
            user: action.user,
            kind: action.kind,
            issued_us: action.issue_us,
            completed_us: completed,
        });
        stats.makespan_us = stats.makespan_us.max(completed);
    }
    stats
}

/// Whether a workload action targets the shared (coupled) objects or the
/// user's private environment. The canonical editing workload uses the
/// `work.*` paths for shared objects; runners treat anything else as
/// private.
fn is_shared(action: &crate::workload::WorkAction) -> bool {
    action.event.path.segments().first().map(String::as_str) == Some("work")
}

/// Figure 3 / Figure 4 — the fully replicated (COSOFT) architecture with
/// partial coupling.
///
/// Private actions (UI *and* semantic) never leave the user's instance.
/// Shared actions pass floor control (one round trip to the server) and
/// are then re-executed by every group member in parallel — multiple
/// evaluation trades duplicated work for independence from any central
/// executor.
pub fn run_fully_replicated(workload: &Workload, cfg: &ArchConfig) -> RunStats {
    let sizes = msg_sizes();
    let l = cfg.one_way_latency_us;
    let n = workload.users as u64;
    let mut replica_busy = vec![0u64; workload.users];
    // The coupled group serializes shared actions (the lock table).
    let mut lock_free_at = 0u64;
    let mut stats = RunStats::default();
    for action in &workload.actions {
        let svc = service(cfg, action.kind);
        let completed = if is_shared(action) {
            // Floor control: Event → server → grant (2 × one-way), then
            // local execution; other replicas execute after the
            // ExecuteEvent hop; the lock is held until the slowest done.
            let grant = (action.issue_us + 2 * l).max(lock_free_at);
            let local_start = grant.max(replica_busy[action.user]);
            let local_done = local_start + svc;
            replica_busy[action.user] = local_done;
            let mut slowest = local_done;
            for (u, busy) in replica_busy.iter_mut().enumerate() {
                if u != action.user {
                    let remote_start = (grant + l).max(*busy);
                    let remote_done = remote_start + svc;
                    *busy = remote_done;
                    slowest = slowest.max(remote_done);
                }
            }
            // Unlock after every ExecuteDone arrives back at the server.
            lock_free_at = slowest + l;
            // Event + grant + (N-1) execute + N done + N unlocked.
            stats.messages_sent += 1 + 1 + (n - 1) + n + n;
            stats.bytes_sent += sizes.event * (1 + (n - 1)) + 40 * (1 + 2 * n);
            local_done
        } else {
            // Entirely local.
            let start = action.issue_us.max(replica_busy[action.user]);
            let done = start + svc;
            replica_busy[action.user] = done;
            done
        };
        stats.samples.push(ActionSample {
            user: action.user,
            kind: action.kind,
            issued_us: action.issue_us,
            completed_us: completed,
        });
        stats.makespan_us = stats.makespan_us.max(completed);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{editing_workload, paths, WorkAction, Workload};
    use cosoft_wire::{EventKind, UiEvent, Value};

    fn cfg() -> ArchConfig {
        ArchConfig::default()
    }

    /// A workload where user 0 fires a slow semantic action and user 1
    /// issues private UI actions immediately after.
    fn blocking_probe() -> Workload {
        let private = ObjectPath::parse("private.field").unwrap();
        let mut actions = vec![WorkAction {
            user: 0,
            issue_us: 0,
            kind: ActionKind::Semantic,
            event: UiEvent::simple(paths::compute(), EventKind::Activate),
        }];
        for k in 0..5 {
            actions.push(WorkAction {
                user: 1,
                issue_us: 1_000 + k * 500,
                kind: ActionKind::Ui,
                event: UiEvent::new(
                    private.clone(),
                    EventKind::TextCommitted,
                    vec![Value::Text(format!("v{k}"))],
                ),
            });
        }
        Workload { users: 2, actions }
    }

    #[test]
    fn multiplex_serializes_everything() {
        let mut cfg = cfg();
        cfg.semantic_service_us = 100_000; // 100 ms monster action
        let stats = run_multiplex(&blocking_probe(), &cfg);
        // User 1's UI actions are stuck behind the semantic action.
        let ui = stats.latencies_us(Some(ActionKind::Ui));
        assert!(ui[0] > 90_000, "multiplex blocks UI actions: {ui:?}");
    }

    #[test]
    fn ui_replicated_keeps_ui_local_but_serializes_semantics() {
        let mut cfg = cfg();
        cfg.semantic_service_us = 100_000;
        let probe = blocking_probe();
        let stats = run_ui_replicated(&probe, &cfg);
        let ui = stats.latencies_us(Some(ActionKind::Ui));
        assert!(ui.iter().all(|&l| l < 1_000), "UI actions stay local: {ui:?}");

        // But a second user's *semantic* action queues behind the first.
        let mut w = blocking_probe();
        w.actions.push(WorkAction {
            user: 1,
            issue_us: 1_000,
            kind: ActionKind::Semantic,
            event: UiEvent::simple(
                ObjectPath::parse("private.compute").unwrap(),
                EventKind::Activate,
            ),
        });
        let stats = run_ui_replicated(&w, &cfg);
        let sem = stats.latencies_us(Some(ActionKind::Semantic));
        assert!(sem[1] > 150_000, "second semantic action queued: {sem:?}");
    }

    #[test]
    fn fully_replicated_private_semantics_do_not_queue() {
        let mut cfg = cfg();
        cfg.semantic_service_us = 100_000;
        let mut w = blocking_probe();
        // User 0's semantic action is *private* here.
        w.actions[0].event =
            UiEvent::simple(ObjectPath::parse("private.compute").unwrap(), EventKind::Activate);
        w.actions.push(WorkAction {
            user: 1,
            issue_us: 1_000,
            kind: ActionKind::Semantic,
            event: UiEvent::simple(
                ObjectPath::parse("private.compute").unwrap(),
                EventKind::Activate,
            ),
        });
        let stats = run_fully_replicated(&w, &cfg);
        let sem = stats.latencies_us(Some(ActionKind::Semantic));
        // Both users pay only their own replica's work (service time plus
        // their own queued UI actions) — no *cross-user* queueing, unlike
        // the UI-replicated centre where the second action waits ~200 ms.
        assert!(sem.iter().all(|&l| l <= 105_000), "{sem:?}");
        // And private actions produce zero traffic.
        assert_eq!(stats.messages_sent, 0, "private work is invisible to the network in COSOFT");
    }

    #[test]
    fn fully_replicated_shared_actions_pay_floor_control() {
        let cfg = cfg();
        let w = Workload {
            users: 4,
            actions: vec![WorkAction {
                user: 0,
                issue_us: 0,
                kind: ActionKind::Ui,
                event: UiEvent::new(
                    paths::field(),
                    EventKind::TextCommitted,
                    vec![Value::Text("x".into())],
                ),
            }],
        };
        let stats = run_fully_replicated(&w, &cfg);
        // 2 one-way hops (event + grant) + service.
        assert_eq!(stats.samples[0].latency_us(), 2 * cfg.one_way_latency_us + cfg.ui_service_us);
        assert!(stats.messages_sent > 0);
    }

    /// The canonical comparison — mostly private work with some shared
    /// editing and semantic actions, 8 users — on seeds 0..64, asserting
    /// what the three models have by construction.
    ///
    /// Not asserted: that on this mix the UI-replicated mean semantic
    /// latency is at least the fully replicated one. It held on 31 of
    /// these 64 seeds. A shared action of the fully replicated model
    /// queues for its group's lock, held for a round trip plus the
    /// slowest replica's re-execution, and every replica re-executes
    /// every shared action; a semantic action of the UI-replicated model
    /// queues for the centre. Which queue is the longer at 30 % shared
    /// and 15 % semantic is the draw's, not the architecture's.
    #[test]
    fn table1_ordering_holds_on_mixed_workload() {
        let cfg = cfg();
        let central_round_trip = 2 * cfg.one_way_latency_us + cfg.semantic_service_us;
        for seed in 0..64 {
            let w = crate::workload::mixed_workload(seed, 8, 40, 20_000, 0.15, 0.3);
            let m = run_multiplex(&w, &cfg);
            let u = run_ui_replicated(&w, &cfg);
            let f = run_fully_replicated(&w, &cfg);
            // UI latency: multiplex pays the round trip and the queue,
            // the UI replica echoes locally.
            let ui = |s: &RunStats| s.mean_latency_us(Some(ActionKind::Ui));
            assert!(ui(&m) > ui(&u), "seed {seed}: {} vs {}", ui(&m), ui(&u));
            // Semantic latency: every semantic action of the UI-replicated
            // model, private ones too, travels to the one semantic
            // component and back.
            let sem = u.latencies_us(Some(ActionKind::Semantic));
            assert!(sem.iter().all(|&l| l >= central_round_trip), "seed {seed}: {sem:?}");
            // All three produce traffic for this shared workload.
            assert!(m.bytes_sent > 0 && u.bytes_sent > 0 && f.bytes_sent > 0);

            // With nothing shared (partial coupling at its limit) the
            // fully replicated model keeps every action in its instance:
            // below that round trip, and silent.
            let private = crate::workload::mixed_workload(seed, 8, 40, 20_000, 0.15, 0.0);
            let f = run_fully_replicated(&private, &cfg);
            let own = f.mean_latency_us(Some(ActionKind::Semantic));
            assert!(own < central_round_trip as f64, "seed {seed}: {own}");
            assert_eq!(f.messages_sent, 0, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_runs() {
        let w = editing_workload(9, 4, 20, 15_000, 0.2);
        let cfg = cfg();
        let a = run_fully_replicated(&w, &cfg);
        let b = run_fully_replicated(&w, &cfg);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.bytes_sent, b.bytes_sent);
    }
}
