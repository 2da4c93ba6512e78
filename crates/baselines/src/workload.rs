//! Seeded workload generation shared by all architecture runners.

use cosoft_rng::Rng;
use cosoft_wire::{EventKind, ObjectPath, UiEvent, Value};

use crate::stats::ActionKind;

/// One scripted user action.
#[derive(Debug, Clone)]
pub struct WorkAction {
    /// Issuing user (0-based).
    pub user: usize,
    /// Absolute virtual issue time (µs).
    pub issue_us: u64,
    /// Action classification.
    pub kind: ActionKind,
    /// The UI event the action produces, addressed within the user's own
    /// instance (`form.field` / `form.compute`).
    pub event: UiEvent,
}

/// A scripted multi-user editing session.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of participating users.
    pub users: usize,
    /// Actions sorted by issue time.
    pub actions: Vec<WorkAction>,
}

/// Paths used by the canonical workload form.
pub mod paths {
    use cosoft_wire::ObjectPath;

    /// The shared text field every user edits.
    pub fn field() -> ObjectPath {
        ObjectPath::parse("work.field").expect("static path")
    }

    /// The button invoking the semantic action.
    pub fn compute() -> ObjectPath {
        ObjectPath::parse("work.compute").expect("static path")
    }

    /// The UI-spec of the workload form.
    pub const SPEC: &str = r#"form work {
  textfield field text=""
  button compute title="Compute"
}"#;
}

/// Generates the canonical mixed editing workload: each user issues
/// `actions_per_user` actions with exponential-ish think times around
/// `mean_think_us`; a `semantic_fraction` of actions invoke the semantic
/// "compute" button instead of editing the text field.
pub fn editing_workload(
    seed: u64,
    users: usize,
    actions_per_user: usize,
    mean_think_us: u64,
    semantic_fraction: f64,
) -> Workload {
    let mut rng = Rng::new(seed);
    let mut actions = Vec::with_capacity(users * actions_per_user);
    for user in 0..users {
        let mut t = rng.range(0..mean_think_us.max(1));
        for k in 0..actions_per_user {
            let semantic = rng.bool(semantic_fraction.clamp(0.0, 1.0));
            let event = if semantic {
                UiEvent::simple(paths::compute(), EventKind::Activate)
            } else {
                UiEvent::new(
                    paths::field(),
                    EventKind::TextCommitted,
                    vec![Value::Text(format!("u{user}-v{k}"))],
                )
            };
            actions.push(WorkAction {
                user,
                issue_us: t,
                kind: if semantic { ActionKind::Semantic } else { ActionKind::Ui },
                event,
            });
            // Geometric think time approximating an exponential.
            let jitter = rng.range(1..=2 * mean_think_us.max(1));
            t += jitter;
        }
    }
    actions.sort_by_key(|a| a.issue_us);
    Workload { users, actions }
}

/// Generates the mixed private/shared workload used by the Table-1
/// comparison: like [`editing_workload`], but only a `shared_fraction` of
/// actions target the shared (`work.*`) objects; the rest act on the
/// user's private environment (`private.*` paths), which only the fully
/// replicated architecture can keep off the wire (partial coupling).
pub fn mixed_workload(
    seed: u64,
    users: usize,
    actions_per_user: usize,
    mean_think_us: u64,
    semantic_fraction: f64,
    shared_fraction: f64,
) -> Workload {
    let mut rng = Rng::new(seed);
    let private_field = ObjectPath::parse("private.field").expect("static path");
    let private_compute = ObjectPath::parse("private.compute").expect("static path");
    let mut actions = Vec::with_capacity(users * actions_per_user);
    for user in 0..users {
        let mut t = rng.range(0..mean_think_us.max(1));
        for k in 0..actions_per_user {
            let semantic = rng.bool(semantic_fraction.clamp(0.0, 1.0));
            let shared = rng.bool(shared_fraction.clamp(0.0, 1.0));
            let event = match (semantic, shared) {
                (true, true) => UiEvent::simple(paths::compute(), EventKind::Activate),
                (true, false) => UiEvent::simple(private_compute.clone(), EventKind::Activate),
                (false, true) => UiEvent::new(
                    paths::field(),
                    EventKind::TextCommitted,
                    vec![Value::Text(format!("u{user}-v{k}"))],
                ),
                (false, false) => UiEvent::new(
                    private_field.clone(),
                    EventKind::TextCommitted,
                    vec![Value::Text(format!("u{user}-v{k}"))],
                ),
            };
            actions.push(WorkAction {
                user,
                issue_us: t,
                kind: if semantic { ActionKind::Semantic } else { ActionKind::Ui },
                event,
            });
            let jitter = rng.range(1..=2 * mean_think_us.max(1));
            t += jitter;
        }
    }
    actions.sort_by_key(|a| a.issue_us);
    Workload { users, actions }
}

/// A strokes workload for canvas-style sketching (used by the group
/// sketch example and throughput benches): every action adds a short
/// stroke to `canvas.board`.
pub fn sketch_workload(seed: u64, users: usize, strokes_per_user: usize) -> Workload {
    let mut rng = Rng::new(seed);
    let path = ObjectPath::parse("canvas.board").expect("static path");
    let mut actions = Vec::new();
    for user in 0..users {
        let mut t = rng.range(0..1_000u64);
        for _ in 0..strokes_per_user {
            let pts: Vec<(i32, i32)> =
                (0..rng.range(2..6)).map(|_| (rng.range(0..640), rng.range(0..480))).collect();
            actions.push(WorkAction {
                user,
                issue_us: t,
                kind: ActionKind::Ui,
                event: UiEvent::new(path.clone(), EventKind::StrokeAdded, vec![Value::Stroke(pts)]),
            });
            t += rng.range(5_000..50_000);
        }
    }
    actions.sort_by_key(|a| a.issue_us);
    Workload { users, actions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_sorted() {
        let a = editing_workload(1, 4, 10, 30_000, 0.2);
        let b = editing_workload(1, 4, 10, 30_000, 0.2);
        assert_eq!(a.actions.len(), 40);
        assert_eq!(a.actions.len(), b.actions.len());
        for (x, y) in a.actions.iter().zip(&b.actions) {
            assert_eq!(x.issue_us, y.issue_us);
            assert_eq!(x.user, y.user);
        }
        for w in a.actions.windows(2) {
            assert!(w[0].issue_us <= w[1].issue_us);
        }
    }

    #[test]
    fn semantic_fraction_bounds() {
        let none = editing_workload(2, 2, 50, 10_000, 0.0);
        assert!(none.actions.iter().all(|a| a.kind == ActionKind::Ui));
        let all = editing_workload(2, 2, 50, 10_000, 1.0);
        assert!(all.actions.iter().all(|a| a.kind == ActionKind::Semantic));
    }

    #[test]
    fn sketch_workload_produces_strokes() {
        let w = sketch_workload(3, 3, 5);
        assert_eq!(w.actions.len(), 15);
        assert!(w.actions.iter().all(|a| a.kind == ActionKind::Ui));
        assert!(w
            .actions
            .iter()
            .all(|a| matches!(a.event.kind, cosoft_wire::EventKind::StrokeAdded)));
    }
}
