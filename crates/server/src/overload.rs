//! Admission control and overload shedding (DESIGN.md §10).
//!
//! The paper's §3.2 auto-decoupling is an *eviction* mechanism: a
//! misbehaving peer is cut off and its couples dissolved. Under the
//! ROADMAP's heavy-traffic regime that is too blunt — a client that
//! briefly bursts past its fair share should be slowed down, not thrown
//! out. This module adds the graceful layer in front of eviction:
//! per-endpoint token-bucket budgets with priority classes (a column of
//! the protocol table: `MessageKind::class`), a global
//! inbound byte budget, and a [`Verdict`] that degrades in stages —
//! admit → shed with a [`Message::Busy`] reply → §3.2 eviction only
//! after sustained abuse.
//!
//! The subsystem is sans-I/O like the core it serves: time is the
//! core's virtual clock (`now_us`), so every shedding decision is
//! reproducible in the deterministic simulation and the model checker.

use std::collections::HashMap;
use std::hash::Hash;

use cosoft_wire::{Message, MessageClass, Overwritten};

/// Flat estimate for messages whose encoded size is dominated by fixed
/// headers and a few varints.
const BASE_COST: u64 = 16;

/// Approximate inbound cost of a message in bytes, charged against
/// [`OverloadConfig::max_window_bytes`]. A cheap over-the-structure
/// estimate, not an exact encoding length: the budget is a pressure
/// valve, not an accountant.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn approx_cost(msg: &Message) -> u64 {
    let heavy = match msg {
        Message::Register { host, app_name, .. } => host.len() + app_name.len(),
        Message::Event { event, .. } => 8 * event.params.len() + 8 * event.path.depth(),
        Message::CopyTo { snapshot, .. } => snapshot.approx_size(),
        Message::CopyDelta { delta, .. } => delta.approx_size(),
        Message::StateReply { snapshot, .. } => {
            snapshot.as_ref().map_or(0, cosoft_wire::StateNode::approx_size)
        }
        Message::ApplyState { snapshot, .. } => snapshot.approx_size(),
        Message::ApplyDelta { delta, .. } => delta.approx_size(),
        Message::StateApplied { overwritten, error, .. } => {
            let state = match overwritten {
                Some(Overwritten::State(state)) => state.as_slice().len(),
                Some(Overwritten::Base) | None => 0,
            };
            state + error.as_ref().map_or(0, String::len)
        }
        Message::CoSendCommand { command, payload, .. } => command.len() + payload.len(),
        Message::CommandDelivery { command, payload, .. } => command.len() + payload.len(),
        Message::PermissionDenied { what } => what.len(),
        Message::ErrorReply { context, reason } => context.len() + reason.len(),
        Message::InstanceList { entries } => 32 * entries.len(),
        Message::CoupleUpdate { group } => 16 * group.len(),
        Message::CoupledSet { coupled, .. } => 16 * coupled.len(),
        Message::ExecuteEvent { event, .. } => 8 * event.params.len() + 8 * event.path.depth(),
        Message::StateRequest { path, .. } => 8 * path.depth(),
        Message::Deregister
        | Message::Rejoin { .. }
        | Message::Ping { .. }
        | Message::Pong { .. }
        | Message::QueryInstances
        | Message::Welcome { .. }
        | Message::SessionToken { .. }
        | Message::Couple { .. }
        | Message::Decouple { .. }
        | Message::RemoteCouple { .. }
        | Message::RemoteDecouple { .. }
        | Message::ListCoupled { .. }
        | Message::ObjectDestroyed { .. }
        | Message::EventGranted { .. }
        | Message::EventRejected { .. }
        | Message::ExecuteDone { .. }
        | Message::GroupUnlocked { .. }
        | Message::CopyFrom { .. }
        | Message::RemoteCopy { .. }
        | Message::UndoState { .. }
        | Message::RedoState { .. }
        | Message::SetPermission { .. }
        | Message::Busy { .. } => 0,
    };
    BASE_COST + heavy as u64
}

/// Overload-control policy of a [`crate::ServerCore`]. The default
/// (all-zero) config disables admission entirely; each knob set to `0`
/// individually means "unlimited" for that budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Budget-window length in virtual µs. `0` disables admission
    /// control entirely (every other knob is ignored).
    pub window_us: u64,
    /// Control-class messages admitted per endpoint per window
    /// (`0` = unlimited).
    pub control_budget: u32,
    /// Bulk-class messages admitted per endpoint per window
    /// (`0` = unlimited).
    pub bulk_budget: u32,
    /// Global inbound byte budget per window across *all* endpoints,
    /// charged via [`approx_cost`] (`0` = unlimited). This is the
    /// server's pressure valve: even under-budget endpoints are shed
    /// when the aggregate inbound volume exceeds it.
    pub max_window_bytes: u64,
    /// Back-off advice carried in [`Message::Busy`] replies.
    pub retry_after_ms: u64,
    /// Consecutive *windows* containing at least one shed before the
    /// next shed escalates to §3.2 eviction (`0` = never escalate:
    /// shedding stays purely advisory).
    pub strikes_before_evict: u32,
}

impl OverloadConfig {
    /// Whether any admission checks run at all.
    pub fn enabled(&self) -> bool {
        self.window_us > 0
            && (self.control_budget > 0 || self.bulk_budget > 0 || self.max_window_bytes > 0)
    }
}

/// Decision for one inbound message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Process the message normally.
    Admit,
    /// Drop the message unprocessed.
    Shed {
        /// Its class (for per-class shed counters).
        class: MessageClass,
        /// Whether to answer with [`Message::Busy`] — true at most once
        /// per endpoint per window, so a flood of 10 000 shed messages
        /// produces one advisory reply, not 10 000.
        reply_busy: bool,
        /// Whether sustained abuse has crossed the strike threshold and
        /// the sender should now be evicted via §3.2 auto-decoupling.
        escalate: bool,
    },
}

/// Per-endpoint budget window.
#[derive(Debug, Clone, Copy)]
struct EndpointBudget {
    /// Virtual time the current window opened.
    window_start_us: u64,
    /// Remaining control-class admissions this window.
    control_left: u32,
    /// Remaining bulk-class admissions this window.
    bulk_left: u32,
    /// Whether a `Busy` reply was already issued this window.
    busy_sent: bool,
    /// Whether anything was shed this window (feeds `strikes`).
    shed_in_window: bool,
    /// Completed consecutive windows that contained at least one shed.
    strikes: u32,
}

/// Admission state: one budget window per recently-active endpoint plus
/// the global byte window. Owned by a [`crate::ServerCore`]; time comes
/// from the core's virtual clock.
#[derive(Debug, Clone)]
pub(crate) struct Admission<E> {
    config: OverloadConfig,
    buckets: HashMap<E, EndpointBudget>,
    global_window_start_us: u64,
    global_bytes: u64,
}

impl<E: Copy + Eq + Hash> Admission<E> {
    pub(crate) fn new(config: OverloadConfig) -> Self {
        Admission { config, buckets: HashMap::new(), global_window_start_us: 0, global_bytes: 0 }
    }

    pub(crate) fn config(&self) -> OverloadConfig {
        self.config
    }

    pub(crate) fn set_config(&mut self, config: OverloadConfig) {
        self.config = config;
        self.buckets.clear();
        self.global_bytes = 0;
    }

    /// Decides the fate of one inbound message at virtual time `now_us`.
    pub(crate) fn admit(&mut self, endpoint: E, msg: &Message, now_us: u64) -> Verdict {
        if !self.config.enabled() {
            return Verdict::Admit;
        }
        let class = msg.kind().class();
        if class == MessageClass::Liveness {
            return Verdict::Admit;
        }
        let config = self.config;
        let bucket = self.buckets.entry(endpoint).or_insert(EndpointBudget {
            window_start_us: now_us,
            control_left: config.control_budget,
            bulk_left: config.bulk_budget,
            busy_sent: false,
            shed_in_window: false,
            strikes: 0,
        });
        if now_us.saturating_sub(bucket.window_start_us) >= config.window_us {
            bucket.strikes =
                if bucket.shed_in_window { bucket.strikes.saturating_add(1) } else { 0 };
            bucket.window_start_us = now_us;
            bucket.control_left = config.control_budget;
            bucket.bulk_left = config.bulk_budget;
            bucket.busy_sent = false;
            bucket.shed_in_window = false;
        }
        let class_ok = match class {
            MessageClass::Liveness => true,
            MessageClass::Control => config.control_budget == 0 || bucket.control_left > 0,
            MessageClass::Bulk => config.bulk_budget == 0 || bucket.bulk_left > 0,
        };
        let cost = if config.max_window_bytes > 0 { approx_cost(msg) } else { 0 };
        if config.max_window_bytes > 0
            && now_us.saturating_sub(self.global_window_start_us) >= config.window_us
        {
            self.global_window_start_us = now_us;
            self.global_bytes = 0;
        }
        let bytes_ok = config.max_window_bytes == 0
            || self.global_bytes.saturating_add(cost) <= config.max_window_bytes;
        if class_ok && bytes_ok {
            match class {
                MessageClass::Liveness => {}
                MessageClass::Control if config.control_budget > 0 => bucket.control_left -= 1,
                MessageClass::Bulk if config.bulk_budget > 0 => bucket.bulk_left -= 1,
                MessageClass::Control | MessageClass::Bulk => {}
            }
            self.global_bytes = self.global_bytes.saturating_add(cost);
            return Verdict::Admit;
        }
        bucket.shed_in_window = true;
        let reply_busy = !bucket.busy_sent;
        bucket.busy_sent = true;
        let escalate =
            config.strikes_before_evict > 0 && bucket.strikes >= config.strikes_before_evict;
        Verdict::Shed { class, reply_busy, escalate }
    }

    /// Drops an endpoint's budget window (disconnect, eviction). The
    /// next message from a reconnected endpoint starts a fresh window
    /// with zero strikes.
    pub(crate) fn forget(&mut self, endpoint: &E) {
        self.buckets.remove(endpoint);
    }

    /// Evicts budget windows idle for two or more window lengths, so the
    /// bucket map is bounded by the set of recently-active endpoints
    /// rather than every endpoint ever seen. A window that shed ages out
    /// like any other: strikes count *consecutive* windows with a shed,
    /// and an endpoint silent for two window lengths has had a clean one
    /// in between, so the chain its bucket carried is broken anyway.
    /// Called from the core's `tick`.
    pub(crate) fn prune(&mut self, now_us: u64) {
        if !self.config.enabled() {
            return;
        }
        let horizon = self.config.window_us.saturating_mul(2);
        self.buckets.retain(|_, b| now_us.saturating_sub(b.window_start_us) < horizon);
    }

    /// Number of endpoints with a live budget window (observability).
    pub(crate) fn tracked_endpoints(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_wire::{GlobalObjectId, InstanceId, MessageKind, ObjectPath, StateNode, WidgetKind};

    fn oid(i: u64) -> GlobalObjectId {
        GlobalObjectId { instance: InstanceId(i), path: ObjectPath::parse("o").expect("valid") }
    }

    fn control_msg() -> Message {
        Message::Couple { src: oid(1), dst: oid(2) }
    }

    fn bulk_msg() -> Message {
        Message::CopyFrom {
            src: oid(1),
            dst: oid(2),
            mode: cosoft_wire::CopyMode::Strict,
            req_id: 1,
        }
    }

    fn config() -> OverloadConfig {
        OverloadConfig {
            window_us: 1_000,
            control_budget: 2,
            bulk_budget: 1,
            max_window_bytes: 0,
            retry_after_ms: 50,
            strikes_before_evict: 2,
        }
    }

    #[test]
    fn disabled_config_admits_everything() {
        let mut a: Admission<u64> = Admission::new(OverloadConfig::default());
        for _ in 0..10_000 {
            assert_eq!(a.admit(7, &bulk_msg(), 0), Verdict::Admit);
        }
        assert_eq!(a.tracked_endpoints(), 0);
    }

    #[test]
    fn liveness_is_always_admitted() {
        let mut a: Admission<u64> = Admission::new(config());
        for _ in 0..100 {
            assert_eq!(a.admit(7, &Message::Ping { nonce: 1 }, 0), Verdict::Admit);
            assert_eq!(a.admit(7, &Message::Rejoin { resume_token: 9 }, 0), Verdict::Admit);
        }
    }

    #[test]
    fn class_budgets_shed_and_refill() {
        let mut a: Admission<u64> = Admission::new(config());
        assert_eq!(a.admit(7, &control_msg(), 0), Verdict::Admit);
        assert_eq!(a.admit(7, &control_msg(), 0), Verdict::Admit);
        let v = a.admit(7, &control_msg(), 0);
        assert!(matches!(
            v,
            Verdict::Shed { class: MessageClass::Control, reply_busy: true, escalate: false }
        ));
        // Bulk has its own (smaller) budget.
        assert_eq!(a.admit(7, &bulk_msg(), 0), Verdict::Admit);
        let v = a.admit(7, &bulk_msg(), 0);
        assert!(matches!(v, Verdict::Shed { class: MessageClass::Bulk, reply_busy: false, .. }));
        // Next window: budgets refill, Busy can be sent again.
        assert_eq!(a.admit(7, &control_msg(), 1_000), Verdict::Admit);
    }

    #[test]
    fn busy_reply_is_once_per_window() {
        let mut a: Admission<u64> = Admission::new(config());
        a.admit(7, &control_msg(), 0);
        a.admit(7, &control_msg(), 0);
        let mut busies = 0;
        for _ in 0..50 {
            if let Verdict::Shed { reply_busy: true, .. } = a.admit(7, &control_msg(), 0) {
                busies += 1;
            }
        }
        assert_eq!(busies, 1);
        // New window: budget refills, so spend it before counting sheds.
        a.admit(7, &control_msg(), 1_500);
        a.admit(7, &control_msg(), 1_500);
        let mut busies2 = 0;
        for _ in 0..50 {
            if let Verdict::Shed { reply_busy: true, .. } = a.admit(7, &control_msg(), 1_500) {
                busies2 += 1;
            }
        }
        assert_eq!(busies2, 1);
    }

    #[test]
    fn sustained_abuse_escalates_after_strike_windows() {
        let mut a: Admission<u64> = Admission::new(config());
        // Window 0: exhaust + shed (strike forming).
        for _ in 0..5 {
            a.admit(7, &control_msg(), 0);
        }
        // Window 1: shed again.
        let mut escalated = false;
        for _ in 0..5 {
            if let Verdict::Shed { escalate: true, .. } = a.admit(7, &control_msg(), 1_000) {
                escalated = true;
            }
        }
        assert!(!escalated, "one completed shed window must not yet escalate");
        // Window 2: strikes == 2 → first shed escalates.
        for _ in 0..5 {
            if let Verdict::Shed { escalate: true, .. } = a.admit(7, &control_msg(), 2_000) {
                escalated = true;
            }
        }
        assert!(escalated);
    }

    #[test]
    fn good_window_resets_strikes() {
        let mut a: Admission<u64> = Admission::new(config());
        for _ in 0..5 {
            a.admit(7, &control_msg(), 0); // shed window
        }
        a.admit(7, &control_msg(), 1_000); // clean window (under budget)
                                           // Two more shed windows still needed before escalation.
        for _ in 0..5 {
            a.admit(7, &control_msg(), 2_000);
        }
        for t in [3_000u64, 4_000] {
            for _ in 0..5 {
                if let Verdict::Shed { escalate, .. } = a.admit(7, &control_msg(), t) {
                    assert_eq!(escalate, t == 4_000, "escalates only at the third shed window");
                }
            }
        }
    }

    #[test]
    fn byte_budget_is_global_across_endpoints() {
        let mut a: Admission<u64> = Admission::new(OverloadConfig {
            window_us: 1_000,
            control_budget: 0,
            bulk_budget: 0,
            max_window_bytes: 600,
            retry_after_ms: 10,
            strikes_before_evict: 0,
        });
        let big = Message::CoSendCommand {
            to: cosoft_wire::Target::Broadcast,
            command: "blob".into(),
            payload: vec![0; 480],
        };
        assert_eq!(a.admit(1, &big, 0), Verdict::Admit);
        // A *different* endpoint is refused: the byte window is shared.
        assert!(matches!(a.admit(2, &big, 0), Verdict::Shed { .. }));
        // Next window admits again.
        assert_eq!(a.admit(2, &big, 1_000), Verdict::Admit);
    }

    #[test]
    fn per_endpoint_budgets_are_independent() {
        let mut a: Admission<u64> = Admission::new(config());
        a.admit(1, &control_msg(), 0);
        a.admit(1, &control_msg(), 0);
        assert!(matches!(a.admit(1, &control_msg(), 0), Verdict::Shed { .. }));
        // Endpoint 2 is unaffected by endpoint 1's exhaustion.
        assert_eq!(a.admit(2, &control_msg(), 0), Verdict::Admit);
    }

    #[test]
    fn forget_clears_strikes() {
        let mut a: Admission<u64> = Admission::new(config());
        for t in [0u64, 1_000, 2_000] {
            for _ in 0..5 {
                a.admit(7, &control_msg(), t);
            }
        }
        a.forget(&7);
        // Fresh bucket: admits normally, no immediate escalation.
        assert_eq!(a.admit(7, &control_msg(), 2_500), Verdict::Admit);
    }

    #[test]
    fn prune_bounds_the_bucket_map() {
        let mut a: Admission<u64> = Admission::new(config());
        for e in 0..100u64 {
            a.admit(e, &control_msg(), 0);
        }
        assert_eq!(a.tracked_endpoints(), 100);
        a.prune(10_000);
        assert_eq!(a.tracked_endpoints(), 0);
    }

    #[test]
    fn approx_cost_tracks_payload_size() {
        let small = approx_cost(&Message::Ping { nonce: 1 });
        let snapshot = StateNode::new(WidgetKind::Canvas, "c");
        let big = approx_cost(&Message::CoSendCommand {
            to: cosoft_wire::Target::Broadcast,
            command: "x".into(),
            payload: vec![0; 4096],
        });
        assert!(small < 64);
        assert!(big > 4096);
        assert!(
            approx_cost(&Message::CopyTo {
                src: oid(1),
                dst: oid(2),
                snapshot,
                mode: cosoft_wire::CopyMode::Strict,
                req_id: 1,
            }) >= BASE_COST
        );
        let push = Message::CopyDelta {
            src: oid(1),
            dst: oid(2),
            base_version: 1,
            new_version: 2,
            delta: cosoft_wire::StateDelta::default(),
            mode: cosoft_wire::CopyMode::Strict,
            req_id: 1,
        };
        assert_eq!(approx_cost(&push), BASE_COST, "priced by its edits, and it has none");
    }

    /// The priority table, by kind name: who is never shed, who is shed
    /// first, and everybody else. The classes are a column of the
    /// protocol table in `cosoft-wire`; a class edited there shows up
    /// here as a kind in the wrong set.
    #[test]
    fn classify_matches_priority_table() {
        const LIVENESS: [&str; 4] = ["ping", "pong", "deregister", "rejoin"];
        const BULK: [&str; 6] =
            ["copy-from", "copy-to", "copy-delta", "remote-copy", "undo-state", "redo-state"];
        for kind in MessageKind::ALL {
            let expected = if LIVENESS.contains(&kind.name()) {
                MessageClass::Liveness
            } else if BULK.contains(&kind.name()) {
                MessageClass::Bulk
            } else {
                MessageClass::Control
            };
            assert_eq!(kind.class(), expected, "{}", kind.name());
        }
        let named =
            |set: &[&str]| set.iter().all(|n| MessageKind::ALL.iter().any(|k| k.name() == *n));
        assert!(named(&LIVENESS) && named(&BULK), "a set names a kind the protocol does not have");
    }
}
