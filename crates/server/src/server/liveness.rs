//! Client liveness: the virtual clock, resume tokens, registration and
//! rejoin, and quarantine — a dropped connection's grace period.

use std::hash::Hash;

use cosoft_wire::{InstanceId, Message, UserId};

use super::{Outgoing, RouteEvent, ServerCore};

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

impl<E: Copy + Eq + Hash> ServerCore<E> {
    /// Refreshes the liveness timestamp of the instance bound to
    /// `endpoint`, as if it had produced traffic. Routers call this when
    /// they answer a message on the core's behalf (merged instance
    /// queries, cross-shard command delivery), so the sender is not
    /// idle-quarantined despite being active.
    pub fn touch(&mut self, endpoint: E) {
        if let Some(id) = self.registry.instance_at(endpoint) {
            self.registry.touch(id, self.now_us);
        }
    }

    /// Whether this core issued (and still honors) `token` as a resume
    /// credential.
    pub fn owns_resume_token(&self, token: u64) -> bool {
        self.registry.instance_for_token(token).is_some()
    }

    /// Number of live resume tokens (router invariant checks).
    pub fn token_count(&self) -> usize {
        self.registry.token_count()
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
            .registry
            .quarantined()
            .into_iter()
            .filter(|(deadline_us, _)| *deadline_us <= self.now_us)
            .map(|(_, id)| id)
            .collect();
        expired.sort();
        for id in expired {
            self.stats.quarantine_expiries += 1;
            let dereg = self.deregister_instance(id);
            out.extend(dereg);
        }
        if self.liveness.idle_timeout_us > 0 && self.liveness.grace_us > 0 {
            for id in self.registry.idle_at(self.now_us, self.liveness.idle_timeout_us) {
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
            if self.registry.instance_for_token(z).is_none() {
                break z;
            }
        };
        if let Some(old) = self.registry.set_token(id, token) {
            self.route_event(RouteEvent::TokenRetired { token: old });
        }
        self.route_event(RouteEvent::TokenIssued { token, instance: id });
        token
    }

    /// Handles a `Register`: a new record bound to `endpoint`, and — when
    /// the liveness policy quarantines — the token that resumes it. As
    /// for a `Rejoin`, the connection must not carry an instance already:
    /// a second record on one endpoint would leave the first bound to a
    /// connection that no longer speaks for it.
    pub(super) fn do_register(
        &mut self,
        endpoint: E,
        user: UserId,
        host: &str,
        app_name: &str,
    ) -> Outgoing<E> {
        let mut out = Outgoing::new();
        if self.registry.instance_at(endpoint).is_some() {
            out.push_unicast(
                endpoint,
                Message::ErrorReply {
                    context: "register".to_owned(),
                    reason: "endpoint is already registered".to_owned(),
                },
            );
            return out;
        }
        let id = self.registry.register(endpoint, user, host, app_name, self.now_us);
        self.route_event(RouteEvent::Bound { instance: id, endpoint });
        out.push_unicast(endpoint, Message::Welcome { instance: id });
        if self.liveness.grace_us > 0 {
            let token = self.mint_token(id);
            out.push_unicast(endpoint, Message::SessionToken { resume_token: token });
        }
        out
    }

    /// Handles a pre-registration `Rejoin`: a returning connection
    /// presenting the resume token of a quarantined instance reclaims
    /// that instance — id, couples, access rights — on its new endpoint.
    pub(super) fn do_rejoin(&mut self, endpoint: E, resume_token: u64) -> Outgoing<E> {
        let resumable = self
            .registry
            .instance_for_token(resume_token)
            .filter(|id| !self.registry.is_bound(*id))
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
        self.registry.rebind(id, endpoint, self.now_us);
        self.route_event(RouteEvent::Bound { instance: id, endpoint });
        self.stats.resumes += 1;
        // Rotate the token: a resume credential is single-use.
        let fresh = self.mint_token(id);
        out.push_unicast(endpoint, Message::Welcome { instance: id });
        out.push_unicast(endpoint, Message::SessionToken { resume_token: fresh });
        out
    }

    /// Places an instance in quarantine: live I/O is severed and the
    /// endpoint unbound, but the registration record, couples, and
    /// access rights survive until the grace period expires.
    pub(super) fn quarantine_instance(&mut self, id: InstanceId) -> Outgoing<E> {
        let mut out = Outgoing::new();
        // Bounded store: make room before inserting by expiring the
        // oldest-deadline entries early (ties broken by smallest id for
        // determinism). Each eviction runs the full deregistration path,
        // so couples dissolve and resume tokens retire exactly as they
        // would at on-time expiry.
        let cap = self.liveness.max_quarantined;
        while cap > 0 && self.registry.quarantined_len() >= cap {
            let Some((_, victim)) = self.registry.quarantined().into_iter().min() else { break };
            self.stats.quarantine_store_evictions += 1;
            let dereg = self.deregister_instance(victim);
            out.extend(dereg);
        }
        self.sever_instance_io(id, &mut out);
        let deadline_us = self.now_us.saturating_add(self.liveness.grace_us);
        if let Some(endpoint) = self.registry.quarantine(id, deadline_us) {
            self.route_event(RouteEvent::Unbound { instance: id, endpoint });
            self.admission.forget(&endpoint);
        }
        self.stats.quarantines += 1;
        out
    }
}
