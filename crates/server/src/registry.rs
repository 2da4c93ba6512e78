//! Registration records (§2.2): "application instance as well as
//! participant information such as application instance identifier, host
//! name, and user name" — and, per instance, where its connection stands
//! and the credential that resumes it.

use std::collections::HashMap;

use cosoft_wire::{InstanceId, InstanceInfo, UserId};

/// Where a registered instance's connection stands. One or the other:
/// a record cannot be quarantined and bound, or carry a traffic
/// timestamp without a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Binding<E> {
    /// Connected at `endpoint`, which last produced traffic at
    /// `last_seen_us` (virtual µs).
    Bound {
        /// The transport endpoint the instance is reachable at.
        endpoint: E,
        /// When the endpoint last produced any traffic.
        last_seen_us: u64,
    },
    /// Its connection dropped; the record (id, couples, access rights)
    /// stays resumable until `deadline_us`.
    Quarantined {
        /// When the grace period runs out.
        deadline_us: u64,
    },
}

/// Everything the server records per instance: what it registered as,
/// where its connection stands, and its resume token (none while the
/// liveness policy issues none).
#[derive(Debug, Clone)]
pub(crate) struct Record<E> {
    /// The registration record proper.
    pub(crate) info: InstanceInfo,
    /// Bound to an endpoint, or quarantined until a deadline.
    binding: Binding<E>,
    /// The credential a `Rejoin` must present to reclaim the instance.
    pub(crate) token: Option<u64>,
}

impl<E: Copy> Record<E> {
    /// The endpoint the instance is bound to (`None` when quarantined).
    pub(crate) fn endpoint(&self) -> Option<E> {
        match self.binding {
            Binding::Bound { endpoint, .. } => Some(endpoint),
            Binding::Quarantined { .. } => None,
        }
    }
}

/// Registry of live application instances, generic over the transport
/// endpoint key `E` (a simulated node id or a TCP connection id).
///
/// The endpoint → instance and token → instance indexes are kept here,
/// beside the records they are derived from, and nowhere else.
#[derive(Debug, Clone)]
pub struct Registry<E> {
    next: u64,
    stride: u64,
    by_instance: HashMap<InstanceId, Record<E>>,
    by_endpoint: HashMap<E, InstanceId>,
    by_token: HashMap<u64, InstanceId>,
}

impl<E> Default for Registry<E> {
    fn default() -> Self {
        Registry {
            next: 1,
            stride: 1,
            by_instance: HashMap::new(),
            by_endpoint: HashMap::new(),
            by_token: HashMap::new(),
        }
    }
}

impl<E: Copy + Eq + std::hash::Hash> Registry<E> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates an empty registry whose ids stay in the residue class of
    /// `first` modulo `stride`. Shard `i` of `n` uses `first = i + 1`,
    /// `stride = n`, so ids minted by different shards never collide.
    pub fn with_id_stride(first: u64, stride: u64) -> Self {
        Registry { next: first.max(1), stride: stride.max(1), ..Registry::default() }
    }

    /// Registers a new instance reachable at `endpoint`, first seen at
    /// `now_us`, assigning a fresh [`InstanceId`].
    pub(crate) fn register(
        &mut self,
        endpoint: E,
        user: UserId,
        host: &str,
        app_name: &str,
        now_us: u64,
    ) -> InstanceId {
        let id = InstanceId(self.next);
        self.next += self.stride;
        let info = InstanceInfo {
            instance: id,
            user,
            host: host.to_owned(),
            app_name: app_name.to_owned(),
        };
        let binding = Binding::Bound { endpoint, last_seen_us: now_us };
        self.by_instance.insert(id, Record { info, binding, token: None });
        self.by_endpoint.insert(endpoint, id);
        id
    }

    /// Removes an instance, returning its whole record — to be dropped
    /// (deregistration) or handed to another shard's [`Registry::adopt`].
    pub(crate) fn deregister(&mut self, id: InstanceId) -> Option<Record<E>> {
        let record = self.by_instance.remove(&id)?;
        if let Some(endpoint) = record.endpoint() {
            self.by_endpoint.remove(&endpoint);
        }
        if let Some(token) = record.token {
            self.by_token.remove(&token);
        }
        Some(record)
    }

    /// Inserts a record removed from another shard's registry. The id
    /// counter is advanced past the adopted id in stride steps, so it
    /// stays in this registry's residue class while never re-issuing the
    /// adopted id.
    pub(crate) fn adopt(&mut self, record: Record<E>) {
        let id = record.info.instance;
        while self.next <= id.0 {
            self.next += self.stride;
        }
        if let Some(endpoint) = record.endpoint() {
            self.by_endpoint.insert(endpoint, id);
        }
        if let Some(token) = record.token {
            self.by_token.insert(token, id);
        }
        self.by_instance.insert(id, record);
    }

    /// Detaches an instance from its endpoint without removing its
    /// record: it stays resumable until `deadline_us`. Returns the
    /// endpoint it was bound to, if any.
    pub(crate) fn quarantine(&mut self, id: InstanceId, deadline_us: u64) -> Option<E> {
        let record = self.by_instance.get_mut(&id)?;
        let endpoint = record.endpoint();
        record.binding = Binding::Quarantined { deadline_us };
        if let Some(endpoint) = endpoint {
            self.by_endpoint.remove(&endpoint);
        }
        endpoint
    }

    /// Re-attaches a quarantined instance to a new endpoint (rejoin),
    /// seen there at `now_us`. Returns `false` if the instance is unknown.
    pub(crate) fn rebind(&mut self, id: InstanceId, endpoint: E, now_us: u64) -> bool {
        let Some(record) = self.by_instance.get_mut(&id) else {
            return false;
        };
        if let Some(old) = record.endpoint() {
            self.by_endpoint.remove(&old);
        }
        record.binding = Binding::Bound { endpoint, last_seen_us: now_us };
        self.by_endpoint.insert(endpoint, id);
        true
    }

    /// Notes traffic from a bound instance at `now_us`.
    pub(crate) fn touch(&mut self, id: InstanceId, now_us: u64) {
        if let Some(Record { binding: Binding::Bound { last_seen_us, .. }, .. }) =
            self.by_instance.get_mut(&id)
        {
            *last_seen_us = now_us;
        }
    }

    /// Makes `token` the instance's resume credential, returning the one
    /// it replaces (which is honoured no longer). `None`, and no change,
    /// if the instance is unknown.
    pub(crate) fn set_token(&mut self, id: InstanceId, token: u64) -> Option<u64> {
        let old = self.by_instance.get_mut(&id)?.token.replace(token);
        if let Some(old) = old {
            self.by_token.remove(&old);
        }
        self.by_token.insert(token, id);
        old
    }

    /// The instance `token` resumes, if it is a live credential.
    pub fn instance_for_token(&self, token: u64) -> Option<InstanceId> {
        self.by_token.get(&token).copied()
    }

    /// Number of live resume tokens.
    pub fn token_count(&self) -> usize {
        self.by_token.len()
    }

    /// Whether an instance is currently bound to an endpoint (registered
    /// and not quarantined).
    pub fn is_bound(&self, id: InstanceId) -> bool {
        self.endpoint_of(id).is_some()
    }

    /// Resolves the instance registered at an endpoint.
    pub fn instance_at(&self, endpoint: E) -> Option<InstanceId> {
        self.by_endpoint.get(&endpoint).copied()
    }

    /// Resolves the endpoint of an instance (`None` when unknown or
    /// quarantined).
    pub fn endpoint_of(&self, id: InstanceId) -> Option<E> {
        self.by_instance.get(&id).and_then(Record::endpoint)
    }

    /// The registration record of an instance.
    pub fn info(&self, id: InstanceId) -> Option<&InstanceInfo> {
        self.by_instance.get(&id).map(|r| &r.info)
    }

    /// The user who registered an instance.
    pub fn user_of(&self, id: InstanceId) -> Option<UserId> {
        self.info(id).map(|i| i.user)
    }

    /// Whether an instance is registered.
    pub fn contains(&self, id: InstanceId) -> bool {
        self.by_instance.contains_key(&id)
    }

    /// All registration records, sorted by instance id (deterministic for
    /// `InstanceList` replies).
    pub fn all(&self) -> Vec<InstanceInfo> {
        let mut v: Vec<InstanceInfo> = self.by_instance.values().map(|r| r.info.clone()).collect();
        v.sort_by_key(|i| i.instance);
        v
    }

    /// All registered instance ids, sorted.
    pub fn ids(&self) -> Vec<InstanceId> {
        let mut v: Vec<InstanceId> = self.by_instance.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of registered instances.
    pub fn len(&self) -> usize {
        self.by_instance.len()
    }

    /// Number of quarantined instances: every record is bound or
    /// quarantined, and the endpoint index counts the bound ones.
    pub fn quarantined_len(&self) -> usize {
        self.by_instance.len() - self.by_endpoint.len()
    }

    /// The quarantined instances with their deadlines, in no particular
    /// order. Walks nothing while no one is quarantined.
    pub(crate) fn quarantined(&self) -> Vec<(u64, InstanceId)> {
        if self.quarantined_len() == 0 {
            return Vec::new();
        }
        self.by_instance
            .iter()
            .filter_map(|(id, r)| match r.binding {
                Binding::Quarantined { deadline_us } => Some((deadline_us, *id)),
                Binding::Bound { .. } => None,
            })
            .collect()
    }

    /// The bound instances whose endpoints have, at `now_us`, produced
    /// no traffic for `timeout_us` or longer, sorted.
    pub(crate) fn idle_at(&self, now_us: u64, timeout_us: u64) -> Vec<InstanceId> {
        let mut v: Vec<InstanceId> = self
            .by_instance
            .iter()
            .filter_map(|(id, r)| match r.binding {
                Binding::Bound { last_seen_us, .. }
                    if last_seen_us.saturating_add(timeout_us) <= now_us =>
                {
                    Some(*id)
                }
                Binding::Bound { .. } | Binding::Quarantined { .. } => None,
            })
            .collect();
        v.sort();
        v
    }

    /// Checks that the endpoint and token indexes describe exactly the
    /// bindings and credentials the records carry, and that the id
    /// counter is ahead of every issued id (ids are never reused).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (endpoint, id) in &self.by_endpoint {
            match self.by_instance.get(id).map(Record::endpoint) {
                Some(Some(bound)) if bound == *endpoint => {}
                Some(Some(_)) => {
                    return Err(format!("endpoint index binds {id} to a different endpoint"));
                }
                Some(None) => {
                    return Err(format!("endpoint index binds quarantined instance {id}"));
                }
                None => return Err(format!("endpoint index binds unregistered instance {id}")),
            }
        }
        for (token, id) in &self.by_token {
            if self.by_instance.get(id).and_then(|r| r.token) != Some(*token) {
                return Err(format!("token index resumes {id} by a token its record lacks"));
            }
        }
        for (id, record) in &self.by_instance {
            if record.info.instance != *id {
                return Err(format!(
                    "record of {id} carries mismatched id {}",
                    record.info.instance
                ));
            }
            if let Some(e) = record.endpoint() {
                if self.by_endpoint.get(&e) != Some(id) {
                    return Err(format!("bound instance {id} missing from the endpoint index"));
                }
            }
            if let Some(token) = record.token {
                if self.by_token.get(&token) != Some(id) {
                    return Err(format!("resume token of {id} missing from the token index"));
                }
            }
            if id.0 >= self.next {
                return Err(format!("issued id {id} not below the id counter {}", self.next));
            }
        }
        Ok(())
    }

    /// Whether no instances are registered.
    pub fn is_empty(&self) -> bool {
        self.by_instance.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_unique_ids() {
        let mut r: Registry<u64> = Registry::new();
        let a = r.register(10, UserId(1), "h1", "app", 0);
        let b = r.register(11, UserId(2), "h2", "app", 0);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.instance_at(10), Some(a));
        assert_eq!(r.endpoint_of(b), Some(11));
        assert_eq!(r.user_of(a), Some(UserId(1)));
    }

    #[test]
    fn deregister_removes_every_mapping() {
        let mut r: Registry<u64> = Registry::new();
        let a = r.register(10, UserId(1), "h", "app", 0);
        assert_eq!(r.set_token(a, 77), None);
        let record = r.deregister(a).unwrap();
        assert_eq!(
            (record.info.instance, record.endpoint(), record.token),
            (a, Some(10), Some(77))
        );
        assert!(r.is_empty());
        assert_eq!(r.instance_at(10), None);
        assert_eq!((r.instance_for_token(77), r.token_count()), (None, 0));
        assert!(r.deregister(a).is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut r: Registry<u64> = Registry::new();
        let a = r.register(10, UserId(1), "h", "app", 0);
        r.deregister(a);
        let b = r.register(10, UserId(1), "h", "app", 0);
        assert_ne!(a, b);
    }

    #[test]
    fn quarantine_and_rebind_preserve_the_record() {
        let mut r: Registry<u64> = Registry::new();
        let a = r.register(10, UserId(1), "h", "app", 0);
        let b = r.register(11, UserId(2), "h", "app", 5);
        assert!(r.is_bound(a));
        assert_eq!(r.quarantined_len(), 0);
        assert_eq!(r.quarantine(a, 500), Some(10));
        assert!(!r.is_bound(a));
        assert!(r.contains(a));
        assert_eq!(r.instance_at(10), None);
        assert_eq!(r.endpoint_of(a), None);
        assert_eq!((r.quarantined_len(), r.quarantined()), (1, vec![(500, a)]));
        assert!(r.quarantine(a, 500).is_none(), "it has no endpoint to lose twice");
        // A quarantined instance has no connection to be silent on.
        r.touch(a, 9_000);
        assert_eq!(r.idle_at(1_000, 100), vec![b]);
        assert!(r.rebind(a, 42, 950));
        assert!(r.is_bound(a));
        assert_eq!(r.instance_at(42), Some(a));
        assert_eq!(r.endpoint_of(a), Some(42));
        assert_eq!((r.quarantined_len(), r.quarantined()), (0, vec![]));
        assert_eq!(r.idle_at(1_000, 100), vec![b]);
        r.touch(b, 990);
        assert!(r.idle_at(1_000, 100).is_empty());
        assert!(!r.rebind(InstanceId(999), 50, 0));
        r.check_invariants().unwrap();
    }

    #[test]
    fn a_token_resumes_one_instance_until_it_is_replaced() {
        let mut r: Registry<u64> = Registry::new();
        let a = r.register(10, UserId(1), "h", "app", 0);
        assert_eq!(r.set_token(a, 7), None);
        assert_eq!(r.instance_for_token(7), Some(a));
        assert_eq!(r.set_token(a, 8), Some(7));
        assert_eq!((r.instance_for_token(7), r.instance_for_token(8)), (None, Some(a)));
        assert_eq!(r.token_count(), 1);
        assert_eq!(r.set_token(InstanceId(999), 9), None);
        assert_eq!(r.instance_for_token(9), None);
        r.check_invariants().unwrap();
    }

    #[test]
    fn strided_registries_never_collide() {
        let mut a: Registry<u64> = Registry::with_id_stride(1, 2);
        let mut b: Registry<u64> = Registry::with_id_stride(2, 2);
        let mut ids = Vec::new();
        for e in 0..4u64 {
            ids.push(a.register(e, UserId(1), "h", "app", 0));
            ids.push(b.register(e + 100, UserId(2), "h", "app", 0));
        }
        let unique: std::collections::HashSet<_> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn adopt_bumps_counter_within_stride_class() {
        let mut a: Registry<u64> = Registry::with_id_stride(1, 2);
        let mut b: Registry<u64> = Registry::with_id_stride(2, 2);
        let foreign = b.register(100, UserId(2), "h", "app", 0);
        for e in 0..3u64 {
            b.register(e + 200, UserId(2), "h", "app", 0);
        }
        let high = b.register(300, UserId(2), "h", "app", 0);
        b.set_token(high, 77);
        let record = b.deregister(high).unwrap();
        assert_eq!(record.endpoint(), Some(300));
        a.adopt(record);
        assert!(a.contains(high));
        assert_eq!(a.instance_at(300), Some(high));
        assert_eq!((a.instance_for_token(77), b.instance_for_token(77)), (Some(high), None));
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
        // Ids minted after adoption stay odd (stride class 1 mod 2) and
        // above the adopted id.
        let fresh = a.register(50, UserId(1), "h", "app", 0);
        assert_eq!(fresh.0 % 2, 1);
        assert!(fresh.0 > high.0);
        assert_ne!(fresh, foreign);
    }

    #[test]
    fn all_is_sorted() {
        let mut r: Registry<u64> = Registry::new();
        for e in 0..5u64 {
            r.register(e, UserId(e), "h", "app", 0);
        }
        let infos = r.all();
        for w in infos.windows(2) {
            assert!(w[0].instance < w[1].instance);
        }
    }
}
