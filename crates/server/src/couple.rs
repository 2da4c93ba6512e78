//! The couple directory: the couple relation `C` and its transitive
//! closure `CO(o)` (§3).
//!
//! "A couple link is a directed arc from the source UI object to the
//! destination UI object ... To compute the set of objects CO(o) connected
//! to or coupled with a given object o, we use the transitive closure of
//! C." Closure traversal is undirected: coupling either endpoint adds the
//! peer's whole group ("objects already connected to O2 are added to the
//! list of targets, and objects already connected to O1 are added to the
//! source").

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use cosoft_wire::{GlobalObjectId, InstanceId};

/// The server-side couple relation.
///
/// A link is kept once, as an undirected edge: nothing reads which end
/// a link was created from, and decoupling accepts either order.
#[derive(Debug, Clone, Default)]
pub struct CoupleDirectory {
    /// Every object with a link, and the objects it is linked to.
    adj: HashMap<GlobalObjectId, BTreeSet<GlobalObjectId>>,
}

impl CoupleDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        CoupleDirectory::default()
    }

    /// Adds a couple link `src → dst`. Returns `false` if the link (in
    /// either direction) already existed.
    ///
    /// Self-links are ignored (an object is trivially coupled with
    /// itself).
    pub fn couple(&mut self, src: GlobalObjectId, dst: GlobalObjectId) -> bool {
        if src == dst || !self.adj.entry(src.clone()).or_default().insert(dst.clone()) {
            return false;
        }
        self.adj.entry(dst).or_default().insert(src);
        true
    }

    /// Removes the couple link between `src` and `dst` (either direction).
    /// Returns `false` if no such link existed.
    pub fn decouple(&mut self, src: &GlobalObjectId, dst: &GlobalObjectId) -> bool {
        self.remove_half(src, dst) && self.remove_half(dst, src)
    }

    /// Removes `b` from `a`'s neighbours, and `a`'s entry once empty.
    fn remove_half(&mut self, a: &GlobalObjectId, b: &GlobalObjectId) -> bool {
        let Some(neighbors) = self.adj.get_mut(a) else { return false };
        let removed = neighbors.remove(b);
        if neighbors.is_empty() {
            self.adj.remove(a);
        }
        removed
    }

    /// Computes `CO(o)`: every object transitively coupled with `o`,
    /// excluding `o` itself, in deterministic order.
    pub fn coupled_with(&self, o: &GlobalObjectId) -> Vec<GlobalObjectId> {
        let mut group = self.group_of(o);
        group.retain(|g| g != o);
        group
    }

    /// The full coupling group of `o` (including `o`), in deterministic
    /// order. An uncoupled object forms a singleton group.
    pub fn group_of(&self, o: &GlobalObjectId) -> Vec<GlobalObjectId> {
        let mut seen: BTreeSet<GlobalObjectId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(o.clone());
        queue.push_back(o.clone());
        while let Some(cur) = queue.pop_front() {
            if let Some(neighbors) = self.adj.get(&cur) {
                for n in neighbors {
                    if seen.insert(n.clone()) {
                        queue.push_back(n.clone());
                    }
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Whether `o` participates in any couple link.
    pub fn is_coupled(&self, o: &GlobalObjectId) -> bool {
        self.adj.contains_key(o)
    }

    /// Finds the coupled object enclosing `o`: `o` itself if coupled,
    /// otherwise the nearest coupled ancestor along `o`'s pathname.
    ///
    /// Events on components of a coupled complex object are routed
    /// through the enclosing object's couple links (coupling a form
    /// synchronizes its components).
    pub fn coupled_base_of(&self, o: &GlobalObjectId) -> Option<GlobalObjectId> {
        if self.is_coupled(o) {
            return Some(o.clone());
        }
        let mut path = o.path.clone();
        while let Some(parent) = path.parent() {
            let candidate = GlobalObjectId::new(o.instance, parent.clone());
            if self.is_coupled(&candidate) {
                return Some(candidate);
            }
            path = parent;
        }
        None
    }

    /// Removes every link touching `object` (applied automatically "when a
    /// UI object is destroyed", §3.2). Returns the object's former group
    /// (excluding it) so the server can notify the remaining members.
    pub fn remove_object(&mut self, object: &GlobalObjectId) -> Vec<GlobalObjectId> {
        let rest = self.coupled_with(object);
        let neighbors: Vec<GlobalObjectId> =
            self.adj.get(object).map(|s| s.iter().cloned().collect()).unwrap_or_default();
        for n in neighbors {
            self.decouple(object, &n);
        }
        rest
    }

    /// Removes every link touching any object of `instance` (applied when
    /// "an application instance terminates", §3.2). Returns the resulting
    /// groups of every surviving object that lost a neighbour — computed
    /// *after* removal, so singleton groups signal full decoupling.
    pub fn remove_instance(&mut self, instance: InstanceId) -> Vec<Vec<GlobalObjectId>> {
        let doomed: Vec<GlobalObjectId> =
            self.adj.keys().filter(|o| o.instance == instance).cloned().collect();
        let mut affected: BTreeSet<GlobalObjectId> = BTreeSet::new();
        for o in &doomed {
            if let Some(neighbors) = self.adj.get(o) {
                affected.extend(neighbors.iter().filter(|n| n.instance != instance).cloned());
            }
        }
        for o in doomed {
            self.remove_object(&o);
        }
        let mut seen: BTreeSet<GlobalObjectId> = BTreeSet::new();
        let mut groups = Vec::new();
        for s in affected {
            if seen.contains(&s) {
                continue;
            }
            let g = self.group_of(&s);
            seen.extend(g.iter().cloned());
            groups.push(g);
        }
        groups
    }

    /// The instances owning at least one object of `o`'s group (including
    /// `o`'s own instance), sorted.
    pub fn instances_in_group(&self, o: &GlobalObjectId) -> Vec<InstanceId> {
        let mut v: Vec<InstanceId> = self.group_of(o).iter().map(|g| g.instance).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The couple-component of `instance` at instance granularity: every
    /// instance reachable from it through couple links between any of
    /// their objects, including `instance` itself, sorted. An instance
    /// with no coupled objects forms a singleton component.
    ///
    /// This is the shard key: disjoint components share no locks, history
    /// entries, or fan-out legs, so a shard boundary between them is
    /// invisible to the protocol.
    pub fn instance_component(&self, instance: InstanceId) -> Vec<InstanceId> {
        let mut by_instance: HashMap<InstanceId, BTreeSet<InstanceId>> = HashMap::new();
        #[expect(clippy::iter_over_hash_type, reason = "builds a map of sorted sets")]
        for (o, neighbors) in &self.adj {
            let entry = by_instance.entry(o.instance).or_default();
            entry.extend(neighbors.iter().map(|n| n.instance));
        }
        let mut seen: BTreeSet<InstanceId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(instance);
        queue.push_back(instance);
        while let Some(cur) = queue.pop_front() {
            if let Some(neighbors) = by_instance.get(&cur) {
                for n in neighbors {
                    if seen.insert(*n) {
                        queue.push_back(*n);
                    }
                }
            }
        }
        seen.into_iter().collect()
    }

    /// The set of instances owning at least one coupled object, sorted.
    pub fn instances(&self) -> Vec<InstanceId> {
        let mut v: Vec<InstanceId> = self.adj.keys().map(|o| o.instance).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Removes and returns every link whose endpoints both belong to
    /// instances in `members`, each once, for migration to another shard.
    /// Callers pass a closed couple-component, so no link can straddle
    /// the boundary; a straddling link would indicate the set was not a
    /// component and is left in place.
    pub fn extract_instance_links(
        &mut self,
        members: &HashSet<InstanceId>,
    ) -> Vec<(GlobalObjectId, GlobalObjectId)> {
        let doomed: Vec<(GlobalObjectId, GlobalObjectId)> = self
            .adj
            .iter()
            .filter(|(a, _)| members.contains(&a.instance))
            .flat_map(|(a, neighbors)| {
                neighbors
                    .iter()
                    .filter(|b| *a < **b && members.contains(&b.instance))
                    .map(|b| (a.clone(), b.clone()))
            })
            .collect();
        for (a, b) in &doomed {
            self.decouple(a, b);
        }
        doomed
    }

    /// Re-creates links extracted from another shard's directory.
    pub fn adopt_links(&mut self, links: Vec<(GlobalObjectId, GlobalObjectId)>) {
        for (s, d) in links {
            self.couple(s, d);
        }
    }

    /// Checks that the adjacency is a simple undirected graph: no
    /// self-loops, no empty neighbour sets, and every edge stored at both
    /// of its ends.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn check_invariants(&self) -> Result<(), String> {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "the order only decides which violation is reported first"
        )]
        for (o, neighbors) in &self.adj {
            if neighbors.is_empty() {
                return Err(format!("empty adjacency set retained for {o}"));
            }
            for n in neighbors {
                if n == o {
                    return Err(format!("self-link on {o}"));
                }
                if !self.adj.get(n).is_some_and(|back| back.contains(o)) {
                    return Err(format!("edge {o} ~ {n} is missing at {n}"));
                }
            }
        }
        Ok(())
    }

    /// Whether the directory has no links.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosoft_wire::ObjectPath;

    fn gid(i: u64, p: &str) -> GlobalObjectId {
        GlobalObjectId::new(InstanceId(i), ObjectPath::parse(p).unwrap())
    }

    #[test]
    fn couple_builds_transitive_closure() {
        let mut d = CoupleDirectory::new();
        assert!(d.couple(gid(1, "a"), gid(2, "b")));
        assert!(d.couple(gid(2, "b"), gid(3, "c")));
        // a ~ b ~ c: closure connects a and c although no direct link.
        assert_eq!(d.coupled_with(&gid(1, "a")), vec![gid(2, "b"), gid(3, "c")]);
        assert_eq!(d.coupled_with(&gid(3, "c")), vec![gid(1, "a"), gid(2, "b")]);
        assert_eq!(d.group_of(&gid(2, "b")).len(), 3);
    }

    #[test]
    fn closure_is_undirected() {
        let mut d = CoupleDirectory::new();
        d.couple(gid(1, "a"), gid(2, "b"));
        // Either endpoint sees the other.
        assert_eq!(d.coupled_with(&gid(2, "b")), vec![gid(1, "a")]);
    }

    #[test]
    fn duplicate_and_self_links_rejected() {
        let mut d = CoupleDirectory::new();
        assert!(d.couple(gid(1, "a"), gid(2, "b")));
        assert!(!d.couple(gid(1, "a"), gid(2, "b")));
        assert!(!d.couple(gid(2, "b"), gid(1, "a")), "reverse duplicate rejected");
        assert!(!d.couple(gid(1, "a"), gid(1, "a")), "self link rejected");
        assert_eq!(d.coupled_with(&gid(1, "a")), vec![gid(2, "b")]);
        assert_eq!(d.coupled_with(&gid(2, "b")), vec![gid(1, "a")]);
    }

    #[test]
    fn decouple_splits_groups() {
        let mut d = CoupleDirectory::new();
        d.couple(gid(1, "a"), gid(2, "b"));
        d.couple(gid(2, "b"), gid(3, "c"));
        assert!(d.decouple(&gid(2, "b"), &gid(1, "a")), "direction-insensitive");
        assert!(d.coupled_with(&gid(1, "a")).is_empty());
        assert_eq!(d.coupled_with(&gid(3, "c")), vec![gid(2, "b")]);
        assert!(!d.decouple(&gid(1, "a"), &gid(2, "b")), "already removed");
    }

    #[test]
    fn decouple_keeps_group_when_cycle_exists() {
        let mut d = CoupleDirectory::new();
        d.couple(gid(1, "a"), gid(2, "b"));
        d.couple(gid(2, "b"), gid(3, "c"));
        d.couple(gid(3, "c"), gid(1, "a"));
        d.decouple(&gid(1, "a"), &gid(2, "b"));
        // Still connected through c.
        assert_eq!(d.group_of(&gid(1, "a")).len(), 3);
    }

    #[test]
    fn uncoupled_object_is_singleton() {
        let d = CoupleDirectory::new();
        assert!(d.coupled_with(&gid(1, "x")).is_empty());
        assert_eq!(d.group_of(&gid(1, "x")), vec![gid(1, "x")]);
        assert!(!d.is_coupled(&gid(1, "x")));
    }

    #[test]
    fn remove_object_detaches_everything() {
        let mut d = CoupleDirectory::new();
        d.couple(gid(1, "a"), gid(2, "b"));
        d.couple(gid(1, "a"), gid(3, "c"));
        let rest = d.remove_object(&gid(1, "a"));
        assert_eq!(rest, vec![gid(2, "b"), gid(3, "c")]);
        assert!(d.is_empty());
        assert!(d.coupled_with(&gid(2, "b")).is_empty());
    }

    #[test]
    fn remove_instance_decouples_all_its_objects() {
        let mut d = CoupleDirectory::new();
        d.couple(gid(1, "a"), gid(2, "b"));
        d.couple(gid(1, "x"), gid(3, "y"));
        d.couple(gid(2, "b"), gid(3, "z"));
        let affected = d.remove_instance(InstanceId(1));
        assert_eq!(affected.len(), 2);
        // b~z survives (the link not involving instance 1).
        assert_eq!(d.coupled_with(&gid(2, "b")), vec![gid(3, "z")]);
        assert!(d.coupled_with(&gid(3, "y")).is_empty());
    }

    #[test]
    fn instances_in_group_deduplicates() {
        let mut d = CoupleDirectory::new();
        d.couple(gid(1, "a"), gid(2, "b"));
        d.couple(gid(1, "c"), gid(2, "b"));
        assert_eq!(d.instances_in_group(&gid(2, "b")), vec![InstanceId(1), InstanceId(2)]);
    }

    #[test]
    fn two_objects_same_instance_can_couple() {
        // "including the case of two objects coupled within the same
        // application instance" (§3.3).
        let mut d = CoupleDirectory::new();
        assert!(d.couple(gid(1, "a"), gid(1, "b")));
        assert_eq!(d.coupled_with(&gid(1, "a")), vec![gid(1, "b")]);
        assert_eq!(d.instances_in_group(&gid(1, "a")), vec![InstanceId(1)]);
    }
}
