//! Access permissions (§2.2): "three-valued tuples with user ID, UI state
//! identifier, and access right category". The tuples of an object are
//! rows of its instance's registry record, keyed by user and object path:
//! a right lives with the object it protects, and goes where it goes.

use cosoft_wire::{AccessRight, ObjectPath, UserId};

use crate::registry::Record;

/// The right where no row speaks, until `set_default_right` replaces it:
/// permissive `Write`, matching the open classroom setting.
pub(crate) const DEFAULT_RIGHT: AccessRight = AccessRight::Write;

impl<E> Record<E> {
    /// The right `user` holds on this instance's object at `path`, most
    /// specific first: the owner (the user the instance registered as)
    /// always writes; then a row for `path`; then a row for its nearest
    /// ancestor (a right on a complex object covers its components).
    /// `None` when no row speaks for it, and the server's default decides.
    pub(crate) fn right_of(&self, user: UserId, path: &ObjectPath) -> Option<AccessRight> {
        (self.info.user == user).then_some(AccessRight::Write).or_else(|| {
            let access = &self.objects.as_ref()?.access;
            std::iter::successors(Some(path.clone()), ObjectPath::parent)
                .find_map(|at| access.get(&(user, at)).copied())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use cosoft_wire::AccessRight::{Denied, Read, Write};

    /// The record of an instance registered by user 9.
    fn record() -> Record<u64> {
        let mut registry = Registry::new();
        let id = registry.register(1, UserId(9), "h", "app", 0);
        registry.deregister(id).unwrap()
    }

    fn path(p: &str) -> ObjectPath {
        ObjectPath::parse(p).unwrap()
    }

    fn set(r: &mut Record<u64>, user: u64, p: &str, right: AccessRight) {
        r.objects.get_or_insert_with(Box::default).access.insert((UserId(user), path(p)), right);
    }

    #[test]
    fn default_is_permissive() {
        assert_eq!(record().right_of(UserId(1), &path("a.b")), None);
        assert!(DEFAULT_RIGHT.allows_read() && DEFAULT_RIGHT.allows_write());
    }

    #[test]
    fn explicit_tuple_overrides_default() {
        let mut r = record();
        set(&mut r, 1, "a.b", Denied);
        assert_eq!(r.right_of(UserId(1), &path("a.b")), Some(Denied));
        assert_eq!(r.right_of(UserId(3), &path("a.b")), None, "other users unaffected");
    }

    #[test]
    fn read_only_permits_copy_not_couple() {
        let mut r = record();
        set(&mut r, 1, "form", Read);
        let right = r.right_of(UserId(1), &path("form")).unwrap();
        assert!(right.allows_read() && !right.allows_write());
    }

    #[test]
    fn rights_inherit_down_the_object_tree() {
        let mut r = record();
        set(&mut r, 1, "form", Write);
        let right = |r: &Record<u64>, p| r.right_of(UserId(1), &path(p));
        assert_eq!(right(&r, "form.field"), Some(Write));
        assert_eq!(right(&r, "form.panel.deep"), Some(Write));
        assert_eq!(right(&r, "other"), None);
        // Closer rows win over ancestors.
        set(&mut r, 1, "form.field", Denied);
        assert_eq!(right(&r, "form.field"), Some(Denied));
        assert_eq!(right(&r, "form.other"), Some(Write));
    }

    #[test]
    fn restrictive_default() {
        // Where no row speaks, the core applies its default as is.
        let r = record();
        assert_eq!(r.right_of(UserId(1), &path("x")).unwrap_or(Denied), Denied);
    }

    #[test]
    fn the_owner_always_writes() {
        let mut r = record();
        set(&mut r, 9, "form", Denied);
        assert_eq!(r.right_of(UserId(9), &path("form.field")), Some(Write));
    }
}
