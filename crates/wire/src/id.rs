use std::fmt;

use crate::WireError;

/// Identifier of a registered application instance.
///
/// Assigned by the COSOFT server at registration time (§2.2 "registration
/// records"). The tuple `<instance-id, pathname>` globally names a UI object
/// across all application instances (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// Identifier of a human participant.
///
/// Used in the server's three-valued access-permission tuples
/// `(user, ui-state id, access right)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UserId(pub u64);

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user#{}", self.0)
    }
}

/// Hierarchical pathname of a UI object within one application instance.
///
/// UI objects are organized as a tree along the parent/child relationship;
/// the pathname is the dot-separated list of widget names from the root,
/// e.g. `root.query_form.author_field`.
///
/// Paths are cheap to clone (segments are reference-counted internally is
/// *not* done — they are plain `String`s; clone cost is linear, which the
/// coupling layer amortizes by cloning rarely).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectPath {
    segments: Vec<String>,
}

impl ObjectPath {
    /// Creates the root path (no segments).
    ///
    /// The root path names the top-level widget of an instance.
    pub fn root() -> Self {
        ObjectPath { segments: Vec::new() }
    }

    /// Creates a path from owned segments.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidPath`] if any segment is empty or
    /// contains the separator `.`.
    pub fn from_segments<I>(segments: I) -> Result<Self, WireError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let segments: Vec<String> = segments.into_iter().map(Into::into).collect();
        for s in &segments {
            if s.is_empty() {
                return Err(WireError::InvalidPath { reason: "empty segment" });
            }
            if s.contains('.') {
                return Err(WireError::InvalidPath { reason: "segment contains separator" });
            }
        }
        Ok(ObjectPath { segments })
    }

    /// Parses a dot-separated pathname such as `root.panel.button1`.
    ///
    /// An empty string parses to the root path.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidPath`] on empty segments (`a..b`).
    pub fn parse(s: &str) -> Result<Self, WireError> {
        if s.is_empty() {
            return Ok(Self::root());
        }
        Self::from_segments(s.split('.').map(str::to_owned))
    }

    /// Returns a new path with `name` appended as the last segment.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidPath`] if `name` is empty or contains `.`.
    pub fn child(&self, name: &str) -> Result<Self, WireError> {
        if name.is_empty() {
            return Err(WireError::InvalidPath { reason: "empty segment" });
        }
        if name.contains('.') {
            return Err(WireError::InvalidPath { reason: "segment contains separator" });
        }
        let mut segments = self.segments.clone();
        segments.push(name.to_owned());
        Ok(ObjectPath { segments })
    }

    /// Returns the parent path, or `None` for the root path.
    pub fn parent(&self) -> Option<Self> {
        self.segments.split_last().map(|(_, parent)| ObjectPath { segments: parent.to_vec() })
    }

    /// Returns the final segment (the widget's own name), or `None` for root.
    pub fn leaf(&self) -> Option<&str> {
        self.segments.last().map(String::as_str)
    }

    /// Returns the path segments.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// Returns the number of segments (0 for the root path).
    pub fn depth(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` if this is the root path.
    pub fn is_root(&self) -> bool {
        self.segments.is_empty()
    }

    /// Returns `true` if `self` is `other` or an ancestor of `other`.
    ///
    /// Used by the coupling layer: an event inside a coupled complex object
    /// must be routed through the couple link of the enclosing object.
    pub fn is_prefix_of(&self, other: &ObjectPath) -> bool {
        other.segments.get(..self.segments.len()) == Some(self.segments.as_slice())
    }

    /// Strips `prefix` from the front of `self`, returning the relative
    /// remainder, or `None` if `prefix` is not a prefix of `self`.
    pub fn strip_prefix(&self, prefix: &ObjectPath) -> Option<ObjectPath> {
        if !prefix.is_prefix_of(self) {
            return None;
        }
        self.segments
            .get(prefix.segments.len()..)
            .map(|rest| ObjectPath { segments: rest.to_vec() })
    }

    /// Joins a relative path onto `self`.
    pub fn join(&self, rel: &ObjectPath) -> ObjectPath {
        let mut segments = self.segments.clone();
        segments.extend(rel.segments.iter().cloned());
        ObjectPath { segments }
    }
}

impl fmt::Display for ObjectPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            write!(f, "<root>")
        } else {
            write!(f, "{}", self.segments.join("."))
        }
    }
}

record! {
    /// Global name of a UI object: the pair `<instance-id, pathname>` of §3.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct GlobalObjectId {
        /// The owning application instance.
        pub instance: InstanceId,
        /// The object's pathname within that instance.
        pub path: ObjectPath,
    }
}

impl GlobalObjectId {
    /// Creates a global object id from its two components.
    pub fn new(instance: InstanceId, path: ObjectPath) -> Self {
        GlobalObjectId { instance, path }
    }
}

impl fmt::Display for GlobalObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.instance, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let p = ObjectPath::parse("root.panel.button1").unwrap();
        assert_eq!(p.depth(), 3);
        assert_eq!(p.leaf(), Some("button1"));
        assert_eq!(p.to_string(), "root.panel.button1");
    }

    #[test]
    fn empty_string_is_root() {
        let p = ObjectPath::parse("").unwrap();
        assert!(p.is_root());
        assert_eq!(p.leaf(), None);
        assert_eq!(p.parent(), None);
        assert_eq!(p.to_string(), "<root>");
    }

    #[test]
    fn rejects_empty_segments() {
        assert!(ObjectPath::parse("a..b").is_err());
        assert!(ObjectPath::root().child("").is_err());
        assert!(ObjectPath::root().child("a.b").is_err());
    }

    #[test]
    fn child_and_parent_are_inverse() {
        let p = ObjectPath::parse("root.form").unwrap();
        let c = p.child("field").unwrap();
        assert_eq!(c.parent().unwrap(), p);
        assert_eq!(c.leaf(), Some("field"));
    }

    #[test]
    fn prefix_relations() {
        let a = ObjectPath::parse("root.form").unwrap();
        let b = ObjectPath::parse("root.form.field").unwrap();
        let c = ObjectPath::parse("root.other").unwrap();
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!b.is_prefix_of(&a));
        assert!(!a.is_prefix_of(&c));
        assert_eq!(b.strip_prefix(&a).unwrap().to_string(), "field");
        assert!(c.strip_prefix(&a).is_none());
        assert_eq!(a.join(&ObjectPath::parse("field").unwrap()), b);
    }

    #[test]
    fn root_is_prefix_of_everything() {
        let r = ObjectPath::root();
        let b = ObjectPath::parse("x.y").unwrap();
        assert!(r.is_prefix_of(&b));
        assert_eq!(b.strip_prefix(&r).unwrap(), b);
    }

    #[test]
    fn global_id_display() {
        let g = GlobalObjectId::new(InstanceId(7), ObjectPath::parse("a.b").unwrap());
        assert_eq!(g.to_string(), "<inst#7, a.b>");
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(InstanceId(1));
        set.insert(InstanceId(1));
        assert_eq!(set.len(), 1);
        assert!(InstanceId(1) < InstanceId(2));
        assert!(UserId(3) > UserId(2));
    }
}
