//! Objects, version numbers, and versioned values.

use std::fmt;

use bytes::Bytes;

/// Identifies a stored object within a container.
///
/// In the paper each file suite has one logical file; a container may hold
/// representatives of many suites, so representatives are addressed by the
/// suite's object id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// The paper's *version number*: a monotonically increasing counter kept
/// with every representative. Current representatives are exactly those
/// holding the highest version number in a read quorum.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version of a representative that has never been written.
    pub const INITIAL: Version = Version(0);

    /// The version produced by one more committed write.
    pub fn next(self) -> Version {
        Version(self.0.checked_add(1).expect("version counter overflow"))
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A value paired with the version number under which it was committed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VersionedValue {
    /// The version number.
    pub version: Version,
    /// The object contents as of that version.
    pub value: Bytes,
}

impl VersionedValue {
    /// Creates a versioned value.
    pub fn new(version: Version, value: impl Into<Bytes>) -> Self {
        VersionedValue {
            version,
            value: value.into(),
        }
    }

    /// The empty value at [`Version::INITIAL`] — the state of a
    /// representative that has never been written.
    pub fn initial() -> Self {
        VersionedValue {
            version: Version::INITIAL,
            value: Bytes::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_and_next() {
        let v0 = Version::INITIAL;
        let v1 = v0.next();
        let v2 = v1.next();
        assert_eq!(v2, Version(2));
        assert!(v0 < v1 && v1 < v2);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn version_overflow_is_detected() {
        let _ = Version(u64::MAX).next();
    }

    #[test]
    fn versioned_value_initial() {
        let v = VersionedValue::initial();
        assert_eq!(v.version, Version(0));
        assert!(v.value.is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", ObjectId(3)), "obj3");
        assert_eq!(format!("{}", Version(9)), "v9");
    }

    #[test]
    fn versioned_value_from_static() {
        let v = VersionedValue::new(Version(1), &b"hello"[..]);
        assert_eq!(&v.value[..], b"hello");
    }
}
