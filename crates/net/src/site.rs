//! Site identity and message envelopes.

use std::fmt;

use wv_sim::SimTime;

/// Identifies a site (a machine that may host representatives, clients, or
/// both).
///
/// Sites are dense small integers so that configuration matrices and vote
/// vectors can be indexed directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SiteId(pub u16);

impl SiteId {
    /// The underlying index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Enumerates the first `n` site ids.
    pub fn all(n: usize) -> impl Iterator<Item = SiteId> {
        (0..n as u16).map(SiteId)
    }
}

impl From<u16> for SiteId {
    fn from(v: u16) -> Self {
        SiteId(v)
    }
}

impl From<usize> for SiteId {
    fn from(v: usize) -> Self {
        SiteId(u16::try_from(v).expect("site index exceeds u16"))
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A message in flight between two sites.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// Sending site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Instant the message was handed to the transport.
    pub sent_at: SimTime,
    /// Protocol payload.
    pub payload: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_id_conversions() {
        let s: SiteId = 3usize.into();
        assert_eq!(s, SiteId(3));
        assert_eq!(s.index(), 3);
        assert_eq!(format!("{s}"), "s3");
        let t: SiteId = 7u16.into();
        assert_eq!(t.index(), 7);
    }

    #[test]
    fn all_enumerates_in_order() {
        let v: Vec<SiteId> = SiteId::all(3).collect();
        assert_eq!(v, vec![SiteId(0), SiteId(1), SiteId(2)]);
    }

    #[test]
    #[should_panic(expected = "exceeds u16")]
    fn oversized_index_rejected() {
        let _ = SiteId::from(100_000usize);
    }
}
