//! [`SiteMap`]: what a coordinator has heard from each participant of one
//! attempt — the votes of a prepare, its places in line, a commit round's
//! acks. An attempt has a handful of participants, so the map is a vec
//! kept in site order: a lookup is a short search with no tree to walk,
//! and it iterates in the site order a `BTreeMap` would.

use std::fmt;

use wv_net::SiteId;

/// A map from sites to `V` in a vec kept in site order, with the few
/// `BTreeMap` methods the coordinator uses.
#[derive(Clone)]
pub(crate) struct SiteMap<V>(Vec<(SiteId, V)>);

impl<V> Default for SiteMap<V> {
    fn default() -> Self {
        SiteMap(Vec::new())
    }
}

impl<V> SiteMap<V> {
    fn find(&self, site: &SiteId) -> Result<usize, usize> {
        self.0.binary_search_by_key(site, |(s, _)| *s)
    }

    /// Sets `site`'s value, replacing any it had.
    pub(crate) fn insert(&mut self, site: SiteId, value: V) {
        match self.find(&site) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (site, value)),
        }
    }

    pub(crate) fn get(&self, site: &SiteId) -> Option<&V> {
        self.find(site).ok().map(|i| &self.0[i].1)
    }

    pub(crate) fn contains_key(&self, site: &SiteId) -> bool {
        self.find(site).is_ok()
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sites, in order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &SiteId> {
        self.0.iter().map(|(s, _)| s)
    }

    /// The values, in site order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    /// The values, in site order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().map(|(_, v)| v)
    }
}

impl<V: fmt::Debug> fmt::Debug for SiteMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(s, v)| (s, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Random inserts and overwrites, in random site order: every answer
    /// and every iteration equals a `BTreeMap`'s.
    #[test]
    fn a_site_map_answers_as_a_btree_map_does() {
        let mut draw = 0x5173_u64;
        let mut next = |n: u64| {
            draw = draw
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (draw >> 33) % n
        };
        for case in 0..200 {
            let mut map = SiteMap::default();
            let mut reference = BTreeMap::new();
            for step in 0..next(12) {
                let site = SiteId(next(9) as u16);
                let value = (case, step);
                map.insert(site, value);
                reference.insert(site, value);
                assert_eq!(map.len(), reference.len());
                assert_eq!(map.is_empty(), reference.is_empty());
                for probe in (0..9).map(SiteId) {
                    assert_eq!(map.get(&probe), reference.get(&probe));
                    assert_eq!(map.contains_key(&probe), reference.contains_key(&probe));
                }
                assert!(map.keys().eq(reference.keys()), "case {case}");
                assert!(map.values().eq(reference.values()), "case {case}");
            }
            for (v, r) in map.values_mut().zip(reference.values_mut()) {
                v.1 += 100;
                r.1 += 100;
            }
            assert!(map.values().eq(reference.values()), "case {case}");
            assert_eq!(format!("{map:?}"), format!("{reference:?}"));
        }
    }
}
