//! Short lists kept off the heap. [`Few`] holds up to [`INLINE`] items
//! in place: a coordinator's per-attempt lists, an inquiry's answers, a
//! participant's staged versions. [`SiteMap`] — what a coordinator has
//! heard from each participant of one attempt: the votes of a prepare,
//! its places in line, a commit round's acks — is a `Few` kept in site
//! order. An attempt has a handful of participants, so a lookup is a
//! short search with no tree to walk, it iterates in the site order a
//! `BTreeMap` would, and neither allocates unless a list outgrows its
//! place.

use std::fmt;
use std::ops::{Deref, DerefMut};

use wv_net::SiteId;

/// Items a [`Few`] keeps in place: a five-server cluster's sites and a
/// workstation's own copy — every quorum, inquiry and vote count of the
/// benchmark's workloads.
pub(crate) const INLINE: usize = 6;

/// A list of at most `N` items kept in place, or of more on the heap. It
/// derefs to a slice in insertion order.
#[derive(Clone)]
pub(crate) enum Few<T, const N: usize = INLINE> {
    /// `items[..len]` are the list.
    InPlace { len: u8, items: [T; N] },
    /// The whole list, once it outgrew `N`.
    Spilled(Vec<T>),
}

/// Sites in the order an attempt chose or contacted them.
pub(crate) type Sites = Few<SiteId>;

impl<T: Default, const N: usize> Default for Few<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize) };
        Few::InPlace {
            len: 0,
            items: std::array::from_fn(|_| T::default()),
        }
    }
}

impl<T: Default, const N: usize> Few<T, N> {
    /// Inserts `item` at `index`, shifting the rest up.
    pub(crate) fn insert(&mut self, index: usize, item: T) {
        match self {
            Few::InPlace { len, items } if usize::from(*len) < N => {
                let end = usize::from(*len);
                items[end] = item;
                items[index..=end].rotate_right(1);
                *len += 1;
            }
            Few::InPlace { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend(items.iter_mut().map(std::mem::take));
                spilled.insert(index, item);
                *self = Few::Spilled(spilled);
            }
            Few::Spilled(items) => items.insert(index, item),
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Keeps the items `keep` keeps, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let (len, items) = match self {
            Few::Spilled(items) => return items.retain(keep),
            Few::InPlace { len, items } => (len, items),
        };
        let (end, mut kept) = (usize::from(*len), 0);
        for i in 0..end {
            if keep(&items[i]) {
                items.swap(kept, i);
                kept += 1;
            }
        }
        items[kept..end].fill_with(T::default);
        *len = kept as u8;
    }
}

impl<T, const N: usize> Deref for Few<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::InPlace { len, items } => &items[..usize::from(*len)],
            Few::Spilled(items) => items,
        }
    }
}

impl<T, const N: usize> DerefMut for Few<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Few::InPlace { len, items } => &mut items[..usize::from(*len)],
            Few::Spilled(items) => items,
        }
    }
}

impl<T: Default, const N: usize> Extend<T> for Few<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        items.into_iter().for_each(|item| self.push(item));
    }
}

impl<T: Default, const N: usize> FromIterator<T> for Few<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut few = Few::default();
        few.extend(items);
        few
    }
}

impl<T: Default, const N: usize> IntoIterator for Few<T, N> {
    type Item = T;
    type IntoIter =
        std::iter::Chain<std::iter::Take<std::array::IntoIter<T, N>>, std::vec::IntoIter<T>>;

    /// The items in order, in place or from the heap.
    fn into_iter(self) -> Self::IntoIter {
        let (len, items, spilled) = match self {
            Few::InPlace { len, items } => (usize::from(len), items, Vec::new()),
            Few::Spilled(spilled) => (0, std::array::from_fn(|_| T::default()), spilled),
        };
        items.into_iter().take(len).chain(spilled)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a Few<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Few<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for Few<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A map from sites to `V` in a [`Few`] kept in site order, with the few
/// `BTreeMap` methods the coordinator uses.
#[derive(Clone)]
pub(crate) struct SiteMap<V>(Few<(SiteId, V)>);

impl<V: Default> Default for SiteMap<V> {
    fn default() -> Self {
        SiteMap(Few::default())
    }
}

impl<V: Default> SiteMap<V> {
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

    /// Random inserts, pushes and retains, across the spill: the list
    /// reads as a `Vec` given the same calls does, by slice and by value.
    #[test]
    fn a_few_reads_as_a_vec_does_in_place_and_spilled() {
        let mut draw = 0xF3_u64;
        let mut next = |n: u64| {
            draw = draw
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (draw >> 33) % n
        };
        for case in 0..300 {
            let (mut few, mut reference) = (Few::<u64, 4>::default(), Vec::new());
            for step in 0..next(12) {
                match next(4) {
                    0 => {
                        let at = next(reference.len() as u64 + 1) as usize;
                        few.insert(at, step);
                        reference.insert(at, step);
                    }
                    1 => {
                        let odd = next(2);
                        few.retain(|x| x % 2 == odd);
                        reference.retain(|x| x % 2 == odd);
                    }
                    _ => {
                        few.push(step);
                        reference.push(step);
                    }
                }
                assert_eq!(few[..], reference[..], "case {case}");
            }
            let in_place = matches!(few, Few::InPlace { .. });
            assert!(!in_place || reference.len() <= 4, "case {case}");
            assert!(few.into_iter().eq(reference), "case {case}");
        }
    }

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
