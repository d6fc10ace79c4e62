//! A slab: values parked under a small integer key until they are taken
//! back out.
//!
//! The scheduler keeps the closures it was handed here, and the simulated
//! transport its messages in flight, so that an event is a function and
//! one word — the key — and no value needs a heap allocation of its own.
//! A vacant slot holds the key of the next vacant one, so a freed slot is
//! the first reused and the slab never grows past the most values it held
//! at once.

/// One slot: a value, or the link to the next vacant slot.
enum Entry<T> {
    Occupied(T),
    Vacant(usize),
}

/// Values parked under keys the slab hands out.
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// The first vacant slot; `entries.len()` when there is none.
    next: usize,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            next: 0,
            len: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Parks `value` and returns the key it is taken back with.
    pub fn insert(&mut self, value: T) -> u64 {
        let key = self.next;
        if key == self.entries.len() {
            self.entries.push(Entry::Occupied(value));
            self.next += 1;
        } else {
            match std::mem::replace(&mut self.entries[key], Entry::Occupied(value)) {
                Entry::Vacant(next) => self.next = next,
                Entry::Occupied(_) => unreachable!("the vacant list names an occupied slot"),
            }
        }
        self.len += 1;
        key as u64
    }

    /// Takes back the value parked under `key`.
    ///
    /// # Panics
    ///
    /// Panics if nothing is parked there: a key is taken once.
    pub fn take(&mut self, key: u64) -> T {
        let key = key as usize;
        match std::mem::replace(&mut self.entries[key], Entry::Vacant(self.next)) {
            Entry::Occupied(value) => {
                self.next = key;
                self.len -= 1;
                value
            }
            Entry::Vacant(_) => panic!("slab slot {key} taken twice"),
        }
    }

    /// Number of values parked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_freed_slot_is_reused_first_and_the_slab_stays_small() {
        let mut slab = Slab::default();
        let (a, b, c) = (slab.insert('a'), slab.insert('b'), slab.insert('c'));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(slab.take(b), 'b');
        assert_eq!(slab.take(a), 'a');
        assert_eq!(slab.len(), 1);
        // Last freed, first reused.
        assert_eq!(slab.insert('d'), a);
        assert_eq!(slab.insert('e'), b);
        assert_eq!(slab.insert('f'), 3);
        assert_eq!(slab.entries.len(), 4);
        for (key, value) in [(c, 'c'), (a, 'd'), (b, 'e'), (3, 'f')] {
            assert_eq!(slab.take(key), value);
        }
        assert!(slab.is_empty());
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn a_key_is_taken_once() {
        let mut slab = Slab::default();
        let key = slab.insert(1u8);
        slab.take(key);
        slab.take(key);
    }
}
