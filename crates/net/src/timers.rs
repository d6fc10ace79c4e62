//! A site's pending timers, the one queue both transports keep.
//!
//! `sim_net` keys a timer by its place `(instant, ticket)`, `runner` by its
//! wall-clock due instant; either way a site holds a handful — its
//! operations in flight — so the queue is a vec kept in key order, cheaper
//! at that size than ordered maps (DESIGN.md §8). A set searches for its
//! place and shifts the timers after it, a cancel sweeps the whole vec, and
//! a firing timer shifts the rest.

/// Pending `(key, token)` timers, earliest key first, equal keys in the
/// order they were set.
pub(crate) struct TimerQueue<K> {
    due: Vec<(K, u64)>,
}

impl<K> Default for TimerQueue<K> {
    fn default() -> Self {
        TimerQueue { due: Vec::new() }
    }
}

impl<K: Ord + Copy> TimerQueue<K> {
    /// Sets a timer after every timer with a key at or before its own.
    pub(crate) fn set(&mut self, key: K, token: u64) {
        let at = self.due.partition_point(|(k, _)| *k <= key);
        self.due.insert(at, (key, token));
    }

    /// Cancels every pending timer with `token`.
    pub(crate) fn cancel(&mut self, token: u64) {
        self.due.retain(|(_, t)| *t != token);
    }

    /// The earliest timer's key.
    pub(crate) fn first(&self) -> Option<K> {
        self.due.first().map(|(k, _)| *k)
    }

    /// Removes the earliest timer and returns its token if `ready` holds
    /// for its key.
    pub(crate) fn pop_if(&mut self, ready: impl FnOnce(K) -> bool) -> Option<u64> {
        let (key, token) = *self.due.first()?;
        ready(key).then(|| {
            self.due.remove(0);
            token
        })
    }

    /// Drops every pending timer and says how many there were.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.due.len();
        self.due.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_sim::DetRng;

    /// The queue against a model that keeps every set timer with its set
    /// number and orders by `(key, set number)` only when it is read, over
    /// seeded runs of sets, cancels and pops on few keys and few tokens, so
    /// equal keys, a token set twice and cancels of absent and repeated
    /// tokens all come up. The contents are compared after every step, and
    /// each run ends by popping both empty.
    #[test]
    fn sets_cancels_and_pops_keep_the_timers_in_key_then_set_order() {
        let mut steps = [0u32; 4];
        for seed in 0..200 {
            let mut rng = DetRng::new(seed);
            let mut queue = TimerQueue::<u8>::default();
            let mut model: Vec<(u8, u32, u64)> = Vec::new();
            let ordered = |model: &[(u8, u32, u64)]| {
                let mut m = model.to_vec();
                m.sort_unstable();
                m.into_iter().map(|(k, _, t)| (k, t)).collect::<Vec<_>>()
            };
            for set_number in 0..120 {
                let token = rng.below(6);
                let pending = model.iter().filter(|e| e.2 == token).count();
                match rng.below(8) {
                    0..=3 => {
                        let key = rng.below(10) as u8;
                        queue.set(key, token);
                        model.push((key, set_number, token));
                        steps[usize::from(pending > 0)] += 1;
                    }
                    4..=6 => {
                        steps[2 + usize::from(pending > 1)] += u32::from(pending != 1);
                        queue.cancel(token);
                        model.retain(|e| e.2 != token);
                    }
                    _ => {
                        let bound = rng.below(10) as u8;
                        let popped = queue.pop_if(|k| k <= bound);
                        let earliest = model.iter().enumerate().min_by_key(|(_, e)| **e);
                        let expected = earliest.filter(|(_, e)| e.0 <= bound).map(|(i, _)| i);
                        assert_eq!(popped, expected.map(|i| model.remove(i).2), "seed {seed}");
                    }
                }
                let expected = ordered(&model);
                assert_eq!(queue.due, expected, "seed {seed}");
                assert_eq!(queue.first(), expected.first().map(|e| e.0), "seed {seed}");
            }
            for (_, token) in ordered(&model) {
                assert_eq!(queue.pop_if(|_| true), Some(token), "seed {seed}");
            }
            assert_eq!(queue.first(), None);
        }
        // Every case came up: fresh sets, tokens set twice, cancels of an
        // absent token and of one pending more than once.
        assert!(steps.iter().all(|&n| n > 100), "{steps:?}");
    }

    #[test]
    fn a_crash_clears_the_queue_and_counts_what_it_dropped() {
        let mut queue = TimerQueue::default();
        queue.set(3u32, 1);
        queue.set(1, 2);
        assert_eq!(queue.first(), Some(1));
        assert_eq!(queue.clear(), 2);
        assert_eq!(queue.first(), None);
        assert_eq!(queue.pop_if(|_| true), None);
    }
}
