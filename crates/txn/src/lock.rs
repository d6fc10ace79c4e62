//! The commit-lock table a representative runs.
//!
//! A write takes one exclusive lock per object it installs and holds it
//! to the decision; readers take no lock (the representative holds them
//! until the release, DESIGN.md §7.2). Per object the table keeps the
//! holder and a *line* of waiting transactions ordered by age. A lock is
//! granted only while it is free **and nobody stands in its line**: a
//! released lock belongs to the oldest in line, and stays reserved for it
//! until [`LockTable::hand_off`] — release and hand-off are two calls
//! because the representative answers its held reads in between.
//!
//! Deadlocks are not the table's business: the line only ever makes the
//! younger wait for the older, and the representative cuts the one
//! older-behind-younger edge itself. [`DeadlockPolicy::NoWait`] (never
//! stand in line) is kept for the E8 ablation.

use std::collections::hash_map;

use wv_storage::{IdHashMap, ObjectId};

/// A transaction's identity for locking purposes, ordered by age.
///
/// `ts` is the transaction's birth timestamp (smaller = older); a line is
/// served in token order. Retries must reuse the original `ts` so they
/// keep their age.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxToken {
    /// Birth timestamp; the place in line (smaller = older = first).
    pub ts: u64,
    /// Unique transaction id (tie-breaker and identity).
    pub id: u64,
}

impl TxToken {
    /// Creates a token. For simple uses where ids are already unique and
    /// monotone, pass the same value for both fields.
    pub fn new(ts: u64, id: u64) -> Self {
        TxToken { ts, id }
    }
}

/// The one lock mode there is. The type and [`LockTable::lock`]'s third
/// parameter survive only because the frozen `benchmark/` passes it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// The commit lock; conflicts with everything.
    Exclusive,
}

/// What a request that meets a taken lock does.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeadlockPolicy {
    /// Stand in the lock's line. The table has not run wait-die since the
    /// line replaced it; the variant keeps its name only because the
    /// frozen `benchmark/` spells it.
    #[default]
    WaitDie,
    /// Never stand in line: the requester is turned away.
    NoWait,
}

/// The outcome of a lock request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockReply {
    /// The lock is held; proceed.
    Granted,
    /// The requester stands in the object's line;
    /// [`LockTable::hand_off`] names it when its turn comes.
    Queued,
    /// No-wait turned the request away; nothing was recorded.
    Aborted,
}

/// One object's lock. An entry exists only while held or awaited.
#[derive(Debug, Default)]
struct Entry {
    holder: Option<TxToken>,
    /// The waiting transactions in token order, each once.
    line: Vec<TxToken>,
}

/// A site's commit locks: a holder and an age-ordered line per object.
///
/// Single-threaded by design: each site owns one, and the `wv-net`
/// transports serialize node activity.
#[derive(Debug, Default)]
pub struct LockTable {
    policy: DeadlockPolicy,
    objects: IdHashMap<ObjectId, Entry>,
    /// What each transaction holds, in the order taken, so a release
    /// touches nothing else.
    held: IdHashMap<TxToken, Vec<ObjectId>>,
    /// Emptied lists handed back by [`Self::recycle`], at most
    /// [`SPARE_LISTS`]: the next holder's list, without an allocation.
    spare: Vec<Vec<ObjectId>>,
}

/// The most emptied lists a [`LockTable`] keeps for reuse.
const SPARE_LISTS: usize = 64;

impl LockTable {
    /// An empty table with the given policy.
    pub fn new(policy: DeadlockPolicy) -> Self {
        LockTable {
            policy,
            ..LockTable::default()
        }
    }

    /// Requests `object`'s lock for `tx`. Granted when `tx` holds it
    /// already, or when it is free and unawaited; otherwise `tx` stands in
    /// the line (once, however often it asks) or is turned away.
    pub fn lock(&mut self, tx: TxToken, object: ObjectId, _mode: LockMode) -> LockReply {
        let entry = self.objects.entry(object).or_default();
        if entry.holder == Some(tx) {
            return LockReply::Granted;
        }
        if entry.holder.is_none() && entry.line.is_empty() {
            entry.holder = Some(tx);
            self.hold(tx, object);
            return LockReply::Granted;
        }
        match self.policy {
            DeadlockPolicy::WaitDie => {
                if let Err(at) = entry.line.binary_search(&tx) {
                    entry.line.insert(at, tx);
                }
                LockReply::Queued
            }
            DeadlockPolicy::NoWait => LockReply::Aborted,
        }
    }

    /// The transaction holding `object`'s lock, if any. `None` for a lock
    /// released and not yet handed off.
    pub fn holder(&self, object: ObjectId) -> Option<TxToken> {
        self.objects.get(&object)?.holder
    }

    /// `tx` gives up its place in `object`'s line. It holds nothing on
    /// `object`, so nothing is released.
    pub fn leave(&mut self, tx: TxToken, object: ObjectId) {
        self.update(object, |entry| {
            if let Ok(at) = entry.line.binary_search(&tx) {
                entry.line.remove(at);
            }
        });
    }

    /// Releases every lock `tx` holds and returns the freed objects in the
    /// order they were taken. Each stays reserved for its line until
    /// [`Self::hand_off`]; a place `tx` has in a line is not touched (see
    /// [`Self::leave`]). By token, not by object list: the frozen
    /// `benchmark/` calls it so. Hand the list back to [`Self::recycle`]
    /// once done with it.
    pub fn release_all(&mut self, tx: TxToken) -> Vec<ObjectId> {
        let freed = self.held.remove(&tx).unwrap_or_default();
        for object in &freed {
            self.update(*object, |entry| entry.holder = None);
        }
        freed
    }

    /// Keeps a list [`Self::release_all`] returned, emptied, for the next
    /// transaction to take a lock — while fewer than 64 wait.
    pub fn recycle(&mut self, mut list: Vec<ObjectId>) {
        if self.spare.len() < SPARE_LISTS && list.capacity() > 0 {
            list.clear();
            self.spare.push(list);
        }
    }

    /// Makes the oldest in `object`'s line its holder and returns it;
    /// `None`, and nothing changes, when the lock is held or unawaited.
    pub fn hand_off(&mut self, object: ObjectId) -> Option<TxToken> {
        let entry = self.objects.get_mut(&object)?;
        if entry.holder.is_some() || entry.line.is_empty() {
            return None;
        }
        let next = entry.line.remove(0);
        entry.holder = Some(next);
        self.hold(next, object);
        Some(next)
    }

    /// Notes that `tx` now holds `object`, in a spare list if it held
    /// nothing.
    fn hold(&mut self, tx: TxToken, object: ObjectId) {
        let spare = &mut self.spare;
        let held = self
            .held
            .entry(tx)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        held.push(object);
    }

    /// Forgets every lock and line (a crash: all of it is volatile).
    pub fn clear(&mut self) {
        self.objects.clear();
        self.held.clear();
    }

    /// Applies `change` to `object`'s entry, if there is one, and forgets
    /// an entry it leaves neither held nor awaited.
    fn update(&mut self, object: ObjectId, change: impl FnOnce(&mut Entry)) {
        if let hash_map::Entry::Occupied(mut slot) = self.objects.entry(object) {
            change(slot.get_mut());
            if slot.get().holder.is_none() && slot.get().line.is_empty() {
                slot.remove();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LockReply::{Aborted, Granted, Queued};
    use super::*;

    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);

    fn t(n: u64) -> TxToken {
        TxToken::new(n, n)
    }

    fn lock(table: &mut LockTable, n: u64, object: ObjectId) -> LockReply {
        table.lock(t(n), object, LockMode::Exclusive)
    }

    #[test]
    fn a_free_lock_is_granted_and_asking_again_changes_nothing() {
        let mut table = LockTable::default();
        assert_eq!(lock(&mut table, 1, A), Granted);
        assert_eq!(lock(&mut table, 1, A), Granted);
        assert_eq!(lock(&mut table, 2, A), Queued);
        assert_eq!(lock(&mut table, 2, A), Queued);
        assert_eq!(table.holder(A), Some(t(1)));
        // Held once and in line once, however often each asked.
        assert_eq!(table.release_all(t(1)), vec![A]);
        assert_eq!(table.hand_off(A), Some(t(2)));
        assert_eq!(table.hand_off(A), None);
        assert_eq!(table.release_all(t(2)), vec![A]);
        assert!(table.objects.is_empty() && table.held.is_empty());
    }

    #[test]
    fn a_line_is_served_oldest_first_whatever_the_arrival_order() {
        let mut table = LockTable::default();
        assert_eq!(lock(&mut table, 9, A), Granted);
        for n in [5, 2, 7, 3] {
            assert_eq!(lock(&mut table, n, A), Queued);
        }
        let mut holder = 9;
        for next in [2, 3, 5, 7] {
            assert_eq!(table.release_all(t(holder)), vec![A]);
            assert_eq!(table.hand_off(A), Some(t(next)));
            assert_eq!(table.holder(A), Some(t(next)));
            holder = next;
        }
    }

    #[test]
    fn a_released_lock_is_reserved_for_its_line_until_handed_off() {
        let mut table = LockTable::default();
        lock(&mut table, 1, A);
        assert_eq!(lock(&mut table, 3, A), Queued);
        table.release_all(t(1));
        // Free, but owed to the line: a newcomer joins it (ahead of 3,
        // being older) instead of taking the lock, and only a hand-off
        // grants it — once.
        assert_eq!(table.holder(A), None);
        assert_eq!(lock(&mut table, 2, A), Queued);
        assert_eq!(table.hand_off(A), Some(t(2)));
        assert_eq!(table.hand_off(A), None);
        assert_eq!(table.holder(A), Some(t(2)));
    }

    #[test]
    fn release_frees_what_was_held_and_leave_only_the_place_in_line() {
        let mut table = LockTable::default();
        lock(&mut table, 1, B);
        assert_eq!(lock(&mut table, 2, A), Granted);
        assert_eq!(lock(&mut table, 2, B), Queued);
        // 2 is aborted in B's line: it gives back A and nothing else.
        table.leave(t(2), B);
        assert_eq!(table.release_all(t(2)), vec![A]);
        assert_eq!(table.holder(B), Some(t(1)));
        assert_eq!(table.release_all(t(1)), vec![B]);
        assert_eq!(table.hand_off(B), None);
        assert!(table.objects.is_empty() && table.held.is_empty());
        // Objects come back in the order taken, not in object order.
        lock(&mut table, 4, B);
        lock(&mut table, 4, A);
        assert_eq!(table.release_all(t(4)), vec![B, A]);
    }

    #[test]
    fn no_wait_turns_a_request_away_and_records_nothing() {
        let mut table = LockTable::new(DeadlockPolicy::NoWait);
        assert_eq!(lock(&mut table, 2, A), Granted);
        assert_eq!(lock(&mut table, 1, A), Aborted);
        assert_eq!(lock(&mut table, 2, A), Granted);
        assert_eq!(table.release_all(t(1)), Vec::new());
        assert_eq!(table.release_all(t(2)), vec![A]);
        assert_eq!(table.hand_off(A), None);
        assert!(table.objects.is_empty() && table.held.is_empty());
    }

    #[test]
    fn a_recycled_list_is_the_next_holders_and_the_pool_stays_bounded() {
        let mut table = LockTable::default();
        lock(&mut table, 1, A);
        let freed = table.release_all(t(1));
        let buffer = freed.as_ptr();
        table.recycle(freed);
        lock(&mut table, 2, B);
        assert_eq!(table.held[&t(2)].as_ptr(), buffer, "no new list");
        assert_eq!(table.release_all(t(2)), vec![B], "emptied before reuse");
        for n in 0..2 * SPARE_LISTS as u64 {
            lock(&mut table, 10 + n, ObjectId(10 + n));
        }
        for n in 0..2 * SPARE_LISTS as u64 {
            let freed = table.release_all(t(10 + n));
            table.recycle(freed);
        }
        assert_eq!(table.spare.len(), SPARE_LISTS);
    }
}
