//! A suite-sharded lock table: one [`LockManager`] per suite.
//!
//! With many suites multiplexed onto one server, a single flat lock table
//! makes every release walk every suite's entries and every contention
//! statistic global. Sharding by suite keeps disjoint suites strictly
//! independent — a release scans only the shards its transaction touched —
//! while preserving the flat table's observable behaviour exactly:
//! grant/queue/abort decisions are per object (unchanged), and the granted
//! list returned by [`ShardedLockManager::release_all`] is globally sorted
//! by `(object, tx)`, byte-for-byte the order the flat table produced.
//!
//! The shard key is the suite id: a data object and its config object
//! (same id with the top bit set, see `wv_core::suite`) land in the same
//! shard, so a reconfiguration transaction spanning both still resolves in
//! one shard. Cross-suite transactions simply hold locks in several shards
//! at once; the per-token suite index makes releasing them O(shards
//! touched), not O(all shards).

use std::collections::BTreeSet;

use wv_storage::{IdHashMap, ObjectId};

use crate::lock::{DeadlockPolicy, Granted, LockManager, LockMode, LockReply, LockStats, TxToken};

/// Top-bit tag that distinguishes config objects from data objects.
///
/// Mirrors `wv_core::suite::CONFIG_TAG` (this crate sits below `wv-core`
/// in the dependency graph); the bijection test in `wv_core::suite` pins
/// the two in agreement via [`shard_key`]'s public behaviour.
const CONFIG_TAG: u64 = 1 << 63;

/// The shard (suite) an object belongs to: its id with the config tag
/// stripped, so a suite's data and config objects share a shard.
pub fn shard_key(object: ObjectId) -> ObjectId {
    ObjectId(object.0 & !CONFIG_TAG)
}

/// A strict-2PL lock service sharded by suite.
///
/// Drop-in for [`LockManager`] on every operation the suite server uses;
/// see the module docs for the determinism contract.
#[derive(Debug, Default)]
pub struct ShardedLockManager {
    policy: DeadlockPolicy,
    shards: IdHashMap<ObjectId, LockManager>,
    /// Which shards each live transaction has touched (held *or* queued),
    /// so release does not scan shards the transaction never visited.
    /// BTreeSet: releases visit shards in suite order, deterministically.
    token_suites: IdHashMap<TxToken, BTreeSet<ObjectId>>,
}

impl ShardedLockManager {
    /// A sharded lock manager with the given deadlock policy.
    pub fn new(policy: DeadlockPolicy) -> Self {
        ShardedLockManager {
            policy,
            ..ShardedLockManager::default()
        }
    }

    /// The deadlock policy in force.
    pub fn policy(&self) -> DeadlockPolicy {
        self.policy
    }

    /// Requests `mode` on `object` for `tx`; semantics of
    /// [`LockManager::lock`] within the object's suite shard.
    pub fn lock(&mut self, tx: TxToken, object: ObjectId, mode: LockMode) -> LockReply {
        let suite = shard_key(object);
        let shard = self
            .shards
            .entry(suite)
            .or_insert_with(|| LockManager::new(self.policy));
        let reply = shard.lock(tx, object, mode);
        // An aborted request leaves nothing behind, so only grants and
        // queue entries register the shard for release.
        if reply != LockReply::Aborted {
            self.token_suites.entry(tx).or_default().insert(suite);
        }
        reply
    }

    /// Releases every lock and queued request of `tx` across all shards it
    /// touched. The returned grants are globally sorted by `(object, tx)`,
    /// matching the flat [`LockManager::release_all`] order exactly.
    pub fn release_all(&mut self, tx: TxToken) -> Vec<Granted> {
        let mut granted = Vec::new();
        let Some(suites) = self.token_suites.remove(&tx) else {
            return granted;
        };
        for suite in suites {
            if let Some(shard) = self.shards.get_mut(&suite) {
                granted.extend(shard.release_all(tx));
            }
        }
        granted.sort_by_key(|g| (g.object, g.tx));
        granted
    }

    /// The mode `tx` holds on `object`, if any.
    pub fn held(&self, tx: TxToken, object: ObjectId) -> Option<LockMode> {
        self.shards.get(&shard_key(object))?.held(tx, object)
    }

    /// The transaction holding `object` in `Exclusive` mode, if any.
    pub fn exclusive_holder(&self, object: ObjectId) -> Option<TxToken> {
        self.shards
            .get(&shard_key(object))?
            .exclusive_holder(object)
    }

    /// Number of transactions currently holding `object`.
    pub fn holder_count(&self, object: ObjectId) -> usize {
        self.shards
            .get(&shard_key(object))
            .map_or(0, |s| s.holder_count(object))
    }

    /// Number of queued requests on `object`.
    pub fn queue_len(&self, object: ObjectId) -> usize {
        self.shards
            .get(&shard_key(object))
            .map_or(0, |s| s.queue_len(object))
    }

    /// True if no locks are held or queued in any shard.
    pub fn is_quiescent(&self) -> bool {
        self.shards.values().all(|s| s.is_quiescent())
    }

    /// Counters summed across every shard (shards persist after going
    /// idle, so the totals match what a flat table would have counted).
    pub fn stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for s in self.shards.values() {
            let st = s.stats();
            total.granted += st.granted;
            total.queued += st.queued;
            total.aborted += st.aborted;
            total.promoted += st.promoted;
        }
        total
    }

    /// How many suite shards have been materialised.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxToken {
        TxToken::new(n, n)
    }

    fn cfg(suite: u64) -> ObjectId {
        ObjectId(suite | CONFIG_TAG)
    }

    #[test]
    fn shard_key_strips_the_config_tag() {
        assert_eq!(shard_key(ObjectId(7)), ObjectId(7));
        assert_eq!(shard_key(cfg(7)), ObjectId(7));
    }

    #[test]
    fn data_and_config_objects_share_a_shard() {
        let mut lm = ShardedLockManager::default();
        assert_eq!(
            lm.lock(t(1), ObjectId(3), LockMode::IntendWrite),
            LockReply::Granted
        );
        assert_eq!(
            lm.lock(t(1), cfg(3), LockMode::IntendWrite),
            LockReply::Granted
        );
        assert_eq!(lm.shard_count(), 1);
        // Distinct objects within the shard still lock independently.
        assert_eq!(lm.holder_count(ObjectId(3)), 1);
        assert_eq!(lm.holder_count(cfg(3)), 1);
    }

    #[test]
    fn disjoint_suites_never_interact() {
        let mut lm = ShardedLockManager::default();
        assert_eq!(
            lm.lock(t(1), ObjectId(1), LockMode::Exclusive),
            LockReply::Granted
        );
        // Same token ages don't matter: a younger tx on another suite is
        // untouched by suite 1's exclusive lock.
        assert_eq!(
            lm.lock(t(9), ObjectId(2), LockMode::Exclusive),
            LockReply::Granted
        );
        assert_eq!(lm.shard_count(), 2);
        assert_eq!(lm.exclusive_holder(ObjectId(1)), Some(t(1)));
        assert_eq!(lm.exclusive_holder(ObjectId(2)), Some(t(9)));
    }

    #[test]
    fn release_only_visits_touched_shards_and_sorts_globally() {
        let mut lm = ShardedLockManager::default();
        // t5 holds exclusives on suites 2 and 1; t1 queues on both.
        assert_eq!(
            lm.lock(t(5), ObjectId(2), LockMode::Exclusive),
            LockReply::Granted
        );
        assert_eq!(
            lm.lock(t(5), ObjectId(1), LockMode::Exclusive),
            LockReply::Granted
        );
        assert_eq!(
            lm.lock(t(1), ObjectId(2), LockMode::Shared),
            LockReply::Queued
        );
        assert_eq!(
            lm.lock(t(1), ObjectId(1), LockMode::Shared),
            LockReply::Queued
        );
        let granted = lm.release_all(t(5));
        // Global (object, tx) order, exactly as the flat table returns.
        assert_eq!(
            granted.iter().map(|g| (g.object, g.tx)).collect::<Vec<_>>(),
            vec![(ObjectId(1), t(1)), (ObjectId(2), t(1))]
        );
        // Releasing a token that holds nothing is a no-op.
        assert!(lm.release_all(t(42)).is_empty());
    }

    #[test]
    fn aborted_requests_leave_no_release_residue() {
        let mut lm = ShardedLockManager::default();
        assert_eq!(
            lm.lock(t(1), ObjectId(1), LockMode::Exclusive),
            LockReply::Granted
        );
        // Younger t2 dies; its release must not disturb suite 1.
        assert_eq!(
            lm.lock(t(2), ObjectId(1), LockMode::Shared),
            LockReply::Aborted
        );
        assert!(lm.release_all(t(2)).is_empty());
        assert_eq!(lm.exclusive_holder(ObjectId(1)), Some(t(1)));
    }

    #[test]
    fn stats_aggregate_across_suites() {
        let mut lm = ShardedLockManager::new(DeadlockPolicy::WaitDie);
        lm.lock(t(5), ObjectId(1), LockMode::Exclusive);
        lm.lock(t(1), ObjectId(1), LockMode::Shared); // queued
        lm.lock(t(9), ObjectId(1), LockMode::Shared); // aborted
        lm.lock(t(5), ObjectId(2), LockMode::Shared);
        lm.release_all(t(5)); // promotes t1 in suite 1
        let total = lm.stats();
        assert_eq!(total.granted, 2);
        assert_eq!(total.queued, 1);
        assert_eq!(total.aborted, 1);
        assert_eq!(total.promoted, 1);
        assert!(!lm.is_quiescent());
        lm.release_all(t(1));
        assert!(lm.is_quiescent());
    }

    /// The sharded table must be observably identical to a flat table on
    /// any operation history — seeded random histories over several
    /// suites, replayed against both, comparing every reply and the full
    /// granted order of every release.
    #[test]
    fn matches_flat_lock_manager_on_random_histories() {
        /// SplitMix64 stream, as in `lock::tests` — dependency-free.
        struct TestRng(u64);
        impl TestRng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }
        }
        for seed in 0..256u64 {
            let mut rng = TestRng(0x57a4d ^ seed);
            let mut flat = LockManager::default();
            let mut sharded = ShardedLockManager::default();
            for step in 0..120 {
                let txn = rng.below(6);
                let tok = TxToken::new(txn, txn);
                if rng.below(4) == 0 {
                    let a = flat.release_all(tok);
                    let b = sharded.release_all(tok);
                    assert_eq!(a, b, "seed {seed} step {step}: release diverged");
                    continue;
                }
                let suite = 1 + rng.below(4);
                let object = if rng.below(8) == 0 {
                    ObjectId(suite | CONFIG_TAG)
                } else {
                    ObjectId(suite)
                };
                let mode = match rng.below(3) {
                    0 => LockMode::Shared,
                    1 => LockMode::IntendWrite,
                    _ => LockMode::Exclusive,
                };
                let a = flat.lock(tok, object, mode);
                let b = sharded.lock(tok, object, mode);
                assert_eq!(a, b, "seed {seed} step {step}: lock reply diverged");
                assert_eq!(
                    flat.exclusive_holder(object),
                    sharded.exclusive_holder(object),
                    "seed {seed} step {step}"
                );
            }
            // Drain everything; both must empty identically.
            for txn in 0..6 {
                let tok = TxToken::new(txn, txn);
                assert_eq!(flat.release_all(tok), sharded.release_all(tok));
            }
            assert_eq!(flat.is_quiescent(), sharded.is_quiescent());
            assert!(sharded.is_quiescent(), "seed {seed} left residue");
            // Lifetime totals agree too.
            assert_eq!(flat.stats(), sharded.stats(), "seed {seed}");
        }
    }
}
