//! What a client knows about the copies on its own site.
//!
//! Two copies can sit beside the application. One is the attached weak
//! representative, the cache tier of [`ClientOptions::weak_rep`]: per
//! suite, the newest `(version, contents)` a quorum vouched for, held by
//! the client itself, and in lease mode a deadline before which it serves
//! reads with no network at all. The other is the zero-vote server on the
//! client's own workstation, of which the client keeps only a hint: the
//! version it last saw there, or sent there.
//!
//! The state machine in [`crate::client`] asks here and tells what it saw,
//! as it does its planner. Nothing here sends a message or arms a timer.
//! The tier's switch is read once, in [`LocalCopies::new`]: with it off the
//! table stays empty, and every question about it answers nothing.

use bytes::Bytes;
use wv_sim::{SimDuration, SimTime};
use wv_storage::{IdHashMap, ObjectId, Version};

use crate::client::{ClientOptions, ClientStats};

/// Tunables for the client's attached weak representative (cache tier).
///
/// Two serving modes:
///
/// * **Validated** (`lease: None`): a read still runs its own version
///   inquiry, but when the quorum confirms the cached copy is current the
///   read completes from the local copy with **zero data RPCs**: a
///   one-round read with a local copy. It saves the data move, not a
///   round. Quorum intersection makes this exactly as fresh as a classic
///   quorum read.
/// * **Lease** (`lease: Some(ttl)`): a quorum-validated read grants the
///   cache entry a sim-clock lease; until it expires, reads on the suite
///   are served locally with **no network traffic at all**. The lease is
///   the staleness bound: a served value can lag the newest commit by at
///   most `ttl`. Leases are invalidated by any local write to the suite
///   and by configuration adoption, and are *not* extended by lease-served
///   reads (only a fresh quorum validation re-arms one).
#[derive(Clone, Debug)]
pub struct WeakRepOptions {
    /// Lease TTL: `None` — validated mode; `Some(ttl)` — lease mode with a
    /// staleness bound of `ttl`.
    pub lease: Option<SimDuration>,
}

impl WeakRepOptions {
    /// Validated mode: quorum-confirmed currency, zero data RPCs on a hit.
    pub fn validated() -> Self {
        WeakRepOptions { lease: None }
    }

    /// Lease mode: fully quorum-free reads within a `ttl` staleness bound.
    pub fn lease(ttl: SimDuration) -> Self {
        WeakRepOptions { lease: Some(ttl) }
    }
}

/// One suite's entry in the attached weak representative: the newest
/// committed `(version, contents)` a quorum has vouched for, plus the
/// lease deadline when lease mode granted one.
#[derive(Clone, Debug)]
struct CacheEntry {
    version: Version,
    value: Bytes,
    /// Serve locally without any network until this instant (exclusive);
    /// `None` — no live lease (validated mode, or lease lapsed/revoked).
    lease_until: Option<SimTime>,
}

/// The attached entries, the own-site hints, and what `ClientOptions`
/// fixed about the tier.
pub(crate) struct LocalCopies {
    /// Whether the cache tier is on.
    tier: bool,
    /// The lease TTL in lease mode.
    lease: Option<SimDuration>,
    cache: IdHashMap<ObjectId, CacheEntry>,
    /// Per suite, the version the zero-vote copy on the client's own site
    /// is thought to hold. Only a hint — a push may have been dropped, the
    /// copy may have lost its state — so too high costs a read a fetch
    /// round, and too low moves contents it did not need.
    hints: IdHashMap<ObjectId, Version>,
}

impl LocalCopies {
    pub(crate) fn new(options: &ClientOptions) -> Self {
        let tier = options.weak_rep.as_ref();
        LocalCopies {
            tier: tier.is_some(),
            lease: tier.and_then(|w| w.lease),
            cache: IdHashMap::default(),
            hints: IdHashMap::default(),
        }
    }

    /// A read served from a live lease: the entry, counted as a cache hit.
    /// The deadline itself counts as lapsed — a lease is good strictly
    /// before it — and a lapse found here is counted and ended.
    pub(crate) fn leased(
        &mut self,
        suite: ObjectId,
        now: SimTime,
        stats: &mut ClientStats,
    ) -> Option<(Version, Bytes)> {
        let entry = self.cache.get_mut(&suite)?;
        if now >= entry.lease_until? {
            stats.lease_expiries += 1;
            entry.lease_until = None;
            return None;
        }
        stats.cache_hits += 1;
        Some((entry.version, entry.value.clone()))
    }

    /// The entry a read's inquiry starts out holding, for its quorum to
    /// confirm without any contents moving.
    pub(crate) fn early(&self, suite: ObjectId) -> Option<(Version, Bytes)> {
        let entry = self.cache.get(&suite)?;
        Some((entry.version, entry.value.clone()))
    }

    /// The version from which a read asks the best-ranked voting site for
    /// the contents: one above the copy it holds — the entry, exactly, or,
    /// if the read sent its own site's copy a content read
    /// (`own_copy_guessed`), what that copy is thought to hold. A reader
    /// holding nothing asks from [`Version::INITIAL`], unconditionally.
    pub(crate) fn contents_from(&self, suite: ObjectId, own_copy_guessed: bool) -> Version {
        let cached = self.cache.get(&suite).map(|e| e.version);
        let hint = self.hints.get(&suite).filter(|_| own_copy_guessed);
        cached
            .or(hint.copied())
            .map_or(Version::INITIAL, Version::next)
    }

    /// Whether a read's quorum proved the entry itself current: it is at
    /// `version` or above. If so the read is a cache hit, and in lease mode
    /// the lease re-arms from `now` — only fresh quorum evidence does.
    pub(crate) fn confirmed(
        &mut self,
        suite: ObjectId,
        version: Version,
        now: SimTime,
        stats: &mut ClientStats,
    ) -> bool {
        let lease = self.lease;
        let Some(entry) = self.cache.get_mut(&suite).filter(|e| e.version >= version) else {
            return false;
        };
        if let Some(ttl) = lease {
            entry.lease_until = Some(now + ttl);
        }
        stats.cache_hits += 1;
        true
    }

    /// A read the tier did not serve — a miss — completed with
    /// quorum-backed contents. They fill the entry monotonically (a late
    /// lower fill never regresses it) and arm its lease in lease mode.
    /// Returns whether there is a tier to fill.
    pub(crate) fn filled(
        &mut self,
        suite: ObjectId,
        version: Version,
        value: &Bytes,
        now: SimTime,
        stats: &mut ClientStats,
    ) -> bool {
        if !self.tier {
            return false;
        }
        stats.cache_misses += 1;
        if self.cache.get(&suite).is_none_or(|e| e.version <= version) {
            let entry = CacheEntry {
                version,
                value: value.clone(),
                lease_until: self.lease.map(|ttl| now + ttl),
            };
            self.cache.insert(suite, entry);
        }
        true
    }

    /// The copy on the client's own site answered an inquiry at `version`,
    /// or was just sent it.
    pub(crate) fn hint(&mut self, suite: ObjectId, version: Version) {
        self.hints.insert(suite, version);
    }

    /// Drops the suite's entry and any lease on it: a write this client
    /// reported overwrote it, or an adopted configuration retired the
    /// quorums that vouched for it. The hint stays; it is only a hint.
    pub(crate) fn forget(&mut self, suite: ObjectId) {
        self.cache.remove(&suite);
    }

    /// A crash: the attached copy is volatile, and so is what the client
    /// thought of its site's.
    pub(crate) fn crash(&mut self) {
        self.cache.clear();
        self.hints.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: ObjectId = ObjectId(1);

    fn local(weak_rep: Option<WeakRepOptions>) -> LocalCopies {
        LocalCopies::new(&ClientOptions {
            weak_rep,
            ..ClientOptions::default()
        })
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Fills `version` at `now`, returning whether the tier took it.
    fn fill(l: &mut LocalCopies, version: u64, value: &'static [u8], now: SimTime) -> bool {
        let mut stats = ClientStats::default();
        let value = Bytes::from_static(value);
        l.filled(SUITE, Version(version), &value, now, &mut stats)
    }

    fn held(l: &LocalCopies) -> Option<(u64, Bytes)> {
        l.early(SUITE).map(|(v, value)| (v.0, value))
    }

    #[test]
    fn a_lease_serves_strictly_before_its_deadline_and_counts_one_expiry_at_it() {
        let mut l = local(Some(WeakRepOptions::lease(SimDuration::from_millis(100))));
        let mut stats = ClientStats::default();
        fill(&mut l, 1, b"leased", at(0));
        let served = l.leased(SUITE, at(99), &mut stats);
        assert_eq!(served, Some((Version(1), Bytes::from_static(b"leased"))));
        assert_eq!((stats.cache_hits, stats.lease_expiries), (1, 0));
        // At the deadline itself the lease has lapsed: counted once, and
        // ended, so a later look finds no lease to count again.
        assert_eq!(l.leased(SUITE, at(100), &mut stats), None);
        assert_eq!(l.leased(SUITE, at(101), &mut stats), None);
        assert_eq!((stats.cache_hits, stats.lease_expiries), (1, 1));
        // The entry outlives its lease, and only quorum evidence re-arms it.
        assert_eq!(held(&l).map(|(v, _)| v), Some(1));
        assert!(l.confirmed(SUITE, Version(1), at(200), &mut stats));
        assert!(l.leased(SUITE, at(299), &mut stats).is_some());
        assert_eq!(l.leased(SUITE, at(300), &mut stats), None);
        assert_eq!((stats.cache_hits, stats.lease_expiries), (3, 2));
    }

    #[test]
    fn a_late_lower_fill_never_regresses_an_entry() {
        let mut l = local(Some(WeakRepOptions::validated()));
        assert!(fill(&mut l, 3, b"three", at(0)));
        assert!(fill(&mut l, 2, b"two", at(5)), "the tier took the fill");
        assert_eq!(held(&l), Some((3, Bytes::from_static(b"three"))));
        fill(&mut l, 4, b"four", at(9));
        assert_eq!(held(&l), Some((4, Bytes::from_static(b"four"))));
        // A validated entry has no lease to serve from.
        let mut stats = ClientStats::default();
        assert_eq!(l.leased(SUITE, at(9), &mut stats), None);
        // Proven current at its own version or below; not above it.
        assert!(l.confirmed(SUITE, Version(4), at(10), &mut stats));
        assert!(!l.confirmed(SUITE, Version(5), at(10), &mut stats));
        assert_eq!(stats.cache_hits, 1);
        l.forget(SUITE);
        assert_eq!(held(&l), None);
    }

    #[test]
    fn with_the_tier_off_nothing_is_kept_or_served() {
        let mut l = local(None);
        let mut stats = ClientStats::default();
        let value = Bytes::from_static(b"x");
        assert!(!l.filled(SUITE, Version(2), &value, at(0), &mut stats));
        assert_eq!(l.early(SUITE), None);
        assert_eq!(l.leased(SUITE, at(0), &mut stats), None);
        assert!(!l.confirmed(SUITE, Version::INITIAL, at(0), &mut stats));
        assert_eq!(stats, ClientStats::default(), "nothing counted");
        // The own-site hint does not hang on the tier.
        l.hint(SUITE, Version(2));
        assert_eq!(l.contents_from(SUITE, true), Version(3));
    }

    #[test]
    fn contents_from_prefers_the_entry_and_uses_the_hint_only_for_a_guessed_own_copy() {
        let mut l = local(Some(WeakRepOptions::validated()));
        // Holding nothing: ask from the start, whatever was guessed.
        assert_eq!(l.contents_from(SUITE, false), Version::INITIAL);
        assert_eq!(l.contents_from(SUITE, true), Version::INITIAL);
        // The hint counts only when the own copy was sent a content read.
        l.hint(SUITE, Version(5));
        assert_eq!(l.contents_from(SUITE, false), Version::INITIAL);
        assert_eq!(l.contents_from(SUITE, true), Version(6));
        // The entry is held exactly, and wins over the hint either way.
        fill(&mut l, 2, b"two", at(0));
        assert_eq!(l.contents_from(SUITE, false), Version(3));
        assert_eq!(l.contents_from(SUITE, true), Version(3));
        // Forgetting the entry leaves the hint; a crash takes both.
        l.forget(SUITE);
        assert_eq!(l.contents_from(SUITE, true), Version(6));
        l.crash();
        assert_eq!(l.contents_from(SUITE, true), Version::INITIAL);
    }
}
