//! The wire protocol between clients and suite servers.
//!
//! Requests flow client → server, responses server → client; the
//! server-initiated messages are [`Msg::DecisionReq`], the participant's
//! recovery-time question to the write coordinator, and the anti-entropy
//! pair [`Msg::RepairPull`]/[`Msg::RepairState`], which travels between
//! representatives. Every request carries
//! the client's configuration generation so servers can reject requests
//! built against a superseded configuration ([`Msg::StaleConfig`]).

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;
use wv_storage::{ObjectId, Version};
use wv_txn::Vote;

use crate::suite::SuiteConfig;

/// Identifies one operation attempt, unique across the cluster.
///
/// Layout: `counter << 16 | client_site`. The counter-major ordering makes
/// req ids usable directly as lock ages (earlier operations are "older"),
/// and the low bits let a recovering participant find its coordinator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ReqId(pub u64);

impl ReqId {
    /// Builds a request id from a client-local counter and the client site.
    pub fn new(counter: u64, client_site: wv_net::SiteId) -> Self {
        assert!(counter < (1 << 48), "request counter exhausted");
        ReqId((counter << 16) | u64::from(client_site.0))
    }

    /// The coordinating client's site.
    pub fn coordinator(self) -> wv_net::SiteId {
        wv_net::SiteId((self.0 & 0xFFFF) as u16)
    }

    /// The client-local counter.
    pub fn counter(self) -> u64 {
        self.0 >> 16
    }
}

/// A slice that every message carrying it shares: a clone bumps a count,
/// and an empty one owns nothing — its default takes no allocation and no
/// atomic. It derefs to the slice.
pub struct Shared<T>(Option<Arc<[T]>>);

impl<T> Default for Shared<T> {
    fn default() -> Self {
        Shared(None)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(self.0.clone())
    }
}

impl<T> Shared<T> {
    /// Whether `self` and `other` are one slice, not merely equal ones.
    pub fn same(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// The slice to change in place, copied first if it is shared.
    pub fn make_mut(&mut self) -> &mut [T]
    where
        T: Clone,
    {
        self.0.as_mut().map_or(&mut [][..], Arc::make_mut)
    }
}

impl<T> Deref for Shared<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl<T> From<Arc<[T]>> for Shared<T> {
    fn from(slice: Arc<[T]>) -> Self {
        Shared(Some(slice))
    }
}

impl<T: Clone> From<&[T]> for Shared<T> {
    fn from(slice: &[T]) -> Self {
        Shared(Some(Arc::from(slice)))
    }
}

impl<T> From<Vec<T>> for Shared<T> {
    fn from(items: Vec<T>) -> Self {
        Shared(Some(Arc::from(items)))
    }
}

impl<T, const N: usize> From<[T; N]> for Shared<T> {
    fn from(items: [T; N]) -> Self {
        Shared(Some(Arc::from(items)))
    }
}

/// Collected in one allocation when the iterator knows its length.
impl<T> FromIterator<T> for Shared<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Shared(Some(items.into_iter().collect()))
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// One staged install within a [`Msg::Prepare`].
#[derive(Clone, Debug, PartialEq)]
pub struct PrepareWrite {
    /// The suite the install belongs to.
    pub suite: ObjectId,
    /// The target object (the suite's data or config object).
    pub object: ObjectId,
    /// The version to install.
    pub version: Version,
    /// The contents.
    pub value: Bytes,
    /// The coordinator's configuration generation for this suite.
    pub generation: u64,
    /// How many consecutive versions the install consumes: the length of
    /// the write train it carries (1 for a write alone). A re-basing
    /// participant stages `max(version, committed + span)`, and the
    /// train's other members are reported at the `span - 1` versions below.
    pub span: u32,
}

/// Why a representative refused to serve (see [`Msg::Refused`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefuseReason {
    /// Recovery detected interior WAL corruption: the replica's
    /// acknowledged state may have regressed, so it has surrendered its
    /// votes (reads, inquiries, and prepares all refuse) until
    /// anti-entropy repair completes a full state pull. Long-lived —
    /// clients should treat the site as dead, not busy.
    Quarantined,
    /// A transient disk problem (injected I/O error or sync stall) made
    /// the site unable to log the request. Short-lived.
    Disk,
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    // ---- version inquiry (the cheap "check the version number" round) ----
    /// Client asks a representative for its current version number.
    VersionReq {
        /// Suite being read.
        suite: ObjectId,
        /// Operation attempt.
        req: ReqId,
        /// A writer's inquiry: the answer is only a floor for the version
        /// the representatives assign under the commit lock, so it is
        /// given at once from committed state. A reader's inquiry
        /// (`false`) that meets a commit lock is held until the lock is
        /// released — its answer must not miss a decided write.
        floor: bool,
        /// "Send the contents with your answer if your committed version
        /// is at least this": a read asks it of the best-ranked voting
        /// representative, naming one above the version of the copy it
        /// already holds, so the contents move — once — in the round that
        /// discovers the reader's copy is not current. A zero-vote copy
        /// ranked first (a workstation's own) is asked from
        /// `Version::INITIAL`, whatever it holds: its answer is the
        /// read's content read. `None` from everyone else: the other
        /// sites of a read's inquiry, a writer, a reconfiguration.
        contents_from: Option<Version>,
    },

    /// Representative's answer: committed version plus config generation.
    VersionResp {
        /// The suite inquired about.
        suite: ObjectId,
        /// The inquiring operation.
        req: ReqId,
        /// Committed version of the data object at this representative.
        version: Version,
        /// The representative's configuration generation for the suite.
        generation: u64,
        /// The contents at `version`, when the inquiry asked for them and
        /// `version` reached the threshold it named. They prove nothing
        /// about currency on their own: the reader completes with them
        /// only once a read quorum's highest version is no higher.
        value: Option<Bytes>,
    },

    // ---- content read ----
    /// Client fetches the contents from a chosen representative.
    ReadReq {
        /// The suite to read.
        suite: ObjectId,
        /// The reading operation.
        req: ReqId,
    },
    /// Contents response.
    ReadResp {
        /// The suite read.
        suite: ObjectId,
        /// The reading operation.
        req: ReqId,
        /// Version of the returned contents.
        version: Version,
        /// The contents.
        value: Bytes,
    },
    /// Notice to a prepare's coordinator about the commit-lock line at
    /// this representative; the vote still follows. Reads are never
    /// answered `Busy`: one that meets a commit lock is held and answered
    /// when the lock is released.
    Busy {
        /// The (primary) suite of the prepare.
        suite: ObjectId,
        /// The preparing operation.
        req: ReqId,
        /// `false`: the prepare joined a line and keeps its place — wait,
        /// and re-ask if no vote comes. `true`: the prepare holds its
        /// locks here and an *older* prepare now waits behind it — give
        /// way (abort) if it is itself waiting in another site's line,
        /// since that is the only way the two can deadlock.
        give_way: bool,
    },
    /// The representative cannot serve at all right now — its disk is
    /// degraded. A refusal tells the client something is wrong with the
    /// *site*: treat it as a non-vote and route around it.
    Refused {
        /// The suite the request targeted.
        suite: ObjectId,
        /// The refused operation.
        req: ReqId,
        /// Why the site refused.
        reason: RefuseReason,
    },

    // ---- write (client-coordinated two-phase commit over the quorum) ----
    /// Stage-and-promise: install every entry of `writes` atomically at
    /// this site if told to commit. Ordinary writes carry one entry for
    /// the suite's data object; reconfigurations target the config
    /// object; multi-suite transactions batch one entry per suite this
    /// site serves. An empty `writes` is the coordinator re-asking about
    /// a prepare it already sent: answered with the vote, a `Busy` while
    /// still in line, or No when the site no longer knows the request.
    Prepare {
        /// The preparing operation.
        req: ReqId,
        /// The staged installs, applied all-or-nothing at this site.
        /// Shared: every participant of a one-suite write is sent the
        /// same slice.
        writes: Shared<PrepareWrite>,
        /// Age of the *operation* (first attempt's counter): commit-lock
        /// lines are ordered by it, so a retried write keeps its
        /// seniority and cannot be starved.
        lock_ts: u64,
        /// Blind installs (writes, transactions): each entry's version is
        /// a floor, and the representative stages `max(floor, committed +
        /// span)` once it holds the lock. `false` for a reconfiguration,
        /// whose re-published contents are a read-modify-write: its
        /// versions are exact and a stale one votes No.
        rebase: bool,
    },
    /// Participant's vote on a prepare.
    PrepareVote {
        /// The (primary) suite of the prepared write.
        suite: ObjectId,
        /// The voting operation.
        req: ReqId,
        /// Yes or no.
        vote: Vote,
        /// What a Yes vote staged, per object (empty on a No). Shared
        /// with the participant's own record of the prepare.
        staged: Shared<(ObjectId, Version)>,
    },
    /// Coordinator decision: commit.
    Commit {
        /// The (primary) suite of the decided write.
        suite: ObjectId,
        /// The decided operation.
        req: ReqId,
        /// The version each object commits at: the highest any
        /// participant staged. A participant that staged lower re-stamps
        /// first; one whose committed version already reaches the named
        /// one is seeing a replay and drops the staging instead. Shared by
        /// every participant's commit and the coordinator's commit tail.
        versions: Shared<(ObjectId, Version)>,
    },
    /// Coordinator decision: abort. Also sent on timeouts; idempotent.
    Abort {
        /// The (primary) suite of the decided write.
        suite: ObjectId,
        /// The decided operation.
        req: ReqId,
    },
    /// Participant confirms the decision was applied.
    Ack {
        /// The (primary) suite of the decision.
        suite: ObjectId,
        /// The acknowledged operation.
        req: ReqId,
        /// True if the ack confirms a commit, false for an abort.
        committed: bool,
    },

    // ---- configuration (the replicated prefix) ----
    /// Client asks for the representative's current suite configuration.
    ConfigReq {
        /// The suite whose configuration is wanted.
        suite: ObjectId,
        /// The asking operation.
        req: ReqId,
    },
    /// The configuration.
    ConfigResp {
        /// The suite configured.
        suite: ObjectId,
        /// The asking operation.
        req: ReqId,
        /// The server's current configuration.
        config: SuiteConfig,
    },
    /// The request carried a stale generation; refresh via `ConfigReq`.
    StaleConfig {
        /// The suite whose configuration moved on.
        suite: ObjectId,
        /// The rejected operation.
        req: ReqId,
        /// The responding server's generation.
        generation: u64,
    },

    // ---- weak representatives ----
    /// Fire-and-forget cache fill for a weak representative; applied only
    /// if `version` is newer than what the weak representative holds.
    UpdateWeak {
        /// The suite whose cache is refreshed.
        suite: ObjectId,
        /// The version being offered.
        version: Version,
        /// The contents being offered.
        value: Bytes,
    },

    // ---- recovery ----
    /// A recovering participant asks the coordinator how `req` ended.
    DecisionReq {
        /// The (primary) suite of the in-doubt write.
        suite: ObjectId,
        /// The in-doubt operation.
        req: ReqId,
    },

    // ---- anti-entropy repair (server ↔ server) ----
    /// A representative asks a peer for its committed state of `suite`,
    /// either right after recovering or on a periodic gossip probe. The
    /// answer restores vote availability without waiting for a client
    /// write to happen to include the stale representative.
    RepairPull {
        /// The suite whose state is wanted.
        suite: ObjectId,
        /// The puller's committed version; the peer only answers when it
        /// holds something newer (unless `full`).
        have: Version,
        /// A quarantined replica rebuilding from scratch sets this: the
        /// peer answers with its state unconditionally, even when it holds
        /// nothing newer, because the answer itself is the puller's
        /// evidence that it has absorbed this peer's state.
        full: bool,
    },
    /// The peer's committed `(version, contents)` for the suite. Only
    /// committed state ever travels — a prepared-but-undecided write stays
    /// local — and the receiver installs monotonically, so repair can
    /// neither resurrect uncommitted data nor regress a version.
    RepairState {
        /// The suite repaired.
        suite: ObjectId,
        /// The sender's committed version.
        version: Version,
        /// The committed contents at that version.
        value: Bytes,
        /// The sender's committed configuration object — `(version,
        /// encoded bytes)` — included when answering a `full` pull. A
        /// replica rebuilding after losing its log to corruption may
        /// also have lost the suite's quorum geometry; rejoining with a
        /// pre-reconfiguration assignment would let non-intersecting
        /// quorums form, so the full sweep restores the configuration
        /// alongside the data.
        config: Option<(Version, Bytes)>,
    },
}

impl Msg {
    /// True for messages handled by a server (representative) node.
    pub fn is_server_bound(&self) -> bool {
        matches!(
            self,
            Msg::VersionReq { .. }
                | Msg::ReadReq { .. }
                | Msg::Prepare { .. }
                | Msg::Commit { .. }
                | Msg::Abort { .. }
                | Msg::ConfigReq { .. }
                | Msg::UpdateWeak { .. }
                | Msg::RepairPull { .. }
                | Msg::RepairState { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_net::SiteId;

    #[test]
    fn req_id_round_trips() {
        let r = ReqId::new(12345, SiteId(7));
        assert_eq!(r.coordinator(), SiteId(7));
        assert_eq!(r.counter(), 12345);
    }

    #[test]
    fn req_id_orders_by_counter_first() {
        let a = ReqId::new(1, SiteId(9));
        let b = ReqId::new(2, SiteId(0));
        assert!(a < b, "earlier counter must be older regardless of site");
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn req_id_counter_bound() {
        let _ = ReqId::new(1 << 48, SiteId(0));
    }

    #[test]
    fn a_message_stays_within_nine_words() {
        // Every hop moves one of these by value; the commit-line fields
        // (a vote's staged versions, a decision's named ones) and a version
        // answer's optional contents ride in variants that had room.
        assert!(
            std::mem::size_of::<Msg>() <= 72,
            "{}",
            std::mem::size_of::<Msg>()
        );
    }
}
