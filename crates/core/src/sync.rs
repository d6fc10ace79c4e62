//! The durability stage (DESIGN.md §12): a vote or ack leaves only once
//! the WAL record it speaks for is durable. [`SyncQueue`] holds it until
//! the one flush that covers it — in the same step with no group-commit
//! window, else one window after the first record queued — and hands the
//! batch back in arrival order. An abort purges what it queued; a crash
//! drops the lot, whose records were volatile and promised nothing. The
//! flush, the sends and the timer stay in [`crate::server::SuiteServer`].

use wv_net::SiteId;
use wv_sim::SimDuration;
use wv_storage::ObjectId;

use crate::msg::ReqId;
use crate::server::ServerStats;

/// A response held back until its WAL record is durable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Deferred {
    /// A Yes vote whose prepare record awaits the flush.
    Vote {
        to: SiteId,
        suite: ObjectId,
        req: ReqId,
    },
    /// The ack of a commit decision already applied — and its commit locks
    /// already handed on — whose commit record awaits the flush. Until it
    /// is durable a crash puts the participant back in doubt, so the
    /// coordinator must not yet retire the decision.
    Ack {
        to: SiteId,
        suite: ObjectId,
        req: ReqId,
    },
}

impl Deferred {
    fn req(&self) -> ReqId {
        match self {
            Deferred::Vote { req, .. } | Deferred::Ack { req, .. } => *req,
        }
    }

    fn suite(&self) -> ObjectId {
        match self {
            Deferred::Vote { suite, .. } | Deferred::Ack { suite, .. } => *suite,
        }
    }
}

/// What the server does after queueing a response.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Then {
    /// No window: flush now, then send this batch.
    Sync(Vec<Deferred>),
    /// The first record of a window: arm the sync's timer.
    Arm(SimDuration),
    /// The response rides the sync already armed.
    Ride,
}

/// The group-commit window and the responses waiting for its sync.
#[derive(Debug, Default)]
pub(crate) struct SyncQueue {
    /// How long a sync collects records before its one flush; `None` (the
    /// default) runs every record's sync in the step that appended it.
    window: Option<SimDuration>,
    /// Whether a windowed sync is armed right now.
    active: bool,
    /// Responses awaiting the sync, in arrival order.
    queue: Vec<Deferred>,
}

impl SyncQueue {
    pub(crate) fn set_window(&mut self, window: SimDuration) {
        self.window = Some(window);
    }

    /// Queues `d` behind the sync that flushes its record.
    pub(crate) fn defer(&mut self, d: Deferred) -> Then {
        self.queue.push(d);
        match self.window {
            None => Then::Sync(std::mem::take(&mut self.queue)),
            Some(window) if !self.active => {
                self.active = true;
                Then::Arm(window)
            }
            Some(_) => Then::Ride,
        }
    }

    /// Whether a response to `req` is still waiting for the sync.
    pub(crate) fn holds(&self, req: ReqId) -> bool {
        self.queue.iter().any(|d| d.req() == req)
    }

    /// `req` was aborted: a queued yes vote must not escape after it.
    pub(crate) fn purge(&mut self, req: ReqId) {
        self.queue.retain(|d| d.req() != req);
    }

    /// The armed sync fires: the batch to flush and send, in arrival
    /// order, counted into `stats` — its records, and each suite among them
    /// once. `None` when everything queued was aborted away.
    pub(crate) fn fire(&mut self, stats: &mut ServerStats) -> Option<Vec<Deferred>> {
        self.active = false;
        let batch = &self.queue;
        if batch.is_empty() {
            return None;
        }
        let first_of_its_suite =
            |(i, d): &(usize, &Deferred)| !batch[..*i].iter().any(|e| e.suite() == d.suite());
        let suites = batch.iter().enumerate().filter(first_of_its_suite).count();
        let records = batch.len() as u64;
        stats.wal_batches += 1;
        stats.wal_batched_records += records;
        stats.wal_batch_suites += suites as u64;
        Some(std::mem::take(&mut self.queue))
    }

    /// Keeps the allocation of a batch handed out, emptied, for the next
    /// record.
    pub(crate) fn restore(&mut self, emptied: Vec<Deferred>) {
        debug_assert!(emptied.is_empty() && self.queue.is_empty());
        self.queue = emptied;
    }

    /// A crash drops the queue, and the armed sync's timer with the site.
    pub(crate) fn crash(&mut self) {
        self.queue.clear();
        self.active = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ObjectId = ObjectId(1);
    const B: ObjectId = ObjectId(2);

    fn vote(suite: ObjectId, n: u64) -> Deferred {
        let (to, req) = (SiteId(9), ReqId::new(n, SiteId(9)));
        Deferred::Vote { to, suite, req }
    }

    fn windowed() -> SyncQueue {
        let mut q = SyncQueue::default();
        q.set_window(SimDuration::from_millis(5));
        q
    }

    #[test]
    fn an_abort_purges_a_queued_vote() {
        let mut q = windowed();
        q.defer(vote(A, 1));
        q.defer(vote(A, 2));
        q.purge(ReqId::new(1, SiteId(9)));
        assert!(!q.holds(ReqId::new(1, SiteId(9))));
        let mut stats = ServerStats::default();
        assert_eq!(q.fire(&mut stats), Some(vec![vote(A, 2)]));
    }

    #[test]
    fn a_crash_drops_the_queue() {
        let (mut q, mut stats) = (windowed(), ServerStats::default());
        let window = SimDuration::from_millis(5);
        assert_eq!(q.defer(vote(A, 1)), Then::Arm(window));
        q.crash();
        assert_eq!(q.fire(&mut stats), None, "nothing is armed");
        // The next record arms a sync of its own.
        assert_eq!(q.defer(vote(A, 2)), Then::Arm(window));
        assert_eq!(q.fire(&mut stats), Some(vec![vote(A, 2)]));
    }

    #[test]
    fn with_no_window_the_sync_runs_in_the_same_step() {
        let mut q = SyncQueue::default();
        assert_eq!(q.defer(vote(A, 1)), Then::Sync(vec![vote(A, 1)]));
        let mut q = windowed();
        assert!(matches!(q.defer(vote(A, 1)), Then::Arm(..)));
        assert_eq!(q.defer(vote(A, 2)), Then::Ride, "one sync per window");
    }

    #[test]
    fn a_batch_counts_each_suite_once() {
        let (mut q, mut stats) = (windowed(), ServerStats::default());
        for (suite, n) in [(A, 1), (B, 2), (A, 3)] {
            q.defer(vote(suite, n));
        }
        // Handed out in arrival order.
        let batch = q.fire(&mut stats).expect("due");
        assert_eq!(batch, [vote(A, 1), vote(B, 2), vote(A, 3)]);
        let counted = (stats.wal_batches, stats.wal_batched_records);
        assert_eq!((counted, stats.wal_batch_suites), ((1, 3), 2));
        // Everything aborted away before the sync fires: no batch at all.
        q.defer(vote(A, 4));
        q.purge(ReqId::new(4, SiteId(9)));
        assert_eq!(q.fire(&mut stats), None);
        assert_eq!(stats.wal_batches, 1);
    }
}
