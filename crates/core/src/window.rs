//! The pipelined client's window, [`ClientOptions::pipeline_depth`]: at
//! most `depth` operations on the wire, the rest waiting in submission
//! order as [`Submission`]s, from which the client builds an operation's
//! state at launch. The client tells the window of each submission, each
//! operation that finished and a crash, and asks it for the next
//! submission to launch. The depth is read once, in [`Window::new`].

use std::collections::VecDeque;

use bytes::Bytes;
use wv_sim::SimTime;
use wv_storage::ObjectId;

use crate::client::ClientOptions;
use crate::error::OpKind;
use crate::msg::ReqId;
use crate::reconfig::Reconfig;

/// An operation submitted and not yet launched.
pub(crate) struct Submission {
    pub(crate) req: ReqId,
    pub(crate) kind: OpKind,
    pub(crate) suite: ObjectId,
    pub(crate) writes: Vec<(ObjectId, Bytes)>,
    pub(crate) reconfig: Option<Box<Reconfig>>,
    /// The submission instant, which the operation's latency counts from.
    pub(crate) started: SimTime,
}

/// The slots of the pipeline window and the submissions waiting for one.
pub(crate) struct Window {
    /// Slots; `usize::MAX` with no window configured, which never queues.
    depth: usize,
    /// Slots taken: operations launched and not yet finished.
    active: usize,
    /// Submissions waiting for a slot, oldest first.
    queue: VecDeque<Submission>,
}

impl Window {
    pub(crate) fn new(options: &ClientOptions) -> Self {
        Window {
            depth: options.pipeline_depth.unwrap_or(usize::MAX),
            active: 0,
            queue: VecDeque::new(),
        }
    }

    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `s` was submitted: it waits behind every earlier submission.
    pub(crate) fn submit(&mut self, s: Submission) {
        self.queue.push_back(s);
    }

    /// The oldest waiting submission, if a slot is free for it, which it
    /// takes. With a slot left free, the queue is empty.
    pub(crate) fn launch(&mut self) -> Option<Submission> {
        if self.active >= self.depth {
            return None;
        }
        let s = self.queue.pop_front()?;
        self.active += 1;
        Some(s)
    }

    /// A launched operation finished: its slot is free.
    pub(crate) fn finished(&mut self) {
        self.active = self.active.saturating_sub(1);
    }

    /// A crash loses the backlog with the launched operations, unreported.
    pub(crate) fn crash(&mut self) {
        self.queue.clear();
        self.active = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_net::SiteId;

    fn window(pipeline_depth: Option<usize>) -> Window {
        Window::new(&ClientOptions {
            pipeline_depth,
            ..ClientOptions::default()
        })
    }

    fn read(n: u64) -> Submission {
        Submission {
            req: ReqId::new(n, SiteId(9)),
            kind: OpKind::Read,
            suite: ObjectId(1),
            writes: Vec::new(),
            reconfig: None,
            started: SimTime::from_micros(n),
        }
    }

    /// Submits reads `1..=n`, then launches what the window admits;
    /// returns the launched ones' numbers.
    fn fill(w: &mut Window, n: u64) -> Vec<u64> {
        (1..=n).for_each(|i| w.submit(read(i)));
        std::iter::from_fn(|| w.launch())
            .map(|s| s.req.counter())
            .collect()
    }

    #[test]
    fn submissions_launch_oldest_first() {
        let mut w = window(Some(2));
        assert_eq!(fill(&mut w, 5), [1, 2]);
        for next in 3..=5 {
            w.finished();
            let s = w.launch().expect("a slot is free");
            assert_eq!(
                (s.req.counter(), s.started),
                (next, SimTime::from_micros(next))
            );
        }
        assert!(w.launch().is_none() && w.queued() == 0);
    }

    #[test]
    fn no_more_than_depth_slots_are_taken() {
        let mut w = window(Some(3));
        assert_eq!(fill(&mut w, 10), [1, 2, 3]);
        assert_eq!(w.queued(), 7);
    }

    #[test]
    fn with_no_window_a_submission_launches_at_once() {
        let mut w = window(None);
        for i in 1..=1000 {
            w.submit(read(i));
            assert_eq!(w.launch().map(|s| s.req.counter()), Some(i));
        }
        assert_eq!(w.queued(), 0);
    }

    #[test]
    fn a_crash_drops_the_queue_and_frees_every_slot() {
        let mut w = window(Some(2));
        fill(&mut w, 5);
        w.crash();
        assert_eq!(w.queued(), 0);
        assert!(w.launch().is_none(), "nothing queued survives the crash");
        // Both slots are free again: the next two submissions launch.
        assert_eq!(fill(&mut w, 3), [1, 2]);
    }

    #[test]
    fn a_finished_operation_frees_exactly_one_slot() {
        let mut w = window(Some(3));
        assert_eq!(fill(&mut w, 6), [1, 2, 3]);
        w.finished();
        assert_eq!(w.launch().map(|s| s.req.counter()), Some(4));
        assert!(w.launch().is_none(), "one slot freed, one launch");
    }

    #[test]
    fn a_submission_fits_in_a_cache_line() {
        // A closed-loop batch's backlog — ten thousand submissions on a
        // read-heavy workload — waits here, so this size is its heap high
        // water; what only a reconfiguration carries is boxed.
        let size = std::mem::size_of::<Submission>();
        assert!(size <= 64, "{size}");
    }
}
