//! The discrete-event engine: a virtual clock and an ordered queue of
//! actions to run against a user-supplied world value.
//!
//! Events are closures `FnOnce(&mut W, &mut Scheduler<W>)`. Running an event
//! may mutate the world and schedule further events; the engine guarantees
//! that events execute in nondecreasing time order, with ties broken by
//! scheduling order (FIFO), so a run is a deterministic function of the
//! initial world, the initial events, and any seeds captured by the
//! closures.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// An action to execute at a scheduled instant.
pub type Action<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

/// A place in the event order, taken by [`Scheduler::ticket`]. Tickets
/// order as the places they took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    action: Action<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<W> Eq for Scheduled<W> {}

impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. `seq` breaks ties FIFO for determinism.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The event queue and virtual clock.
///
/// Handed to every executing action so it can read the current time and
/// schedule follow-up events.
pub struct Scheduler<W> {
    now: SimTime,
    seq: u64,
    executed: u64,
    heap: BinaryHeap<Scheduled<W>>,
}

/// Initial heap capacity: a protocol round on a small cluster keeps a few
/// dozen events in flight; pre-sizing avoids the first few heap regrowths on
/// every one of the hundreds of thousands of simulations a trial sweep runs.
const INITIAL_EVENT_CAPACITY: usize = 64;

impl<W> Scheduler<W> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            heap: BinaryHeap::with_capacity(INITIAL_EVENT_CAPACITY),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Ensures capacity for at least `additional` more pending events.
    ///
    /// Batch schedulers (workload generators seeding thousands of arrivals,
    /// the trial runner priming a sweep) call this once up front so the hot
    /// loop never pays a heap regrowth.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// An instant earlier than `now` is clamped to `now`: the action runs
    /// "immediately", after already-queued events at the current instant.
    pub fn at(&mut self, at: SimTime, action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        let at = at.max(self.now);
        self.push(at, Box::new(action));
    }

    /// Schedules `action` to run `delay` after the current instant.
    ///
    /// Fast path for the dominant schedule pattern ("this much later"): the
    /// instant `now + delay` is already `>= now`, so the clamping comparison
    /// in [`Scheduler::at`] is skipped.
    pub fn after(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.push(self.now + delay, Box::new(action));
    }

    /// Schedules `action` to run at the current instant, after events
    /// already queued for this instant.
    pub fn immediately(&mut self, action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        self.push(self.now, Box::new(action));
    }

    /// Takes the next place in the event order for an action scheduled
    /// into it later ([`Scheduler::at_ticket`]): among actions due at one
    /// instant, after those scheduled before and before those after.
    pub fn ticket(&mut self) -> Ticket {
        let seq = self.seq;
        self.seq += 1;
        Ticket(seq)
    }

    /// Schedules `action` to run at `at` in the place `ticket` took. A
    /// ticket is used once, for an instant no earlier than the current one.
    pub fn at_ticket(
        &mut self,
        at: SimTime,
        Ticket(seq): Ticket,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let action = Box::new(action);
        self.heap.push(Scheduled { at, seq, action });
    }

    /// Enqueues an already-boxed action at a time known to be `>= now`.
    ///
    /// Taking `Action<W>` (not `impl FnOnce`) keeps one monomorphic copy of
    /// the push path per world type instead of one per closure type.
    fn push(&mut self, at: SimTime, action: Action<W>) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let Ticket(seq) = self.ticket();
        self.heap.push(Scheduled { at, seq, action });
    }

    fn pop(&mut self) -> Option<Scheduled<W>> {
        self.heap.pop()
    }
}

/// A discrete-event simulation: a world plus its scheduler.
///
/// # Examples
///
/// ```
/// use wv_sim::{Sim, SimDuration, SimTime};
///
/// // Count how many pings fire in the first 100 ms of a 30 ms period.
/// let mut sim = Sim::new(0usize);
/// fn ping(count: &mut usize, sched: &mut wv_sim::Scheduler<usize>) {
///     *count += 1;
///     sched.after(SimDuration::from_millis(30), ping);
/// }
/// sim.scheduler().at(SimTime::ZERO, ping);
/// sim.run_until(SimTime::from_millis(100));
/// assert_eq!(sim.world, 4); // t = 0, 30, 60, 90
/// ```
pub struct Sim<W> {
    /// The simulated world; protocol and experiment state lives here.
    pub world: W,
    sched: Scheduler<W>,
}

impl<W> Sim<W> {
    /// Creates a simulation around an initial world.
    pub fn new(world: W) -> Self {
        Sim {
            world,
            sched: Scheduler::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Access to the scheduler, e.g. to seed initial events.
    pub fn scheduler(&mut self) -> &mut Scheduler<W> {
        &mut self.sched
    }

    /// Executes the single earliest pending event. Returns `false` if the
    /// queue was empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            None => false,
            Some(ev) => {
                debug_assert!(ev.at >= self.sched.now, "time went backwards");
                self.sched.now = ev.at;
                self.sched.executed += 1;
                (ev.action)(&mut self.world, &mut self.sched);
                true
            }
        }
    }

    /// Runs until the event queue is empty; returns the number of events
    /// executed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.sched.executed;
        while self.step() {}
        self.sched.executed - before
    }

    /// Runs events with timestamps `<= deadline`, then advances the clock to
    /// `deadline` (even if the queue drained early). Events scheduled beyond
    /// the deadline remain queued. Returns the number of events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.sched.executed;
        loop {
            match self.sched.heap.peek() {
                Some(ev) if ev.at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
        self.sched.executed - before
    }

    /// Runs at most `max_events` events; returns how many actually ran.
    ///
    /// Useful as a runaway guard in tests of protocols that could livelock.
    pub fn run_capped(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.scheduler()
            .at(SimTime::from_millis(30), |w: &mut Vec<u64>, _| w.push(30));
        sim.scheduler()
            .at(SimTime::from_millis(10), |w: &mut Vec<u64>, _| w.push(10));
        sim.scheduler()
            .at(SimTime::from_millis(20), |w: &mut Vec<u64>, _| w.push(20));
        assert_eq!(sim.run(), 3);
        assert_eq!(sim.world, vec![10, 20, 30]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut sim = Sim::new(Vec::<u32>::new());
        for i in 0..10u32 {
            sim.scheduler()
                .at(SimTime::from_millis(5), move |w: &mut Vec<u32>, _| {
                    w.push(i)
                });
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn actions_can_schedule_more_actions() {
        let mut sim = Sim::new(0u64);
        fn chain(depth: u64) -> impl FnOnce(&mut u64, &mut Scheduler<u64>) {
            move |w, s| {
                *w += 1;
                if depth > 0 {
                    s.after(SimDuration::from_millis(1), chain(depth - 1));
                }
            }
        }
        sim.scheduler().immediately(chain(99));
        assert_eq!(sim.run(), 100);
        assert_eq!(sim.world, 100);
        assert_eq!(sim.now(), SimTime::from_millis(99));
    }

    #[test]
    fn past_times_clamp_to_now() {
        let mut sim = Sim::new(Vec::<&'static str>::new());
        sim.scheduler()
            .at(SimTime::from_millis(50), |w: &mut Vec<_>, s| {
                w.push("outer");
                // Scheduling "in the past" runs at the current instant instead.
                s.at(SimTime::from_millis(1), |w: &mut Vec<_>, _| {
                    w.push("clamped")
                });
            });
        sim.run();
        assert_eq!(sim.world, vec!["outer", "clamped"]);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0u32);
        for t in [10u64, 20, 30, 40] {
            sim.scheduler()
                .at(SimTime::from_millis(t), |w: &mut u32, _| *w += 1);
        }
        assert_eq!(sim.run_until(SimTime::from_millis(25)), 2);
        assert_eq!(sim.world, 2);
        assert_eq!(sim.now(), SimTime::from_millis(25));
        // The rest still run later.
        assert_eq!(sim.run(), 2);
        assert_eq!(sim.world, 4);
        // Draining early still advances the clock to the deadline.
        assert_eq!(sim.run_until(SimTime::from_secs(1)), 0);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn run_capped_limits_execution() {
        let mut sim = Sim::new(0u64);
        fn forever(w: &mut u64, s: &mut Scheduler<u64>) {
            *w += 1;
            s.after(SimDuration::from_millis(1), forever);
        }
        sim.scheduler().immediately(forever);
        assert_eq!(sim.run_capped(500), 500);
        assert_eq!(sim.world, 500);
        assert_eq!(sim.scheduler().pending(), 1);
    }

    #[test]
    fn reserve_batches_without_changing_order() {
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.scheduler().reserve(1000);
        for t in (0..1000u64).rev() {
            sim.scheduler()
                .at(SimTime::from_micros(t), move |w: &mut Vec<u64>, _| {
                    w.push(t)
                });
        }
        assert_eq!(sim.run(), 1000);
        assert!(sim.world.windows(2).all(|p| p[0] < p[1]));
    }

    #[test]
    fn a_ticket_runs_in_the_place_it_took() {
        let mut sim = Sim::new(Vec::<&'static str>::new());
        let at = SimTime::from_millis(5);
        let s = sim.scheduler();
        s.at(at, |w: &mut Vec<_>, _| w.push("before"));
        let ticket = s.ticket();
        s.at(at, |w: &mut Vec<_>, _| w.push("after"));
        s.at(SimTime::from_millis(1), move |_, s| {
            // Scheduled last, and in the middle all the same.
            s.at_ticket(at, ticket, |w: &mut Vec<_>, _| w.push("ticket"));
        });
        sim.run();
        assert_eq!(sim.world, vec!["before", "ticket", "after"]);
    }

    #[test]
    fn a_ticket_unused_leaves_every_other_place_alone() {
        let order = |skip: bool| {
            let mut sim = Sim::new(Vec::<u32>::new());
            for i in 0..6u32 {
                let at = SimTime::from_millis(u64::from(i % 2));
                let ticket = sim.scheduler().ticket();
                if !(skip && i == 2) {
                    sim.scheduler()
                        .at_ticket(at, ticket, move |w: &mut Vec<u32>, _| w.push(i));
                }
            }
            sim.run();
            sim.world
        };
        assert_eq!(order(false), vec![0, 2, 4, 1, 3, 5]);
        assert_eq!(order(true), vec![0, 4, 1, 3, 5]);
    }

    #[test]
    fn executed_counts_all_events() {
        let mut sim = Sim::new(());
        sim.scheduler().immediately(|_, _| {});
        sim.scheduler().immediately(|_, _| {});
        sim.run();
        assert_eq!(sim.scheduler().executed(), 2);
    }
}
