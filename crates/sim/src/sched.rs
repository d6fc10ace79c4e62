//! The discrete-event engine: a virtual clock and an ordered queue of
//! events to run against a user-supplied world value.
//!
//! An event is a plain function `fn(&mut W, &mut Scheduler<W>, u64)` and
//! one word for it, ordered by one `u128` key, `(at_µs << 64) | seq`.
//! Running an event may mutate the world and schedule further events; the
//! engine guarantees that events execute in nondecreasing time order, with
//! ties broken by scheduling order (FIFO), so a run is a deterministic
//! function of the initial world, the initial events, and any seeds they
//! carry. The word says what the function works on — a site, a message
//! parked in the world's own [`Slab`] — so a hot path schedules nothing
//! that allocates.
//!
//! Closures are scheduled too ([`Scheduler::at`] and its kin): each one is
//! parked in a slab inside the scheduler, and its event is one private
//! function called with the closure's key. There is one queue and one
//! entry type.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::Slab;
use crate::time::{SimDuration, SimTime};

/// What an event runs: a function of the world, the scheduler and the
/// word the event was scheduled with.
pub type Call<W> = fn(&mut W, &mut Scheduler<W>, u64);

/// A closure parked until its event runs.
type Action<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

/// A place in the event order, taken by [`Scheduler::ticket`]. Tickets
/// order as the places they took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The place's number: tickets taken later have larger ones.
    pub fn seq(self) -> u64 {
        self.0
    }
}

struct Scheduled<W> {
    /// `(at_µs << 64) | seq`: time order, then scheduling order.
    key: u128,
    call: Call<W>,
    word: u64,
}

impl<W> Scheduled<W> {
    fn at(&self) -> SimTime {
        SimTime::from_micros((self.key >> 64) as u64)
    }
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// The event queue and virtual clock.
///
/// Handed to every executing event so it can read the current time and
/// schedule follow-up events.
pub struct Scheduler<W> {
    now: SimTime,
    seq: u64,
    executed: u64,
    heap: BinaryHeap<Scheduled<W>>,
    closures: Slab<Action<W>>,
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
            closures: Slab::default(),
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

    /// Schedules `action` to run at absolute time `at`.
    ///
    /// An instant earlier than `now` is clamped to `now`: the action runs
    /// "immediately", after already-queued events at the current instant.
    pub fn at(&mut self, at: SimTime, action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        let at = at.max(self.now);
        let ticket = self.ticket();
        self.park(at, ticket, Box::new(action));
    }

    /// Schedules `action` to run `delay` after the current instant.
    pub fn after(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        let ticket = self.ticket();
        self.park(self.now + delay, ticket, Box::new(action));
    }

    /// Schedules `action` to run at the current instant, after events
    /// already queued for this instant.
    pub fn immediately(&mut self, action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        let ticket = self.ticket();
        self.park(self.now, ticket, Box::new(action));
    }

    /// Takes the next place in the event order for an event scheduled
    /// into it later ([`Scheduler::call_at_ticket`]): among events due at
    /// one instant, after those scheduled before and before those after.
    pub fn ticket(&mut self) -> Ticket {
        let seq = self.seq;
        self.seq += 1;
        Ticket(seq)
    }

    /// Schedules `call(world, scheduler, word)` to run `delay` after the
    /// current instant.
    pub fn call_after(&mut self, delay: SimDuration, call: Call<W>, word: u64) {
        let ticket = self.ticket();
        self.push(self.now + delay, ticket, call, word);
    }

    /// Schedules `call(world, scheduler, word)` to run at `at` in the place
    /// `ticket` took. A ticket is used once, for an instant no earlier than
    /// the current one.
    pub fn call_at_ticket(&mut self, at: SimTime, ticket: Ticket, call: Call<W>, word: u64) {
        self.push(at, ticket, call, word);
    }

    /// Parks an already-boxed action and schedules the call that runs it.
    ///
    /// Taking `Action<W>` (not `impl FnOnce`) keeps one monomorphic copy of
    /// this path per world type instead of one per closure type.
    fn park(&mut self, at: SimTime, ticket: Ticket, action: Action<W>) {
        let slot = self.closures.insert(action);
        self.push(at, ticket, Self::run_parked, slot);
    }

    /// The event of every scheduled closure: takes it out of the slab and
    /// runs it.
    fn run_parked(world: &mut W, sched: &mut Scheduler<W>, slot: u64) {
        let action = sched.closures.take(slot);
        action(world, sched);
    }

    /// Enqueues an event at a time known to be `>= now`.
    fn push(&mut self, at: SimTime, Ticket(seq): Ticket, call: Call<W>, word: u64) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let key = (u128::from(at.as_micros()) << 64) | u128::from(seq);
        self.heap.push(Scheduled { key, call, word });
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
        match self.sched.heap.pop() {
            None => false,
            Some(ev) => {
                debug_assert!(ev.at() >= self.sched.now, "time went backwards");
                self.sched.now = ev.at();
                self.sched.executed += 1;
                (ev.call)(&mut self.world, &mut self.sched, ev.word);
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
                Some(ev) if ev.at() <= deadline => {
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

    /// A call event that logs its word.
    fn push_word(w: &mut Vec<u64>, _: &mut Scheduler<Vec<u64>>, word: u64) {
        w.push(word);
    }

    #[test]
    fn a_ticket_runs_in_the_place_it_took() {
        let mut sim = Sim::new(Vec::<u64>::new());
        let at = SimTime::from_millis(5);
        let s = sim.scheduler();
        s.at(at, |w: &mut Vec<_>, _| w.push(1));
        let ticket = s.ticket();
        s.at(at, |w: &mut Vec<_>, _| w.push(3));
        s.at(SimTime::from_millis(1), move |_, s| {
            // Scheduled last, and in the middle all the same.
            s.call_at_ticket(at, ticket, push_word, 2);
        });
        sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
    }

    #[test]
    fn a_ticket_unused_leaves_every_other_place_alone() {
        let order = |skip: bool| {
            let mut sim = Sim::new(Vec::<u64>::new());
            for i in 0..6u64 {
                let at = SimTime::from_millis(i % 2);
                let ticket = sim.scheduler().ticket();
                if !(skip && i == 2) {
                    sim.scheduler().call_at_ticket(at, ticket, push_word, i);
                }
            }
            sim.run();
            sim.world
        };
        assert_eq!(order(false), vec![0, 2, 4, 1, 3, 5]);
        assert_eq!(order(true), vec![0, 4, 1, 3, 5]);
    }

    /// A world that schedules events of every kind at random from inside
    /// the events it runs, and keeps a reference of what must run next:
    /// the `(at, seq, id)` of every event scheduled and yet to run, with
    /// `seq` counted here, one per scheduling call or ticket taken.
    struct Mixer {
        rng: crate::DetRng,
        seq: u64,
        ids: u64,
        reference: std::collections::BTreeSet<(SimTime, u64, u64)>,
        /// Tickets taken and not yet used, with their `seq`.
        tickets: Vec<(Ticket, u64)>,
        budget: u32,
        executed: u64,
        /// When the last event ran, and how many ran at the instant of
        /// the one before.
        last: SimTime,
        ties: u64,
    }

    fn call(w: &mut Mixer, s: &mut Scheduler<Mixer>, id: u64) {
        w.ran(id, s);
    }

    impl Mixer {
        fn new(seed: u64) -> Self {
            Mixer {
                rng: crate::DetRng::new(seed),
                seq: 0,
                ids: 0,
                reference: Default::default(),
                tickets: Vec::new(),
                budget: 400,
                executed: 0,
                last: SimTime::ZERO,
                ties: 0,
            }
        }

        /// Records an event for the reference and returns its id.
        fn expect(&mut self, at: SimTime, seq: u64) -> u64 {
            let id = self.ids;
            self.ids += 1;
            self.reference.insert((at, seq, id));
            id
        }

        fn next_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }

        /// Event `id` runs: it must be the reference's first, and the
        /// scheduler's counts must agree with the reference's.
        fn ran(&mut self, id: u64, s: &mut Scheduler<Mixer>) {
            let first = self.reference.pop_first().expect("an event was expected");
            assert_eq!((first.0, first.2), (s.now(), id), "out of order");
            if self.executed > 0 && self.last == s.now() {
                self.ties += 1;
            }
            self.last = s.now();
            self.executed += 1;
            assert_eq!(s.executed(), self.executed);
            assert_eq!(s.pending(), self.reference.len());
            self.act(s);
        }

        /// Schedules one to three events, of kinds drawn at random, until
        /// the budget is spent; delays of a few microseconds make ties
        /// common.
        fn act(&mut self, s: &mut Scheduler<Mixer>) {
            for _ in 0..1 + self.rng.below(3) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let now = s.now();
                let delay = SimDuration::from_micros(self.rng.below(4));
                match self.rng.below(6) {
                    0 => {
                        // Up to 3 µs in the past: clamped to now.
                        let at = now.as_micros() + self.rng.below(7);
                        let at = SimTime::from_micros(at.saturating_sub(3));
                        let seq = self.next_seq();
                        let id = self.expect(at.max(now), seq);
                        s.at(at, move |w: &mut Mixer, s| w.ran(id, s));
                    }
                    1 => {
                        let seq = self.next_seq();
                        let id = self.expect(now + delay, seq);
                        s.after(delay, move |w: &mut Mixer, s| w.ran(id, s));
                    }
                    2 => {
                        let seq = self.next_seq();
                        let id = self.expect(now, seq);
                        s.immediately(move |w: &mut Mixer, s| w.ran(id, s));
                    }
                    3 => {
                        let seq = self.next_seq();
                        let id = self.expect(now + delay, seq);
                        s.call_after(delay, call, id);
                    }
                    // A ticket taken now, perhaps never used.
                    4 => {
                        let seq = self.next_seq();
                        self.tickets.push((s.ticket(), seq));
                    }
                    _ => {
                        if self.tickets.is_empty() {
                            continue;
                        }
                        let pick = self.rng.below(self.tickets.len() as u64) as usize;
                        let (ticket, seq) = self.tickets.swap_remove(pick);
                        let id = self.expect(now + delay, seq);
                        s.call_at_ticket(now + delay, ticket, call, id);
                    }
                }
            }
        }
    }

    #[test]
    fn every_kind_of_event_runs_in_the_order_of_a_reference_sort() {
        let (mut unused, mut ties) = (0, 0);
        for seed in 0..64 {
            let mut sim = Sim::new(Mixer::new(seed));
            let first = sim.world.expect(SimTime::ZERO, 0);
            sim.world.seq = 1;
            sim.scheduler().immediately(move |w, s| w.ran(first, s));
            // Halfway, the clock is at the deadline and what is left
            // pending is what the reference has left.
            let half = SimTime::from_micros(20);
            sim.run_until(half);
            assert_eq!(sim.now(), half);
            assert!(sim.world.reference.iter().all(|e| e.0 > half));
            let left = sim.world.reference.len();
            assert_eq!(sim.scheduler().pending(), left, "seed {seed}");
            sim.run();
            assert_eq!(sim.scheduler().pending(), 0, "seed {seed}");
            let w = &sim.world;
            assert!(w.reference.is_empty(), "seed {seed}");
            assert_eq!(w.executed, w.ids, "seed {seed}: every event ran once");
            unused += w.tickets.len();
            ties += w.ties;
        }
        // What the runs had to cover: tickets never used, and events
        // tied on an instant.
        assert!(unused > 20 && ties > 5_000, "{unused} {ties}");
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
