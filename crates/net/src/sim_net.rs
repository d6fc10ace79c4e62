//! The deterministic simulated transport.
//!
//! A [`Cluster`] hosts one [`Node`] per site inside a `wv_sim::Sim`. All
//! message latencies are drawn from the cluster's [`NetConfig`], every
//! [`Fault`] (a crash, a recovery, a partition, a link dial) is an event
//! [`Cluster::apply_at`] schedules, and the whole execution is a pure
//! function of the seed — which is what lets the benchmark harness
//! regenerate the paper's tables exactly.
//!
//! Semantics (documented because experiments depend on them):
//!
//! * **Drop decisions** (partition membership, link loss) are made at *send*
//!   time; a message that clears them is delivered after a sampled one-way
//!   latency unless the destination is down at *delivery* time.
//! * **Crashed sites** receive neither messages nor timers. `Node::on_crash`
//!   runs at the crash instant (discard volatile state), and the site's
//!   pending timers die with it, counted in [`NetStats::timers_dropped`]:
//!   a timer is volatile state too, so one set before the crash never
//!   fires, not even after the recovery. `Node::on_recover` runs at the
//!   recovery instant and may send messages and set timers afresh.
//! * **Timers** fire exactly where an event scheduled when they were set
//!   would run. They wait in their site's queue, with a scheduler event
//!   (a wake-up) due no later than the earliest; a cancelled one leaves
//!   the queue at once, so it moves no other event. A wake-up whose timer
//!   was cancelled runs as a no-op.
//! * **Message order** between a pair of sites is not preserved when the
//!   link's latency model is non-constant — exactly like a datagram network.
//!
//! A delivery and a wake-up are scheduler calls with one word and no
//! closure: a message in flight waits in the cluster's slab under the slot
//! its delivery carries, and a wake-up's word names its site. Only the
//! driver's calls and the fault events are closures.

use wv_sim::{DetRng, FailureSchedule, Scheduler, Sim, SimTime, Slab, Ticket};

use crate::config::{Fault, NetConfig, Partition};
use crate::node::{Effect, Node, NodeCtx};
use crate::site::SiteId;
use crate::timers::TimerQueue;

/// Where a timer fires: its instant, then the place it took when set.
type Place = (SimTime, Ticket);

/// One site's pending timers, and the wake-ups scheduled for them.
#[derive(Default)]
struct SiteTimers {
    /// The timers themselves, earliest place first.
    due: TimerQueue<Place>,
    /// The places of the wake-ups yet to run. Each was scheduled before
    /// every one already waiting, so the last is the next to run, and it
    /// is never later than the earliest timer.
    wakes: Vec<Place>,
}

impl SiteTimers {
    /// Books a wake-up at `place` unless one runs at or before it, and
    /// says whether it did: the caller then schedules it.
    fn book_wake(&mut self, place: Place) -> bool {
        let needed = self.wakes.last().is_none_or(|next| place < *next);
        if needed {
            self.wakes.push(place);
        }
        needed
    }
}

/// Transport counters, useful for assertions and experiment reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the transport.
    pub sent: u64,
    /// Messages delivered to a node handler. On `thread_net`, messages its
    /// receivers have popped from their inboxes.
    pub delivered: u64,
    /// Messages dropped because sender and destination were partitioned.
    pub dropped_partition: u64,
    /// Messages dropped by link loss.
    pub dropped_link: u64,
    /// Messages dropped because the destination was down at delivery time.
    pub dropped_down: u64,
    /// Extra deliveries caused by duplication.
    pub duplicated: u64,
    /// Timer expirations delivered.
    pub timers_fired: u64,
    /// Pending timers a crash of their site discarded.
    pub timers_dropped: u64,
}

impl std::ops::AddAssign for NetStats {
    fn add_assign(&mut self, o: NetStats) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped_partition += o.dropped_partition;
        self.dropped_link += o.dropped_link;
        self.dropped_down += o.dropped_down;
        self.duplicated += o.duplicated;
        self.timers_fired += o.timers_fired;
        self.timers_dropped += o.timers_dropped;
    }
}

impl std::iter::Sum for NetStats {
    fn sum<I: Iterator<Item = NetStats>>(iter: I) -> NetStats {
        iter.fold(NetStats::default(), |mut sum, s| {
            sum += s;
            sum
        })
    }
}

/// A set of protocol nodes plus the network state connecting them.
///
/// Use as the world type of a `wv_sim::Sim`:
///
/// ```
/// use wv_net::sim_net::Cluster;
/// use wv_net::{NetConfig, Node, NodeCtx, SiteId};
/// use wv_sim::{LatencyModel, SimTime};
///
/// struct Counter(u32);
/// impl Node for Counter {
///     type Msg = ();
///     fn on_message(&mut self, _f: SiteId, _m: (), _ctx: &mut NodeCtx<'_, ()>) {
///         self.0 += 1;
///     }
/// }
///
/// let cfg = NetConfig::uniform(2, LatencyModel::constant_millis(10));
/// let mut sim = Cluster::sim(vec![Counter(0), Counter(0)], cfg, 7);
/// Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(0), |_n, ctx| {
///     ctx.send(SiteId(1), ());
/// });
/// sim.run();
/// assert_eq!(sim.world.nodes[1].0, 1);
/// assert_eq!(sim.now(), SimTime::from_millis(10));
/// ```
pub struct Cluster<N: Node> {
    /// The protocol nodes, indexed by site.
    pub nodes: Vec<N>,
    /// Link latencies and loss.
    pub config: NetConfig,
    /// Current connectivity.
    pub partition: Partition,
    /// Transport counters.
    pub stats: NetStats,
    down: Vec<bool>,
    timers: Vec<SiteTimers>,
    node_rngs: Vec<DetRng>,
    net_rng: DetRng,
    /// Messages in flight, `(from, to, msg)`, each under the slot its
    /// delivery event carries.
    in_flight: Slab<(SiteId, SiteId, N::Msg)>,
    /// The effects vector of the last handler call, emptied, for the next.
    spare_effects: Vec<Effect<N::Msg>>,
}

impl<N: Node + 'static> Cluster<N>
where
    N::Msg: Clone + 'static,
{
    /// Builds a simulation around `nodes` connected by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != config.sites()`.
    pub fn sim(nodes: Vec<N>, config: NetConfig, seed: u64) -> Sim<Cluster<N>> {
        assert_eq!(nodes.len(), config.sites(), "one node per site required");
        let root = DetRng::new(seed);
        let sites = nodes.len();
        let cluster = Cluster {
            partition: Partition::whole(sites),
            down: vec![false; sites],
            timers: (0..sites).map(|_| SiteTimers::default()).collect(),
            node_rngs: (0..sites).map(|i| root.fork(i as u64 + 1)).collect(),
            net_rng: root.fork_named("network"),
            stats: NetStats::default(),
            in_flight: Slab::default(),
            spare_effects: Vec::new(),
            nodes,
            config,
        };
        Sim::new(cluster)
    }

    /// True if `site` is currently crashed.
    pub fn is_down(&self, site: SiteId) -> bool {
        self.down[site.index()]
    }

    /// Schedules a driver-initiated call into the node at `site`.
    ///
    /// The closure runs at `at` with full [`NodeCtx`] powers (it may send
    /// messages and set timers); its effects enter the network like any
    /// other node activity. If the site is down at `at`, the call is
    /// silently skipped — exactly as a client co-located with a crashed
    /// machine would be.
    pub fn invoke(
        sched: &mut Scheduler<Cluster<N>>,
        at: SimTime,
        site: SiteId,
        f: impl FnOnce(&mut N, &mut NodeCtx<'_, N::Msg>) + 'static,
    ) {
        sched.at(at, move |world: &mut Cluster<N>, sched| {
            if world.down[site.index()] {
                return;
            }
            Self::run_node(world, sched, site, f);
        });
    }

    /// Schedules `fault` at `at`. A crash drops the site's pending timers
    /// and runs `Node::on_crash`; a recovery runs `Node::on_recover`.
    /// Crashing a down site, or recovering an up one, does nothing.
    pub fn apply_at(sched: &mut Scheduler<Cluster<N>>, at: SimTime, fault: Fault) {
        sched.at(at, move |world: &mut Cluster<N>, sched| match fault {
            Fault::Crash(site) => {
                if !world.down[site.index()] {
                    world.down[site.index()] = true;
                    let dropped = world.timers[site.index()].due.clear();
                    world.stats.timers_dropped += dropped as u64;
                    world.nodes[site.index()].on_crash();
                }
            }
            Fault::Recover(site) => {
                if world.down[site.index()] {
                    world.down[site.index()] = false;
                    Self::run_node(world, sched, site, |node, ctx| node.on_recover(ctx));
                }
            }
            Fault::Partition(p) => {
                assert_eq!(p.sites(), world.nodes.len(), "partition size mismatch");
                world.partition = p;
            }
            Fault::Heal => world.partition = Partition::whole(world.nodes.len()),
            Fault::DropAll(p) => {
                world.config.set_drop_all(p);
            }
            Fault::ExtraDelay(extra) => world.config.extra_delay = extra,
            Fault::Duplicate(p) => world.config.duplicate_prob = p.clamp(0.0, 1.0),
        });
    }

    /// Translates a [`FailureSchedule`] into crash/recover events queued
    /// now, so a crash applies *before* the deliveries due at its instant:
    /// the opposite of `wv_bench::drive`'s order. Only the frozen benchmark
    /// calls this, through `Harness::apply_failure_schedule` (ROADMAP item 4).
    pub fn apply_failure_schedule(sched: &mut Scheduler<Cluster<N>>, schedule: &FailureSchedule) {
        for site in 0..schedule.sites() {
            for w in schedule.windows(site) {
                let site = SiteId::from(site);
                Self::apply_at(sched, w.from, Fault::Crash(site));
                Self::apply_at(sched, w.until, Fault::Recover(site));
            }
        }
    }

    /// Runs one handler call `f` of the node at `site`, lending it the
    /// site's random stream in place, and routes the effects it queued.
    /// The effects vector is recycled across calls.
    fn run_node(
        world: &mut Cluster<N>,
        sched: &mut Scheduler<Cluster<N>>,
        site: SiteId,
        f: impl FnOnce(&mut N, &mut NodeCtx<'_, N::Msg>),
    ) {
        let i = site.index();
        let buffer = std::mem::take(&mut world.spare_effects);
        let mut ctx = NodeCtx::with_buffer(sched.now(), site, &mut world.node_rngs[i], buffer);
        f(&mut world.nodes[i], &mut ctx);
        let mut effects = ctx.take_effects();
        Self::dispatch(world, sched, site, &mut effects);
        world.spare_effects = effects;
    }

    fn dispatch(
        world: &mut Cluster<N>,
        sched: &mut Scheduler<Cluster<N>>,
        from: SiteId,
        effects: &mut Vec<Effect<N::Msg>>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => Self::route(world, sched, from, to, msg),
                Effect::Timer { delay, token } => {
                    let place = (sched.now() + delay, sched.ticket());
                    let timers = &mut world.timers[from.index()];
                    timers.due.set(place, token);
                    if timers.book_wake(place) {
                        Self::wake_at(sched, from, place);
                    }
                }
                Effect::Cancel { token } => world.timers[from.index()].due.cancel(token),
            }
        }
    }

    /// Schedules a wake-up of `site`'s timers at `place`. Its word is the
    /// site, and the place's ticket above it, for [`Self::wake`] to check.
    fn wake_at(sched: &mut Scheduler<Cluster<N>>, site: SiteId, (at, ticket): Place) {
        debug_assert!(ticket.seq() < 1 << 48, "a ticket fits the wake-up's word");
        let word = (ticket.seq() << 16) | u64::from(site.0);
        sched.call_at_ticket(at, ticket, Self::wake, word);
    }

    /// A wake-up: fires the site's timer at this place unless that was
    /// cancelled, or dropped by a crash, then sees that the site's new
    /// earliest timer has a wake-up at or before it.
    fn wake(world: &mut Cluster<N>, sched: &mut Scheduler<Cluster<N>>, word: u64) {
        let site = SiteId(word as u16);
        let timers = &mut world.timers[site.index()];
        let place = timers.wakes.pop().expect("a wake-up was booked");
        debug_assert_eq!(
            (place.0, place.1.seq()),
            (sched.now(), word >> 16),
            "wake-ups run latest-scheduled first"
        );
        if let Some(token) = timers.due.pop_if(|p| p == place) {
            debug_assert!(!world.down[site.index()], "a crash drops its timers");
            world.stats.timers_fired += 1;
            Self::run_node(world, sched, site, |node, ctx| node.on_timer(token, ctx));
        }
        let timers = &mut world.timers[site.index()];
        if let Some(next) = timers.due.first().filter(|p| timers.book_wake(*p)) {
            Self::wake_at(sched, site, next);
        }
    }

    fn route(
        world: &mut Cluster<N>,
        sched: &mut Scheduler<Cluster<N>>,
        from: SiteId,
        to: SiteId,
        msg: N::Msg,
    ) {
        world.stats.sent += 1;
        if !world.partition.connected(from, to) {
            world.stats.dropped_partition += 1;
            return;
        }
        if world.config.sample_drop(from, to, &mut world.net_rng) {
            world.stats.dropped_link += 1;
            return;
        }
        if world.net_rng.chance(world.config.duplicate_prob) {
            world.stats.duplicated += 1;
            let latency = world.config.sample_latency(from, to, &mut world.net_rng);
            Self::schedule_delivery(world, sched, from, to, latency, msg.clone());
        }
        let latency = world.config.sample_latency(from, to, &mut world.net_rng);
        Self::schedule_delivery(world, sched, from, to, latency, msg);
    }

    /// Parks the message and schedules its delivery after `latency`.
    fn schedule_delivery(
        world: &mut Cluster<N>,
        sched: &mut Scheduler<Cluster<N>>,
        from: SiteId,
        to: SiteId,
        latency: wv_sim::SimDuration,
        msg: N::Msg,
    ) {
        let slot = world.in_flight.insert((from, to, msg));
        sched.call_after(latency, Self::deliver, slot);
    }

    /// A delivery: hands the message parked in `slot` to its destination,
    /// unless that is down.
    fn deliver(world: &mut Cluster<N>, sched: &mut Scheduler<Cluster<N>>, slot: u64) {
        let (from, to, msg) = world.in_flight.take(slot);
        if world.down[to.index()] {
            world.stats.dropped_down += 1;
            return;
        }
        world.stats.delivered += 1;
        Self::run_node(world, sched, to, |node, ctx| {
            node.on_message(from, msg, ctx)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_sim::{LatencyModel, SimDuration};

    /// Every counter at `k` times its own position. The literal names
    /// every counter, so one added to [`NetStats`] does not compile here
    /// until it is added, and the test below fails until it is summed.
    fn net_stats(k: u64) -> NetStats {
        NetStats {
            sent: k,
            delivered: 2 * k,
            dropped_partition: 3 * k,
            dropped_link: 4 * k,
            dropped_down: 5 * k,
            duplicated: 6 * k,
            timers_fired: 7 * k,
            timers_dropped: 8 * k,
        }
    }

    #[test]
    fn net_stats_add_up_counter_by_counter() {
        let mut a = net_stats(1);
        a += net_stats(10);
        assert_eq!(a, net_stats(11));
        let sum: NetStats = [net_stats(1), net_stats(10)].into_iter().sum();
        assert_eq!(sum, net_stats(11));
    }

    /// A test node that counts deliveries and can ping-pong.
    #[derive(Default)]
    struct Pong {
        received: Vec<(SiteId, u32)>,
        bounce: bool,
        timer_tokens: Vec<u64>,
        crashes: u32,
        recoveries: u32,
    }

    impl Node for Pong {
        type Msg = u32;

        fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut NodeCtx<'_, u32>) {
            self.received.push((from, msg));
            if self.bounce && msg > 0 {
                ctx.send(from, msg - 1);
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut NodeCtx<'_, u32>) {
            self.timer_tokens.push(token);
        }

        fn on_crash(&mut self) {
            self.crashes += 1;
        }

        fn on_recover(&mut self, _ctx: &mut NodeCtx<'_, u32>) {
            self.recoveries += 1;
        }
    }

    fn two_nodes(ms: u64) -> Sim<Cluster<Pong>> {
        let cfg = NetConfig::uniform(2, LatencyModel::constant_millis(ms));
        Cluster::sim(vec![Pong::default(), Pong::default()], cfg, 42)
    }

    #[test]
    fn ping_pong_accumulates_latency() {
        let mut sim = two_nodes(10);
        sim.world.nodes[0].bounce = true;
        sim.world.nodes[1].bounce = true;
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(0), |_n, ctx| {
            ctx.send(SiteId(1), 4);
        });
        sim.run();
        // 5 deliveries (4,3,2,1,0), each 10 ms apart.
        assert_eq!(sim.now(), SimTime::from_millis(50));
        assert_eq!(sim.world.stats.delivered, 5);
        assert_eq!(
            sim.world.nodes[1].received,
            vec![(SiteId(0), 4), (SiteId(0), 2), (SiteId(0), 0)]
        );
        assert_eq!(
            sim.world.nodes[0].received,
            vec![(SiteId(1), 3), (SiteId(1), 1)]
        );
    }

    #[test]
    fn timers_fire_with_tokens() {
        let mut sim = two_nodes(1);
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(0), |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(30), 7);
            ctx.set_timer(SimDuration::from_millis(10), 8);
        });
        sim.run();
        assert_eq!(sim.world.nodes[0].timer_tokens, vec![8, 7]);
        assert_eq!(sim.world.stats.timers_fired, 2);
    }

    #[test]
    fn partition_blocks_messages() {
        let mut sim = two_nodes(5);
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::ZERO,
            Fault::Partition(Partition::isolate(2, SiteId(1))),
        );
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(1),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 9);
            },
        );
        sim.run();
        assert_eq!(sim.world.stats.dropped_partition, 1);
        assert_eq!(sim.world.stats.delivered, 0);
        assert!(sim.world.nodes[1].received.is_empty());
    }

    #[test]
    fn partition_heals() {
        let mut sim = two_nodes(5);
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::ZERO,
            Fault::Partition(Partition::isolate(2, SiteId(1))),
        );
        Cluster::apply_at(sim.scheduler(), SimTime::from_millis(10), Fault::Heal);
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(20),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 9);
            },
        );
        sim.run();
        assert_eq!(sim.world.stats.delivered, 1);
    }

    #[test]
    fn crashed_site_loses_messages_and_timers() {
        let mut sim = two_nodes(5);
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(1), |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(20), 1);
        });
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(1),
            Fault::Crash(SiteId(1)),
        );
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(2),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 5);
            },
        );
        sim.run();
        assert_eq!(sim.world.nodes[1].crashes, 1);
        assert_eq!(sim.world.stats.dropped_down, 1);
        assert_eq!(sim.world.stats.timers_dropped, 1);
        assert!(sim.world.nodes[1].received.is_empty());
        assert!(sim.world.is_down(SiteId(1)));
    }

    #[test]
    fn recovery_restores_delivery_and_runs_hook() {
        let mut sim = two_nodes(5);
        Cluster::apply_at(sim.scheduler(), SimTime::ZERO, Fault::Crash(SiteId(1)));
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(10),
            Fault::Recover(SiteId(1)),
        );
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(20),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 5);
            },
        );
        sim.run();
        assert_eq!(sim.world.nodes[1].recoveries, 1);
        assert_eq!(sim.world.nodes[1].received, vec![(SiteId(0), 5)]);
        assert!(!sim.world.is_down(SiteId(1)));
    }

    #[test]
    fn a_timer_set_before_a_crash_never_fires_after_the_recovery() {
        let mut sim = two_nodes(5);
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(1), |_n, ctx| {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            ctx.set_timer(SimDuration::from_millis(50), 2);
        });
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(10),
            Fault::Crash(SiteId(1)),
        );
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(20),
            Fault::Recover(SiteId(1)),
        );
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(30),
            SiteId(1),
            |_n, ctx| {
                ctx.set_timer(SimDuration::from_millis(30), 3);
            },
        );
        sim.run();
        // Timer 1 fired before the crash; timer 2 died with it.
        assert_eq!(sim.world.nodes[1].timer_tokens, vec![1, 3]);
        assert_eq!(sim.world.stats.timers_dropped, 1);
        assert_eq!(sim.world.stats.timers_fired, 2);
    }

    #[test]
    fn invoke_on_down_site_is_skipped() {
        let mut sim = two_nodes(5);
        Cluster::apply_at(sim.scheduler(), SimTime::ZERO, Fault::Crash(SiteId(0)));
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(1),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 5);
            },
        );
        sim.run();
        assert_eq!(sim.world.stats.sent, 0);
    }

    #[test]
    fn link_loss_drops_messages() {
        let cfg = {
            let mut c = NetConfig::uniform(2, LatencyModel::constant_millis(1));
            c.set_drop(SiteId(0), SiteId(1), 1.0);
            c
        };
        let mut sim = Cluster::sim(vec![Pong::default(), Pong::default()], cfg, 1);
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(0), |_n, ctx| {
            ctx.send(SiteId(1), 1);
            ctx.send(SiteId(1), 2);
        });
        sim.run();
        assert_eq!(sim.world.stats.dropped_link, 2);
        assert_eq!(sim.world.stats.delivered, 0);
    }

    #[test]
    fn failure_schedule_translates_to_crash_windows() {
        let mut schedule = FailureSchedule::none(2);
        schedule.add_outage(1, SimTime::from_millis(5), SimTime::from_millis(15));
        let mut sim = two_nodes(1);
        Cluster::apply_failure_schedule(sim.scheduler(), &schedule);
        // During the outage, delivery fails.
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(7),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 1);
            },
        );
        // After it, delivery works.
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(20),
            SiteId(0),
            |_n, ctx| {
                ctx.send(SiteId(1), 2);
            },
        );
        sim.run();
        assert_eq!(sim.world.stats.dropped_down, 1);
        assert_eq!(sim.world.nodes[1].received, vec![(SiteId(0), 2)]);
        assert_eq!(sim.world.nodes[1].crashes, 1);
        assert_eq!(sim.world.nodes[1].recoveries, 1);
    }

    #[test]
    fn touching_outages_keep_the_site_down_across_the_seam() {
        let mut schedule = FailureSchedule::none(2);
        let ms = SimTime::from_millis;
        schedule.add_outage(1, ms(5), ms(15));
        schedule.add_outage(1, ms(15), ms(25));
        let mut sim = two_nodes(1);
        Cluster::apply_failure_schedule(sim.scheduler(), &schedule);
        sim.run_until(ms(20));
        assert!(schedule.is_down(1, ms(20)) && sim.world.is_down(SiteId(1)));
        sim.run();
        assert!(!sim.world.is_down(SiteId(1)));
        assert_eq!(sim.world.nodes[1].crashes, 2);
    }

    #[test]
    fn runtime_loss_burst_opens_and_closes() {
        let mut sim = two_nodes(1);
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(10),
            Fault::DropAll(1.0),
        );
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(20),
            Fault::DropAll(0.0),
        );
        for at in [5u64, 15, 25] {
            Cluster::invoke(
                sim.scheduler(),
                SimTime::from_millis(at),
                SiteId(0),
                |_n, ctx| ctx.send(SiteId(1), 0),
            );
        }
        sim.run();
        // Only the message inside the burst window is lost.
        assert_eq!(sim.world.stats.dropped_link, 1);
        assert_eq!(sim.world.stats.delivered, 2);
    }

    #[test]
    fn runtime_delay_spike_slows_cross_site_messages() {
        let mut sim = two_nodes(10);
        let spike = Fault::ExtraDelay(SimDuration::from_millis(100));
        Cluster::apply_at(sim.scheduler(), SimTime::from_millis(5), spike);
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(6),
            SiteId(0),
            |_n, ctx| ctx.send(SiteId(1), 1),
        );
        sim.run();
        // 6 ms send + 10 ms link + 100 ms spike.
        assert_eq!(sim.now(), SimTime::from_millis(116));
        let before = sim.now();
        Cluster::apply_at(
            sim.scheduler(),
            before,
            Fault::ExtraDelay(SimDuration::ZERO),
        );
        Cluster::invoke(sim.scheduler(), before, SiteId(0), |_n, ctx| {
            ctx.send(SiteId(1), 2)
        });
        sim.run();
        assert_eq!(sim.now(), before + SimDuration::from_millis(10));
    }

    #[test]
    fn runtime_duplication_dial_takes_effect() {
        let mut sim = two_nodes(1);
        Cluster::apply_at(sim.scheduler(), SimTime::ZERO, Fault::Duplicate(1.0));
        Cluster::invoke(
            sim.scheduler(),
            SimTime::from_millis(1),
            SiteId(0),
            |_n, ctx| ctx.send(SiteId(1), 3),
        );
        sim.run();
        assert_eq!(sim.world.stats.duplicated, 1);
        assert_eq!(sim.world.nodes[1].received.len(), 2);
    }

    #[test]
    fn same_seed_same_run() {
        let run = |seed: u64| {
            let mut cfg = NetConfig::uniform(
                3,
                LatencyModel::Uniform {
                    lo: SimDuration::from_millis(1),
                    hi: SimDuration::from_millis(50),
                },
            );
            cfg.set_drop_all(0.2);
            let mut sim = Cluster::sim(
                vec![Pong::default(), Pong::default(), Pong::default()],
                cfg,
                seed,
            );
            for i in 0..20u32 {
                Cluster::invoke(
                    sim.scheduler(),
                    SimTime::from_millis(u64::from(i)),
                    SiteId(0),
                    move |_n, ctx| {
                        ctx.send(SiteId(1), i);
                        ctx.send(SiteId(2), i);
                    },
                );
            }
            sim.run();
            (sim.world.stats, sim.now())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }

    /// One handler call: where, when, and what it was for.
    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Invoke,
        Msg(SiteId, u32),
        Timer(u64),
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, SiteId, Call)>>>;

    /// A node that, on every call, draws from its own stream what to do:
    /// send, set timers — often with a token still pending — and cancel
    /// one. With `cancel` off it never cancels through the transport, and
    /// instead ignores the firings it would have cancelled, as a node
    /// ignores a stale timer: without drawing, sending or logging.
    struct Toy {
        cancel: bool,
        /// Per token, the firings still to come, in the order they come:
        /// the instant, and whether it was cancelled.
        pending: std::collections::BTreeMap<u64, Vec<(SimTime, bool)>>,
        ignored: u64,
        budget: u32,
        log: Log,
    }

    impl Toy {
        fn act(&mut self, ctx: &mut NodeCtx<'_, u32>) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            if ctx.rng().chance(0.6) {
                let to = SiteId(ctx.rng().below(3) as u16);
                let payload = ctx.rng().below(100) as u32;
                ctx.send(to, payload);
            }
            for _ in 0..ctx.rng().below(3) {
                let delay = SimDuration::from_millis(ctx.rng().below(6));
                let token = ctx.rng().below(4);
                let due = ctx.now() + delay;
                let firings = self.pending.entry(token).or_default();
                // Same-token timers fire by instant, then in the order set.
                let at = firings.partition_point(|(t, _)| *t <= due);
                firings.insert(at, (due, false));
                ctx.set_timer(delay, token);
            }
            if ctx.rng().chance(0.4) {
                let token = ctx.rng().below(4);
                let firings = self.pending.entry(token).or_default();
                if self.cancel {
                    firings.clear();
                    ctx.cancel_timer(token);
                } else {
                    firings.iter_mut().for_each(|f| f.1 = true);
                }
            }
        }
    }

    impl Node for Toy {
        type Msg = u32;

        fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut NodeCtx<'_, u32>) {
            let call = (ctx.now(), ctx.self_id(), Call::Msg(from, msg));
            self.log.borrow_mut().push(call);
            self.act(ctx);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_, u32>) {
            let firings = self.pending.get_mut(&token).expect("a timer was set");
            let (due, cancelled) = firings.remove(0);
            assert_eq!(due, ctx.now(), "a timer fires at its instant");
            assert!(!(self.cancel && cancelled), "a cancelled timer fired");
            if cancelled {
                self.ignored += 1;
                return;
            }
            let call = (ctx.now(), ctx.self_id(), Call::Timer(token));
            self.log.borrow_mut().push(call);
            self.act(ctx);
        }

        fn on_crash(&mut self) {
            // The site's timers die with it.
            self.pending.clear();
        }
    }

    /// What a run did: its log, the cancelled firings its nodes ignored,
    /// the transport's counters, and the wake-ups that found their timer
    /// cancelled or dropped by a crash.
    fn toy_run(seed: u64, cancel: bool) -> (Vec<(SimTime, SiteId, Call)>, u64, NetStats, u64) {
        let log = Log::default();
        let toy = |_| Toy {
            cancel,
            pending: Default::default(),
            ignored: 0,
            budget: 300,
            log: log.clone(),
        };
        let cfg = NetConfig::uniform(3, LatencyModel::constant_millis(1));
        let mut sim = Cluster::sim((0..3).map(toy).collect(), cfg, seed);
        let mut control = 0;
        for i in 0..30u64 {
            let site = SiteId((i % 3) as u16);
            let at = SimTime::from_millis(i / 3);
            Cluster::invoke(sim.scheduler(), at, site, |n, ctx| {
                let call = (ctx.now(), ctx.self_id(), Call::Invoke);
                n.log.borrow_mut().push(call);
                n.act(ctx);
            });
            control += 1;
        }
        // Off the millisecond grid the calls run on, so nothing fires at
        // the instant of a crash or a recovery.
        for (site, from, until) in [(1u16, 7_500, 12_500), (2, 20_500, 21_500)] {
            let at = SimTime::from_micros;
            Cluster::apply_at(sim.scheduler(), at(from), Fault::Crash(SiteId(site)));
            Cluster::apply_at(sim.scheduler(), at(until), Fault::Recover(SiteId(site)));
            control += 2;
        }
        sim.run();
        // Gone quiet: every message delivered or dropped, every event (so
        // every closure) run.
        assert!(sim.world.in_flight.is_empty(), "seed {seed}");
        assert_eq!(sim.scheduler().pending(), 0, "seed {seed}");
        let s = sim.world.stats;
        let calls = s.delivered + s.dropped_down + s.timers_fired;
        let orphans = sim.scheduler().executed() - calls - control;
        let ignored = sim.world.nodes.iter().map(|n| n.ignored).sum();
        let log = log.take();
        (log, ignored, s, orphans)
    }

    #[test]
    fn cancelling_removes_exactly_the_cancelled_firings_and_moves_nothing_else() {
        let (mut ties, mut orphans, mut dropped) = (0, 0, 0);
        for seed in 0..24 {
            let (with, none_ignored, cancelled, orphaned) = toy_run(seed, true);
            let (without, ignored, plain, dropped_wakes) = toy_run(seed, false);
            assert_eq!(with, without, "seed {seed}: every live call, in order");
            assert_eq!(none_ignored, 0, "seed {seed}");
            // With nothing cancelled, a wake-up finds no timer only where a
            // crash dropped it.
            assert!(dropped_wakes <= plain.timers_dropped, "seed {seed}");
            assert!(ignored > 0, "seed {seed}: nothing was cancelled");
            let live = plain.timers_fired - ignored;
            assert_eq!(cancelled.timers_fired, live, "seed {seed}");
            assert!(cancelled.timers_dropped <= plain.timers_dropped);
            assert_eq!(
                (cancelled.sent, cancelled.delivered),
                (plain.sent, plain.delivered)
            );
            ties += with.windows(2).filter(|w| w[0].0 == w[1].0).count();
            orphans += orphaned;
            dropped += cancelled.timers_dropped;
        }
        // What the runs had to cover: calls tied on an instant, cancelled
        // wake-ups, and timers a crash dropped.
        assert!(
            ties > 1_000 && orphans > 100 && dropped > 10,
            "{ties} {orphans} {dropped}"
        );
    }

    #[test]
    fn a_quiet_cluster_holds_no_message_and_no_closure() {
        let mut sim = two_nodes(10);
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(0), |_n, ctx| {
            ctx.send(SiteId(1), 1);
            ctx.send(SiteId(1), 2);
            ctx.set_timer(SimDuration::from_millis(3), 9);
        });
        Cluster::apply_at(
            sim.scheduler(),
            SimTime::from_millis(5),
            Fault::Crash(SiteId(1)),
        );
        sim.run_until(SimTime::from_millis(4));
        // Two messages in flight, and their deliveries and the crash's
        // closure queued.
        assert_eq!(sim.world.in_flight.len(), 2);
        assert_eq!(sim.scheduler().pending(), 3);
        sim.run();
        assert_eq!(sim.world.stats.dropped_down, 2);
        assert!(sim.world.in_flight.is_empty());
        assert_eq!(sim.scheduler().pending(), 0);
        // Over the toy runs, which assert the same when they go quiet,
        // crashes catch messages in flight.
        let dropped: u64 = (0..8).map(|seed| toy_run(seed, true).2.dropped_down).sum();
        assert!(dropped > 0);
    }

    #[test]
    fn self_send_travels_over_self_link() {
        let mut sim = two_nodes(10);
        Cluster::invoke(sim.scheduler(), SimTime::ZERO, SiteId(0), |_n, ctx| {
            ctx.send(SiteId(0), 77);
        });
        sim.run();
        assert_eq!(sim.world.nodes[0].received, vec![(SiteId(0), 77)]);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }
}
