//! The wall-clock transport: OS threads, and one deadline heap per site.
//!
//! `wv_core`'s `HarnessBuilder::build_on_threads` runs a cluster on this
//! transport, to show the protocols are not simulator artifacts: the same
//! [`NetConfig`] drives real threads, with sampled link latencies imposed
//! in real time (scaled down so the paper's 750 ms links stay quick). Each
//! site's inbox is the delay line: a sender pushes a message straight into
//! the receiver's heap, keyed by the instant it is due, and the receiver
//! pops it once that instant has passed. No thread but the sites' own
//! carries a message.
//!
//! Links mirror [`crate::sim_net`]'s: loss is decided and latency sampled
//! at send time, and message order between two sites may invert when
//! latencies differ, as in the simulator. A [`crate::Fault`] is the
//! simulator's alone (`Cluster::apply_at`); this transport injects none.

use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wv_sim::{DetRng, SimTime};

use crate::config::NetConfig;
use crate::sim_net::NetStats;
use crate::site::{Envelope, SiteId};

/// A message in its receiver's inbox, due at `deliver_at`.
struct Pending<M> {
    deliver_at: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}

impl<M> Eq for Pending<M> {}

impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (deliver_at, seq).
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// What a site's inbox holds: the messages on their way to it, and whether
/// its runner has been woken since it last looked.
struct Queue<M> {
    heap: BinaryHeap<Pending<M>>,
    seq: u64,
    woken: bool,
}

/// One site's inbox. Its condvar is signalled when the heap gets a new
/// top, or on a wake: nothing else can end its receiver's wait early.
struct Inbox<M> {
    queue: Mutex<Queue<M>>,
    changed: Condvar,
}

/// One site's connection to the network: its own inbox and every other
/// site's. Hand each one to its own thread.
pub struct Endpoint<M> {
    id: SiteId,
    epoch: Instant,
    config: Arc<NetConfig>,
    stats: Arc<Mutex<NetStats>>,
    time_scale: f64,
    rng: DetRng,
    inboxes: Arc<[Inbox<M>]>,
}

impl<M: Send + 'static> Endpoint<M> {
    /// This endpoint's site id.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// Virtual time elapsed since the network was created, expressed in
    /// *unscaled* terms (so latencies compare with `NetConfig` models).
    pub fn now(&self) -> SimTime {
        let real = self.epoch.elapsed().as_micros() as u64;
        let unscaled = (real as f64 / self.time_scale).round() as u64;
        SimTime::from_micros(unscaled)
    }

    /// Sends `msg` to `to`, applying loss and latency: it goes into `to`'s
    /// inbox, due once the sampled latency has passed.
    ///
    /// Returns `true` if the message entered the network, `false` if it was
    /// dropped at send time.
    pub fn send(&mut self, to: SiteId, msg: M) -> bool {
        let latency = {
            let mut stats = self.stats.lock().expect("net stats lock");
            stats.sent += 1;
            if self.config.sample_drop(self.id, to, &mut self.rng) {
                stats.dropped_link += 1;
                return false;
            }
            self.config.sample_latency(self.id, to, &mut self.rng)
        };
        let scaled =
            Duration::from_micros((latency.as_micros() as f64 * self.time_scale).round() as u64);
        let env = Envelope {
            from: self.id,
            to,
            sent_at: self.now(),
            payload: msg,
        };
        let inbox = &self.inboxes[to.index()];
        let mut queue = inbox.queue.lock().expect("inbox lock");
        let seq = queue.seq;
        queue.seq += 1;
        queue.heap.push(Pending {
            deliver_at: Instant::now() + scaled,
            seq,
            env,
        });
        // The receiver waits for the top alone, so only a new top can
        // change how long it waits.
        if queue.heap.peek().is_some_and(|top| top.seq == seq) {
            inbox.changed.notify_one();
        }
        true
    }

    /// Receives the next message, waiting up to `timeout` (in real time).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.wait(Some(Instant::now() + timeout))
    }

    /// Blocks until a message is due. Nothing shuts the network down, so
    /// this returns `None` only to a runner's wake.
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.wait(None)
    }

    /// Pops the earliest message once it is due, waiting until then or
    /// until `deadline`. `None` at the deadline, or once a [`Waker`] has
    /// woken this site since its last wait.
    pub(crate) fn wait(&self, deadline: Option<Instant>) -> Option<Envelope<M>> {
        let inbox = &self.inboxes[self.id.index()];
        let mut queue = inbox.queue.lock().expect("inbox lock");
        loop {
            if std::mem::take(&mut queue.woken) {
                return None;
            }
            let now = Instant::now();
            let top = queue.heap.peek().map(|p| p.deliver_at);
            if top.is_some_and(|at| at <= now) {
                let env = queue.heap.pop().expect("peeked").env;
                drop(queue);
                self.stats.lock().expect("net stats lock").delivered += 1;
                return Some(env);
            }
            if deadline.is_some_and(|at| at <= now) {
                return None;
            }
            queue = match top.into_iter().chain(deadline).min() {
                Some(until) => {
                    inbox
                        .changed
                        .wait_timeout(queue, until - now)
                        .expect("inbox lock")
                        .0
                }
                None => inbox.changed.wait(queue).expect("inbox lock"),
            };
        }
    }

    /// A handle another thread can wake this site's wait with.
    pub(crate) fn waker(&self) -> Waker<M> {
        Waker {
            inboxes: Arc::clone(&self.inboxes),
            site: self.id.index(),
        }
    }
}

/// Ends one site's current or next [`Endpoint`] wait early.
pub(crate) struct Waker<M> {
    inboxes: Arc<[Inbox<M>]>,
    site: usize,
}

impl<M> Waker<M> {
    pub(crate) fn wake(&self) {
        let inbox = &self.inboxes[self.site];
        inbox.queue.lock().expect("inbox lock").woken = true;
        inbox.changed.notify_one();
    }
}

/// A handle on a running thread network's counters.
#[derive(Clone)]
pub struct NetHandle {
    stats: Arc<Mutex<NetStats>>,
}

impl NetHandle {
    /// A snapshot of the transport counters.
    pub fn stats(&self) -> NetStats {
        *self.stats.lock().expect("net stats lock")
    }
}

/// A thread network for message type `M`. It owns no thread: dropping it
/// leaves the endpoints delivering.
pub struct ThreadNet<M> {
    /// One endpoint per site; take them out and move each to its thread.
    pub endpoints: Vec<Endpoint<M>>,
    /// The shared counters.
    pub handle: NetHandle,
}

impl<M: Send + 'static> ThreadNet<M> {
    /// Builds a network over `config`, with latencies multiplied by
    /// `time_scale` (use e.g. `0.01` to turn the paper's 750 ms links into
    /// 7.5 ms for fast tests; `1.0` for faithful timing).
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is not finite and positive.
    pub fn start(config: NetConfig, seed: u64, time_scale: f64) -> ThreadNet<M> {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be positive"
        );
        let sites = config.sites();
        let config = Arc::new(config);
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let inboxes: Arc<[Inbox<M>]> = (0..sites)
            .map(|_| Inbox {
                queue: Mutex::new(Queue {
                    heap: BinaryHeap::new(),
                    seq: 0,
                    woken: false,
                }),
                changed: Condvar::new(),
            })
            .collect();
        let epoch = Instant::now();
        let root = DetRng::new(seed);
        let endpoints = (0..sites)
            .map(|site| Endpoint {
                id: SiteId::from(site),
                epoch,
                config: Arc::clone(&config),
                stats: Arc::clone(&stats),
                time_scale,
                rng: root.fork(site as u64 + 1),
                inboxes: Arc::clone(&inboxes),
            })
            .collect();
        ThreadNet {
            endpoints,
            handle: NetHandle { stats },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_sim::LatencyModel;

    fn fast_net(sites: usize) -> ThreadNet<u32> {
        ThreadNet::start(
            NetConfig::uniform(sites, LatencyModel::constant_millis(20)),
            7,
            0.05, // 20 ms links become 1 ms of real time
        )
    }

    #[test]
    fn delivers_between_threads() {
        let mut net = fast_net(2);
        let b = net.endpoints.pop().expect("endpoint 1");
        let mut a = net.endpoints.pop().expect("endpoint 0");
        assert!(a.send(SiteId(1), 42));
        let env = b.recv_timeout(Duration::from_secs(2)).expect("delivery");
        assert_eq!(env.payload, 42);
        assert_eq!(env.from, SiteId(0));
        assert_eq!(env.to, SiteId(1));
        assert_eq!(net.handle.stats().delivered, 1);
    }

    #[test]
    fn latency_is_imposed() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(2, LatencyModel::constant_millis(100)),
            7,
            0.5, // 100 ms link -> 50 ms real
        );
        let b = net.endpoints.pop().expect("endpoint 1");
        let mut a = net.endpoints.pop().expect("endpoint 0");
        let start = Instant::now();
        a.send(SiteId(1), 1);
        let _ = b.recv_timeout(Duration::from_secs(2)).expect("delivery");
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(40),
            "too fast: {elapsed:?}"
        );
    }

    #[test]
    fn many_threads_exchange_messages() {
        let mut net = fast_net(4);
        let handle = net.handle.clone();
        let endpoints = std::mem::take(&mut net.endpoints);
        let mut joins = Vec::new();
        for mut ep in endpoints {
            joins.push(std::thread::spawn(move || {
                let me = ep.id();
                // Everyone sends one message to every other site, then
                // counts what arrives.
                for to in SiteId::all(4) {
                    if to != me {
                        ep.send(to, u32::from(me.0));
                    }
                }
                let mut got = 0;
                while got < 3 {
                    match ep.recv_timeout(Duration::from_secs(5)) {
                        Some(_) => got += 1,
                        None => break,
                    }
                }
                got
            }));
        }
        let total: u32 = joins.into_iter().map(|j| j.join().expect("thread")).sum();
        assert_eq!(total, 12);
        assert_eq!(handle.stats().delivered, 12);
    }

    #[test]
    fn dropping_the_net_leaves_its_endpoints_delivering() {
        let mut net = fast_net(2);
        let b = net.endpoints.pop().expect("endpoint 1");
        let mut a = net.endpoints.pop().expect("endpoint 0");
        drop(net);
        assert!(a.send(SiteId(1), 5));
        let env = b.recv_timeout(Duration::from_secs(2)).expect("delivery");
        assert_eq!(env.payload, 5);
    }

    #[test]
    fn a_later_message_on_a_faster_link_arrives_first() {
        let mut config = NetConfig::uniform(3, LatencyModel::constant_millis(5));
        config.set_link(SiteId(0), SiteId(2), LatencyModel::constant_millis(500));
        let mut net = ThreadNet::<u32>::start(config, 7, 1.0);
        let c = net.endpoints.pop().expect("endpoint 2");
        let mut b = net.endpoints.pop().expect("endpoint 1");
        let mut a = net.endpoints.pop().expect("endpoint 0");
        let receiver = std::thread::spawn(move || {
            let first = c.recv_timeout(Duration::from_secs(5)).expect("first");
            let at = Instant::now();
            let second = c.recv_timeout(Duration::from_secs(5)).expect("second");
            (first.from, second.from, at)
        });
        // The receiver is waiting on the slow message when the fast one
        // becomes its inbox's top, and must wait for that one instead.
        std::thread::sleep(Duration::from_millis(20));
        assert!(a.send(SiteId(2), 0));
        std::thread::sleep(Duration::from_millis(20));
        let sent = Instant::now();
        assert!(b.send(SiteId(2), 1));
        let (first, second, at) = receiver.join().expect("receiver");
        assert_eq!((first, second), (SiteId(1), SiteId(0)));
        let waited = at - sent;
        assert!(
            waited < Duration::from_millis(250),
            "the fast message waited out the slow one: {waited:?}"
        );
    }

    #[test]
    fn endpoint_now_reports_unscaled_time() {
        let net = ThreadNet::<u32>::start(
            NetConfig::uniform(1, LatencyModel::constant_millis(1)),
            7,
            0.01,
        );
        std::thread::sleep(Duration::from_millis(5));
        // 5 real ms at scale 0.01 is 500 virtual ms.
        let t = net.endpoints[0].now();
        assert!(t >= SimTime::from_millis(400), "virtual now {t}");
    }
}
