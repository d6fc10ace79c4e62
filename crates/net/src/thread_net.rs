//! The wall-clock transport: OS threads, channels, and a delay router.
//!
//! Integration tests use this transport to show the protocols are not
//! simulator artifacts: the same [`NetConfig`] drives real
//! std::sync::mpsc channels, with one router thread imposing sampled link
//! latencies (optionally scaled down so the paper's 750 ms links don't make
//! the test suite slow).
//!
//! Links mirror [`crate::sim_net`]'s: loss is decided and latency sampled
//! at send time, and message order between two sites may invert when
//! latencies differ, exactly as in the simulator. Partitions and crashes
//! are the simulator's alone; this transport injects no faults.

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;
use wv_sim::{DetRng, SimTime};

use crate::config::NetConfig;
use crate::sim_net::NetStats;
use crate::site::{Envelope, SiteId};

enum Cmd<M> {
    Route {
        deliver_at: Instant,
        env: Envelope<M>,
    },
    Stop,
}

struct HeapItem<M> {
    deliver_at: Instant,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for HeapItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}

impl<M> Eq for HeapItem<M> {}

impl<M> PartialOrd for HeapItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for HeapItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (deliver_at, seq).
        (other.deliver_at, other.seq).cmp(&(self.deliver_at, self.seq))
    }
}

/// One site's connection to the network.
///
/// An endpoint is `Send` but not `Sync`: hand each one to its own thread.
pub struct Endpoint<M> {
    id: SiteId,
    epoch: Instant,
    config: Arc<NetConfig>,
    stats: Arc<Mutex<NetStats>>,
    time_scale: f64,
    rng: DetRng,
    router: Sender<Cmd<M>>,
    inbox: Receiver<Envelope<M>>,
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

    /// Sends `msg` to `to`, applying loss and latency.
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
        self.router
            .send(Cmd::Route {
                deliver_at: Instant::now() + scaled,
                env,
            })
            .is_ok()
    }

    /// Receives the next message, waiting up to `timeout` (in real time).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Envelope<M>> {
        self.inbox.recv_timeout(timeout).ok()
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.inbox.try_recv().ok()
    }

    /// Blocks until a message arrives or the network shuts down.
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.inbox.recv().ok()
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

/// A running thread network for message type `M`.
pub struct ThreadNet<M> {
    /// One endpoint per site; take them out and move each to its thread.
    pub endpoints: Vec<Endpoint<M>>,
    /// The shared counters.
    pub handle: NetHandle,
    router: Sender<Cmd<M>>,
    router_thread: Option<std::thread::JoinHandle<()>>,
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
        let (router_tx, router_rx) = mpsc::channel::<Cmd<M>>();
        let mut inbox_txs = Vec::with_capacity(sites);
        let mut endpoints = Vec::with_capacity(sites);
        let epoch = Instant::now();
        let root = DetRng::new(seed);
        for site in 0..sites {
            let (tx, rx) = mpsc::channel::<Envelope<M>>();
            inbox_txs.push(tx);
            endpoints.push(Endpoint {
                id: SiteId::from(site),
                epoch,
                config: Arc::clone(&config),
                stats: Arc::clone(&stats),
                time_scale,
                rng: root.fork(site as u64 + 1),
                router: router_tx.clone(),
                inbox: rx,
            });
        }
        let router_stats = Arc::clone(&stats);
        let router_thread = std::thread::Builder::new()
            .name("wv-net-router".into())
            .spawn(move || router_loop(router_rx, inbox_txs, router_stats))
            .expect("spawn router thread");
        ThreadNet {
            endpoints,
            handle: NetHandle { stats },
            router: router_tx,
            router_thread: Some(router_thread),
        }
    }
}

impl<M> Drop for ThreadNet<M> {
    fn drop(&mut self) {
        let _ = self.router.send(Cmd::Stop);
        if let Some(t) = self.router_thread.take() {
            let _ = t.join();
        }
    }
}

fn router_loop<M>(
    rx: Receiver<Cmd<M>>,
    inboxes: Vec<Sender<Envelope<M>>>,
    stats: Arc<Mutex<NetStats>>,
) {
    let mut heap: BinaryHeap<HeapItem<M>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut stopping = false;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|i| i.deliver_at <= now) {
            let item = heap.pop().expect("peeked");
            stats.lock().expect("net stats lock").delivered += 1;
            // A dropped receiver just means the site thread exited.
            let _ = inboxes[item.env.to.index()].send(item.env);
        }
        if stopping && heap.is_empty() {
            return;
        }
        let timeout = heap
            .peek()
            .map(|i| i.deliver_at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(Cmd::Route { deliver_at, env }) => {
                heap.push(HeapItem {
                    deliver_at,
                    seq,
                    env,
                });
                seq += 1;
            }
            Ok(Cmd::Stop) => stopping = true,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => stopping = true,
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
