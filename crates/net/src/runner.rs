//! Drives a [`Node`] on a [`crate::thread_net::Endpoint`] — one OS thread per
//! protocol node, with timers honoured in (scaled) real time.
//!
//! The simulated transport executes node handlers inline; this runner is
//! its wall-clock twin, one per site under `wv_core`'s
//! `HarnessBuilder::build_on_threads`: the same `SuiteServer` and
//! `ClientNode` that regenerate the paper's tables under `sim_net` serve
//! real concurrent threads here. Between handler calls the thread makes
//! one blocking wait on its inbox, until its next timer is due, a message
//! is due, or a command or a stop wakes it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{self, Receiver, Sender};
use wv_sim::DetRng;

use crate::node::{Effect, Node, NodeCtx};
use crate::thread_net::{Endpoint, Waker};
use crate::timers::TimerQueue;

/// A closure injected into the node's thread (start an operation, inspect
/// state, report results through a captured channel).
pub type NodeCommand<N> =
    Box<dyn FnOnce(&mut N, &mut NodeCtx<'_, <N as Node>::Msg>) + Send + 'static>;

/// A node running on its own thread, attached to a thread-net endpoint.
pub struct NodeRunner<N: Node> {
    cmds: Sender<NodeCommand<N>>,
    stop: Arc<AtomicBool>,
    waker: Waker<N::Msg>,
    join: Option<std::thread::JoinHandle<N>>,
}

impl<N: Node + Send + 'static> NodeRunner<N>
where
    N::Msg: Send + 'static,
{
    /// Spawns the node's thread.
    ///
    /// `time_scale` must match the scale the endpoint's network was built
    /// with so that timer delays and link latencies stay commensurable.
    pub fn spawn(node: N, endpoint: Endpoint<N::Msg>, seed: u64, time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time_scale must be positive"
        );
        let (cmd_tx, cmd_rx) = mpsc::channel::<NodeCommand<N>>();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let waker = endpoint.waker();
        let join = std::thread::Builder::new()
            .name(format!("wv-node-{}", endpoint.id()))
            .spawn(move || run_loop(node, endpoint, cmd_rx, stop2, seed, time_scale))
            .expect("spawn node thread");
        NodeRunner {
            cmds: cmd_tx,
            stop,
            waker,
            join: Some(join),
        }
    }

    /// Injects a closure into the node's thread; its sends and timers take
    /// effect as if a message handler had produced them.
    pub fn invoke(&self, f: impl FnOnce(&mut N, &mut NodeCtx<'_, N::Msg>) + Send + 'static) {
        // A closed channel means the thread stopped; the caller finds out
        // at join time.
        let _ = self.cmds.send(Box::new(f));
        self.waker.wake();
    }

    /// Stops the thread and returns the node.
    pub fn stop(mut self) -> N {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.join
            .take()
            .expect("stop called once")
            .join()
            .expect("node thread panicked")
    }
}

impl<N: Node> Drop for NodeRunner<N> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A node with the thread-side state its handler calls need.
struct Hosted<N: Node> {
    node: N,
    endpoint: Endpoint<N::Msg>,
    rng: DetRng,
    /// Timers yet to fire by due instant, ties in the order they were
    /// set: `sim_net`'s queue (DESIGN.md §8).
    timers: TimerQueue<Instant>,
    time_scale: f64,
}

impl<N: Node> Hosted<N>
where
    N::Msg: Send + 'static,
{
    /// Runs one handler call and applies its effects at once: a send goes
    /// to the endpoint and a timer into `timers` before anything else
    /// runs, so neither waits out the loop's next blocking wait. The call
    /// happens at one instant: its timers with equal delays are due
    /// together, and fire in the order it set them.
    fn call(&mut self, f: impl FnOnce(&mut N, &mut NodeCtx<'_, N::Msg>)) {
        let mut ctx = NodeCtx::new(self.endpoint.now(), self.endpoint.id(), &mut self.rng);
        f(&mut self.node, &mut ctx);
        let now = Instant::now();
        for effect in ctx.take_effects() {
            match effect {
                Effect::Send { to, msg } => {
                    self.endpoint.send(to, msg);
                }
                Effect::Timer { delay, token } => {
                    let scaled = Duration::from_micros(
                        (delay.as_micros() as f64 * self.time_scale).round() as u64,
                    );
                    self.timers.set(now + scaled, token);
                }
                Effect::Cancel { token } => self.timers.cancel(token),
            }
        }
    }
}

fn run_loop<N: Node + Send>(
    node: N,
    endpoint: Endpoint<N::Msg>,
    cmds: Receiver<NodeCommand<N>>,
    stop: Arc<AtomicBool>,
    seed: u64,
    time_scale: f64,
) -> N
where
    N::Msg: Send + 'static,
{
    let mut host = Hosted {
        node,
        endpoint,
        rng: DetRng::new(seed),
        timers: TimerQueue::default(),
        time_scale,
    };
    loop {
        if stop.load(Ordering::SeqCst) {
            return host.node;
        }
        // Fire the timers due now; one a handler sets meanwhile waits for
        // the next pass, behind any message already due.
        let now = Instant::now();
        while let Some(token) = host.timers.pop_if(|due| due <= now) {
            host.call(|node, ctx| node.on_timer(token, ctx));
        }
        while let Ok(cmd) = cmds.try_recv() {
            host.call(cmd);
        }
        let next_timer = host.timers.first();
        if let Some(env) = host.endpoint.wait(next_timer) {
            host.call(|node, ctx| node.on_message(env.from, env.payload, ctx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::site::SiteId;
    use crate::thread_net::ThreadNet;
    use wv_sim::{LatencyModel, SimDuration};

    /// Counts messages; replies to pings; fires a timer once.
    struct Echo {
        got: Vec<u32>,
        timer_fired: Arc<AtomicBool>,
    }

    impl Node for Echo {
        type Msg = u32;

        fn on_message(&mut self, from: SiteId, msg: u32, ctx: &mut NodeCtx<'_, u32>) {
            self.got.push(msg);
            if msg < 100 {
                ctx.send(from, msg + 100);
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut NodeCtx<'_, u32>) {
            self.timer_fired.store(true, Ordering::SeqCst);
        }
    }

    fn echo(flag: &Arc<AtomicBool>) -> Echo {
        Echo {
            got: Vec::new(),
            timer_fired: Arc::clone(flag),
        }
    }

    #[test]
    fn nodes_exchange_messages_across_threads() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(2, LatencyModel::constant_millis(10)),
            3,
            0.1,
        );
        let b_ep = net.endpoints.pop().expect("b");
        let a_ep = net.endpoints.pop().expect("a");
        let fa = Arc::new(AtomicBool::new(false));
        let fb = Arc::new(AtomicBool::new(false));
        let a = NodeRunner::spawn(echo(&fa), a_ep, 1, 0.1);
        let b = NodeRunner::spawn(echo(&fb), b_ep, 2, 0.1);
        // Node A sends 1 to B; B replies 101.
        a.invoke(|_, ctx| ctx.send(SiteId(1), 1));
        std::thread::sleep(Duration::from_millis(100));
        let a_node = a.stop();
        let b_node = b.stop();
        assert_eq!(b_node.got, vec![1]);
        assert_eq!(a_node.got, vec![101]);
    }

    /// A node whose handlers do nothing; commands drive it.
    struct Idle;

    impl Node for Idle {
        type Msg = u32;
        fn on_message(&mut self, _from: SiteId, _msg: u32, _ctx: &mut NodeCtx<'_, u32>) {}
    }

    #[test]
    fn an_invoked_send_leaves_before_the_loop_blocks_again() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(2, LatencyModel::Constant(SimDuration::ZERO)),
            11,
            1.0,
        );
        let peer = net.endpoints.pop().expect("peer");
        let runner = NodeRunner::spawn(Idle, net.endpoints.pop().expect("node"), 1, 1.0);
        // Park the node thread inside a command so the next two are both
        // queued before it looks at either.
        let (start_tx, start_rx) = mpsc::channel::<()>();
        runner.invoke(move |_, _| start_rx.recv().expect("start"));
        runner.invoke(|_, ctx| ctx.send(SiteId(1), 7));
        // The command after the send holds the thread until the peer has
        // the message: the send can only arrive if it left the node when
        // its command returned, not at the end of a loop pass.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        runner.invoke(move |_, _| release_rx.recv().expect("release"));
        start_tx.send(()).expect("node thread alive");
        let got = peer.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).expect("node thread alive");
        assert_eq!(got.map(|env| env.payload), Some(7));
        runner.stop();
    }

    #[test]
    fn timers_fire_in_scaled_time() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(1, LatencyModel::constant_millis(1)),
            5,
            0.01,
        );
        let ep = net.endpoints.pop().expect("ep");
        let flag = Arc::new(AtomicBool::new(false));
        let r = NodeRunner::spawn(echo(&flag), ep, 1, 0.01);
        // 1 virtual second at scale 0.01 = 10 real ms.
        r.invoke(|_, ctx| ctx.set_timer(SimDuration::from_secs(1), 7));
        std::thread::sleep(Duration::from_millis(80));
        assert!(flag.load(Ordering::SeqCst), "timer did not fire");
        r.stop();
    }

    /// Records the tokens of the timers that fire.
    #[derive(Default)]
    struct Alarms(Vec<u64>);

    impl Node for Alarms {
        type Msg = u32;
        fn on_message(&mut self, _from: SiteId, _msg: u32, _ctx: &mut NodeCtx<'_, u32>) {}
        fn on_timer(&mut self, token: u64, _ctx: &mut NodeCtx<'_, u32>) {
            self.0.push(token);
        }
    }

    #[test]
    fn a_cancelled_timer_never_fires_and_one_set_later_with_its_token_does() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(1, LatencyModel::constant_millis(1)),
            9,
            0.01,
        );
        let ep = net.endpoints.pop().expect("ep");
        let r = NodeRunner::spawn(Alarms::default(), ep, 1, 0.01);
        // 10 virtual seconds at scale 0.01 = 100 real ms.
        r.invoke(|_, ctx| {
            ctx.set_timer(SimDuration::from_secs(10), 7);
            ctx.set_timer(SimDuration::from_secs(15), 7);
            ctx.set_timer(SimDuration::from_secs(20), 8);
        });
        r.invoke(|_, ctx| {
            ctx.cancel_timer(7);
            ctx.set_timer(SimDuration::from_secs(30), 7);
        });
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(r.stop().0, vec![8, 7]);
    }

    #[test]
    fn timers_due_at_one_instant_fire_in_the_order_they_were_set() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(1, LatencyModel::constant_millis(1)),
            9,
            1.0,
        );
        let r = NodeRunner::spawn(Alarms::default(), net.endpoints.pop().expect("ep"), 1, 1.0);
        r.invoke(|_, ctx| {
            for token in [5, 3, 9, 1] {
                ctx.set_timer(SimDuration::from_millis(10), token);
            }
        });
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(r.stop().0, vec![5, 3, 9, 1]);
    }

    #[test]
    fn an_invoke_on_an_idle_runner_runs() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(1, LatencyModel::constant_millis(1)),
            13,
            1.0,
        );
        let runner = NodeRunner::spawn(Idle, net.endpoints.pop().expect("ep"), 1, 1.0);
        // No timer and no mail: the thread's wait has no deadline.
        std::thread::sleep(Duration::from_millis(20));
        let (tx, rx) = mpsc::channel();
        runner.invoke(move |_, _| tx.send(()).expect("test thread alive"));
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "the invoke never ran"
        );
        runner.stop();
    }

    #[test]
    fn stop_returns_the_node() {
        let mut net = ThreadNet::<u32>::start(
            NetConfig::uniform(1, LatencyModel::constant_millis(1)),
            7,
            1.0,
        );
        let ep = net.endpoints.pop().expect("ep");
        let flag = Arc::new(AtomicBool::new(false));
        let r = NodeRunner::spawn(echo(&flag), ep, 1, 1.0);
        r.invoke(|n, _| n.got.push(42));
        std::thread::sleep(Duration::from_millis(30));
        let node = r.stop();
        assert_eq!(node.got, vec![42]);
    }
}
