//! Isolated kernels: one layer at a time, at the workload's shapes
//! (payload size, suite count, the 512-record checkpoint threshold, the
//! measured pending-event depth), timed with `Instant` around public
//! functions. Shapes follow `crates/bench/benches/*`.
//!
//! Each kernel reports the median over [`REPS`] repetitions of the mean
//! time of one operation; a kernel of a layer the workload never enters
//! reports 0.

use std::hint::black_box;
use std::time::{Duration, Instant};

use wv_core::msg::{Msg, ReqId};
use wv_core::quorum::cheapest_quorum_presorted;
use wv_core::votes::VoteAssignment;
use wv_net::sim_net::Cluster;
use wv_net::thread_net::ThreadNet;
use wv_net::{NetConfig, Node, NodeCtx, SiteId};
use wv_sim::{LatencyModel, Scheduler, Sim, SimDuration, SimTime};
use wv_storage::{frame, Container, ObjectId, Record, TxId, Version};
use wv_txn::{DeadlockPolicy, LockMode, ShardedLockManager, TxToken};

use crate::cluster;
use crate::spec::{Spec, Transport};
use crate::stats;

const REPS: usize = 7;
/// WAL records at which `SuiteServer` checkpoints its container.
const CHECKPOINT_RECORDS: usize = 512;
/// Transactions piling onto the one contended object.
const CONTENDERS: u64 = 64;

/// How much work the kernels do: full runs use every iteration, smoke
/// runs and self-tests divide the counts.
#[derive(Clone, Copy)]
struct Work(u64);

impl Work {
    fn iters(self, n: u64) -> u64 {
        (n / self.0).max(8)
    }
}

/// Median over repetitions of `f`'s nanoseconds per operation; `f`
/// returns how long it ran and how many operations it did.
fn median_ns(mut f: impl FnMut() -> (Duration, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (d, n) = f();
            d.as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    stats::median(&samples)
}

fn value(spec: &Spec) -> Vec<u8> {
    (0..spec.payload).map(|i| i as u8).collect()
}

fn encode_crc_ns(spec: &Spec, w: Work) -> f64 {
    let record = Record::Put {
        tx: TxId(7),
        object: ObjectId(1),
        version: Version(9),
        value: value(spec).into(),
    };
    let mut buf = Vec::with_capacity(spec.payload + 64);
    median_ns(|| {
        let n = w.iters(20_000);
        let t = Instant::now();
        for _ in 0..n {
            buf.clear();
            black_box(frame::encode_into(&mut buf, black_box(&record)));
        }
        (t.elapsed(), n)
    })
}

/// One 2PC participant cycle, as the server's write path drives its
/// container, with the server's checkpoint rule.
fn commit_cycle(c: &mut Container, suites: u64, t: u64, v: &[u8]) {
    let tx = c.begin().expect("container is up");
    c.stage_put(tx, ObjectId(1 + t % suites), Version(t + 1), v.to_vec())
        .expect("stage");
    c.prepare_with_note(tx, t).expect("prepare");
    c.commit(tx).expect("commit");
    if c.wal().len() >= CHECKPOINT_RECORDS {
        c.checkpoint().expect("checkpoint");
    }
}

fn commit_cycle_ns(spec: &Spec, w: Work) -> f64 {
    let v = value(spec);
    median_ns(|| {
        let mut c = Container::new();
        let n = w.iters(4_000);
        let t = Instant::now();
        for i in 0..n {
            commit_cycle(&mut c, spec.suites as u64, i, &v);
        }
        black_box(c.wal().flushes());
        (t.elapsed(), n)
    })
}

/// A container whose log is one record short of the checkpoint threshold.
fn full_log(spec: &Spec) -> Container {
    let v = value(spec);
    let mut c = Container::new();
    let mut t = 0;
    while c.wal().len() + 4 < CHECKPOINT_RECORDS {
        let tx = c.begin().expect("container is up");
        c.stage_put(
            tx,
            ObjectId(1 + t % spec.suites as u64),
            Version(t + 1),
            v.clone(),
        )
        .expect("stage");
        c.prepare_with_note(tx, t).expect("prepare");
        c.commit(tx).expect("commit");
        t += 1;
    }
    c
}

fn checkpoint_us(spec: &Spec, w: Work) -> f64 {
    median_ns(|| {
        let mut spent = Duration::ZERO;
        let n = w.iters(20);
        for _ in 0..n {
            let mut c = full_log(spec);
            let t = Instant::now();
            c.checkpoint().expect("checkpoint");
            spent += t.elapsed();
            black_box(c.wal().len());
        }
        (spent, n)
    }) / 1e3
}

fn recover_ns_per_record(spec: &Spec, w: Work) -> f64 {
    let full = full_log(spec);
    let records = full.wal().len() as u64;
    median_ns(|| {
        let n = w.iters(20);
        let t = Instant::now();
        for _ in 0..n {
            black_box(Container::recover_from(full.wal().clone()).len());
        }
        (t.elapsed(), n * records)
    })
}

fn lock_release_ns(spec: &Spec, w: Work) -> f64 {
    median_ns(|| {
        let mut lm = ShardedLockManager::new(DeadlockPolicy::WaitDie);
        let n = w.iters(50_000);
        let t = Instant::now();
        for i in 0..n {
            let tx = TxToken::new(i, i);
            black_box(lm.lock(
                tx,
                ObjectId(1 + i % spec.suites as u64),
                LockMode::Exclusive,
            ));
            black_box(lm.release_all(tx).len());
        }
        (t.elapsed(), n)
    })
}

/// `CONTENDERS` transactions asking for one object in a scrambled age
/// order: under wait-die the older ones queue, the younger ones die.
fn contended_lock_ns(w: Work) -> f64 {
    median_ns(|| {
        let rounds = w.iters(200);
        let mut spent = Duration::ZERO;
        for r in 0..rounds {
            let mut lm = ShardedLockManager::new(DeadlockPolicy::WaitDie);
            let t = Instant::now();
            for i in 0..CONTENDERS {
                let age = (i * 37 + r) % CONTENDERS;
                black_box(lm.lock(TxToken::new(age, age), ObjectId(1), LockMode::Exclusive));
            }
            for age in 0..CONTENDERS {
                black_box(lm.release_all(TxToken::new(age, age)).len());
            }
            spent += t.elapsed();
        }
        (spent, rounds * CONTENDERS)
    })
}

fn plan_ns(spec: &Spec, w: Work) -> f64 {
    let mut entries: Vec<(SiteId, u32)> = (0..spec.servers).map(|i| (SiteId::from(i), 1)).collect();
    if spec.weak_clients {
        entries.extend(cluster::client_sites(spec).into_iter().map(|s| (s, 0)));
    }
    let sorted: Vec<SiteId> = entries.iter().rev().map(|e| e.0).collect();
    let assignment = VoteAssignment::new(entries);
    median_ns(|| {
        let n = w.iters(100_000);
        let t = Instant::now();
        for _ in 0..n {
            black_box(cheapest_quorum_presorted(
                black_box(&assignment),
                spec.quorum(),
                black_box(&sorted),
            ));
        }
        (t.elapsed(), n)
    })
}

/// Scheduler push + pop with `depth` events pending: `depth` chains that
/// each re-arm themselves a pseudo-random delay ahead.
fn sched_event_ns(depth: usize, w: Work) -> f64 {
    fn tick(x: u64) -> impl FnOnce(&mut u64, &mut Scheduler<u64>) {
        move |left, s| {
            if *left > 0 {
                *left -= 1;
                let x = wv_sim::derive_seed(x, 1);
                s.after(SimDuration::from_micros(1 + x % 50_000), tick(x));
            }
        }
    }
    median_ns(|| {
        let n = w.iters(200_000);
        let mut sim = Sim::new(n);
        for i in 0..depth.max(1) as u64 {
            sim.scheduler().at(SimTime::from_micros(i), tick(i));
        }
        let t = Instant::now();
        let ran = sim.run();
        (t.elapsed(), ran)
    })
}

/// A node that forwards every message to the next site.
struct Relay {
    left: u64,
    sites: u16,
}

impl Node for Relay {
    type Msg = Msg;
    fn on_message(&mut self, _from: SiteId, m: Msg, ctx: &mut NodeCtx<'_, Msg>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(SiteId((ctx.self_id().0 + 1) % self.sites), m);
        }
    }
}

/// One delivery on `Cluster::sim` under the workload's `NetConfig` with
/// `depth` protocol messages (a `ReadResp` carrying the workload's
/// payload) in flight: scheduler pop, handler dispatch on a do-nothing
/// node, effect routing, latency sample, scheduler push.
fn sim_deliver_ns(spec: &Spec, depth: usize, w: Work) -> f64 {
    let net: NetConfig = cluster::net_config(spec);
    let sites = net.sites() as u16;
    let payload = value(spec);
    median_ns(|| {
        let n = w.iters(200_000);
        let nodes = (0..sites)
            .map(|_| Relay {
                left: n / u64::from(sites),
                sites,
            })
            .collect();
        let mut sim = Cluster::sim(nodes, net.clone(), 3);
        for i in 0..depth.max(1) as u64 {
            let from = SiteId((i % u64::from(sites)) as u16);
            let msg = Msg::ReadResp {
                suite: ObjectId(1),
                req: ReqId(i),
                version: Version(i),
                value: payload.clone().into(),
            };
            Cluster::invoke(sim.scheduler(), SimTime::ZERO, from, move |_n, ctx| {
                ctx.send(SiteId((from.0 + 1) % sites), msg);
            });
        }
        let t = Instant::now();
        sim.run();
        (t.elapsed(), sim.world.stats.delivered)
    })
}

/// One hop on a zero-delay `ThreadNet`: endpoint send, router thread,
/// receiver wake-up. Half of a ping-pong round trip.
fn thread_hop_us(w: Work) -> f64 {
    let cfg = NetConfig::uniform(2, LatencyModel::Constant(SimDuration::ZERO));
    median_ns(|| {
        let mut net = ThreadNet::<u64>::start(cfg.clone(), 5, 1.0);
        let mut b = net.endpoints.pop().expect("endpoint 1");
        let mut a = net.endpoints.pop().expect("endpoint 0");
        let n = w.iters(2_000);
        let echo = std::thread::spawn(move || {
            for _ in 0..n {
                let Some(env) = b.recv() else { return };
                b.send(SiteId(0), env.payload);
            }
        });
        let t = Instant::now();
        for i in 0..n {
            a.send(SiteId(1), i);
            black_box(a.recv());
        }
        let spent = t.elapsed();
        echo.join().expect("echo thread");
        (spent, 2 * n)
    }) / 1e3
}

/// Runs every kernel that applies to `spec`. `pending_depth` is the mean
/// number of pending scheduler events the traced pass observed.
pub fn run(spec: &Spec, pending_depth: usize, div: usize) -> Vec<(&'static str, f64)> {
    let w = Work(div.max(1) as u64);
    let mut out = vec![
        ("storage.frame.encode_crc_ns", encode_crc_ns(spec, w)),
        (
            "storage.container.commit_cycle_ns",
            commit_cycle_ns(spec, w),
        ),
        ("storage.container.checkpoint_us", checkpoint_us(spec, w)),
        (
            "storage.container.recover_ns_per_record",
            recover_ns_per_record(spec, w),
        ),
        ("txn.shard.lock_release_ns", lock_release_ns(spec, w)),
        ("txn.shard.contended_lock_ns", contended_lock_ns(w)),
        ("core.quorum.plan_ns", plan_ns(spec, w)),
    ];
    match spec.transport {
        Transport::Sim => {
            out.push(("sim.sched.event_ns", sched_event_ns(pending_depth, w)));
            out.push((
                "net.sim_net.deliver_ns",
                sim_deliver_ns(spec, pending_depth, w),
            ));
        }
        Transport::Thread => out.push(("net.thread_net.hop_us", thread_hop_us(w))),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn every_kernel_reports_a_positive_time() {
        for name in ["sim-write", "thread-mixed"] {
            let wl = spec::workload(name).expect("known").scaled_down(50);
            for (metric, v) in run(&wl, 64, 50) {
                assert!(spec::metric(metric).is_some(), "{metric} is not declared");
                assert!(v > 0.0 && v.is_finite(), "{metric} = {v}");
            }
        }
    }
}
