//! Cross-crate integration: the protocol on real threads.
//!
//! The identical `SuiteServer` and `ClientNode` state machines that
//! regenerate the paper's tables under the deterministic simulator here
//! run on OS threads, each waiting on its own inbox for messages that
//! arrive after (scaled-down) link latencies — evidence that nothing in
//! the protocol depends on simulator bookkeeping. The history oracle
//! judges what concurrent pipelined clients see.

use std::collections::HashSet;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use weighted_voting::chaos::check_log;
use weighted_voting::core::client::{ClientNode, ClientOptions, CompletedOp};
use weighted_voting::core::msg::Msg;
use weighted_voting::core::node::SystemNode;
use weighted_voting::core::server::SuiteServer;
use weighted_voting::core::suite::SuiteConfig;
use weighted_voting::net::runner::NodeRunner;
use weighted_voting::net::thread_net::ThreadNet;
use weighted_voting::prelude::*;
use weighted_voting::txn::lock::DeadlockPolicy;

/// Virtual links compressed 10x: 20 ms virtual is 2 ms real.
const SCALE: f64 = 0.1;
const SUITE: ObjectId = ObjectId(1);

/// `servers` majority servers at sites `0..servers`, then `clients`
/// clients, every node on its own runner.
fn start_cluster(
    servers: usize,
    clients: usize,
    links: LatencyModel,
    options: ClientOptions,
) -> (Vec<NodeRunner<SystemNode>>, Vec<NodeRunner<SystemNode>>) {
    let assignment = VoteAssignment::equal(servers);
    let quorum = QuorumSpec::majority(servers as u32);
    let config = SuiteConfig::new(SUITE, assignment, quorum).expect("legal");
    let sites = servers + clients;
    let mut net = ThreadNet::<Msg>::start(NetConfig::uniform(sites, links), 5, SCALE);
    let mut runners = net.endpoints.drain(..).enumerate().map(|(i, ep)| {
        let site = SiteId::from(i);
        let node = if i < servers {
            let policy = DeadlockPolicy::WaitDie;
            SystemNode::Server(SuiteServer::new(site, vec![config.clone()], policy))
        } else {
            let costs = vec![20.0; sites];
            SystemNode::Client(ClientNode::new(
                site,
                vec![config.clone()],
                costs,
                options.clone(),
            ))
        };
        NodeRunner::spawn(node, ep, 10 + i as u64, SCALE)
    });
    let servers = runners.by_ref().take(servers).collect();
    (servers, runners.collect())
}

/// Three servers and one client on 20 ms links.
fn one_client() -> (Vec<NodeRunner<SystemNode>>, NodeRunner<SystemNode>) {
    let options = ClientOptions {
        phase_timeout: SimDuration::from_secs(2),
        ..ClientOptions::default()
    };
    let (servers, mut clients) = start_cluster(3, 1, LatencyModel::constant_millis(20), options);
    (servers, clients.pop().expect("client"))
}

/// Waits (in real time) until the client has `n` completed ops, then
/// returns them.
fn await_completed(client: &NodeRunner<SystemNode>, n: usize) -> Vec<CompletedOp> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (tx, rx) = mpsc::channel();
        client.invoke(move |node, _ctx| {
            let c = node.as_client_mut().expect("client node");
            let _ = tx.send(c.completed.clone());
        });
        let snapshot = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("client thread alive");
        if snapshot.len() >= n {
            return snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {n} ops; have {}",
            snapshot.len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn write_then_read_over_real_threads() {
    let (servers, client) = one_client();
    client.invoke(move |node, ctx| {
        let c = node.as_client_mut().expect("client");
        c.start_write(SUITE, &b"threaded"[..], ctx);
    });
    let ops = await_completed(&client, 1);
    let w = ops[0].outcome.as_ref().expect("write committed");
    assert_eq!(w.version, Version(1));

    client.invoke(move |node, ctx| {
        let c = node.as_client_mut().expect("client");
        c.start_read(SUITE, ctx);
    });
    let ops = await_completed(&client, 2);
    let r = ops[1].outcome.as_ref().expect("read succeeded");
    assert_eq!(r.version, Version(1));
    assert_eq!(r.value.as_deref(), Some(&b"threaded"[..]));

    // Check at least a quorum of servers durably hold version 1.
    let mut held = 0;
    for s in servers {
        let node = s.stop();
        let srv = node.as_server().expect("server node");
        if srv.data_version(SUITE) == Version(1) {
            held += 1;
        }
    }
    assert!(
        held >= 2,
        "committed version must live at a quorum, held={held}"
    );
    client.stop();
}

#[test]
fn sequential_writes_serialise_over_real_threads() {
    let (servers, client) = one_client();
    for i in 0..5u32 {
        client.invoke(move |node, ctx| {
            let c = node.as_client_mut().expect("client");
            c.start_write(SUITE, format!("v{i}").into_bytes(), ctx);
        });
        // Wait for this write before issuing the next, so versions are
        // deterministic.
        let ops = await_completed(&client, i as usize + 1);
        let ok = ops[i as usize].outcome.as_ref().expect("committed");
        assert_eq!(ok.version, Version(u64::from(i) + 1));
    }
    client.invoke(move |node, ctx| {
        let c = node.as_client_mut().expect("client");
        c.start_read(SUITE, ctx);
    });
    let ops = await_completed(&client, 6);
    let r = ops[5].outcome.as_ref().expect("read");
    assert_eq!(r.version, Version(5));
    assert_eq!(r.value.as_deref(), Some(&b"v4"[..]));
    for s in servers {
        s.stop();
    }
    client.stop();
}

/// Per client: operations issued, and the window each keeps.
const OPS: usize = 300;
const DEPTH: usize = 4;

/// The `i`th operation of client `k`: a write of a payload unique to it,
/// or a read.
fn payload(k: usize, i: usize) -> Option<Vec<u8>> {
    ((i + k) % 5 < 2).then(|| format!("c{k}op{i}").into_bytes())
}

/// Keeps every client's window full until each has issued [`OPS`]
/// operations, and returns the merged completion log once all have ended.
fn run_clients(clients: &[NodeRunner<SystemNode>]) -> Vec<CompletedOp> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut issued = vec![0; clients.len()];
    let mut log = Vec::new();
    while log.len() < clients.len() * OPS {
        let (tx, rx) = mpsc::channel();
        for (k, client) in clients.iter().enumerate() {
            let (next, tx) = (issued[k], tx.clone());
            client.invoke(move |node, ctx| {
                let c = node.as_client_mut().expect("client node");
                let room = (2 * DEPTH).saturating_sub(c.in_flight()).min(OPS - next);
                for i in next..next + room {
                    match payload(k, i) {
                        Some(value) => c.start_write(SUITE, value, ctx),
                        None => c.start_read(SUITE, ctx),
                    };
                }
                let _ = tx.send((k, room, c.take_completed()));
            });
        }
        drop(tx);
        for (k, room, done) in rx.iter() {
            issued[k] += room;
            log.extend(done);
        }
        assert!(
            Instant::now() < deadline,
            "timed out with {} of {} operations ended",
            log.len(),
            clients.len() * OPS
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    log
}

#[test]
fn pipelined_clients_on_threads_keep_a_single_history() {
    let options = ClientOptions {
        pipeline_depth: Some(DEPTH),
        ..ClientOptions::default()
    };
    let links = LatencyModel::Uniform {
        lo: SimDuration::from_millis(5),
        hi: SimDuration::from_millis(30),
    };
    let (servers, clients) = start_cluster(5, 4, links, options);
    let log = run_clients(&clients);
    let sent: HashSet<Vec<u8>> = (0..clients.len())
        .flat_map(|k| (0..OPS).filter_map(move |i| payload(k, i)))
        .collect();
    // Thread scheduling can hold an ack back past a later write's, so the
    // order check is the pairwise one.
    let violations = check_log(&log, Some(&sent), false);
    assert!(violations.is_empty(), "history violations: {violations:?}");
    let writes = log.iter().filter(|o| o.kind == OpKind::Write);
    let latest = writes
        .filter_map(|o| o.outcome.as_ref().ok())
        .max_by_key(|ok| ok.version)
        .expect("a write committed");
    // Every operation has ended, so a served read sees the latest write.
    let read = (1..=10)
        .map(|n| {
            clients[0].invoke(|node, ctx| {
                node.as_client_mut().expect("client").start_read(SUITE, ctx);
            });
            await_completed(&clients[0], n).pop().expect("a read ended")
        })
        .find(|read| read.outcome.is_ok())
        .expect("a read served in ten tries");
    let got = read.outcome.as_ref().expect("served");
    assert_eq!(got.version, latest.version);
    let value = got.value.as_ref().expect("contents").to_vec();
    assert!(
        sent.contains(&value),
        "the last read returned a value never written"
    );
    for runner in clients.into_iter().chain(servers) {
        runner.stop();
    }
}
