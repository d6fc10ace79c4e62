//! Cross-crate integration: the protocol on real threads.
//!
//! The identical `SuiteServer` and `ClientNode` state machines that
//! regenerate the paper's tables under the deterministic simulator here
//! run on OS threads, built by the same `HarnessBuilder` with
//! `build_on_threads`: each node waits on its own inbox for messages that
//! arrive after (scaled-down) link latencies — evidence that nothing in
//! the protocol depends on simulator bookkeeping. The history oracle
//! judges what concurrent pipelined clients see.

use std::collections::HashSet;
use std::time::Duration;

use weighted_voting::chaos::check_log;
use weighted_voting::core::client::ClientOptions;
use weighted_voting::core::ThreadHarness;
use weighted_voting::prelude::*;

/// Virtual links compressed 10x: 20 ms virtual is 2 ms real.
const SCALE: f64 = 0.1;
const SUITE: ObjectId = ObjectId(1);
/// The longest a test waits for a client to end its operations.
const WAIT: Duration = Duration::from_secs(10);

/// `servers` majority servers at sites `0..servers`, then `clients`
/// clients.
fn cluster(
    servers: usize,
    clients: usize,
    links: LatencyModel,
    options: ClientOptions,
) -> ThreadHarness {
    let mut builder = HarnessBuilder::new()
        .seed(5)
        .quorum(QuorumSpec::majority(servers as u32))
        .net(NetConfig::uniform(servers + clients, links))
        .client_options(options);
    for _ in 0..servers {
        builder = builder.site(SiteSpec::server(1));
    }
    for _ in 0..clients {
        builder = builder.client();
    }
    builder
        .build_on_threads(SCALE)
        .expect("majority quorums are legal")
}

/// Three servers and one client on 20 ms links.
fn one_client() -> (ThreadHarness, SiteId) {
    let options = ClientOptions {
        phase_timeout: SimDuration::from_secs(2),
        ..ClientOptions::default()
    };
    let h = cluster(3, 1, LatencyModel::constant_millis(20), options);
    let client = h.clients()[0];
    (h, client)
}

#[test]
fn write_then_read_over_real_threads() {
    let (h, client) = one_client();
    h.enqueue_write(client, SUITE, b"threaded".to_vec());
    let ops = h.await_completed(client, WAIT);
    let w = ops[0].outcome.as_ref().expect("write committed");
    assert_eq!(w.version, Version(1));

    h.enqueue_read(client, SUITE);
    let ops = h.await_completed(client, WAIT);
    let r = ops[0].outcome.as_ref().expect("read succeeded");
    assert_eq!(r.version, Version(1));
    assert_eq!(r.value.as_deref(), Some(&b"threaded"[..]));

    // Check at least a quorum of servers durably hold version 1.
    let held = (h.stop().iter())
        .filter_map(|node| node.as_server())
        .filter(|srv| srv.data_version(SUITE) == Version(1))
        .count();
    assert!(
        held >= 2,
        "committed version must live at a quorum, held={held}"
    );
}

#[test]
fn sequential_writes_serialise_over_real_threads() {
    let (h, client) = one_client();
    for i in 0..5u32 {
        // Wait for this write before issuing the next, so versions are
        // deterministic.
        h.enqueue_write(client, SUITE, format!("v{i}").into_bytes());
        let ops = h.await_completed(client, WAIT);
        let ok = ops[0].outcome.as_ref().expect("committed");
        assert_eq!(ok.version, Version(u64::from(i) + 1));
    }
    h.enqueue_read(client, SUITE);
    let ops = h.await_completed(client, WAIT);
    let r = ops[0].outcome.as_ref().expect("read");
    assert_eq!(r.version, Version(5));
    assert_eq!(r.value.as_deref(), Some(&b"v4"[..]));
}

/// Per client: operations issued, and the window each keeps.
const OPS: usize = 300;
const DEPTH: usize = 4;

/// The `i`th operation of client `k`: a write of a payload unique to it,
/// or a read.
fn payload(k: usize, i: usize) -> Option<Vec<u8>> {
    ((i + k) % 5 < 2).then(|| format!("c{k}op{i}").into_bytes())
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
    let h = cluster(5, 4, links, options);
    // Every operation goes in at once: each client's window launches
    // `DEPTH` of them at a time.
    for (k, &client) in h.clients().iter().enumerate() {
        for i in 0..OPS {
            match payload(k, i) {
                Some(value) => h.enqueue_write(client, SUITE, value),
                None => h.enqueue_read(client, SUITE),
            }
        }
    }
    let log: Vec<_> = (h.clients().iter())
        .flat_map(|&client| h.await_completed(client, WAIT))
        .collect();
    assert_eq!(log.len(), h.clients().len() * OPS);
    let sent: HashSet<Vec<u8>> = (0..h.clients().len())
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
    let reader = h.clients()[0];
    let read = (0..10)
        .map(|_| {
            h.enqueue_read(reader, SUITE);
            h.await_completed(reader, WAIT).pop().expect("a read ended")
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
}
