//! The work ledger: what one operation costs the transport, the timers,
//! the allocator and the write-ahead log, counted to the unit.
//!
//! A row is an operation shape: a cluster, an untimed setup, an op, and
//! the op's warm-up and counted repetitions. Its cells are four counters
//! summed over the counted runs; a filled cell is exact, [`ANY`] is not
//! pinned. The message cells of the reads, writes and trains come from
//! `wv_analysis::cost`, so the transport is held to the model, not to a
//! number typed in. Every run settles past each phase timeout, commit
//! resend and decision probe it armed. So a healthy op has fired no timer
//! — a phase cancels its timers when it ends, a participant its probe once
//! the decision is durable — but a group-commit window's syncs, and has
//! framed nothing: a log keeps the records it appends as values, and
//! frames them at a crash or a recovery scan, the first moments anything
//! reads those bytes.
//!
//! A test names its clusters and their rows through a [`Ledger`]: the
//! rows of the message, timer and allocation columns are in
//! `tests/{message,timer,alloc}_costs.rs`, and `tests/work_ledger.rs`
//! holds the properties that compare columns or need a distribution.
//!
//! The counting allocator counts every call that obtains memory (`alloc`,
//! `alloc_zeroed`, `realloc`) on the thread that makes it, so the test
//! harness's other threads add nothing. The warm-up brings the scheduler's
//! queue and slabs, the effects buffer and the nodes' tables to their
//! working size, and the values an op carries are built outside the
//! count: what is counted is what the op itself costs. Tables that grow in
//! steps and a write log cut back at each checkpoint make one op cost a
//! unit more or less than the next; the sum over a fixed run is exact. It
//! rests on how std's `Vec`, `VecDeque`, `BTreeMap`, `HashMap` and
//! `Arc<[T]>` allocate (a slice collected from an iterator of known length
//! is one allocation), so a new Rust toolchain may move it with no change
//! here: re-count then (a failure prints the row's cells), and say so. The
//! counts are what an op keeps: the lists a coordinator and a ranking hold
//! live in place, a prepare's writes, a vote's staged versions and a
//! decision's versions are each one shared slice, the lock table and the
//! container reuse their emptied lists, and a log keeps its records
//! unframed until a crash. The delivery and wake-up path allocates
//! nothing, so a read allocates less than once per message it delivers,
//! whatever the growth steps.

// Each test file that includes the ledger uses only part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use weighted_voting::analysis::{read_messages_bounds, train_messages_per_write};
use weighted_voting::core::client::{ClientNode, HealthOptions};
use weighted_voting::prelude::*;
use weighted_voting::storage::Wal;
pub use Op::{Read, Train, Transaction, Write};
pub use Sites::Servers;

/// The system allocator, counting.
struct Counting;

thread_local! {
    /// Const-initialised and without a destructor, so reading it never
    /// allocates: the allocator can count through it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// methods have the contract `GlobalAlloc` states, and returns what it
// returns. Counting touches only the thread-local above: it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// More events than any op here runs: a run this long never went quiet.
pub const QUIET: u64 = 1_000_000;

/// The sites of a cluster.
#[derive(Clone, Copy, Debug)]
pub enum Sites {
    /// Example 1 (E1's first topology): the file server holds the one vote
    /// at 75 ms, the other workstation a weak representative at 100 ms, and
    /// the client's own workstation a weak representative at 65 ms; `r = w
    /// = 1`. Two suites, so that a transaction can span them.
    Example1,
    /// `.0` one-vote servers, then `.1` workstations — a client with a weak
    /// representative each, or one plain client if there are none — under
    /// read quorum `.2` and write quorum `.3`.
    Servers(u16, u16, u32, u32),
}

/// Majorities of 3 and 5 servers with one plain client.
pub const THREE: Sites = Servers(3, 0, 2, 2);
pub const FIVE: Sites = Servers(5, 0, 3, 3);

/// A setting a cluster may take beyond its sites.
#[derive(Clone, Debug)]
pub enum Opt {
    /// Every server syncs its log in windows this many milliseconds long.
    GroupCommit(u64),
    /// The clients track their peers' health.
    Health,
    /// A read asks for contents only once its quorum has answered.
    Sequential,
    /// Every link, a site's own included, has this latency.
    Links(LatencyModel),
}

/// 25 ms one way on every link, as on the benchmark's shapes.
const LINKS_25: Opt = Opt::Links(LatencyModel::Constant(SimDuration::from_millis(25)));
/// `sim-write`'s settings; it writes 1 KiB values to three majority servers.
pub const SIM_WRITE: &[Opt] = &[LINKS_25, Opt::GroupCommit(2)];
/// `sim-churn`'s; its five majority servers crash and recover.
pub const SIM_CHURN: &[Opt] = &[LINKS_25, Opt::Health];

/// Builds every cluster the rows and assertions of the ledger run on.
pub fn cluster(sites: Sites, opts: &[Opt]) -> Harness {
    let mut b = HarnessBuilder::new().seed(9);
    let n = match sites {
        Sites::Example1 => {
            // A link whose round trip, request and answer, costs `ms`.
            let access = |ms: f64| LatencyModel::Constant(SimDuration::from_millis_f64(ms / 2.0));
            let (client, server) = (SiteId(2), SiteId(0));
            let mut net = NetConfig::uniform(3, access(100.0));
            net.set_link_symmetric(client, server, access(75.0));
            net.set_link(client, client, access(65.0));
            b = b.site(SiteSpec::server(1)).site(SiteSpec::server(0));
            b = b
                .site(SiteSpec::client_with_weak())
                .suites([ObjectId(1), ObjectId(2)])
                .net(net);
            3
        }
        Servers(servers, workstations, r, w) => {
            for _ in 0..servers {
                b = b.site(SiteSpec::server(1));
            }
            for _ in 0..workstations {
                b = b.site(SiteSpec::client_with_weak());
            }
            if workstations == 0 {
                b = b.client();
            }
            b = b.quorum(QuorumSpec::new(r, w));
            usize::from(servers + workstations.max(1))
        }
    };
    let mut options = ClientOptions::default();
    for opt in opts {
        match opt {
            Opt::GroupCommit(ms) => b = b.group_commit(SimDuration::from_millis(*ms)),
            Opt::Health => options.health = Some(HealthOptions::default()),
            Opt::Sequential => options.optimistic_fetch = false,
            Opt::Links(model) => b = b.net(NetConfig::uniform(n, model.clone())),
        }
    }
    b.client_options(options).build().expect("legal")
}

/// What a row's op does once.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Read,
    /// A write of this many bytes.
    Write(usize),
    /// Nine 16-byte writes of one client launched together: the first goes
    /// alone, the other eight leave as one train when it is decided.
    Train,
    /// A 16-byte write to each suite, in one transaction.
    Transaction,
}

impl Op {
    /// The values the op carries in round `i`, built outside the count.
    fn values(self, i: u8, suites: &[ObjectId]) -> Vec<(ObjectId, Vec<u8>)> {
        match self {
            Read => Vec::new(),
            Write(len) => vec![(suites[0], vec![i; len])],
            Train => (0..9).map(|k| (suites[0], vec![i ^ k; 16])).collect(),
            Transaction => suites.iter().map(|&s| (s, vec![i; 16])).collect(),
        }
    }

    fn run(self, h: &mut Harness, values: Vec<(ObjectId, Vec<u8>)>) {
        let client = h.default_client();
        match self {
            Read => drop(h.read(h.suite_id()).expect("read")),
            Write(_) => {
                for (suite, value) in values {
                    h.write(suite, value).expect("write");
                }
            }
            Train => {
                for (suite, value) in values {
                    h.enqueue_write(client, suite, value, h.now());
                }
            }
            Transaction => drop(h.transaction(client, values).expect("transaction")),
        }
    }
}

/// The ledger's columns, in the order [`measure`] returns them.
const COLUMNS: [&str; 4] = ["messages", "timers", "allocations", "framed bytes"];

pub fn wal(h: &Harness, site: u16) -> Option<&Wal> {
    h.server_at(SiteId(site)).map(|s| s.container().wal())
}

/// The [`COLUMNS`] so far: messages sent, timers fired, allocations on
/// this thread and bytes the logs framed. Reading them allocates nothing.
pub fn counters(h: &Harness) -> [u64; 4] {
    let net = h.net_stats();
    let sites = h.cluster().nodes.len() as u16;
    let framed = (0..sites).filter_map(|s| wal(h, s)).map(Wal::framed_bytes);
    let allocations = ALLOCATIONS.with(Cell::get);
    [net.sent, net.timers_fired, allocations, framed.sum()]
}

/// Runs `op` `warm` times, then `counted` times, each until nothing is
/// left in flight and every write it launched has completed `Ok`, and
/// returns the counted runs' [`COLUMNS`].
pub fn measure(h: &mut Harness, op: Op, (warm, counted): (u8, u8)) -> [u64; 4] {
    let client = h.default_client();
    let mut sum = [0; 4];
    for round in 0..warm + counted {
        let values = op.values(round, h.suite_ids());
        let logged = h.client_at(client).expect("a client").completed.len();
        let before = counters(h);
        op.run(h, values);
        assert!(h.run_until_quiet(QUIET) < QUIET, "the op settles");
        let after = counters(h);
        // The ops the harness waits for take their own entry out of the
        // log; a train leaves its nine writes' entries in it.
        let done = &h.client_at(client).expect("a client").completed[logged..];
        assert_eq!(done.len(), 9 * usize::from(matches!(op, Train)), "{op:?}");
        assert!(done.iter().all(|op| op.outcome.is_ok()), "{op:?}");
        if round >= warm {
            sum = std::array::from_fn(|c| sum[c] + after[c] - before[c]);
        }
    }
    sum
}

/// A cell that is not pinned.
pub const ANY: u64 = u64::MAX;

/// Repetitions, warm-up then counted: once, or sixteen times after four.
pub const ONCE: (u8, u8) = (0, 1);
pub const WARM_16: (u8, u8) = (4, 16);

/// One cluster of the ledger, built and set up: its rows run on it in order.
pub struct Ledger {
    h: Harness,
    cluster: String,
    reps: (u8, u8),
    rows: usize,
}

impl Ledger {
    /// Builds a cluster and sets it up untimed; each of its rows runs its
    /// op `reps` times, warm-up then counted.
    pub fn on(sites: Sites, opts: &[Opt], setup: fn(&mut Harness), reps: (u8, u8)) -> Ledger {
        let mut h = cluster(sites, opts);
        setup(&mut h);
        let cluster = format!("{sites:?} {opts:?} {reps:?}");
        Ledger {
            h,
            cluster,
            reps,
            rows: 0,
        }
    }

    /// Measures `op` and holds it to `cells`, in [`COLUMNS`] order; a
    /// failure names the row and column and prints the row's four cells.
    pub fn row(&mut self, op: Op, cells: [u64; 4]) {
        let got = measure(&mut self.h, op, self.reps);
        self.rows += 1;
        let row = format!("row {}, {}: {op:?}", self.rows, self.cluster);
        for ((want, cell), column) in cells.into_iter().zip(got).zip(COLUMNS) {
            assert!(
                want == ANY || want == cell,
                "{row}: {column} {cell}, pinned {want}; measured {got:?}"
            );
        }
    }

    /// The cluster's client, as the rows left it.
    pub fn client(&self) -> &ClientNode {
        self.h.client_at(self.h.default_client()).expect("a client")
    }
}

pub fn fresh(_: &mut Harness) {}

/// Writes every suite once.
pub fn prime(h: &mut Harness) {
    for suite in h.suite_ids().to_vec() {
        h.write(suite, b"seed".to_vec()).expect("seed");
    }
    h.run_until_quiet(QUIET);
}

/// A workstation's read: the inquiry to its `hosts`, a content read of its
/// own copy, and on a miss one refresh pushed at that copy.
pub fn at_workstation(hosts: usize, miss: u64) -> u64 {
    read_messages_bounds(hosts).0 + 2 + miss
}

/// A train of nine over a write quorum of `w` sites: one write alone,
/// then eight together.
pub fn train(w: usize) -> u64 {
    (train_messages_per_write(w, 1) + 8.0 * train_messages_per_write(w, 8)) as u64
}

/// Primes and reads as the healthy rows do; then three servers crash,
/// which leaves no quorum: a read's timed-out phases make all three
/// suspects. Two come back and answer; site 0 stays down.
pub fn suspect(h: &mut Harness) {
    prime(h);
    measure(h, Read, WARM_16);
    (0..3).for_each(|site| h.inject(Fault::Crash(SiteId(site))));
    assert!(h.read(h.suite_id()).is_err());
    (1..3).for_each(|site| h.inject(Fault::Recover(SiteId(site))));
}
