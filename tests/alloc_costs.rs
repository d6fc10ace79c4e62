//! Heap allocations counted to the unit: what one committed read, write,
//! train of writes and two-suite transaction cost the allocator on the
//! paper's Example 1 topology, and what a 1 KiB write under group commit
//! and a read with health tracking on cost at the benchmark's shapes.
//!
//! A counting allocator forwards to the system's and counts every call
//! that obtains memory (`alloc`, `alloc_zeroed`, `realloc`) on the thread
//! that makes it, so the test harness's other threads do not add to the
//! count. Each operation runs after the same operation has run a few
//! times, so the scheduler's queue and slabs, the effects buffer and the
//! nodes' tables are at their working size: what is counted is what the
//! operation itself costs. The values it carries are built before the
//! count starts.
//!
//! The exact counts rest on how the standard library's `Vec`, `VecDeque`,
//! `BTreeMap`, `HashMap` and `Arc<[T]>` allocate — a slice collected from
//! an iterator of known length in one allocation — so a new Rust toolchain
//! may move them with no change to this crate: re-count them then, and say
//! so. The counts are what an operation keeps: the lists a coordinator and
//! a ranking hold live in place, a prepare's writes, a vote's staged
//! versions and a decision's versions are each one shared slice, the
//! lock table and the container reuse their emptied lists, and a log
//! keeps its records unframed until a crash. The bound of
//! `a_read_allocates_less_than_once_per_message_it_delivers` does not rest
//! on those growth steps: the delivery and wake-up path allocates nothing,
//! so a read costs fewer allocations than the messages it delivers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use weighted_voting::core::client::HealthOptions;
use weighted_voting::prelude::*;

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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A link whose round trip, request and answer, costs `access_ms`.
fn half_ms(access_ms: f64) -> LatencyModel {
    LatencyModel::Constant(SimDuration::from_millis_f64(access_ms / 2.0))
}

/// More events than any op here runs: a run this long never went quiet.
const QUIET: u64 = 1_000_000;

const A: ObjectId = ObjectId(1);
const B: ObjectId = ObjectId(2);

/// Example 1 (E1's first topology): the file server holds the one vote
/// at 75 ms, the other workstation a weak representative at 100 ms, and
/// the client's own workstation a weak representative at 65 ms; `r = w =
/// 1`. Two suites, so that a transaction can span them.
fn example_1() -> Harness {
    let mut net = NetConfig::uniform(3, half_ms(100.0));
    let client = SiteId(2);
    net.set_link_symmetric(client, SiteId(0), half_ms(75.0));
    net.set_link(client, client, half_ms(65.0));
    HarnessBuilder::new()
        .seed(11)
        .site(SiteSpec::server(1))
        .site(SiteSpec::server(0))
        .site(SiteSpec::client_with_weak())
        .quorum(QuorumSpec::new(1, 1))
        .suites([A, B])
        .net(net)
        .build()
        .expect("example 1 is legal")
}

/// Operations run before the count starts, and operations counted.
const WARM: u8 = 4;
const COUNTED: u8 = 16;

/// Runs `op` [`WARM`] times, then [`COUNTED`] times counted, settling
/// after each until nothing is left in flight, and returns the counted
/// runs' allocations. Some tables grow in steps and a write log is cut
/// back at each checkpoint, so one op costs a unit more or less than the
/// next; the sum over a fixed run is exact. `prepare` builds what an op
/// carries, outside the count.
fn counted<T>(h: &mut Harness, prepare: impl Fn(u8) -> T, op: impl Fn(&mut Harness, T)) -> u64 {
    let mut sum = 0;
    for round in 0..WARM + COUNTED {
        let input = prepare(round);
        let mut events = 0;
        let n = allocations(|| {
            op(h, input);
            events = h.run_until_quiet(QUIET);
        });
        assert!(events < QUIET, "the op settles");
        if round >= WARM {
            sum += n;
        }
    }
    sum
}

#[test]
fn a_committed_read_write_train_and_transaction_cost_exact_allocations() {
    let mut h = example_1();
    h.write(A, b"seed".to_vec()).expect("seed");
    h.write(B, b"seed".to_vec()).expect("seed");
    h.run_until_quiet(QUIET);
    let client = h.default_client();

    let read = counted(
        &mut h,
        |_| (),
        |h, ()| {
            h.read(A).expect("read");
        },
    );
    let write = counted(
        &mut h,
        |i| vec![i; 16],
        |h, value| {
            h.write(A, value).expect("write");
        },
    );
    // Nine writes launched together: the first goes alone, the other
    // eight leave as one train when it is decided.
    let train = counted(
        &mut h,
        |i| (0..9).map(|k| vec![i ^ k; 16]).collect::<Vec<_>>(),
        |h, values| {
            let now = h.now();
            for value in values {
                h.enqueue_write(client, A, value, now);
            }
        },
    );
    let transaction = counted(
        &mut h,
        |i| vec![(A, vec![i; 16]), (B, vec![i; 16])],
        |h, writes| {
            h.transaction(client, writes).expect("transaction");
        },
    );
    let done = h.drain_completed(client);
    assert!(done.iter().all(|op| op.outcome.is_ok()));
    assert_eq!(
        [read, write, train, transaction],
        [16, 118, 597, 144],
        "{COUNTED} reads, writes, trains of nine, two-suite transactions"
    );
}

#[test]
fn a_read_allocates_less_than_once_per_message_it_delivers() {
    let mut h = example_1();
    h.write(A, b"seed".to_vec()).expect("seed");
    h.run_until_quiet(QUIET);
    let before = h.net_stats();
    let read = counted(
        &mut h,
        |_| (),
        |h, ()| {
            h.read(A).expect("read");
        },
    );
    let after = h.net_stats();
    assert_eq!(after.timers_fired, before.timers_fired, "no timer fires");
    // Per read: the warm-up reads delivered messages too.
    let reads = u64::from(COUNTED);
    let delivered = (after.delivered - before.delivered) * reads / u64::from(WARM + COUNTED);
    assert!(
        read <= 2 * reads && read < delivered,
        "{read} allocations against {delivered} deliveries in {reads} reads"
    );
}

/// `servers` equal-vote majority servers and one client, 25 ms apart.
fn majority(servers: u16, options: ClientOptions) -> HarnessBuilder {
    let mut b = HarnessBuilder::new().seed(5);
    for _ in 0..servers {
        b = b.site(SiteSpec::server(1));
    }
    let net = NetConfig::uniform(usize::from(servers) + 1, half_ms(50.0));
    b.client()
        .quorum(QuorumSpec::majority(u32::from(servers)))
        .client_options(options)
        .net(net)
}

#[test]
fn a_write_and_reads_cost_exact_allocations_at_the_benchmarks_shapes() {
    // `sim-write`'s shape: 1 KiB values on three majority servers with
    // group commit.
    let mut h = majority(3, ClientOptions::default())
        .group_commit(SimDuration::from_millis(2))
        .build()
        .expect("legal");
    let suite = h.suite_id();
    let write = counted(
        &mut h,
        |i| vec![i; 1024],
        |h, value| {
            h.write(suite, value).expect("write");
        },
    );
    // `sim-churn`'s: five majority servers with health tracking on, every
    // site healthy, then with one crashed and suspected.
    let health = ClientOptions {
        health: Some(HealthOptions::default()),
        ..ClientOptions::default()
    };
    let mut h = majority(5, health).build().expect("legal");
    let (suite, client) = (h.suite_id(), h.default_client());
    h.write(suite, b"seed".to_vec()).expect("seed");
    h.run_until_quiet(QUIET);
    let read = |h: &mut Harness, ()| {
        h.read(suite).expect("read");
    };
    let healthy = counted(&mut h, |_| (), read);
    // Three sites down leave no quorum: the read's timed-out phases make
    // all three suspects. Two come back, and answer; site 0 stays down.
    for site in 0..3 {
        h.inject(Fault::Crash(SiteId(site)));
    }
    assert!(h.read(suite).is_err());
    for site in 1..3 {
        h.inject(Fault::Recover(SiteId(site)));
    }
    let suspected = counted(&mut h, |_| (), read);
    let stats = &h.client_at(client).expect("client").stats;
    assert_eq!(stats.suspicions_raised, 3);
    assert!(stats.reroutes > 0, "the suspect was ranked last");
    assert_eq!(
        [write, healthy, suspected],
        [136, 16, 16],
        "{COUNTED} 1 KiB writes under group commit, reads with health tracking"
    );
}
