//! E6 — weighted voting vs the classical schemes, all as vote assignments.
//!
//! Three replicas plus a client, one network for every row. Each
//! classical scheme is a vote/quorum choice on the same `wv-core`
//! cluster (PAPER.md §1):
//!
//! * **weighted voting (majority)** — ⟨1,1,1⟩, `r = w = 2`;
//! * **read-one/write-all** — ⟨1,1,1⟩, `r = 1, w = 3`;
//! * **primary copy** — ⟨1,0,0⟩, `r = w = 1`: replica 0 holds every
//!   vote, the two zero-vote backups catch up through anti-entropy over
//!   the slow links from it, and the *local reads* row adds a lease-mode
//!   client cache whose quorum-free reads may be stale.
//!
//! Four probes show where the rows differ:
//!
//! * **healthy** — latencies with everything up;
//! * **one replica down** — ROWA loses writes, primary copy loses
//!   everything when the down replica is the primary, majority voting
//!   shrugs;
//! * **client partitioned with one replica** — only a scheme that reads
//!   from a single replica reads on the client's side;
//! * **staleness** — a second client reads right after the first
//!   client's write is acknowledged: quorum reads are always fresh,
//!   lease-served reads are not. (A writer's own report drops its lease,
//!   so its own next read is never stale.) The oracle counts them.

use wv_core::client::{ClientOptions, WeakRepOptions};
use wv_core::harness::{Harness, HarnessBuilder, Op, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_net::{Fault, NetConfig, Partition, SiteId};
use wv_sim::SimDuration;

use crate::drive::{drive, Driven, Plan, Start, Verdict};
use crate::runner;
use crate::table::{ms, pct, Table};
use crate::topo::half_ms;

/// Which scheme is under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Weighted voting with majority quorums (r = w = 2 of 3).
    VotingMajority,
    /// Read-one/write-all: equal votes, r = 1, w = 3.
    Rowa,
    /// Primary copy with strong reads: every vote on replica 0.
    Primary,
    /// Primary copy whose client serves reads from a leased local copy.
    PrimaryLocalReads,
}

impl System {
    /// All systems in report order.
    pub fn all() -> [System; 4] {
        [
            System::VotingMajority,
            System::Rowa,
            System::Primary,
            System::PrimaryLocalReads,
        ]
    }

    fn label(self) -> &'static str {
        match self {
            System::VotingMajority => "weighted voting (majority)",
            System::Rowa => "read-one/write-all",
            System::Primary => "primary copy (strong reads)",
            System::PrimaryLocalReads => "primary copy (local reads)",
        }
    }
}

/// Outcome of probing one system in one scenario.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Did the read succeed?
    pub read_ok: bool,
    /// Did the write succeed?
    pub write_ok: bool,
    /// Read latency (ms), which the report shows if the read succeeded.
    pub read_ms: f64,
    /// Write latency (ms), which the report shows if the write succeeded.
    pub write_ms: f64,
}

/// Each replica's round-trip access cost from a client: replica 1 is the
/// nearest.
const ACCESS_MS: [f64; 3] = [100.0, 80.0, 100.0];

/// How often every representative of a primary-copy row pulls from a peer.
const ANTI_ENTROPY: SimDuration = SimDuration::from_secs(1);

/// How long a validated entry in the local-reads row's cache serves reads
/// with no quorum.
const LEASE: SimDuration = SimDuration::from_secs(10);

/// The shared network: the replicas, then `clients` clients, each close
/// to replica 1, and slow links from replica 0 to the other two (the
/// path a primary's writes take to its backups).
fn net(clients: usize) -> NetConfig {
    let sites = ACCESS_MS.len() + clients;
    let mut net = NetConfig::uniform(sites, half_ms(100.0));
    for client in ACCESS_MS.len()..sites {
        for (i, &a) in ACCESS_MS.iter().enumerate() {
            net.set_link_symmetric(SiteId::from(client), SiteId::from(i), half_ms(a));
        }
    }
    net.set_link(SiteId(0), SiteId(1), half_ms(800.0));
    net.set_link(SiteId(0), SiteId(2), half_ms(800.0));
    net
}

/// The row's cluster: its vote assignment and quorums on the shared
/// network, with `clients` clients after the three replicas.
fn build(system: System, seed: u64, clients: usize) -> Harness {
    let (votes, quorum) = match system {
        System::VotingMajority => ([1, 1, 1], QuorumSpec::majority(3)),
        System::Rowa => ([1, 1, 1], QuorumSpec::new(1, 3)),
        System::Primary | System::PrimaryLocalReads => ([1, 0, 0], QuorumSpec::new(1, 1)),
    };
    let mut b = HarnessBuilder::new().seed(seed);
    for v in votes {
        b = b.site(SiteSpec::server(v));
    }
    for _ in 0..clients {
        b = b.client();
    }
    b = b.quorum(quorum).net(net(clients));
    if matches!(system, System::Primary | System::PrimaryLocalReads) {
        b = b.anti_entropy(ANTI_ENTROPY);
    }
    if system == System::PrimaryLocalReads {
        b = b.client_options(ClientOptions {
            weak_rep: Some(WeakRepOptions::lease(LEASE)),
            ..ClientOptions::default()
        });
    }
    b.build().expect("every row is a legal vote assignment")
}

/// How long the backups get to settle after the first write.
const SETTLE: SimDuration = SimDuration::from_secs(2);

/// A plan whose default client writes the first contents.
fn prime(h: &Harness) -> Plan {
    let mut plan = Plan::default();
    let prime = Op::Write(h.suite_id(), b"prime".to_vec());
    plan.op(Start::After(SimDuration::ZERO), h.default_client(), prime);
    plan
}

/// Probes a system's cluster `h` in a named scenario: once the backups
/// have settled from the first write, the scenario's fault, then one
/// write and one read at the default client. The probe, and the history.
pub fn scenario(h: &mut Harness, which: &str) -> (Probe, Driven) {
    let (c, suite) = (h.default_client(), h.suite_id());
    let mut plan = prime(h);
    let fault = match which {
        "healthy" => None,
        "replica0_down" => Some(Fault::Crash(SiteId(0))),
        // Client (site 3) can reach only replica 2.
        "client_minority" => {
            let sides: [&[SiteId]; 2] = [&[SiteId(2), SiteId(3)], &[SiteId(0), SiteId(1)]];
            Some(Fault::Partition(Partition::split(4, &sides)))
        }
        other => panic!("unknown scenario {other}"),
    };
    let mut settle = SETTLE;
    if let Some(fault) = fault {
        plan.fault(Start::After(settle), fault);
        settle = SimDuration::ZERO;
    }
    plan.op(Start::After(settle), c, Op::Write(suite, b"probe".to_vec()));
    plan.op(Start::After(SimDuration::ZERO), c, Op::Read(suite));
    let run = drive(h, plan);
    let (write, read) = (&run.ops[1], &run.ops[2]);
    let p = Probe {
        read_ok: read.outcome.is_ok(),
        write_ok: write.outcome.is_ok(),
        read_ms: read.latency().as_millis_f64(),
        write_ms: write.latency().as_millis_f64(),
    };
    (p, run)
}

/// The staleness probe across `h`'s two clients, `rounds` times: the
/// second reads right after the first one's write is acknowledged. The
/// reader reads once before the first round, so a cache it keeps is warm.
pub fn staleness(h: &mut Harness, rounds: u32) -> Driven {
    let mut plan = prime(h);
    let suite = h.suite_id();
    let (writer, reader) = (h.clients()[0], h.clients()[1]);
    plan.op(Start::After(SETTLE), reader, Op::Read(suite)); // the warm-up
    for _ in 0..rounds {
        let now = Start::After(SimDuration::ZERO);
        plan.op(now, writer, Op::Write(suite, b"x".to_vec()));
        plan.op(now, reader, Op::Read(suite));
    }
    drive(h, plan)
}

/// The report's shape check: each clause with whether the cells above
/// bear it out. `probes` is the scenario grid in report order (scenario
/// major, [`System::all`] minor), `stale` the staleness column.
fn shape(probes: &[Probe], stale: &[f64]) -> Vec<(&'static str, bool)> {
    // `System::all` lists the systems in declaration order.
    let cell = |scenario: usize, s: System| probes[scenario * System::all().len() + s as usize];
    let (down, minority) = (|s| cell(1, s), |s| cell(2, s));
    let lost_all = |p: Probe| !p.read_ok && !p.write_ok;
    let only_lease_stale = System::all()
        .into_iter()
        .zip(stale)
        .all(|(s, &x)| (x > 0.0) == (s == System::PrimaryLocalReads));
    vec![
        (
            "weighted voting survives a replica's loss",
            down(System::VotingMajority).read_ok && down(System::VotingMajority).write_ok,
        ),
        (
            "ROWA keeps reads but loses writes, with a replica down or \
             partitioned away",
            [down(System::Rowa), minority(System::Rowa)]
                .iter()
                .all(|p| p.read_ok && !p.write_ok),
        ),
        (
            "primary copy loses everything with its primary, local reads \
             included: they outlive it only while a lease lasts, and the \
             probe's writer holds none",
            [System::Primary, System::PrimaryLocalReads]
                .into_iter()
                .all(|s| lost_all(down(s)) && lost_all(minority(s))),
        ),
        (
            "only lease-mode local reads are ever stale",
            only_lease_stale,
        ),
    ]
}

/// Builds the E6 report, its histories handed to `verdict`.
pub fn run(verdict: &mut Verdict) -> String {
    let mut out = String::new();
    out.push_str("## E6 — Weighted voting vs the classical schemes\n\n");
    out.push_str(&format!(
        "Every row is one `wv-core` cluster of three replicas + one client \
         and differs only in its vote assignment and quorums: weighted \
         voting ⟨1,1,1⟩ with r = w = 2, read-one/write-all ⟨1,1,1⟩ with \
         r = 1, w = 3, and primary copy ⟨1,0,0⟩ with r = w = 1, whose \
         zero-vote backups catch up by anti-entropy ({} s probes) and whose \
         local-reads client serves reads from a {} s lease. The client sits \
         nearest replica 1 (80 ms access), other accesses cost 100 ms, and \
         the links from replica 0 to the other two are slow (800 ms); the \
         staleness probe adds a second client placed like the first. A \
         write is one quorum access on the caller's path (the prepare \
         round; the commit round finishes behind the report); with \
         replica 0 down the table shows the *first* write after the crash, \
         which finds its quorum member silent a round trip after the \
         other's vote and widens to the third replica — the writes after \
         it route around the site at no cost. A read asks every replica \
         at once, so ROWA's read on the client's side of a partition is an \
         inquiry plus a fetch from the one replica there.\n\n",
        ANTI_ENTROPY.as_millis_f64() / 1000.0,
        LEASE.as_millis_f64() / 1000.0,
    ));
    // Every (scenario, system) probe builds its own cluster with a fixed
    // seed, so the whole grid fans out over the worker pool at once.
    const SCENARIOS: [&str; 3] = ["healthy", "replica0_down", "client_minority"];
    let systems = System::all();
    let runs = runner::run_tasks(SCENARIOS.len() * systems.len(), |k| {
        let (which, i) = (SCENARIOS[k / systems.len()], k % systems.len());
        scenario(&mut build(systems[i], 600 + i as u64, 1), which)
    });
    let probes: Vec<Probe> = runs.iter().map(|run| run.0).collect();
    for (s, which) in SCENARIOS.into_iter().enumerate() {
        let mut t = Table::new(
            format!("Scenario: {which}"),
            &["system", "read", "write", "read ms", "write ms"],
        );
        for (i, system) in systems.into_iter().enumerate() {
            let (p, history) = &runs[s * systems.len() + i];
            verdict.judge(format_args!("{}, {which}", system.label()), history);
            t.row(&[
                system.label().into(),
                if p.read_ok { "ok" } else { "BLOCKED" }.into(),
                if p.write_ok { "ok" } else { "BLOCKED" }.into(),
                if p.read_ok {
                    ms(p.read_ms)
                } else {
                    "—".into()
                },
                if p.write_ok {
                    ms(p.write_ms)
                } else {
                    "—".into()
                },
            ]);
        }
        out.push_str(&t.to_markdown());
    }
    let mut t = Table::new(
        "Staleness across clients (a second client's read right after the first client's acked write)",
        &["system", "stale reads"],
    );
    const ROUNDS: u32 = 30;
    let histories = runner::run_tasks(systems.len(), |i| {
        staleness(&mut build(systems[i], 700 + i as u64, 2), ROUNDS)
    });
    let mut stale = Vec::new();
    for (system, history) in systems.into_iter().zip(&histories) {
        let name = format!("{}, staleness", system.label());
        let found = match system {
            System::PrimaryLocalReads => verdict.judge_leased(name, history, LEASE),
            _ => verdict.judge(name, history),
        };
        let reads = found.iter().filter(|v| v.tag() == "stale_read");
        stale.push(reads.count() as f64 / f64::from(ROUNDS));
        t.row(&[system.label().into(), pct(stale[stale.len() - 1])]);
    }
    out.push_str(&t.to_markdown());
    out.push_str("Shape check:\n\n");
    for (clause, holds) in shape(&probes, &stale) {
        let verdict = if holds { "yes" } else { "NO" };
        out.push_str(&format!("* {clause}: **{verdict}**\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_of(system: System, which: &str, seed: u64) -> Probe {
        scenario(&mut build(system, seed, 1), which).0
    }

    fn staleness_of(system: System, rounds: u32, seed: u64) -> f64 {
        let found = staleness(&mut build(system, seed, 2), rounds).judge();
        let reads = found.iter().filter(|v| v.tag() == "stale_read");
        reads.count() as f64 / f64::from(rounds)
    }

    #[test]
    fn healthy_everything_works() {
        for (i, s) in System::all().into_iter().enumerate() {
            let p = scenario_of(s, "healthy", 40 + i as u64);
            assert!(p.read_ok && p.write_ok, "{s:?} failed while healthy");
        }
    }

    #[test]
    fn replica_zero_down_separates_the_schemes() {
        let voting = scenario_of(System::VotingMajority, "replica0_down", 1);
        assert!(voting.read_ok && voting.write_ok);

        let rowa = scenario_of(System::Rowa, "replica0_down", 2);
        assert!(rowa.read_ok, "ROWA reads fail over");
        assert!(!rowa.write_ok, "ROWA writes need every replica");

        let primary = scenario_of(System::Primary, "replica0_down", 3);
        assert!(!primary.read_ok && !primary.write_ok, "primary was site 0");

        let lease = scenario_of(System::PrimaryLocalReads, "replica0_down", 4);
        assert!(!lease.write_ok, "every vote is on the primary");
        assert!(!lease.read_ok, "the probe's writer holds no lease");
    }

    #[test]
    fn minority_partition_blocks_quorum_schemes_but_not_rowa_reads() {
        let voting = scenario_of(System::VotingMajority, "client_minority", 5);
        assert!(!voting.write_ok, "one replica is not a write quorum");
        assert!(!voting.read_ok, "one replica is not a read quorum");

        let rowa = scenario_of(System::Rowa, "client_minority", 6);
        assert!(rowa.read_ok, "ROWA reads any reachable replica");
        assert!(!rowa.write_ok);

        let lease = scenario_of(System::PrimaryLocalReads, "client_minority", 7);
        assert!(!lease.read_ok && !lease.write_ok, "the primary is away");
    }

    #[test]
    fn only_async_local_reads_are_stale() {
        assert_eq!(staleness_of(System::VotingMajority, 10, 8), 0.0);
        assert_eq!(staleness_of(System::Rowa, 10, 9), 0.0);
        assert_eq!(staleness_of(System::Primary, 10, 10), 0.0);
        let lazy = staleness_of(System::PrimaryLocalReads, 20, 11);
        assert!(
            lazy > 0.0,
            "lease-served reads must show staleness, got {lazy}"
        );
    }

    #[test]
    fn report_renders_all_scenarios() {
        let mut verdict = Verdict::default();
        let report = run(&mut verdict);
        assert!(report.contains("healthy"));
        assert!(report.contains("replica0_down"));
        assert!(report.contains("client_minority"));
        assert!(report.contains("Staleness"));
        assert_eq!(report.matches(": **yes**").count(), 4, "{report}");
        assert!(!report.contains("**NO**"), "{report}");
        // The one history held to its lease: the local-reads client's.
        let leased = ["primary copy (local reads), staleness"];
        assert_eq!(verdict.leased, leased);
    }
}
