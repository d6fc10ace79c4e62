//! E6 — weighted voting vs the classical baselines.
//!
//! Three replicas plus one client, identical network for every scheme.
//! Four scenarios probe the schemes where they differ:
//!
//! * **healthy** — latencies with everything up;
//! * **one replica down** — ROWA loses writes, primary-copy loses
//!   everything when the down replica is the primary, quorum schemes
//!   shrug;
//! * **client partitioned with one replica** — only schemes that can
//!   operate on a single replica survive on the client's side;
//! * **staleness** — read-your-write immediately after the ack: quorum
//!   schemes are always fresh, asynchronous primary-copy local reads are
//!   not.

use wv_baselines::{BaselineHarness, Scheme};
use wv_core::harness::Harness;
use wv_core::quorum::QuorumSpec;
use wv_net::{Fault, Partition, SiteId};
use wv_sim::SimDuration;

use crate::runner;
use crate::table::{ms, pct, Table};

/// Which system is under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// Weighted voting with majority quorums (r = w = 2 of 3).
    VotingMajority,
    /// Read-one/write-all.
    Rowa,
    /// Primary copy with strong (primary) reads.
    Primary,
    /// Primary copy with local (possibly stale) reads.
    PrimaryLocalReads,
    /// Thomas' majority consensus.
    MajorityConsensus,
}

impl System {
    /// All systems in report order.
    pub fn all() -> [System; 5] {
        [
            System::VotingMajority,
            System::Rowa,
            System::Primary,
            System::PrimaryLocalReads,
            System::MajorityConsensus,
        ]
    }

    fn label(self) -> &'static str {
        match self {
            System::VotingMajority => "weighted voting (majority)",
            System::Rowa => "read-one/write-all",
            System::Primary => "primary copy (strong reads)",
            System::PrimaryLocalReads => "primary copy (local reads)",
            System::MajorityConsensus => "majority consensus",
        }
    }
}

/// Outcome of probing one system in one scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Did the read succeed?
    pub read_ok: bool,
    /// Did the write succeed?
    pub write_ok: bool,
    /// Read latency if it succeeded (ms).
    pub read_ms: f64,
    /// Write latency if it succeeded (ms).
    pub write_ms: f64,
}

enum Sys {
    Voting(Box<Harness>),
    Baseline(Box<BaselineHarness>),
}

/// The shared network: client close to backup 1, primary-to-backup
/// propagation links slow (asynchronous propagation visibly lags).
fn baseline_net() -> wv_net::NetConfig {
    use crate::topo::half_ms;
    // Round-trip accesses: replica 0 (the primary-copy primary) 100 ms,
    // replica 1 80 ms (closest to the client), replica 2 100 ms.
    let mut net = crate::topo::client_star(&[100.0, 80.0, 100.0], None);
    // Propagation path from the primary to its backups is slow.
    net.set_link(SiteId(0), SiteId(1), half_ms(800.0));
    net.set_link(SiteId(0), SiteId(2), half_ms(800.0));
    net
}

fn build(system: System, seed: u64) -> Sys {
    let timeout = wv_sim::SimDuration::from_secs(5);
    match system {
        System::VotingMajority => {
            let h = wv_core::harness::HarnessBuilder::new()
                .seed(seed)
                .site(wv_core::harness::SiteSpec::server(1))
                .site(wv_core::harness::SiteSpec::server(1))
                .site(wv_core::harness::SiteSpec::server(1))
                .client()
                .quorum(QuorumSpec::majority(3))
                .net(baseline_net())
                .build()
                .expect("legal majority cluster");
            Sys::Voting(Box::new(h))
        }
        System::Rowa => Sys::Baseline(Box::new(BaselineHarness::new(
            Scheme::Rowa,
            3,
            baseline_net(),
            seed,
            timeout,
        ))),
        System::Primary => Sys::Baseline(Box::new(BaselineHarness::new(
            Scheme::Primary {
                primary: SiteId(0),
                local_reads: false,
            },
            3,
            baseline_net(),
            seed,
            timeout,
        ))),
        System::PrimaryLocalReads => Sys::Baseline(Box::new(BaselineHarness::new(
            Scheme::Primary {
                primary: SiteId(0),
                local_reads: true,
            },
            3,
            baseline_net(),
            seed,
            timeout,
        ))),
        System::MajorityConsensus => Sys::Baseline(Box::new(BaselineHarness::new(
            Scheme::Majority,
            3,
            baseline_net(),
            seed,
            timeout,
        ))),
    }
}

impl Sys {
    fn prime(&mut self) {
        match self {
            Sys::Voting(h) => {
                let suite = h.suite_id();
                h.write(suite, b"prime".to_vec()).expect("prime");
                h.advance(SimDuration::from_secs(2));
            }
            Sys::Baseline(h) => {
                h.write(b"prime".to_vec()).expect("prime");
                h.advance(SimDuration::from_secs(2));
            }
        }
    }

    fn inject(&mut self, fault: Fault) {
        match self {
            Sys::Voting(h) => h.inject(fault),
            Sys::Baseline(h) => h.inject(fault),
        }
    }

    fn probe(&mut self) -> Probe {
        let mut out = Probe::default();
        match self {
            Sys::Voting(h) => {
                let suite = h.suite_id();
                if let Ok(w) = h.write(suite, b"probe".to_vec()) {
                    out.write_ok = true;
                    out.write_ms = w.latency.as_millis_f64();
                }
                if let Ok(r) = h.read(suite) {
                    out.read_ok = true;
                    out.read_ms = r.latency.as_millis_f64();
                }
            }
            Sys::Baseline(h) => {
                if let Ok((_, lat)) = h.write(b"probe".to_vec()) {
                    out.write_ok = true;
                    out.write_ms = lat.as_millis_f64();
                }
                if let Ok((_, _, lat)) = h.read() {
                    out.read_ok = true;
                    out.read_ms = lat.as_millis_f64();
                }
            }
        }
        out
    }
}

/// Probes a system in a named scenario.
pub fn scenario(system: System, which: &str, seed: u64) -> Probe {
    let mut sys = build(system, seed);
    sys.prime();
    match which {
        "healthy" => {}
        "replica0_down" => sys.inject(Fault::Crash(SiteId(0))),
        "client_minority" => {
            // Client (site 3) can reach only replica 2.
            sys.inject(Fault::Partition(Partition::split(
                4,
                &[&[SiteId(2), SiteId(3)], &[SiteId(0), SiteId(1)]],
            )));
        }
        other => panic!("unknown scenario {other}"),
    }
    sys.probe()
}

/// Measures read-your-write staleness: fraction of immediate post-ack
/// reads that return a version older than the acked write.
pub fn staleness(system: System, rounds: u32, seed: u64) -> f64 {
    let mut stale = 0u32;
    let mut observed = 0u32;
    let mut sys = build(system, seed);
    sys.prime();
    for _ in 0..rounds {
        match &mut sys {
            Sys::Voting(h) => {
                let suite = h.suite_id();
                let w = h.write(suite, b"x".to_vec()).expect("write");
                let r = h.read(suite).expect("read");
                observed += 1;
                if r.version < w.version {
                    stale += 1;
                }
            }
            Sys::Baseline(h) => {
                let (wv, _) = match h.write(b"x".to_vec()) {
                    Ok(v) => v,
                    Err(()) => continue,
                };
                let (rv, _, _) = match h.read() {
                    Ok(v) => v,
                    Err(()) => continue,
                };
                observed += 1;
                if rv < wv {
                    stale += 1;
                }
            }
        }
    }
    if observed == 0 {
        0.0
    } else {
        f64::from(stale) / f64::from(observed)
    }
}

/// Builds the E6 report.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str("## E6 — Weighted voting vs classical baselines\n\n");
    out.push_str(
        "Three replicas + one client on a shared topology: the client sits \
         nearest backup 1 (80 ms access), other accesses cost 100 ms, and \
         primary-to-backup propagation links are slow (800 ms) so \
         asynchronous lag is visible. A voting write is one quorum access \
         on the caller's path (the prepare round; the commit round \
         finishes behind the report); with replica 0 down the table \
         shows the *first* write after the crash, which finds its quorum \
         member silent a round trip after the other's vote and widens to \
         the third replica — the writes after it route around the site \
         at no cost. Baselines use their native write paths.\n\n",
    );
    // Every (scenario, system) probe builds its own cluster with a fixed
    // seed, so the whole grid fans out over the worker pool at once.
    const SCENARIOS: [&str; 3] = ["healthy", "replica0_down", "client_minority"];
    let systems = System::all();
    let probes = runner::run_tasks(SCENARIOS.len() * systems.len(), |k| {
        let (which, i) = (SCENARIOS[k / systems.len()], k % systems.len());
        scenario(systems[i], which, 600 + i as u64)
    });
    for (s, which) in SCENARIOS.into_iter().enumerate() {
        let mut t = Table::new(
            format!("Scenario: {which}"),
            &["system", "read", "write", "read ms", "write ms"],
        );
        for (i, system) in systems.into_iter().enumerate() {
            let p = probes[s * systems.len() + i];
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
        "Read-your-write staleness (immediate read after acked write)",
        &["system", "stale reads"],
    );
    let stale = runner::run_tasks(systems.len(), |i| staleness(systems[i], 30, 700 + i as u64));
    for (system, s) in systems.into_iter().zip(stale) {
        t.row(&[system.label().into(), pct(s)]);
    }
    out.push_str(&t.to_markdown());
    out.push_str(
        "Shape check: voting and majority consensus survive any single \
         replica loss; ROWA keeps reads but loses writes; primary copy \
         loses everything with its primary; only asynchronous local reads \
         are ever stale.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_everything_works() {
        for (i, s) in System::all().into_iter().enumerate() {
            let p = scenario(s, "healthy", 40 + i as u64);
            assert!(p.read_ok && p.write_ok, "{s:?} failed while healthy");
        }
    }

    #[test]
    fn replica_zero_down_separates_the_schemes() {
        let voting = scenario(System::VotingMajority, "replica0_down", 1);
        assert!(voting.read_ok && voting.write_ok);

        let rowa = scenario(System::Rowa, "replica0_down", 2);
        assert!(rowa.read_ok, "ROWA reads fail over");
        assert!(!rowa.write_ok, "ROWA writes need every replica");

        let primary = scenario(System::Primary, "replica0_down", 3);
        assert!(!primary.read_ok && !primary.write_ok, "primary was site 0");

        let mc = scenario(System::MajorityConsensus, "replica0_down", 4);
        assert!(mc.read_ok && mc.write_ok);
    }

    #[test]
    fn minority_partition_blocks_quorum_schemes_but_not_rowa_reads() {
        let voting = scenario(System::VotingMajority, "client_minority", 5);
        assert!(!voting.write_ok, "one replica is not a write quorum");
        assert!(!voting.read_ok, "one replica is not a read quorum");

        let rowa = scenario(System::Rowa, "client_minority", 6);
        assert!(rowa.read_ok, "ROWA reads any reachable replica");
        assert!(!rowa.write_ok);

        let mc = scenario(System::MajorityConsensus, "client_minority", 7);
        assert!(!mc.read_ok && !mc.write_ok);
    }

    #[test]
    fn only_async_local_reads_are_stale() {
        assert_eq!(staleness(System::VotingMajority, 10, 8), 0.0);
        assert_eq!(staleness(System::MajorityConsensus, 10, 9), 0.0);
        assert_eq!(staleness(System::Primary, 10, 10), 0.0);
        let lazy = staleness(System::PrimaryLocalReads, 20, 11);
        assert!(
            lazy > 0.0,
            "async propagation must show staleness, got {lazy}"
        );
    }

    #[test]
    fn report_renders_all_scenarios() {
        let report = run();
        assert!(report.contains("healthy"));
        assert!(report.contains("replica0_down"));
        assert!(report.contains("client_minority"));
        assert!(report.contains("staleness"));
    }
}
