//! E8 — write contention and the commit-lock ablation.
//!
//! Several clients hammer the same suite with writes, so their prepares
//! collide on the commit lock at the representatives. Under the shipped
//! rule a prepare that finds the lock taken stands in line and is handed
//! the lock, oldest first, with its version assigned under it; under the
//! `NoWait` ablation it is voted down at once and its client retries after
//! a backoff. The report tracks success rate, mean attempts per committed
//! write, and makespan as the client count grows, for both.

use wv_core::client::ClientOptions;
use wv_core::error::OpKind;
use wv_core::harness::{Harness, HarnessBuilder, Op, SiteSpec};
use wv_core::quorum::QuorumSpec;
use wv_sim::{SimDuration, SimTime};
use wv_txn::lock::DeadlockPolicy;

use crate::drive::{drive, Driven, Plan, Verdict};
use crate::runner;
use crate::table::{pct, Table};

/// Aggregate results for one contention level.
#[derive(Clone, Copy, Debug)]
pub struct ContentionPoint {
    /// Concurrent clients.
    pub clients: usize,
    /// Writes attempted (one per client per round).
    pub attempted: u64,
    /// Writes eventually committed.
    pub committed: u64,
    /// Mean attempts per committed write.
    pub mean_attempts: f64,
    /// Virtual time until the last operation finished (ms).
    pub makespan_ms: f64,
}

/// Milliseconds between rounds: each settles before the next starts, or
/// no-wait's retries meet the next round's writes and take over four attempts.
const ROUND_MS: u64 = 2_400;

fn build(clients: usize, policy: DeadlockPolicy, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::majority(3))
        .deadlock_policy(policy)
        .client_options(ClientOptions {
            max_attempts: 12,
            backoff: SimDuration::from_millis(120),
            ..ClientOptions::default()
        });
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    for _ in 0..clients {
        b = b.client();
    }
    // Uniform 100 ms access from every client to every server
    // (`client_star` only positions a single client).
    let net = wv_net::NetConfig::uniform(3 + clients, crate::topo::half_ms(100.0));
    b.net(net).build().expect("legal contention cluster")
}

/// Runs `rounds` of simultaneous writes from every client: the
/// contention level's aggregates, and the writes' history for the oracle.
pub fn measure(
    clients: usize,
    policy: DeadlockPolicy,
    rounds: usize,
    seed: u64,
) -> (ContentionPoint, Driven) {
    let mut h = build(clients, policy, seed);
    let suite = h.suite_id();
    let client_sites = h.clients().to_vec();
    let mut plan = Plan::default();
    for round in 0..rounds {
        // Stagger arrivals with the *older* operations (lower site ids
        // are older at equal counters) arriving last, so the line hands
        // the lock off by age against the order of arrival.
        let base = round as u64 * ROUND_MS;
        for (k, &c) in client_sites.iter().enumerate() {
            let at = SimTime::from_millis(base + (client_sites.len() - k) as u64 * 37);
            let value = format!("r{round}c{k}").into_bytes();
            plan.op(at, c, Op::Write(suite, value));
        }
    }
    let history = drive(&mut h, plan);
    let ops = &history.ops;
    let mut committed = 0u64;
    let mut attempts_sum = 0u64;
    let mut last_finish = SimTime::ZERO;
    for op in ops {
        assert_eq!(op.kind, OpKind::Write);
        last_finish = last_finish.max(op.finished);
        if op.outcome.is_ok() {
            committed += 1;
            attempts_sum += u64::from(op.attempts);
        }
    }
    let point = ContentionPoint {
        clients,
        attempted: ops.len() as u64,
        committed,
        mean_attempts: if committed == 0 {
            0.0
        } else {
            attempts_sum as f64 / committed as f64
        },
        makespan_ms: last_finish.as_millis_f64(),
    };
    (point, history)
}

/// Builds the E8 report, its histories handed to `verdict`.
pub fn run(verdict: &mut Verdict) -> String {
    let mut out = String::new();
    out.push_str("## E8 — Write contention and the commit-lock ablation\n\n");
    out.push_str(
        "All clients write the same suite simultaneously, 6 rounds 2.4 s \
         apart, majority quorums over three 100 ms representatives.\n\n",
    );
    // The whole 2-policy × 4-client-count grid is independent simulated
    // clusters with fixed seeds: fan all eight points out together.
    const POLICIES: [(&str, DeadlockPolicy); 2] = [
        ("stand in line (shipped)", DeadlockPolicy::WaitDie),
        ("no-wait (vote no at once)", DeadlockPolicy::NoWait),
    ];
    const CLIENTS: [usize; 4] = [1, 2, 4, 8];
    let points = runner::run_tasks(POLICIES.len() * CLIENTS.len(), |k| {
        let (pi, i) = (k / CLIENTS.len(), k % CLIENTS.len());
        measure(CLIENTS[i], POLICIES[pi].1, 6, 800 + i as u64)
    });
    for (pi, (label, _)) in POLICIES.into_iter().enumerate() {
        let mut t = Table::new(
            format!("Contention scaling — {label}"),
            &[
                "clients",
                "attempted",
                "committed",
                "success",
                "mean attempts",
                "makespan (ms)",
            ],
        );
        for i in 0..CLIENTS.len() {
            let (p, history) = &points[pi * CLIENTS.len() + i];
            verdict.judge(format_args!("{label}, {} clients", p.clients), history);
            t.row(&[
                p.clients.to_string(),
                p.attempted.to_string(),
                p.committed.to_string(),
                pct(p.committed as f64 / p.attempted.max(1) as f64),
                format!("{:.2}", p.mean_attempts),
                format!("{:.0}", p.makespan_ms),
            ]);
        }
        out.push_str(&t.to_markdown());
    }
    out.push_str(
        "Shape check: committed versions advance one per committed write \
         (serialised by the commit locks, the version assigned under them). \
         Ablation finding: in line, every write commits on its first attempt \
         and the makespan grows by one lock hold per extra client; voted \
         down at once, a write pays more attempts the more clients there \
         are, and the backoff between them. Waiting used to lose \
         this comparison — a queued writer was granted the lock only to \
         find the version it had picked beforehand stale — which is why \
         the version is now the representative's to assign.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_commits_everything_first_try() {
        let p = measure(1, DeadlockPolicy::WaitDie, 5, 1).0;
        assert_eq!(p.attempted, 5);
        assert_eq!(p.committed, 5);
        assert!((p.mean_attempts - 1.0).abs() < 1e-9);
    }

    #[test]
    fn contending_writers_serialise_without_losing_updates() {
        let p = measure(4, DeadlockPolicy::WaitDie, 4, 2).0;
        assert_eq!(p.attempted, 16);
        assert!(p.committed >= 12, "only {} of 16 committed", p.committed);
    }

    #[test]
    fn standing_in_line_beats_being_voted_down() {
        // The ablation's direction: in line a write commits on its first
        // attempt, since its version is assigned once it holds the lock;
        // turned away it retries, and pays the backoff as well.
        let line = measure(4, DeadlockPolicy::WaitDie, 4, 3).0;
        let nw = measure(4, DeadlockPolicy::NoWait, 4, 3).0;
        assert!(
            (line.mean_attempts - 1.0).abs() < 1e-9,
            "{}",
            line.mean_attempts
        );
        assert!(nw.mean_attempts > 1.2, "no-wait {}", nw.mean_attempts);
        assert!(line.makespan_ms < nw.makespan_ms);
        assert_eq!((nw.committed, line.committed), (16, 16));
    }

    #[test]
    fn eight_no_wait_writers_settle_each_round_within_the_quiet_bound() {
        let history = measure(8, DeadlockPolicy::NoWait, 6, 803).1;
        let round = |t: SimTime| t.as_millis() / ROUND_MS;
        assert!(history
            .ops
            .iter()
            .all(|o| round(o.started) == round(o.finished)));
        assert_eq!(history.judge(), [], "no write needs over 4 attempts");
    }

    #[test]
    fn report_covers_both_policies() {
        let report = run(&mut Verdict::default());
        assert!(report.contains("stand in line"));
        assert!(report.contains("no-wait"));
    }
}
