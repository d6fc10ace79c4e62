//! The nodes' counters add up. A report sums [`ClientStats`] and
//! [`ServerStats`] over sites and trials with `+=` or [`Sum`], and reads
//! each counter where its node declares it: a new counter goes in the
//! node's stats struct and in its sum below.

use std::iter::Sum;
use std::ops::AddAssign;

use crate::client::ClientStats;
use crate::server::ServerStats;

impl AddAssign for ClientStats {
    fn add_assign(&mut self, o: ClientStats) {
        self.reads_cache_hit += o.reads_cache_hit;
        self.reads_fetched += o.reads_fetched;
        self.reads_contents_with_inquiry += o.reads_contents_with_inquiry;
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.attempts_exhausted += o.attempts_exhausted;
        self.plan_cache_hits += o.plan_cache_hits;
        self.plan_cache_misses += o.plan_cache_misses;
        self.suspicions_raised += o.suspicions_raised;
        self.reroutes += o.reroutes;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.lease_expiries += o.lease_expiries;
        self.refused_busy += o.refused_busy;
        self.trains += o.trains;
        self.writes_ridden += o.writes_ridden;
        for (sum, n) in self.retry_causes.iter_mut().zip(o.retry_causes) {
            *sum += n;
        }
    }
}

impl Sum for ClientStats {
    fn sum<I: Iterator<Item = ClientStats>>(iter: I) -> ClientStats {
        iter.fold(ClientStats::default(), |mut sum, s| {
            sum += s;
            sum
        })
    }
}

impl AddAssign for ServerStats {
    fn add_assign(&mut self, o: ServerStats) {
        self.inquiries += o.inquiries;
        self.reads += o.reads;
        self.busy += o.busy;
        self.prepares += o.prepares;
        self.votes_no += o.votes_no;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.stale_config += o.stale_config;
        self.weak_updates += o.weak_updates;
        self.recoveries += o.recoveries;
        self.checkpoints += o.checkpoints;
        self.repair_probes += o.repair_probes;
        self.repair_serves += o.repair_serves;
        self.repairs_completed += o.repairs_completed;
        self.wal_batches += o.wal_batches;
        self.wal_batched_records += o.wal_batched_records;
        self.wal_batch_suites += o.wal_batch_suites;
        self.torn_truncations += o.torn_truncations;
        self.corrupt_records_detected += o.corrupt_records_detected;
        self.quarantines += o.quarantines;
        self.requarantine_repairs += o.requarantine_repairs;
        self.disk_refusals += o.disk_refusals;
        self.poison_escapes += o.poison_escapes;
        self.served_while_quarantined += o.served_while_quarantined;
    }
}

impl Sum for ServerStats {
    fn sum<I: Iterator<Item = ServerStats>>(iter: I) -> ServerStats {
        iter.fold(ServerStats::default(), |mut sum, s| {
            sum += s;
            sum
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each literal names every counter (no `..Default::default()`), so a
    // counter added to a struct does not compile here until it is added
    // to the literal, and the test fails until it is added to the sum.

    /// Every counter at `k` times its own position.
    fn client(k: u64) -> ClientStats {
        ClientStats {
            reads_cache_hit: k,
            reads_fetched: 2 * k,
            reads_contents_with_inquiry: 3 * k,
            retries: 4 * k,
            timeouts: 5 * k,
            attempts_exhausted: 6 * k,
            plan_cache_hits: 7 * k,
            plan_cache_misses: 8 * k,
            suspicions_raised: 9 * k,
            reroutes: 10 * k,
            cache_hits: 11 * k,
            cache_misses: 12 * k,
            lease_expiries: 13 * k,
            refused_busy: 14 * k,
            trains: 15 * k,
            writes_ridden: 16 * k,
            retry_causes: [17, 18, 19, 20, 21, 22, 23].map(|i| i * k),
        }
    }

    /// Every counter at `k` times its own position.
    fn server(k: u64) -> ServerStats {
        ServerStats {
            inquiries: k,
            reads: 2 * k,
            busy: 3 * k,
            prepares: 4 * k,
            votes_no: 5 * k,
            commits: 6 * k,
            aborts: 7 * k,
            stale_config: 8 * k,
            weak_updates: 9 * k,
            recoveries: 10 * k,
            checkpoints: 11 * k,
            repair_probes: 12 * k,
            repair_serves: 13 * k,
            repairs_completed: 14 * k,
            wal_batches: 15 * k,
            wal_batched_records: 16 * k,
            wal_batch_suites: 17 * k,
            torn_truncations: 18 * k,
            corrupt_records_detected: 19 * k,
            quarantines: 20 * k,
            requarantine_repairs: 21 * k,
            disk_refusals: 22 * k,
            poison_escapes: 23 * k,
            served_while_quarantined: 24 * k,
        }
    }

    #[test]
    fn client_stats_add_up_counter_by_counter() {
        let mut a = client(1);
        a += client(10);
        assert_eq!(a, client(11));
        assert_eq!(
            [client(1), client(10)].into_iter().sum::<ClientStats>(),
            client(11)
        );
    }

    #[test]
    fn server_stats_add_up_counter_by_counter() {
        let mut a = server(1);
        a += server(10);
        assert_eq!(a, server(11));
        assert_eq!(
            [server(1), server(10)].into_iter().sum::<ServerStats>(),
            server(11)
        );
    }
}
