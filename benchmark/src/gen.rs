//! Input generation: every op kind, suite, payload and arrival time is a
//! function of the workload and `--seed`, drawn before any timing starts.
//! The system under test sees only the generated inputs.

use wv_sim::DetRng;

use crate::spec::{Skew, Spec};

/// What an op does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Read,
    Write,
    /// Atomic write of two suites.
    Txn,
}

/// One generated operation.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    /// Index of the (first) suite.
    pub suite: u16,
    /// Second suite of a transaction (unused otherwise).
    pub suite2: u16,
    /// Index of the submitting client.
    pub client: u16,
    /// Write sequence number, unique per run; the payload embeds it.
    /// Unused for reads.
    pub tag: u64,
    /// When the op is due, in microseconds from the start of its batch
    /// or rung. Strictly increasing per client, so a completion's
    /// submission time identifies its op.
    pub due_us: u64,
}

/// Header bytes every payload starts with: tag, suite, suite2.
const HEADER: usize = 12;

/// The payload of write `tag` on `(suite, suite2)`: a header naming the
/// write, then filler keyed by the run's seed, so a value read back can
/// be traced to the one write that produced it and nothing else.
pub fn payload(seed: u64, op: &Op, len: usize) -> Vec<u8> {
    let len = len.max(HEADER);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&op.tag.to_le_bytes());
    out.extend_from_slice(&op.suite.to_le_bytes());
    out.extend_from_slice(&op.suite2.to_le_bytes());
    let mut x = wv_sim::derive_seed(seed, op.tag);
    while out.len() < len {
        x = wv_sim::derive_seed(x, 0x9A71_0AD5);
        let bytes = x.to_le_bytes();
        let take = bytes.len().min(len - out.len());
        out.extend_from_slice(&bytes[..take]);
    }
    out
}

/// What `op` submits: its payload if it writes, nothing if it reads.
pub fn value_of(seed: u64, op: &Op, len: usize) -> Vec<u8> {
    match op.kind {
        Kind::Read => Vec::new(),
        Kind::Write | Kind::Txn => payload(seed, op, len),
    }
}

/// The `(tag, suite, suite2)` a payload claims, if it is long enough to
/// carry a header.
pub fn decode_header(value: &[u8]) -> Option<(u64, u16, u16)> {
    if value.len() < HEADER {
        return None;
    }
    let tag = u64::from_le_bytes(value[0..8].try_into().ok()?);
    let suite = u16::from_le_bytes(value[8..10].try_into().ok()?);
    let suite2 = u16::from_le_bytes(value[10..12].try_into().ok()?);
    Some((tag, suite, suite2))
}

/// The seeded op stream of one run.
pub struct Gen {
    seed: u64,
    spec: Spec,
    rng: DetRng,
    zipf_cdf: Vec<f64>,
    issued: u64,
    next_tag: u64,
}

impl Gen {
    pub fn new(spec: &Spec, seed: u64) -> Gen {
        let mut total = 0.0;
        let zipf_cdf = (1..=spec.suites)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect();
        Gen {
            seed,
            spec: spec.clone(),
            rng: DetRng::new(seed).fork_named("wvbench-ops"),
            zipf_cdf,
            issued: 0,
            next_tag: 0,
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn pick_suite(&mut self) -> u16 {
        let n = self.spec.suites;
        let s = match self.spec.skew {
            Skew::Balanced => self.rng.below(n as u64) as usize,
            Skew::RoundRobin => (self.issued as usize) % n,
            Skew::Zipf => {
                let x = self.rng.f64() * self.zipf_cdf[n - 1];
                self.zipf_cdf.partition_point(|&c| c < x).min(n - 1)
            }
        };
        s as u16
    }

    fn next_op(&mut self, client: u16, due_us: u64) -> Op {
        let suite = self.pick_suite();
        let roll = if self.spec.skew == Skew::RoundRobin {
            // Alternate strictly, so the thread workload's mix is exact.
            if (self.issued / self.spec.suites as u64 + self.issued) % 2 == 0 {
                0
            } else {
                99
            }
        } else {
            self.rng.below(100) as u32
        };
        self.issued += 1;
        let kind = if roll < self.spec.read_pct {
            Kind::Read
        } else if roll < self.spec.read_pct + self.spec.txn_pct && self.spec.suites > 1 {
            Kind::Txn
        } else {
            Kind::Write
        };
        let mut op = Op {
            kind,
            suite,
            suite2: suite,
            client,
            tag: 0,
            due_us,
        };
        if kind == Kind::Txn {
            let other = self.rng.below(self.spec.suites as u64 - 1) as u16;
            op.suite2 = if other >= suite { other + 1 } else { other };
        }
        if kind != Kind::Read {
            op.tag = self.next_tag;
            self.next_tag += 1;
        }
        op
    }

    /// One write per suite, from client 0: the state every run starts from.
    pub fn seeding(&mut self) -> Vec<Op> {
        (0..self.spec.suites as u16)
            .map(|suite| {
                let tag = self.next_tag;
                self.next_tag += 1;
                Op {
                    kind: Kind::Write,
                    suite,
                    suite2: suite,
                    client: 0,
                    tag,
                    due_us: 0,
                }
            })
            .collect()
    }

    /// A closed-loop batch of `n` ops dealt round-robin to the clients,
    /// all due at the batch start (one microsecond apart per client, so
    /// submission times stay distinct).
    pub fn batch(&mut self, n: usize) -> Vec<Op> {
        let clients = self.spec.clients;
        (0..n)
            .map(|i| self.next_op((i % clients) as u16, (i / clients) as u64))
            .collect()
    }

    /// An open-loop rung: `n` Poisson arrivals at `rate` ops per second,
    /// each handed to a uniformly chosen client.
    pub fn arrivals(&mut self, n: usize, rate: f64) -> Vec<Op> {
        let clients = self.spec.clients;
        let mean_gap_us = 1e6 / rate;
        let mut last = vec![0u64; clients];
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                t += self.rng.exponential(mean_gap_us);
                let client = self.rng.below(clients as u64) as usize;
                let due = (t as u64).max(last[client] + 1);
                last[client] = due;
                self.next_op(client as u16, due)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn payload_round_trips_its_header() {
        let op = Op {
            kind: Kind::Txn,
            suite: 3,
            suite2: 5,
            client: 1,
            tag: 77,
            due_us: 0,
        };
        let p = payload(11, &op, 128);
        assert_eq!(p.len(), 128);
        assert_eq!(decode_header(&p), Some((77, 3, 5)));
        assert_ne!(p, payload(12, &op, 128), "filler is keyed by the seed");
    }

    #[test]
    fn mixes_match_the_spec() {
        for w in spec::workloads() {
            let mut g = Gen::new(&w, 11);
            let ops = g.batch(20_000);
            let reads = ops.iter().filter(|o| o.kind == Kind::Read).count();
            let share = reads as f64 * 100.0 / ops.len() as f64;
            assert!(
                (share - f64::from(w.read_pct)).abs() < 1.5,
                "{}: {share}% reads, wanted {}",
                w.name,
                w.read_pct
            );
            assert!(ops.iter().all(|o| (o.suite as usize) < w.suites));
            assert!(ops
                .iter()
                .filter(|o| o.kind == Kind::Txn)
                .all(|o| o.suite != o.suite2 && (o.suite2 as usize) < w.suites));
        }
    }

    #[test]
    fn arrivals_are_strictly_increasing_per_client() {
        let w = spec::workload("sim-write").expect("known");
        let mut g = Gen::new(&w, 5);
        let ops = g.arrivals(5_000, 60.0);
        let mut last = vec![None; w.clients];
        for o in &ops {
            let l = &mut last[o.client as usize];
            assert!(l.map_or(true, |p| o.due_us > p));
            *l = Some(o.due_us);
        }
        let span_s = ops.last().expect("non-empty").due_us as f64 / 1e6;
        let rate = ops.len() as f64 / span_s;
        assert!((rate - 60.0).abs() < 4.0, "rate {rate}");
    }
}
