//! The correctness gate: a checker that covers every op of every phase
//! in time linear in the history (plus one sort per batch).
//!
//! `wv_chaos::oracle::check_log` is quadratic, so it judges the warm-up
//! history only ([`oracle_check`]). This checker consumes each batch as it
//! completes and keeps a few words per committed write, so its memory does
//! not grow with the reads a run performs. Per suite it checks:
//!
//! 1. **Version uniqueness** - no two committed writes share a version.
//! 2. **Gap-freedom** - versions are consecutive from 1, with at most one
//!    hole per in-doubt write (indeterminate or unfinished).
//! 3. **Read freshness** - a read returns at least the highest version
//!    acknowledged before the read was submitted.
//! 4. **Value provenance** - the bytes a read returns at `(suite, version)`
//!    are exactly the payload of the write that committed that version,
//!    and no read returns a version nobody committed.
//! 5. **All-or-nothing transactions** - a committed cross-suite
//!    transaction installed a version in each suite; a failed one's
//!    payload is visible nowhere.
//! 6. **Convergence on exit** - a write quorum of representatives holds
//!    the newest version with the bytes of the write that committed it,
//!    and every representative's contents have provenance.

use std::collections::HashSet;

use wv_core::client::CompletedOp;
use wv_core::{OpError, OpKind};

use crate::gen::{self, Kind, Op};

/// One broken invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    DuplicateVersion {
        suite: u16,
        version: u64,
    },
    VersionGap {
        suite: u16,
        missing: u64,
        allowed: u64,
    },
    StaleRead {
        suite: u16,
        returned: u64,
        floor: u64,
    },
    PhantomRead {
        suite: u16,
        version: u64,
    },
    ForeignValue {
        suite: u16,
        version: u64,
    },
    WrongValue {
        suite: u16,
        version: u64,
    },
    PartialTransaction {
        tag: u64,
    },
    AbortedValueVisible {
        suite: u16,
        tag: u64,
    },
    NotConverged {
        suite: u16,
        newest: u64,
        holders: u32,
        quorum: u32,
    },
    LostAcknowledgedWrite {
        suite: u16,
        newest: u64,
        acknowledged: u64,
    },
}

/// How an op ended, as the checker needs it.
#[derive(Clone, Debug)]
pub enum Ended {
    /// The op completed; `exact` is false when the completion could only
    /// be matched to its op by elimination (retried ops on the thread
    /// transport), in which case the op's tag is not trusted.
    Completed { done: CompletedOp, exact: bool },
    /// The client never reported the op.
    Unfinished,
}

#[derive(Default)]
struct SuiteState {
    /// `tag + 1` of the write that committed each version (0 = none).
    write_tag: Vec<u64>,
    /// `tag + 1` some read returned at each version (0 = never read).
    read_tag: Vec<u64>,
    committed: u64,
    in_doubt: u64,
    /// Highest version acknowledged in earlier batches.
    floor: u64,
}

fn slot(v: &mut Vec<u64>, version: u64) -> &mut u64 {
    let i = version as usize;
    if v.len() <= i {
        v.resize(i + 1, 0);
    }
    &mut v[i]
}

/// The streaming checker of one run.
pub struct Checker {
    seed: u64,
    payload: usize,
    suites: Vec<SuiteState>,
    aborted: HashSet<u64>,
    violations: Vec<Violation>,
    /// Ops seen, and ops that failed, were refused, ended in doubt or
    /// never finished.
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(seed: u64, suites: usize, payload: usize) -> Checker {
        Checker {
            seed,
            payload,
            suites: (0..suites).map(|_| SuiteState::default()).collect(),
            aborted: HashSet::new(),
            violations: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// The `(tag, suite)` a value carries, if it is a payload this run
    /// generated for a write that includes `suite`.
    fn provenance(&self, value: &[u8], suite: u16) -> Option<u64> {
        let (tag, s, s2) = gen::decode_header(value)?;
        if suite != s && suite != s2 {
            return None;
        }
        let claimed = Op {
            kind: Kind::Write,
            suite: s,
            suite2: s2,
            client: 0,
            tag,
            due_us: 0,
        };
        (gen::payload(self.seed, &claimed, self.payload) == value).then_some(tag)
    }

    /// Consumes one batch: every op submitted in it, with how it ended.
    /// All of the batch's ops were submitted after every earlier batch
    /// had completed.
    pub fn ingest(&mut self, batch: &[(Op, Ended)]) {
        self.attempted += batch.len() as u64;
        // Acknowledgements of this batch, per suite: (finished, version).
        let mut acks: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.suites.len()];
        // Writes first, so reads of this batch find their versions.
        for (op, ended) in batch.iter().filter(|(op, _)| op.kind != Kind::Read) {
            let touched: &[u16] = if op.kind == Kind::Txn {
                &[op.suite, op.suite2]
            } else {
                &[op.suite]
            };
            let Ended::Completed { done, exact } = ended else {
                self.failed += 1;
                for &s in touched {
                    self.suites[s as usize].in_doubt += 1;
                }
                continue;
            };
            match &done.outcome {
                Ok(ok) => {
                    let versions: Vec<(u16, u64)> = if op.kind == Kind::Txn {
                        touched
                            .iter()
                            .filter_map(|&s| {
                                ok.multi
                                    .iter()
                                    .find(|(id, _)| id.0 == u64::from(s) + 1)
                                    .map(|(_, v)| (s, v.0))
                            })
                            .collect()
                    } else {
                        vec![(op.suite, ok.version.0)]
                    };
                    if versions.len() != touched.len() {
                        self.violations
                            .push(Violation::PartialTransaction { tag: op.tag });
                    }
                    for (s, v) in versions {
                        let st = &mut self.suites[s as usize];
                        let w = slot(&mut st.write_tag, v);
                        if *w != 0 {
                            self.violations.push(Violation::DuplicateVersion {
                                suite: s,
                                version: v,
                            });
                        }
                        // An inexactly matched completion still consumed
                        // the version; only its tag is unknown.
                        *w = if *exact { op.tag + 1 } else { u64::MAX };
                        st.committed += 1;
                        acks[s as usize].push((done.finished.as_micros(), v));
                    }
                }
                Err(OpError::Indeterminate) => {
                    self.failed += 1;
                    for &s in touched {
                        self.suites[s as usize].in_doubt += 1;
                    }
                }
                Err(_) => {
                    self.failed += 1;
                    if *exact {
                        self.aborted.insert(op.tag);
                    }
                }
            }
        }
        // Freshness floors: highest version acknowledged by each instant.
        for a in &mut acks {
            a.sort_unstable();
            let mut best = 0;
            for e in a.iter_mut() {
                best = best.max(e.1);
                e.1 = best;
            }
        }
        for (op, ended) in batch.iter().filter(|(op, _)| op.kind == Kind::Read) {
            let Ended::Completed { done, .. } = ended else {
                self.failed += 1;
                continue;
            };
            let Ok(ok) = &done.outcome else {
                self.failed += 1;
                continue;
            };
            let s = op.suite;
            let v = ok.version.0;
            let a = &acks[s as usize];
            let started = done.started.as_micros();
            let before = a.partition_point(|&(fin, _)| fin <= started);
            let floor =
                self.suites[s as usize]
                    .floor
                    .max(if before > 0 { a[before - 1].1 } else { 0 });
            if v < floor {
                self.violations.push(Violation::StaleRead {
                    suite: s,
                    returned: v,
                    floor,
                });
            }
            let value = ok.value.as_ref().map_or(&[][..], |b| b.as_slice());
            match self.provenance(value, s) {
                Some(tag) => {
                    if self.aborted.contains(&tag) {
                        self.violations
                            .push(Violation::AbortedValueVisible { suite: s, tag });
                    }
                    let r = slot(&mut self.suites[s as usize].read_tag, v);
                    if *r != 0 && *r != tag + 1 {
                        self.violations.push(Violation::WrongValue {
                            suite: s,
                            version: v,
                        });
                    }
                    *r = tag + 1;
                }
                None => self.violations.push(Violation::ForeignValue {
                    suite: s,
                    version: v,
                }),
            }
        }
        for (st, a) in self.suites.iter_mut().zip(&acks) {
            if let Some(&(_, best)) = a.last() {
                st.floor = st.floor.max(best);
            }
        }
    }

    /// Closes the history: per-suite version accounting, read/write value
    /// agreement, and convergence of `replicas[suite]` - the
    /// `(version, value)` each voting representative holds - at a write
    /// quorum of `quorum` single votes.
    pub fn finish(&mut self, replicas: &[Vec<(u64, Vec<u8>)>], quorum: u32) {
        for (s, (st, held)) in self.suites.iter().zip(replicas).enumerate() {
            let suite = s as u16;
            let newest_committed = st.write_tag.len().saturating_sub(1) as u64;
            let missing = newest_committed.saturating_sub(st.committed);
            if missing > st.in_doubt {
                self.violations.push(Violation::VersionGap {
                    suite,
                    missing,
                    allowed: st.in_doubt,
                });
            }
            let mut found = Vec::new();
            for (v, &r) in st.read_tag.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                match st.write_tag.get(v).copied().unwrap_or(0) {
                    0 if st.in_doubt == 0 => found.push(Violation::PhantomRead {
                        suite,
                        version: v as u64,
                    }),
                    0 | u64::MAX => {}
                    w if w != r => found.push(Violation::WrongValue {
                        suite,
                        version: v as u64,
                    }),
                    _ => {}
                }
            }
            let newest = held.iter().map(|(v, _)| *v).max().unwrap_or(0);
            let holders = held.iter().filter(|(v, _)| *v == newest).count() as u32;
            if holders < quorum {
                found.push(Violation::NotConverged {
                    suite,
                    newest,
                    holders,
                    quorum,
                });
            }
            if newest < st.floor {
                found.push(Violation::LostAcknowledgedWrite {
                    suite,
                    newest,
                    acknowledged: st.floor,
                });
            }
            for (v, value) in held {
                if *v == 0 {
                    continue; // never written: the initial empty value
                }
                match self.provenance(value, suite) {
                    None => found.push(Violation::ForeignValue { suite, version: *v }),
                    Some(tag) => {
                        if self.aborted.contains(&tag) {
                            found.push(Violation::AbortedValueVisible { suite, tag });
                        }
                        let w = st.write_tag.get(*v as usize).copied().unwrap_or(0);
                        if w != 0 && w != u64::MAX && w != tag + 1 {
                            found.push(Violation::WrongValue { suite, version: *v });
                        }
                    }
                }
            }
            self.violations.extend(found);
        }
    }
}

/// Runs the repository's own history oracle over the warm-up log, one
/// suite at a time (versions start at 1 there, as it assumes). Committed
/// transactions become one write per branch.
pub fn oracle_check(
    ops: &[CompletedOp],
    suites: usize,
    sent: &HashSet<Vec<u8>>,
) -> Vec<wv_chaos::oracle::Violation> {
    let mut found = Vec::new();
    for s in 1..=suites as u64 {
        let mut log = Vec::new();
        for o in ops {
            if o.kind != OpKind::Transaction {
                if o.suite.0 == s {
                    log.push(o.clone());
                }
                continue;
            }
            let Ok(ok) = &o.outcome else { continue };
            if let Some((id, v)) = ok.multi.iter().find(|(id, _)| id.0 == s) {
                let mut branch = o.clone();
                branch.kind = OpKind::Write;
                branch.suite = *id;
                branch.outcome = Ok(wv_core::client::OpSuccess {
                    version: *v,
                    value: None,
                    multi: Vec::new(),
                });
                log.push(branch);
            }
        }
        found.extend(wv_chaos::oracle::check_log(&log, Some(sent), false));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use wv_core::client::OpSuccess;
    use wv_core::msg::ReqId;
    use wv_sim::SimTime;
    use wv_storage::{ObjectId, Version};

    const SEED: u64 = 11;
    const LEN: usize = 64;

    fn write_op(tag: u64) -> Op {
        Op {
            kind: Kind::Write,
            suite: 0,
            suite2: 0,
            client: 0,
            tag,
            due_us: 0,
        }
    }

    fn read_op() -> Op {
        Op {
            kind: Kind::Read,
            ..write_op(0)
        }
    }

    fn done(kind: OpKind, version: u64, value: Option<Vec<u8>>, at: (u64, u64)) -> Ended {
        Ended::Completed {
            done: CompletedOp {
                req: ReqId(0),
                kind,
                suite: ObjectId(1),
                outcome: Ok(OpSuccess {
                    version: Version(version),
                    value: value.map(Into::into),
                    multi: Vec::new(),
                }),
                started: SimTime::from_micros(at.0),
                finished: SimTime::from_micros(at.1),
                attempts: 1,
            },
            exact: true,
        }
    }

    fn wrote(tag: u64, version: u64, at: (u64, u64)) -> (Op, Ended) {
        (write_op(tag), done(OpKind::Write, version, None, at))
    }

    fn read(tag: u64, version: u64, at: (u64, u64)) -> (Op, Ended) {
        let value = gen::payload(SEED, &write_op(tag), LEN);
        (read_op(), done(OpKind::Read, version, Some(value), at))
    }

    fn replicas(tag: u64, version: u64) -> Vec<Vec<(u64, Vec<u8>)>> {
        let value = gen::payload(SEED, &write_op(tag), LEN);
        vec![vec![
            (version, value.clone()),
            (version, value),
            (0, Vec::new()),
        ]]
    }

    fn run(batches: &[Vec<(Op, Ended)>], end: Vec<Vec<(u64, Vec<u8>)>>) -> Vec<Violation> {
        let mut c = Checker::new(SEED, 1, LEN);
        for b in batches {
            c.ingest(b);
        }
        c.finish(&end, 2);
        c.violations().to_vec()
    }

    #[test]
    fn a_clean_history_passes() {
        let v = run(
            &[
                vec![wrote(0, 1, (0, 10)), read(0, 1, (20, 30))],
                vec![
                    wrote(1, 2, (40, 50)),
                    read(1, 2, (45, 60)),
                    read(0, 1, (41, 44)),
                ],
            ],
            replicas(1, 2),
        );
        assert_eq!(v, vec![]);
    }

    #[test]
    fn a_planted_stale_read_is_caught() {
        // Version 2 was acknowledged at t=50; a read submitted at t=60
        // still returns version 1.
        let v = run(
            &[vec![
                wrote(0, 1, (0, 10)),
                wrote(1, 2, (40, 50)),
                read(0, 1, (60, 70)),
            ]],
            replicas(1, 2),
        );
        assert_eq!(
            v,
            vec![Violation::StaleRead {
                suite: 0,
                returned: 1,
                floor: 2
            }]
        );
    }

    #[test]
    fn a_stale_read_across_batches_is_caught() {
        let v = run(
            &[
                vec![wrote(0, 1, (0, 10)), wrote(1, 2, (20, 30))],
                vec![read(0, 1, (40, 50))],
            ],
            replicas(1, 2),
        );
        assert!(matches!(v[..], [Violation::StaleRead { floor: 2, .. }]));
    }

    #[test]
    fn a_planted_duplicate_version_is_caught() {
        let v = run(
            &[vec![wrote(0, 1, (0, 10)), wrote(1, 1, (5, 15))]],
            replicas(1, 1),
        );
        assert!(v.contains(&Violation::DuplicateVersion {
            suite: 0,
            version: 1
        }));
    }

    #[test]
    fn a_version_gap_needs_an_in_doubt_write() {
        let gap = vec![wrote(0, 1, (0, 10)), wrote(1, 3, (20, 30))];
        let v = run(std::slice::from_ref(&gap), replicas(1, 3));
        assert_eq!(
            v,
            vec![Violation::VersionGap {
                suite: 0,
                missing: 1,
                allowed: 0
            }]
        );
        let mut excused = gap;
        excused.push((write_op(2), Ended::Unfinished));
        assert_eq!(run(&[excused], replicas(1, 3)), vec![]);
    }

    #[test]
    fn a_value_from_the_wrong_write_is_caught() {
        // Version 2 was committed by write 1, but the read returns the
        // bytes of write 0 under that version.
        let v = run(
            &[vec![
                wrote(0, 1, (0, 10)),
                wrote(1, 2, (20, 30)),
                read(0, 2, (40, 50)),
            ]],
            replicas(1, 2),
        );
        assert_eq!(
            v,
            vec![Violation::WrongValue {
                suite: 0,
                version: 2
            }]
        );
    }

    #[test]
    fn foreign_bytes_and_phantom_versions_are_caught() {
        let mut foreign = read(0, 1, (20, 30));
        if let Ended::Completed { done, .. } = &mut foreign.1 {
            done.outcome = Ok(OpSuccess {
                version: Version(1),
                value: Some(vec![7u8; LEN].into()),
                multi: Vec::new(),
            });
        }
        let v = run(&[vec![wrote(0, 1, (0, 10)), foreign]], replicas(0, 1));
        assert_eq!(
            v,
            vec![Violation::ForeignValue {
                suite: 0,
                version: 1
            }]
        );
        let v = run(
            &[vec![wrote(0, 1, (0, 10)), read(0, 5, (20, 30))]],
            replicas(0, 1),
        );
        assert!(v.contains(&Violation::PhantomRead {
            suite: 0,
            version: 5
        }));
    }

    #[test]
    fn an_unconverged_exit_is_caught() {
        let value = gen::payload(SEED, &write_op(0), LEN);
        let end = vec![vec![(1, value), (0, Vec::new()), (0, Vec::new())]];
        let v = run(&[vec![wrote(0, 1, (0, 10))]], end);
        assert_eq!(
            v,
            vec![Violation::NotConverged {
                suite: 0,
                newest: 1,
                holders: 1,
                quorum: 2
            }]
        );
    }

    #[test]
    fn a_half_committed_transaction_is_caught() {
        let op = Op {
            kind: Kind::Txn,
            suite: 0,
            suite2: 1,
            client: 0,
            tag: 2,
            due_us: 0,
        };
        let mut ended = done(OpKind::Transaction, 1, None, (0, 10));
        if let Ended::Completed { done, .. } = &mut ended {
            done.outcome = Ok(OpSuccess {
                version: Version(1),
                value: None,
                multi: vec![(ObjectId(1), Version(1))],
            });
        }
        let mut c = Checker::new(SEED, 2, LEN);
        c.ingest(&[(op, ended)]);
        assert_eq!(
            c.violations(),
            &[Violation::PartialTransaction { tag: 2 }][..]
        );
    }
}
