//! Failure shrinking: delta-debug a failing schedule to a minimal
//! reproducer.
//!
//! A campaign failure arrives as a 70-odd-event schedule; most of those
//! events are noise. The shrinker runs classic ddmin over the event list
//! (remove chunks, keep any subset that still violates an invariant,
//! halve the chunk size when stuck) until the schedule is 1-minimal —
//! removing any single event makes the failure vanish. A second pass then
//! compresses time, pulling each event back to its predecessor's instant
//! when the failure survives, so the reproducer is short in wall-clock as
//! well as in events.
//!
//! Every candidate is judged by actually replaying it
//! ([`crate::exec::run_schedule`]) and consulting the oracle — the
//! predicate is "some invariant still breaks", not "the same invariant
//! breaks", which lets the shrinker slide between related symptoms of one
//! bug. Replays are deterministic, so the shrunk schedule fails forever.

use crate::exec::run_schedule;
use crate::oracle::check_trial;
use crate::schedule::{ClusterSpec, FaultEvent, Schedule};

/// Cap on candidate replays; ddmin on a 70–100 event schedule typically
/// needs well under half of this.
const BUDGET: u64 = 600;

/// A finished shrink: the minimal schedule and how hard it was to find.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimal failing schedule (same seed as the original).
    pub schedule: Schedule,
    /// Violations the minimal schedule still produces.
    pub violations: Vec<crate::oracle::Violation>,
    /// Candidate replays spent.
    pub evaluations: u64,
    /// Event count before shrinking.
    pub original_events: usize,
}

struct Shrinker<'a> {
    spec: &'a ClusterSpec,
    seed: u64,
    evaluations: u64,
}

impl Shrinker<'_> {
    /// Replays `events` and reports whether any invariant still breaks.
    fn fails(&mut self, events: &[FaultEvent]) -> bool {
        self.evaluations += 1;
        let candidate = Schedule {
            seed: self.seed,
            events: events.to_vec(),
        };
        !check_trial(&run_schedule(self.spec, &candidate), false).is_empty()
    }

    fn exhausted(&self) -> bool {
        self.evaluations >= BUDGET
    }

    /// Classic ddmin: returns a 1-minimal failing subsequence of
    /// `events` (or the best found when the budget runs out).
    fn ddmin(&mut self, mut events: Vec<FaultEvent>) -> Vec<FaultEvent> {
        let mut granularity = 2usize;
        while events.len() >= 2 && !self.exhausted() {
            let chunk = events.len().div_ceil(granularity);
            let mut reduced = false;
            let mut start = 0usize;
            while start < events.len() && !self.exhausted() {
                let end = (start + chunk).min(events.len());
                let complement: Vec<FaultEvent> = events[..start]
                    .iter()
                    .chain(&events[end..])
                    .cloned()
                    .collect();
                if complement.len() < events.len() && self.fails(&complement) {
                    events = complement;
                    granularity = granularity.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if granularity >= events.len() {
                    break;
                }
                granularity = (granularity * 2).min(events.len());
            }
        }
        events
    }

    /// Pulls events earlier in time while the failure survives. Each move
    /// sets an event's instant to its predecessor's (the first event goes
    /// to 0), preserving sortedness, and iterates to a fixpoint.
    fn compress_time(&mut self, mut events: Vec<FaultEvent>) -> Vec<FaultEvent> {
        loop {
            let mut changed = false;
            for i in 0..events.len() {
                if self.exhausted() {
                    return events;
                }
                let target = if i == 0 { 0 } else { events[i - 1].at_ms };
                if events[i].at_ms > target {
                    let mut candidate = events.clone();
                    candidate[i].at_ms = target;
                    if self.fails(&candidate) {
                        events = candidate;
                        changed = true;
                    }
                }
            }
            if !changed {
                return events;
            }
        }
    }
}

/// Shrinks a failing schedule to a minimal reproducer.
///
/// Returns `None` when the schedule does not fail in the first place.
/// Candidate replays are capped at 600; when the cap is reached
/// mid-shrink, the smallest failing schedule found so far is returned —
/// still a valid reproducer, just maybe not 1-minimal.
pub fn shrink(spec: &ClusterSpec, schedule: &Schedule) -> Option<ShrinkResult> {
    let mut s = Shrinker {
        spec,
        seed: schedule.seed,
        evaluations: 0,
    };
    if !s.fails(&schedule.events) {
        return None;
    }
    let minimal = s.ddmin(schedule.events.clone());
    let minimal = s.compress_time(minimal);
    let shrunk = Schedule {
        seed: schedule.seed,
        events: minimal,
    };
    let violations = check_trial(&run_schedule(spec, &shrunk), false);
    debug_assert!(!violations.is_empty(), "shrinking preserved the failure");
    Some(ShrinkResult {
        schedule: shrunk,
        violations,
        evaluations: s.evaluations,
        original_events: schedule.events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, trial_schedule, CampaignConfig};

    #[test]
    fn shrinking_a_passing_schedule_returns_none() {
        let spec = ClusterSpec::majority(3, 1);
        let schedule = crate::schedule::generate(&spec, 1);
        assert!(shrink(&spec, &schedule).is_none());
    }

    #[test]
    fn a_broken_quorum_failure_shrinks_to_a_small_reproducer() {
        let spec = ClusterSpec::broken(5, 2, 2);
        let cfg = CampaignConfig {
            master_seed: 0xBAD,
            trials: 24,
            spec,
        };
        let report = run_campaign(&cfg);
        let failure = report.failures.first().expect("broken quorums fail");
        let trial = (0..cfg.trials as u64)
            .find(|&i| wv_bench::runner::trial_seed(cfg.master_seed, i) == failure.seed)
            .expect("failure seed maps back to a trial index");
        let schedule = trial_schedule(&cfg, trial);

        let result = shrink(&spec, &schedule).expect("still fails");
        assert!(
            result.schedule.events.len() <= 10,
            "expected a <=10 event reproducer, got {} (from {})",
            result.schedule.events.len(),
            result.original_events
        );
        assert!(result.schedule.events.len() < result.original_events);
        assert!(!result.violations.is_empty());

        // The artifact round-trips and replays to the same violations.
        let text = result.schedule.to_json(&spec);
        let (spec2, schedule2) = Schedule::from_json(&text).expect("artifact parses");
        let replay = check_trial(&run_schedule(&spec2, &schedule2), false);
        assert_eq!(
            replay, result.violations,
            "artifact replays deterministically"
        );
    }
}
