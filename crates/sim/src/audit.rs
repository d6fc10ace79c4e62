//! Quorum-decision audit log: why the client picked those sites.
//!
//! Tracing (see [`crate::trace`]) records *what happened*; the audit log
//! records *why the planner chose it*. Every plan decision — the
//! optimistic fetch guess, the ordered fetch candidate list, a failover
//! to the next candidate, a write or transaction quorum — appends one [`AuditRecord`] carrying the decision's inputs
//! (policy, plan generation, per-site cost, health EWMA, suspicion,
//! load) and the chosen sites.
//!
//! A node's [`crate::trace::Recorder`] keeps its decisions beside its
//! spans, under the same switch and the same contract: a decision is built
//! only from state the planner already computed plus the node's virtual
//! clock, so an audited run is message-for-message identical to an
//! unaudited run. Records are drained per node and concatenated in site
//! order, making the serialized form byte-identical at any worker count.
//!
//! Serialization is JSONL over [`crate::json`]: one object per line,
//! keys alphabetical, integers only (times in microseconds, suspicion in
//! milli-units), so audit files diff cleanly and replay artifacts can
//! embed them without a float in sight.

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// Which planner decision a record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecisionKind {
    /// The sites a read asks for the contents alongside its inquiry: a
    /// zero-vote copy ranked first, then the best-ranked voting site.
    OptimisticFetch,
    /// The ordered fetch candidate list built after version inquiry.
    FetchPlan,
    /// Fetch moved to the next candidate after a refusal or timeout.
    FetchFailover,
    /// The site set assembled for a write quorum.
    WriteQuorum,
    /// The per-suite site set assembled under a multi-suite transaction.
    TxnQuorum,
}

impl DecisionKind {
    /// Every variant, in declaration order; [`DecisionKind::from_name`]
    /// searches this table (see `SpanKind::ALL` for the rationale).
    pub const ALL: [DecisionKind; 5] = [
        DecisionKind::OptimisticFetch,
        DecisionKind::FetchPlan,
        DecisionKind::FetchFailover,
        DecisionKind::WriteQuorum,
        DecisionKind::TxnQuorum,
    ];

    /// Stable lowercase name used in the JSONL form.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::OptimisticFetch => "optimistic_fetch",
            DecisionKind::FetchPlan => "fetch_plan",
            DecisionKind::FetchFailover => "fetch_failover",
            DecisionKind::WriteQuorum => "write_quorum",
            DecisionKind::TxnQuorum => "txn_quorum",
        }
    }

    /// Inverse of [`DecisionKind::name`].
    pub fn from_name(s: &str) -> Option<DecisionKind> {
        DecisionKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The planner's view of one candidate site at decision time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteInput {
    /// The candidate site.
    pub site: u16,
    /// Configured access cost for the site (the planner's static input),
    /// fixed-point microseconds.
    pub cost_us: u64,
    /// Health-tracker EWMA round-trip estimate, fixed-point microseconds;
    /// 0 when no health tracking is active.
    pub rtt_us: u64,
    /// Accrual suspicion level in milli-units (1000 = 1.0); 0 when no
    /// health tracking is active.
    pub suspicion_milli: u64,
    /// True if the health tracker currently suspects the site.
    pub suspected: bool,
    /// Outstanding-request load the balancer sees for the site.
    pub load: u64,
}

impl SiteInput {
    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("cost_us".into(), Value::Int(self.cost_us));
        m.insert("load".into(), Value::Int(self.load));
        m.insert("rtt_us".into(), Value::Int(self.rtt_us));
        m.insert("site".into(), Value::Int(self.site as u64));
        m.insert("suspected".into(), Value::Bool(self.suspected));
        m.insert("suspicion_milli".into(), Value::Int(self.suspicion_milli));
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Option<SiteInput> {
        Some(SiteInput {
            site: json::int(v, "site")?,
            cost_us: v.get("cost_us")?.as_int()?,
            rtt_us: v.get("rtt_us")?.as_int()?,
            suspicion_milli: v.get("suspicion_milli")?.as_int()?,
            suspected: v.get("suspected")?.as_bool()?,
            load: v.get("load")?.as_int()?,
        })
    }
}

/// One planner decision with its inputs and outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Virtual time of the decision, microseconds.
    pub at_us: u64,
    /// Operation identifier (same id space as trace spans' `op`).
    pub op: u64,
    /// Deciding client site.
    pub site: u16,
    /// Suite the decision concerns.
    pub suite: u64,
    /// Which decision this is.
    pub kind: DecisionKind,
    /// Active site-selection policy name (e.g. `cheapest_first`).
    pub policy: String,
    /// Plan-cache generation the decision was made under.
    pub generation: u64,
    /// Load-balancer cursor position after the decision.
    pub cursor: u64,
    /// True if health-aware reordering changed the cost order.
    pub rerouted: bool,
    /// The chosen sites, in the order the planner will use them.
    pub chosen: Vec<u16>,
    /// Planner inputs for every candidate considered, in plan order.
    pub inputs: Vec<SiteInput>,
}

impl AuditRecord {
    /// Renders the record as a [`crate::json`] value (keys alphabetical).
    pub fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("at_us".into(), Value::Int(self.at_us));
        m.insert(
            "chosen".into(),
            Value::Array(self.chosen.iter().map(|&s| Value::Int(s as u64)).collect()),
        );
        m.insert("cursor".into(), Value::Int(self.cursor));
        m.insert("generation".into(), Value::Int(self.generation));
        m.insert(
            "inputs".into(),
            Value::Array(self.inputs.iter().map(SiteInput::to_value).collect()),
        );
        m.insert("kind".into(), Value::Str(self.kind.name().to_string()));
        m.insert("op".into(), Value::Int(self.op));
        m.insert("policy".into(), Value::Str(self.policy.clone()));
        m.insert("rerouted".into(), Value::Bool(self.rerouted));
        m.insert("site".into(), Value::Int(self.site as u64));
        m.insert("suite".into(), Value::Int(self.suite));
        Value::Object(m)
    }

    /// Parses a record from a [`crate::json`] value.
    pub fn from_value(v: &Value) -> Option<AuditRecord> {
        Some(AuditRecord {
            at_us: v.get("at_us")?.as_int()?,
            op: v.get("op")?.as_int()?,
            site: json::int(v, "site")?,
            suite: v.get("suite")?.as_int()?,
            kind: DecisionKind::from_name(v.get("kind")?.as_str()?)?,
            policy: v.get("policy")?.as_str()?.to_string(),
            generation: v.get("generation")?.as_int()?,
            cursor: v.get("cursor")?.as_int()?,
            rerouted: v.get("rerouted")?.as_bool()?,
            chosen: v
                .get("chosen")?
                .as_array()?
                .iter()
                .map(|s| u16::try_from(s.as_int()?).ok())
                .collect::<Option<Vec<_>>>()?,
            inputs: v
                .get("inputs")?
                .as_array()?
                .iter()
                .map(SiteInput::from_value)
                .collect::<Option<Vec<_>>>()?,
        })
    }
}

/// Serializes records as JSONL: one [`AuditRecord::to_value`] per line.
pub fn to_jsonl(records: &[AuditRecord]) -> String {
    crate::json::to_jsonl(records, AuditRecord::to_value)
}

/// Parses the output of [`to_jsonl`] back into audit records.
pub fn from_jsonl(text: &str) -> Result<Vec<AuditRecord>, String> {
    crate::json::from_jsonl(text, "an audit record", AuditRecord::from_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};
    use crate::trace::Recorder;

    fn sample_inputs() -> Vec<SiteInput> {
        vec![
            SiteInput {
                site: 0,
                cost_us: 10,
                rtt_us: 10_400,
                suspicion_milli: 120,
                suspected: false,
                load: 2,
            },
            SiteInput {
                site: 2,
                cost_us: 25,
                rtt_us: 0,
                suspicion_milli: 0,
                suspected: true,
                load: 0,
            },
        ]
    }

    fn decision(kind: DecisionKind, rerouted: bool, chosen: Vec<u16>) -> AuditRecord {
        AuditRecord {
            at_us: 0,
            op: 0x2a_0007,
            site: 0,
            suite: 3,
            kind,
            policy: "load_balanced".into(),
            generation: 4,
            cursor: 1,
            rerouted,
            chosen,
            inputs: sample_inputs(),
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let mut rec = Recorder::new(7);
        rec.enable();
        let t = |us| SimTime::ZERO + SimDuration::from_micros(us);
        rec.decision(t(1500), || {
            decision(DecisionKind::FetchPlan, true, vec![0, 2])
        });
        rec.decision(t(2600), || {
            decision(DecisionKind::FetchFailover, false, vec![2])
        });
        let (_, records) = rec.take();
        assert_eq!(records.len(), 2);
        assert_eq!((records[0].site, records[0].at_us), (7, 1500), "stamped");

        let text = to_jsonl(&records);
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, records);
        // A site too large for a `u16` is refused, not wrapped to site 0.
        let line = text.lines().next().expect("a record");
        for (was, big) in [
            ("\"chosen\":[0,2]", "\"chosen\":[65536,2]"),
            ("\"site\":7,", "\"site\":65536,"),
        ] {
            assert!(line.contains(was), "{was}");
            assert!(from_jsonl(&line.replacen(was, big, 1)).is_err(), "{big}");
        }

        // Keys stay alphabetical so audit files diff cleanly.
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("{\"at_us\":1500,\"chosen\":[0,2],\"cursor\":1,"));
    }

    #[test]
    fn decision_kind_names_round_trip() {
        for k in DecisionKind::ALL {
            assert_eq!(DecisionKind::from_name(k.name()), Some(k));
        }
        assert_eq!(DecisionKind::from_name("bogus"), None);
        let mut names: Vec<_> = DecisionKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DecisionKind::ALL.len());
    }
}
