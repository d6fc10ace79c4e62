//! Quorum-decision audit log: why the client picked those sites.
//!
//! Tracing (see [`crate::trace`]) records *what happened*; the audit log
//! records *why the planner chose it*. Every plan decision — the
//! optimistic fetch guess, the ordered fetch candidate list, a failover
//! to the next candidate, a write or transaction quorum — appends one [`AuditRecord`] carrying the decision's inputs
//! (policy, plan generation, per-site cost, health EWMA, suspicion,
//! load) and the chosen sites.
//!
//! The determinism contract is the same as for tracing: an audit hook
//! only ever reads state the planner already computed plus the node's
//! virtual clock. It draws no randomness and emits no effects, so an
//! audited run is message-for-message identical to an unaudited run.
//! Records are drained per node and concatenated in site order, making
//! the serialized form byte-identical at any worker count.
//!
//! Serialization is JSONL over [`crate::json`]: one object per line,
//! keys alphabetical, integers only (times in microseconds, suspicion in
//! milli-units), so audit files diff cleanly and replay artifacts can
//! embed them without a float in sight.

use crate::json::Value;
use crate::time::SimTime;
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
            site: v.get("site")?.as_int()? as u16,
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
            site: v.get("site")?.as_int()? as u16,
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
                .map(|s| s.as_int().map(|i| i as u16))
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

/// Per-node decision buffer. See the module docs for the contract.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    site: u16,
    records: Vec<AuditRecord>,
}

impl AuditLog {
    /// Creates an empty log for the given site.
    pub fn new(site: u16) -> Self {
        AuditLog {
            site,
            records: Vec::new(),
        }
    }

    /// Appends one decision. The log stamps site and time itself so the
    /// caller cannot record on another node's behalf.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        kind: DecisionKind,
        op: u64,
        suite: u64,
        policy: &str,
        generation: u64,
        cursor: u64,
        rerouted: bool,
        chosen: Vec<u16>,
        inputs: Vec<SiteInput>,
        now: SimTime,
    ) {
        self.records.push(AuditRecord {
            at_us: now.as_micros(),
            op,
            site: self.site,
            suite,
            kind,
            policy: policy.to_string(),
            generation,
            cursor,
            rerouted,
            chosen,
            inputs,
        });
    }

    /// Number of decisions recorded so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read-only view of the recorded decisions, in decision order.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Drains the buffer, leaving the log empty.
    pub fn take(&mut self) -> Vec<AuditRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Serializes records as JSONL: one object per line, keys alphabetical.
pub fn to_jsonl(records: &[AuditRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 192);
    for r in records {
        out.push_str(&r.to_value().to_json());
        out.push('\n');
    }
    out
}

/// Parses the output of [`to_jsonl`] back into audit records.
pub fn from_jsonl(text: &str) -> Result<Vec<AuditRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = crate::json::parse(line)
            .ok_or_else(|| format!("line {}: not valid JSON", lineno + 1))?;
        let rec = AuditRecord::from_value(&v)
            .ok_or_else(|| format!("line {}: not an audit record", lineno + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

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

    #[test]
    fn records_round_trip_through_jsonl() {
        let mut log = AuditLog::new(7);
        log.record(
            DecisionKind::FetchPlan,
            0x2a_0007,
            3,
            "load_balanced",
            4,
            1,
            true,
            vec![0, 2],
            sample_inputs(),
            t(1500),
        );
        log.record(
            DecisionKind::FetchFailover,
            0x2a_0007,
            3,
            "load_balanced",
            4,
            1,
            false,
            vec![2],
            Vec::new(),
            t(2600),
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].site, 7);
        assert_eq!(log.records()[0].at_us, 1500);

        let text = to_jsonl(log.records());
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, log.records());

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

    #[test]
    fn take_drains() {
        let mut log = AuditLog::new(0);
        log.record(
            DecisionKind::WriteQuorum,
            1,
            0,
            "cheapest_first",
            0,
            0,
            false,
            vec![0, 1],
            Vec::new(),
            t(10),
        );
        assert_eq!(log.take().len(), 1);
        assert!(log.is_empty());
    }
}
