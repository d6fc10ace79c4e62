//! The fault-schedule DSL: seeded timelines of operations and faults.
//!
//! A [`Schedule`] is a sorted list of [`FaultEvent`]s — client operations,
//! mid-run reconfigurations, and the harness's own [`Fault`]s: crashes
//! and recoveries, partitions and heals, link-loss bursts, delay spikes,
//! duplication windows, and disk faults (torn writes, bit flips, I/O
//! errors, sync stalls) — drawn by a pure function of `(cluster spec,
//! seed)`. The executor in [`crate::exec`] replays a schedule against a
//! live harness, injecting each fault as it stands; because both
//! generation and execution are deterministic, any seed replays its exact
//! failure, and the shrinker can carve events out of a schedule and re-run
//! the remainder.
//!
//! Schedules serialise to a small JSON artifact (see [`Schedule::to_json`])
//! so a shrunk reproducer survives outside the process that found it.

use std::collections::{BTreeMap, BTreeSet};

use wv_core::{Fault, QuorumSpec, VoteAssignment};
use wv_net::{Fault as NetFault, Partition, SiteId};
use wv_sim::{DetRng, FailureSchedule, SimDuration, SimTime};

use crate::json::{self, int, Value};

/// Mixed into the schedule seed so generator draws are decorrelated from
/// the harness's own streams (which consume the raw trial seed).
const GEN_SALT: u64 = 0xC4A0_5C4E_D01E_5EED;

/// Generator draws per schedule (events before any mttf overlay).
const STEPS: usize = 70;

/// Maximum spacing between consecutive draws, in milliseconds.
const MAX_GAP_MS: u64 = 400;

/// The shape of the cluster a schedule runs against.
///
/// Servers occupy sites `0..servers`, each holding one vote; clients
/// occupy the next `clients` sites. The quorum sizes are in votes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Number of voting servers (one vote each).
    pub servers: usize,
    /// Number of pure client sites.
    pub clients: usize,
    /// Read quorum size, in votes.
    pub read_quorum: u32,
    /// Write quorum size, in votes.
    pub write_quorum: u32,
    /// Build the harness without the quorum intersection check
    /// (fault-injection only — lets `r + w = N` clusters exist). The one
    /// flag the generator reads: such a spec draws no reconfiguration.
    pub unchecked_quorums: bool,
    /// Run the self-healing layer: anti-entropy repair on every server
    /// plus client health tracking. Never consulted by the
    /// schedule generator, so repair-on and repair-off arms replay the
    /// exact same fault timeline.
    pub repair: bool,
    /// Run every server with WAL group commit: records arriving during a
    /// sync ride the next one in a single durable write. Like `repair`,
    /// never consulted by the schedule generator, so batched and
    /// unbatched arms replay the same fault timeline.
    pub group_commit: bool,
    /// Attach a validated-mode weak representative (the client cache
    /// tier) to every client. Like the other arm flags, never consulted
    /// by the schedule generator, so cached and uncached arms replay the
    /// same fault timeline.
    pub cache_tier: bool,
    /// Apply the schedule's disk-fault events (torn writes, bit flips,
    /// I/O errors, sync stalls). Like the other arm flags, never
    /// consulted by the schedule generator — every schedule *carries*
    /// the disk-fault timeline; this flag decides whether the executor
    /// injects it, so faulty-disk and clean-disk arms replay the same
    /// byte-identical schedule.
    pub disk_faults: bool,
    /// Number of disjoint suites hosted on the cluster (at least 1).
    /// Like the other arm flags, never consulted by the schedule
    /// generator: the executor derives each operation's target suite
    /// from fields the schedule already carries, so single-suite and
    /// multi-suite arms replay the exact same fault timeline.
    pub suites: usize,
}

impl ClusterSpec {
    /// A healthy majority-quorum cluster.
    pub fn majority(servers: usize, clients: usize) -> Self {
        let maj = (servers as u32) / 2 + 1;
        ClusterSpec {
            servers,
            clients,
            read_quorum: maj,
            write_quorum: maj,
            unchecked_quorums: false,
            repair: false,
            group_commit: false,
            cache_tier: false,
            disk_faults: false,
            suites: 1,
        }
    }

    /// The same cluster with the self-healing layer switched on.
    pub fn with_repair(mut self) -> Self {
        self.repair = true;
        self
    }

    /// The same cluster with WAL group commit switched on.
    pub fn with_group_commit(mut self) -> Self {
        self.group_commit = true;
        self
    }

    /// The same cluster with the client cache tier switched on.
    pub fn with_cache_tier(mut self) -> Self {
        self.cache_tier = true;
        self
    }

    /// The same cluster with disk-fault injection switched on.
    pub fn with_disk_faults(mut self) -> Self {
        self.disk_faults = true;
        self
    }

    /// The same cluster hosting `suites` disjoint suites (minimum 1).
    pub fn with_suites(mut self, suites: usize) -> Self {
        self.suites = suites.max(1);
        self
    }

    /// A deliberately broken cluster: `read_quorum + write_quorum ==
    /// servers`, so quorums need not intersect and stale reads become
    /// possible once faults steer readers and writers apart.
    ///
    /// # Panics
    ///
    /// Panics if `read_quorum` leaves no room for a positive write quorum.
    pub fn broken(servers: usize, clients: usize, read_quorum: u32) -> Self {
        assert!(
            read_quorum >= 1 && (read_quorum as usize) < servers,
            "need 1 <= r < N for a broken r + w = N split"
        );
        ClusterSpec {
            servers,
            clients,
            read_quorum,
            write_quorum: servers as u32 - read_quorum,
            unchecked_quorums: true,
            repair: false,
            group_commit: false,
            cache_tier: false,
            disk_faults: false,
            suites: 1,
        }
    }

    /// Total sites (servers then clients).
    pub fn total_sites(&self) -> usize {
        self.servers + self.clients
    }
}

/// One timed entry in a chaos schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the event applies (virtual milliseconds from trial start).
    pub at_ms: u64,
    /// What happens.
    pub kind: EventKind,
}

impl FaultEvent {
    /// `kind` at `at_ms`.
    pub fn new(at_ms: u64, kind: impl Into<EventKind>) -> Self {
        FaultEvent {
            at_ms,
            kind: kind.into(),
        }
    }
}

/// What a [`FaultEvent`] does: a client operation, or a fault.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Client `client` starts a write; `payload` tags the bytes written so
    /// the oracle can trace read values back to writes even after the
    /// shrinker drops neighbouring events.
    Write {
        /// Client index (0-based among clients).
        client: usize,
        /// Payload tag, unique within the schedule.
        payload: u64,
    },
    /// Client `client` starts a read.
    Read {
        /// Client index.
        client: usize,
    },
    /// Client `client` starts an online reconfiguration to the given
    /// quorum sizes (votes stay one-per-server).
    Reconfigure {
        /// Client index.
        client: usize,
        /// New read quorum.
        read_quorum: u32,
        /// New write quorum.
        write_quorum: u32,
    },
    /// A fault the executor hands to
    /// [`Harness::inject`](wv_core::Harness::inject). A disk fault
    /// (anything but [`Fault::Net`]) applies only under
    /// [`ClusterSpec::disk_faults`].
    Fault(Fault),
}

impl From<Fault> for EventKind {
    fn from(fault: Fault) -> Self {
        EventKind::Fault(fault)
    }
}

impl From<NetFault> for EventKind {
    fn from(fault: NetFault) -> Self {
        EventKind::Fault(Fault::Net(fault))
    }
}

impl EventKind {
    /// A short stable name, used by coverage counters and the JSON
    /// artifact.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Write { .. } => "write",
            EventKind::Read { .. } => "read",
            EventKind::Reconfigure { .. } => "reconfigure",
            EventKind::Fault(Fault::Net(fault)) => match fault {
                NetFault::Crash(_) => "crash",
                NetFault::Recover(_) => "recover",
                NetFault::Partition(_) => "partition",
                NetFault::Heal => "heal",
                NetFault::DropAll(_) => "loss_burst",
                NetFault::ExtraDelay(_) => "delay_spike",
                NetFault::Duplicate(_) => "duplication",
            },
            EventKind::Fault(Fault::TornWrite(_)) => "torn_write",
            EventKind::Fault(Fault::BitFlip(_)) => "bit_flip",
            EventKind::Fault(Fault::IoErrors { .. }) => "io_error",
            EventKind::Fault(Fault::DiskStall { .. }) => "disk_stall",
        }
    }
}

/// A complete fault schedule: the trial seed (which also drives the
/// harness) plus the timed events.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Seed for the harness and all execution randomness.
    pub seed: u64,
    /// Events in non-decreasing `at_ms` order.
    pub events: Vec<FaultEvent>,
}

/// A probability given in thousandths, as the generator draws it and the
/// artifact writes it.
fn from_permille(permille: u32) -> f64 {
    f64::from(permille) / 1000.0
}

/// The thousandths of a probability built by [`from_permille`].
pub(crate) fn permille(p: f64) -> u64 {
    (p * 1000.0).round() as u64
}

/// The only partition the generator draws: `group_a` as group 0, every
/// other site of the `total` as group 1. The artifact writes it as
/// `group_a`.
fn two_groups(total: usize, group_a: &[SiteId]) -> Partition {
    let rest: Vec<SiteId> = SiteId::all(total)
        .filter(|s| !group_a.contains(s))
        .collect();
    Partition::split(total, &[group_a, &rest])
}

/// Draws a schedule: a pure function of `(spec, seed)`.
///
/// Operations dominate; crashes, recoveries, partitions, heals, network
/// dials (loss/delay/duplication bursts with scheduled ends), disk faults,
/// reconfigurations and, in a third of schedules, an mttf/mttr outage
/// overlay fill the rest. Disk faults are always drawn; the executor
/// applies them only under [`ClusterSpec::disk_faults`]. A reconfiguration
/// is always *legal* (`r + w = N + 1`), so a spec with `unchecked_quorums`
/// draws a read in its place: one would repair the broken geometry the
/// shrinker demo hunts.
///
/// Disk damage is latent until a crash materialises it, so torn writes
/// and bit flips ride crash draws: they land at the same instant as (and
/// sort just before) the crash they damage. At most one bit flip is armed
/// per schedule — a flip quarantines its replica on recovery, and the
/// vote-safety argument assumes one simultaneously-degraded disk.
pub fn generate(spec: &ClusterSpec, seed: u64) -> Schedule {
    let mut rng = DetRng::new(seed ^ GEN_SALT);
    let mut events: Vec<FaultEvent> = Vec::with_capacity(STEPS + 8);
    let mut t_ms = 0u64;
    let mut payload = 0u64;
    let mut down: BTreeSet<SiteId> = BTreeSet::new();
    let mut flip_armed = false;
    let total = spec.total_sites();

    for _ in 0..STEPS {
        t_ms += 1 + rng.below(MAX_GAP_MS);
        let draw = rng.below(100);
        let kind: EventKind = match draw {
            // Operations dominate the schedule.
            0..=49 => {
                let client = rng.below(spec.clients.max(1) as u64) as usize;
                if rng.chance(0.45) {
                    payload += 1;
                    EventKind::Write { client, payload }
                } else {
                    EventKind::Read { client }
                }
            }
            50..=61 => {
                let up: Vec<SiteId> = SiteId::all(spec.servers)
                    .filter(|s| !down.contains(s))
                    .collect();
                match rng.choose(&up) {
                    Some(&site) => {
                        down.insert(site);
                        // Both chances are drawn unconditionally so the
                        // draw stream does not depend on whether a flip
                        // was already armed.
                        let flip = rng.chance(0.2);
                        let tear = rng.chance(0.35);
                        if flip && !flip_armed {
                            flip_armed = true;
                            events.push(FaultEvent::new(t_ms, Fault::BitFlip(site)));
                        } else if tear {
                            events.push(FaultEvent::new(t_ms, Fault::TornWrite(site)));
                        }
                        NetFault::Crash(site).into()
                    }
                    None => NetFault::Heal.into(),
                }
            }
            62..=71 => {
                let candidates: Vec<SiteId> = down.iter().copied().collect();
                match rng.choose(&candidates) {
                    Some(&site) => {
                        down.remove(&site);
                        NetFault::Recover(site).into()
                    }
                    None => NetFault::Heal.into(),
                }
            }
            72..=79 => {
                let group_a: Vec<SiteId> = SiteId::all(total).filter(|_| rng.chance(0.5)).collect();
                NetFault::Partition(two_groups(total, &group_a)).into()
            }
            80..=85 => NetFault::Heal.into(),
            86..=93 => {
                // A network dial: open a burst now and schedule its end.
                let end_ms = t_ms + 300 + rng.below(2_500);
                let (open, close) = match rng.below(3) {
                    0 => (
                        NetFault::DropAll(from_permille(50 + rng.below(250) as u32)),
                        NetFault::DropAll(0.0),
                    ),
                    1 => (
                        NetFault::ExtraDelay(SimDuration::from_millis(100 + rng.below(400))),
                        NetFault::ExtraDelay(SimDuration::ZERO),
                    ),
                    _ => (
                        NetFault::Duplicate(from_permille(100 + rng.below(400) as u32)),
                        NetFault::Duplicate(0.0),
                    ),
                };
                events.push(FaultEvent::new(end_ms, close));
                open.into()
            }
            94..=96 => {
                // Transient disk trouble on a live server: a short run of
                // failed begins or a sync stall. Neither damages durable
                // bytes, so neither needs a crash to materialise.
                let site = SiteId::from(rng.below(spec.servers as u64) as usize);
                if rng.chance(0.5) {
                    let n = 1 + rng.below(3) as u32;
                    Fault::IoErrors { site, n }.into()
                } else {
                    let d = SimDuration::from_millis(200 + rng.below(1_800));
                    Fault::DiskStall { site, d }.into()
                }
            }
            _ => {
                let client = rng.below(spec.clients.max(1) as u64) as usize;
                if spec.unchecked_quorums {
                    EventKind::Read { client }
                } else {
                    let n = spec.servers as u32;
                    // Always legal (r + w = N + 1), and always with a
                    // write *majority*: concurrent writers serialise
                    // through overlapping write quorums, so schedules
                    // stay within the protocol's supported envelope
                    // (read-all/write-one is for single-writer suites).
                    let majority = n / 2 + 1;
                    let write_quorum = majority + rng.below(u64::from(n - majority + 1)) as u32;
                    EventKind::Reconfigure {
                        client,
                        read_quorum: n + 1 - write_quorum,
                        write_quorum,
                    }
                }
            }
        };
        events.push(FaultEvent { at_ms: t_ms, kind });
    }

    // Sometimes overlay a continuous crash/recovery process: this is how
    // `FailureSchedule::mttf_mttr` reaches the harness in anger.
    if rng.chance(1.0 / 3.0) {
        let horizon_ms = t_ms + 2_000;
        let mut overlay_rng = rng.fork_named("mttf-overlay");
        let schedule = FailureSchedule::mttf_mttr(
            spec.servers,
            SimDuration::from_millis(horizon_ms / 2),
            SimDuration::from_millis(horizon_ms / 8),
            SimTime::from_millis(horizon_ms),
            &mut overlay_rng,
        );
        for site in SiteId::all(spec.servers) {
            for w in schedule.windows(site.index()) {
                let (from, until) = (w.from.as_micros(), w.until.as_micros());
                events.push(FaultEvent::new(from / 1_000, NetFault::Crash(site)));
                events.push(FaultEvent::new(until / 1_000, NetFault::Recover(site)));
            }
        }
    }

    // Stable sort keeps same-instant events in insertion order.
    events.sort_by_key(|e| e.at_ms);
    Schedule { seed, events }
}

impl Schedule {
    /// Serialises the schedule plus its cluster spec into a self-contained
    /// replay artifact (schema `wv-chaos-repro/1`). Deterministic: the
    /// same schedule always produces the same bytes. A partition is
    /// written as its group 0 (`group_a`), a probability in whole
    /// thousandths and a duration in whole milliseconds: the generator
    /// draws nothing finer.
    pub fn to_json(&self, spec: &ClusterSpec) -> String {
        let mut root = BTreeMap::new();
        root.insert(
            "schema".to_string(),
            Value::Str("wv-chaos-repro/1".to_string()),
        );
        root.insert("seed".to_string(), Value::Int(self.seed));
        let mut cluster = BTreeMap::new();
        cluster.insert("servers".to_string(), Value::Int(spec.servers as u64));
        cluster.insert("clients".to_string(), Value::Int(spec.clients as u64));
        cluster.insert(
            "read_quorum".to_string(),
            Value::Int(u64::from(spec.read_quorum)),
        );
        cluster.insert(
            "write_quorum".to_string(),
            Value::Int(u64::from(spec.write_quorum)),
        );
        cluster.insert(
            "unchecked_quorums".to_string(),
            Value::Bool(spec.unchecked_quorums),
        );
        cluster.insert("repair".to_string(), Value::Bool(spec.repair));
        cluster.insert("group_commit".to_string(), Value::Bool(spec.group_commit));
        cluster.insert("cache_tier".to_string(), Value::Bool(spec.cache_tier));
        cluster.insert("disk_faults".to_string(), Value::Bool(spec.disk_faults));
        cluster.insert("suites".to_string(), Value::Int(spec.suites as u64));
        root.insert("cluster".to_string(), Value::Object(cluster));
        let events: Vec<Value> = self.events.iter().map(event_to_value).collect();
        root.insert("events".to_string(), Value::Array(events));
        let mut text = Value::Object(root).to_json();
        text.push('\n');
        text
    }

    /// Parses a replay artifact produced by [`Schedule::to_json`]; `None`
    /// for one the executor cannot run: an integer too large for the
    /// field it fills, no servers or no clients, more sites than a
    /// [`SiteId`] numbers, quorums illegal on equal votes over the
    /// servers unless `unchecked_quorums` says so, an operation naming no
    /// client, a server event naming a site that is not a server, a
    /// partition whose first group names a site twice or one outside the
    /// cluster, or a probability above 1000‰.
    pub fn from_json(text: &str) -> Option<(ClusterSpec, Schedule)> {
        let root = json::parse(text)?;
        if root.get("schema")?.as_str()? != "wv-chaos-repro/1" {
            return None;
        }
        let seed = root.get("seed")?.as_int()?;
        let cluster = root.get("cluster")?;
        let flag = |key: &str| cluster.get(key)?.as_bool();
        let spec = ClusterSpec {
            servers: int(cluster, "servers")?,
            clients: int(cluster, "clients")?,
            read_quorum: int(cluster, "read_quorum")?,
            write_quorum: int(cluster, "write_quorum")?,
            unchecked_quorums: flag("unchecked_quorums")?,
            repair: flag("repair")?,
            group_commit: flag("group_commit")?,
            cache_tier: flag("cache_tier")?,
            disk_faults: flag("disk_faults")?,
            suites: int::<usize>(cluster, "suites")?.max(1),
        };
        let sites = spec.servers.checked_add(spec.clients)?;
        if spec.servers == 0 || spec.clients == 0 || u16::try_from(sites).is_err() {
            return None;
        }
        let legal = QuorumSpec::new(spec.read_quorum, spec.write_quorum)
            .validate(&VoteAssignment::equal(spec.servers))
            .is_ok();
        if !(legal || spec.unchecked_quorums) {
            return None;
        }
        let events = root.get("events")?.as_array()?.iter();
        let events = events
            .map(|ev| event_from_value(ev, &spec))
            .collect::<Option<_>>()?;
        Some((spec, Schedule { seed, events }))
    }
}

fn event_to_value(e: &FaultEvent) -> Value {
    let site = |s: &SiteId| Value::Int(u64::from(s.0));
    let mut fields = vec![
        ("at_ms", Value::Int(e.at_ms)),
        ("kind", Value::Str(e.kind.name().to_string())),
    ];
    match &e.kind {
        EventKind::Write { client, payload } => fields.extend([
            ("client", Value::Int(*client as u64)),
            ("payload", Value::Int(*payload)),
        ]),
        EventKind::Read { client } => fields.push(("client", Value::Int(*client as u64))),
        EventKind::Reconfigure {
            client,
            read_quorum,
            write_quorum,
        } => fields.extend([
            ("client", Value::Int(*client as u64)),
            ("read_quorum", Value::Int(u64::from(*read_quorum))),
            ("write_quorum", Value::Int(u64::from(*write_quorum))),
        ]),
        EventKind::Fault(fault) => match fault {
            Fault::Net(NetFault::Crash(s) | NetFault::Recover(s))
            | Fault::TornWrite(s)
            | Fault::BitFlip(s) => fields.push(("site", site(s))),
            Fault::Net(NetFault::Partition(p)) => {
                let group_a = p.group(0).map(|s| site(&s)).collect();
                fields.push(("group_a", Value::Array(group_a)));
            }
            Fault::Net(NetFault::Heal) => {}
            Fault::Net(NetFault::DropAll(p) | NetFault::Duplicate(p)) => {
                fields.push(("permille", Value::Int(permille(*p))));
            }
            Fault::Net(NetFault::ExtraDelay(d)) => {
                fields.push(("extra_ms", Value::Int(d.as_millis())));
            }
            Fault::IoErrors { site: s, n } => {
                fields.extend([("site", site(s)), ("count", Value::Int(u64::from(*n)))]);
            }
            Fault::DiskStall { site: s, d } => {
                fields.extend([("site", site(s)), ("ms", Value::Int(d.as_millis()))]);
            }
        },
    }
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Reads one event of `spec`'s cluster, refusing any the executor cannot
/// run there (see [`Schedule::from_json`]).
fn event_from_value(v: &Value, spec: &ClusterSpec) -> Option<FaultEvent> {
    let millis = |key| {
        int::<u64>(v, key)?
            .checked_mul(1_000)
            .map(SimDuration::from_micros)
    };
    let client = || int::<usize>(v, "client").filter(|&c| c < spec.clients);
    let server = || {
        int::<u16>(v, "site")
            .map(SiteId)
            .filter(|s| s.index() < spec.servers)
    };
    let chance = || {
        int::<u32>(v, "permille")
            .filter(|&p| p <= 1000)
            .map(from_permille)
    };
    let kind: EventKind = match v.get("kind")?.as_str()? {
        "write" => EventKind::Write {
            client: client()?,
            payload: int(v, "payload")?,
        },
        "read" => EventKind::Read { client: client()? },
        "reconfigure" => EventKind::Reconfigure {
            client: client()?,
            read_quorum: int(v, "read_quorum")?,
            write_quorum: int(v, "write_quorum")?,
        },
        "crash" => NetFault::Crash(server()?).into(),
        "recover" => NetFault::Recover(server()?).into(),
        "partition" => NetFault::Partition(partition(v, spec.total_sites())?).into(),
        "heal" => NetFault::Heal.into(),
        "loss_burst" => NetFault::DropAll(chance()?).into(),
        "delay_spike" => NetFault::ExtraDelay(millis("extra_ms")?).into(),
        "duplication" => NetFault::Duplicate(chance()?).into(),
        "torn_write" => Fault::TornWrite(server()?).into(),
        "bit_flip" => Fault::BitFlip(server()?).into(),
        "io_error" => Fault::IoErrors {
            site: server()?,
            n: int(v, "count")?,
        }
        .into(),
        "disk_stall" => Fault::DiskStall {
            site: server()?,
            d: millis("ms")?,
        }
        .into(),
        _ => return None,
    };
    // An instant, like a duration, must fit virtual time's microseconds.
    let at_ms = millis("at_ms")?.as_millis();
    Some(FaultEvent::new(at_ms, kind))
}

/// `v`'s `group_a` as group 0 of a partition of `total` sites; `None` if
/// it names a site twice or one past `total`, either of which
/// [`Partition::split`] would panic on.
fn partition(v: &Value, total: usize) -> Option<Partition> {
    let mut group_a: Vec<SiteId> = Vec::new();
    for s in v.get("group_a")?.as_array()? {
        let s = SiteId(u16::try_from(s.as_int()?).ok()?);
        if s.index() >= total || group_a.contains(&s) {
            return None;
        }
        group_a.push(s);
    }
    Some(two_groups(total, &group_a))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::majority(5, 2)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&spec(), 42);
        let b = generate(&spec(), 42);
        assert_eq!(a, b);
        let c = generate(&spec(), 43);
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    #[test]
    fn events_are_time_sorted_and_indices_in_range() {
        for seed in 0..50u64 {
            let s = generate(&spec(), seed);
            for pair in s.events.windows(2) {
                assert!(pair[0].at_ms <= pair[1].at_ms);
            }
            for e in &s.events {
                match &e.kind {
                    EventKind::Write { client, .. }
                    | EventKind::Read { client }
                    | EventKind::Reconfigure { client, .. } => assert!(*client < 2),
                    EventKind::Fault(
                        Fault::Net(NetFault::Crash(site) | NetFault::Recover(site))
                        | Fault::TornWrite(site)
                        | Fault::BitFlip(site)
                        | Fault::IoErrors { site, .. }
                        | Fault::DiskStall { site, .. },
                    ) => assert!(site.index() < 5),
                    EventKind::Fault(Fault::Net(NetFault::Partition(p))) => {
                        assert_eq!(p.sites(), 7);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn payload_tags_are_unique_within_a_schedule() {
        let s = generate(&spec(), 7);
        let payloads: Vec<u64> = s
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Write { payload, .. } => Some(payload),
                _ => None,
            })
            .collect();
        let mut dedup = payloads.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), payloads.len());
    }

    #[test]
    fn bursts_always_have_a_scheduled_end() {
        // Every non-zero network dial is followed (eventually) by its
        // zero-valued closer, so no schedule leaves loss on forever.
        for seed in 0..80u64 {
            let s = generate(&spec(), seed);
            let mut loss_open = 0i64;
            let mut delay_open = 0i64;
            let mut dup_open = 0i64;
            let step = |open: bool| if open { 1 } else { -1 };
            for e in &s.events {
                match e.kind {
                    EventKind::Fault(Fault::Net(NetFault::DropAll(p))) => {
                        loss_open += step(p > 0.0)
                    }
                    EventKind::Fault(Fault::Net(NetFault::ExtraDelay(d))) => {
                        delay_open += step(d > SimDuration::ZERO)
                    }
                    EventKind::Fault(Fault::Net(NetFault::Duplicate(p))) => {
                        dup_open += step(p > 0.0)
                    }
                    _ => {}
                }
            }
            assert_eq!(loss_open, 0, "seed {seed}: unbalanced loss bursts");
            assert_eq!(delay_open, 0, "seed {seed}: unbalanced delay spikes");
            assert_eq!(dup_open, 0, "seed {seed}: unbalanced duplication");
        }
    }

    #[test]
    fn reconfigurations_are_always_legal() {
        for seed in 0..80u64 {
            let s = generate(&spec(), seed);
            for e in &s.events {
                if let EventKind::Reconfigure {
                    read_quorum,
                    write_quorum,
                    ..
                } = e.kind
                {
                    assert_eq!(read_quorum + write_quorum, 6, "r + w = N + 1");
                }
            }
        }
    }

    #[test]
    fn some_seed_exercises_every_fault_kind() {
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 0..200u64 {
            let s = generate(&spec(), seed);
            for e in &s.events {
                seen.insert(e.kind.name());
            }
        }
        for kind in [
            "write",
            "read",
            "crash",
            "recover",
            "partition",
            "heal",
            "loss_burst",
            "delay_spike",
            "duplication",
            "reconfigure",
            "torn_write",
            "bit_flip",
            "io_error",
            "disk_stall",
        ] {
            assert!(seen.contains(kind), "no seed drew {kind}");
        }
    }

    #[test]
    fn at_most_one_bit_flip_per_schedule() {
        for seed in 0..200u64 {
            let s = generate(&spec(), seed);
            let flips = s
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Fault(Fault::BitFlip(_))))
                .count();
            assert!(flips <= 1, "seed {seed} armed {flips} bit flips");
        }
    }

    #[test]
    fn latent_damage_always_rides_a_crash_of_the_same_site() {
        // A torn write or bit flip is armed at the same instant as the
        // crash that materialises it, and sorts just before it.
        for seed in 0..200u64 {
            let s = generate(&spec(), seed);
            for (i, e) in s.events.iter().enumerate() {
                let EventKind::Fault(Fault::TornWrite(site) | Fault::BitFlip(site)) = e.kind else {
                    continue;
                };
                let crash = s.events[i + 1..]
                    .iter()
                    .take_while(|n| n.at_ms == e.at_ms)
                    .any(|n| n.kind == NetFault::Crash(site).into());
                assert!(
                    crash,
                    "seed {seed}: damage at {}ms without its crash",
                    e.at_ms
                );
            }
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        // A healthy spec's schedule carries reconfigurations; a broken
        // one's carries none. Together the schedules carry every kind of
        // event, so a kind the codec drops or mis-writes fails here.
        let mut kinds = BTreeSet::new();
        for spec in [ClusterSpec::majority(5, 2), ClusterSpec::broken(5, 2, 2)] {
            for seed in [0, 1, 99] {
                let s = generate(&spec, seed);
                let text = s.to_json(&spec);
                let (spec2, s2) = Schedule::from_json(&text).expect("parses");
                assert_eq!(spec, spec2);
                assert_eq!(s, s2, "seed {seed}");
                // And the bytes themselves are stable.
                assert_eq!(text, s2.to_json(&spec2));
                let reconfigures = s.events.iter().any(|e| e.kind.name() == "reconfigure");
                assert_eq!(reconfigures, !spec.unchecked_quorums);
                kinds.extend(s.events.iter().map(|e| e.kind.name()));
            }
        }
        assert_eq!(kinds.len(), 14, "{kinds:?}");
    }

    #[test]
    fn only_a_spec_with_intersecting_quorums_draws_reconfigurations() {
        // A drawn reconfiguration installs r + w = N + 1, which would
        // repair the geometry a broken spec exists to break.
        let draws = |spec: ClusterSpec| {
            (0..50u64)
                .flat_map(|seed| generate(&spec, seed).events)
                .filter(|e| matches!(e.kind, EventKind::Reconfigure { .. }))
                .count()
        };
        assert_eq!(draws(ClusterSpec::broken(5, 2, 2)), 0);
        assert!(draws(ClusterSpec::majority(5, 2)) > 0);
    }

    #[test]
    fn an_artifact_missing_any_cluster_key_is_rejected() {
        // No key has a fallback: an artifact that lacks one is not a
        // replay of anything this code would run.
        let spec = ClusterSpec::majority(3, 1);
        let text = generate(&spec, 8).to_json(&spec);
        for key in [
            "servers",
            "clients",
            "read_quorum",
            "write_quorum",
            "unchecked_quorums",
            "repair",
            "group_commit",
            "cache_tier",
            "disk_faults",
            "suites",
        ] {
            // The cluster object sorts first, so the first match is its key.
            let renamed = text.replacen(&format!("\"{key}\":"), &format!("\"no_{key}\":"), 1);
            assert_ne!(renamed, text);
            assert!(
                Schedule::from_json(&renamed).is_none(),
                "an artifact without {key:?} parsed"
            );
        }
    }

    #[test]
    fn the_repair_flag_round_trips_through_json() {
        let spec = ClusterSpec::majority(5, 2).with_repair();
        let s = generate(&spec, 3);
        let (spec2, s2) = Schedule::from_json(&s.to_json(&spec)).expect("parses");
        assert!(spec2.repair);
        assert_eq!(s, s2);
    }

    #[test]
    fn the_group_commit_flag_round_trips_through_json() {
        let spec = ClusterSpec::majority(5, 2).with_group_commit();
        let s = generate(&spec, 4);
        let (spec2, s2) = Schedule::from_json(&s.to_json(&spec)).expect("parses");
        assert!(spec2.group_commit);
        assert_eq!(s, s2);
    }

    #[test]
    fn the_cache_tier_flag_round_trips_through_json() {
        let spec = ClusterSpec::majority(5, 2).with_cache_tier();
        let s = generate(&spec, 4);
        let (spec2, s2) = Schedule::from_json(&s.to_json(&spec)).expect("parses");
        assert!(spec2.cache_tier);
        assert_eq!(s, s2);
    }

    #[test]
    fn the_disk_faults_flag_round_trips_through_json() {
        let spec = ClusterSpec::majority(5, 2).with_disk_faults();
        let s = generate(&spec, 4);
        let (spec2, s2) = Schedule::from_json(&s.to_json(&spec)).expect("parses");
        assert!(spec2.disk_faults);
        assert_eq!(s, s2);
    }

    #[test]
    fn the_suites_count_round_trips_through_json() {
        let spec = ClusterSpec::majority(5, 2).with_suites(4);
        let s = generate(&spec, 4);
        let (spec2, s2) = Schedule::from_json(&s.to_json(&spec)).expect("parses");
        assert_eq!(spec2.suites, 4);
        assert_eq!(s, s2);
        // And the bytes themselves are stable.
        assert_eq!(s.to_json(&spec), s2.to_json(&spec2));
    }

    #[test]
    fn repair_never_influences_schedule_generation() {
        // Repair-on and repair-off arms must share identical timelines so
        // a campaign can compare them trial for trial.
        let plain = ClusterSpec::majority(5, 2);
        let healing = ClusterSpec::majority(5, 2).with_repair();
        let batched = ClusterSpec::majority(5, 2).with_group_commit();
        let cached = ClusterSpec::majority(5, 2).with_cache_tier();
        let faulty = ClusterSpec::majority(5, 2).with_disk_faults();
        let sharded = ClusterSpec::majority(5, 2).with_suites(8);
        for seed in 0..20 {
            assert_eq!(generate(&plain, seed), generate(&healing, seed),);
            assert_eq!(generate(&plain, seed), generate(&batched, seed),);
            assert_eq!(generate(&plain, seed), generate(&cached, seed),);
            assert_eq!(generate(&plain, seed), generate(&faulty, seed),);
            assert_eq!(generate(&plain, seed), generate(&sharded, seed),);
        }
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        assert!(Schedule::from_json("{\"schema\":\"other/1\"}").is_none());
        assert!(Schedule::from_json("not json").is_none());
    }

    #[test]
    fn from_json_rejects_what_the_executor_cannot_run() {
        // An artifact of `spec()` (5 servers, 2 clients: sites 0..7) with
        // one cluster key's value swapped and one event.
        let spec = spec();
        let parses = |(key, value): (&str, &str), event: &str| {
            let empty = Schedule {
                seed: 1,
                events: vec![],
            };
            let text = empty.to_json(&spec);
            let was = match key {
                "servers" => spec.servers,
                "clients" => spec.clients,
                _ => spec.read_quorum as usize,
            };
            let old = format!("\"{key}\":{was}");
            assert!(text.contains(&old), "{old}");
            let text = text
                .replacen(&old, &format!("\"{key}\":{value}"), 1)
                .replace(
                    "\"events\":[]",
                    &format!("\"events\":[{{\"at_ms\":0,{event}}}]"),
                );
            Schedule::from_json(&text).is_some()
        };
        let plain = ("servers", "5");
        for event in [
            r#""kind":"crash","site":4"#,
            r#""kind":"partition","group_a":[0,6]"#,
            r#""kind":"reconfigure","client":1,"read_quorum":3,"write_quorum":3"#,
            r#""kind":"loss_burst","permille":1000"#,
        ] {
            assert!(parses(plain, event), "{event}");
        }
        for event in [
            r#""kind":"crash","site":5"#,
            r#""kind":"crash","site":99"#,
            r#""kind":"recover","site":5"#,
            r#""kind":"torn_write","site":5"#,
            r#""kind":"bit_flip","site":5"#,
            r#""kind":"io_error","site":5,"count":1"#,
            r#""kind":"disk_stall","site":5,"ms":10"#,
            r#""kind":"partition","group_a":[0,0]"#,
            // A client past `clients` names nobody.
            r#""kind":"read","client":2"#,
            r#""kind":"write","client":7,"payload":1"#,
            r#""kind":"reconfigure","client":2,"read_quorum":3,"write_quorum":3"#,
            // A site past `servers + clients` is in no partition.
            r#""kind":"partition","group_a":[0,7]"#,
            // Integers too large for the field they fill.
            r#""kind":"io_error","site":4,"count":4294967297"#,
            r#""kind":"loss_burst","permille":4294967346"#,
            r#""kind":"reconfigure","client":1,"read_quorum":4294967299,"write_quorum":3"#,
            r#""kind":"disk_stall","site":4,"ms":18446744073709552"#,
            // A probability above one.
            r#""kind":"duplication","permille":1001"#,
            // A second event, at an instant past virtual time's range.
            r#""kind":"heal"},{"at_ms":18446744073709552,"kind":"heal""#,
        ] {
            assert!(!parses(plain, event), "{event}");
        }
        for cluster in [
            ("servers", "0"),
            ("clients", "0"),
            ("read_quorum", "4294967299"),
            ("servers", "65534"),
            // r + w = 4 of 5 votes, not marked `unchecked_quorums`.
            ("read_quorum", "1"),
        ] {
            assert!(!parses(cluster, r#""kind":"heal""#), "{cluster:?}");
        }
    }

    #[test]
    fn broken_spec_has_non_intersecting_quorums() {
        let b = ClusterSpec::broken(5, 2, 2);
        assert_eq!(b.read_quorum + b.write_quorum, 5);
        assert!(b.unchecked_quorums);
        let m = ClusterSpec::majority(5, 2);
        assert_eq!(m.read_quorum, 3);
        assert!(!m.unchecked_quorums);
    }
}
