//! The fault-schedule DSL: seeded timelines of operations and faults.
//!
//! A [`Schedule`] is a sorted list of [`FaultEvent`]s — client operations,
//! crashes and recoveries, partitions and heals, link-loss bursts, delay
//! spikes, duplication windows, disk faults (torn writes, bit flips, I/O
//! errors, sync stalls), and mid-run reconfigurations — drawn by a pure
//! function of `(cluster spec, seed)`. The executor in [`crate::exec`]
//! replays a schedule against a live harness; because both generation and
//! execution are deterministic, any seed replays its exact failure, and
//! the shrinker can carve events out of a schedule and re-run the
//! remainder.
//!
//! Schedules serialise to a small JSON artifact (see [`Schedule::to_json`])
//! so a shrunk reproducer survives outside the process that found it.

use std::collections::BTreeMap;
use std::collections::HashSet;

use wv_sim::{DetRng, FailureSchedule, SimDuration, SimTime};

use crate::json::{self, Value};

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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// When the event applies (virtual milliseconds from trial start).
    pub at_ms: u64,
    /// What happens.
    pub kind: EventKind,
}

/// What a [`FaultEvent`] does.
#[derive(Clone, Debug, PartialEq, Eq)]
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
    /// Server `site` crashes (volatile state lost).
    Crash {
        /// Server index.
        site: usize,
    },
    /// Server `site` recovers.
    Recover {
        /// Server index.
        site: usize,
    },
    /// The network splits: `group_a` (site indices over servers *and*
    /// clients) on one side, everyone else on the other.
    Partition {
        /// Sites in the first group.
        group_a: Vec<usize>,
    },
    /// All partitions heal.
    Heal,
    /// Every cross-site link starts dropping messages with probability
    /// `permille / 1000` (0 closes the burst).
    LossBurst {
        /// Loss probability in thousandths.
        permille: u32,
    },
    /// Every cross-site message pays `extra_ms` on top of its sampled
    /// latency (0 clears the spike).
    DelaySpike {
        /// Extra one-way delay in milliseconds.
        extra_ms: u64,
    },
    /// Delivered messages are duplicated with probability `permille /
    /// 1000` (0 ends the window).
    Duplication {
        /// Duplication probability in thousandths.
        permille: u32,
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
    /// Arm a torn write on server `site`'s disk: its next crash persists
    /// only a prefix of the unsynced WAL tail. The generator emits this
    /// at the same instant as (and just before) a crash of the site.
    TornWrite {
        /// Server index.
        site: usize,
    },
    /// Arm a bit flip on server `site`'s disk: its next crash corrupts
    /// one durable WAL byte, so recovery detects interior corruption and
    /// quarantines the replica. At most one per schedule — quarantine
    /// surrenders the replica's votes, and vote-safety reasoning assumes
    /// a single simultaneously-degraded disk.
    BitFlip {
        /// Server index.
        site: usize,
    },
    /// Server `site`'s next `count` transaction begins fail with a
    /// transient I/O error (prepares refuse, locks release).
    IoError {
        /// Server index.
        site: usize,
        /// How many begins fail.
        count: u32,
    },
    /// Server `site`'s disk stalls for `ms`: prepares refuse until the
    /// deadline passes (reads keep serving).
    DiskStall {
        /// Server index.
        site: usize,
        /// Stall length in milliseconds.
        ms: u64,
    },
}

impl EventKind {
    /// A short stable name, used by coverage counters and the JSON
    /// artifact.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Write { .. } => "write",
            EventKind::Read { .. } => "read",
            EventKind::Crash { .. } => "crash",
            EventKind::Recover { .. } => "recover",
            EventKind::Partition { .. } => "partition",
            EventKind::Heal => "heal",
            EventKind::LossBurst { .. } => "loss_burst",
            EventKind::DelaySpike { .. } => "delay_spike",
            EventKind::Duplication { .. } => "duplication",
            EventKind::Reconfigure { .. } => "reconfigure",
            EventKind::TornWrite { .. } => "torn_write",
            EventKind::BitFlip { .. } => "bit_flip",
            EventKind::IoError { .. } => "io_error",
            EventKind::DiskStall { .. } => "disk_stall",
        }
    }
}

/// A complete fault schedule: the trial seed (which also drives the
/// harness) plus the timed events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Seed for the harness and all execution randomness.
    pub seed: u64,
    /// Events in non-decreasing `at_ms` order.
    pub events: Vec<FaultEvent>,
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
    let mut down: HashSet<usize> = HashSet::new();
    let mut flip_armed = false;
    let total = spec.total_sites();

    for _ in 0..STEPS {
        t_ms += 1 + rng.below(MAX_GAP_MS);
        let draw = rng.below(100);
        let kind = match draw {
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
                let up: Vec<usize> = (0..spec.servers).filter(|s| !down.contains(s)).collect();
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
                            events.push(FaultEvent {
                                at_ms: t_ms,
                                kind: EventKind::BitFlip { site },
                            });
                        } else if tear {
                            events.push(FaultEvent {
                                at_ms: t_ms,
                                kind: EventKind::TornWrite { site },
                            });
                        }
                        EventKind::Crash { site }
                    }
                    None => EventKind::Heal,
                }
            }
            62..=71 => {
                let candidates: Vec<usize> = {
                    let mut v: Vec<usize> = down.iter().copied().collect();
                    v.sort_unstable();
                    v
                };
                match rng.choose(&candidates) {
                    Some(&site) => {
                        down.remove(&site);
                        EventKind::Recover { site }
                    }
                    None => EventKind::Heal,
                }
            }
            72..=79 => {
                let group_a: Vec<usize> = (0..total).filter(|_| rng.chance(0.5)).collect();
                EventKind::Partition { group_a }
            }
            80..=85 => EventKind::Heal,
            86..=93 => {
                // A network dial: open a burst now and schedule its end.
                let end_ms = t_ms + 300 + rng.below(2_500);
                match rng.below(3) {
                    0 => {
                        let permille = 50 + rng.below(250) as u32;
                        events.push(FaultEvent {
                            at_ms: end_ms,
                            kind: EventKind::LossBurst { permille: 0 },
                        });
                        EventKind::LossBurst { permille }
                    }
                    1 => {
                        let extra_ms = 100 + rng.below(400);
                        events.push(FaultEvent {
                            at_ms: end_ms,
                            kind: EventKind::DelaySpike { extra_ms: 0 },
                        });
                        EventKind::DelaySpike { extra_ms }
                    }
                    _ => {
                        let permille = 100 + rng.below(400) as u32;
                        events.push(FaultEvent {
                            at_ms: end_ms,
                            kind: EventKind::Duplication { permille: 0 },
                        });
                        EventKind::Duplication { permille }
                    }
                }
            }
            94..=96 => {
                // Transient disk trouble on a live server: a short run of
                // failed begins or a sync stall. Neither damages durable
                // bytes, so neither needs a crash to materialise.
                let site = rng.below(spec.servers as u64) as usize;
                if rng.chance(0.5) {
                    EventKind::IoError {
                        site,
                        count: 1 + rng.below(3) as u32,
                    }
                } else {
                    EventKind::DiskStall {
                        site,
                        ms: 200 + rng.below(1_800),
                    }
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
        for site in 0..spec.servers {
            for w in schedule.windows(site) {
                events.push(FaultEvent {
                    at_ms: w.from.as_micros() / 1_000,
                    kind: EventKind::Crash { site },
                });
                events.push(FaultEvent {
                    at_ms: w.until.as_micros() / 1_000,
                    kind: EventKind::Recover { site },
                });
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
    /// same schedule always produces the same bytes.
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
    /// for one the executor cannot run: no servers or no clients, a
    /// server event naming a site that is not a server, or a partition
    /// whose first group names a site twice.
    pub fn from_json(text: &str) -> Option<(ClusterSpec, Schedule)> {
        let root = json::parse(text)?;
        if root.get("schema")?.as_str()? != "wv-chaos-repro/1" {
            return None;
        }
        let seed = root.get("seed")?.as_int()?;
        let cluster = root.get("cluster")?;
        let spec = ClusterSpec {
            servers: cluster.get("servers")?.as_int()? as usize,
            clients: cluster.get("clients")?.as_int()? as usize,
            read_quorum: cluster.get("read_quorum")?.as_int()? as u32,
            write_quorum: cluster.get("write_quorum")?.as_int()? as u32,
            unchecked_quorums: cluster.get("unchecked_quorums")?.as_bool()?,
            repair: cluster.get("repair")?.as_bool()?,
            group_commit: cluster.get("group_commit")?.as_bool()?,
            cache_tier: cluster.get("cache_tier")?.as_bool()?,
            disk_faults: cluster.get("disk_faults")?.as_bool()?,
            suites: (cluster.get("suites")?.as_int()? as usize).max(1),
        };
        if spec.servers == 0 || spec.clients == 0 {
            return None;
        }
        let mut events = Vec::new();
        for ev in root.get("events")?.as_array()? {
            let event = event_from_value(ev)?;
            if !runs_on(&event.kind, &spec) {
                return None;
            }
            events.push(event);
        }
        Some((spec, Schedule { seed, events }))
    }
}

/// Whether the executor can apply `kind` on `spec`'s cluster.
fn runs_on(kind: &EventKind, spec: &ClusterSpec) -> bool {
    match kind {
        EventKind::Crash { site }
        | EventKind::Recover { site }
        | EventKind::TornWrite { site }
        | EventKind::BitFlip { site }
        | EventKind::IoError { site, .. }
        | EventKind::DiskStall { site, .. } => *site < spec.servers,
        EventKind::Partition { group_a } => {
            let mut sites = group_a.clone();
            sites.sort_unstable();
            sites.windows(2).all(|w| w[0] != w[1])
        }
        _ => true,
    }
}

fn event_to_value(e: &FaultEvent) -> Value {
    let mut map = BTreeMap::new();
    map.insert("at_ms".to_string(), Value::Int(e.at_ms));
    map.insert("kind".to_string(), Value::Str(e.kind.name().to_string()));
    match &e.kind {
        EventKind::Write { client, payload } => {
            map.insert("client".to_string(), Value::Int(*client as u64));
            map.insert("payload".to_string(), Value::Int(*payload));
        }
        EventKind::Read { client } => {
            map.insert("client".to_string(), Value::Int(*client as u64));
        }
        EventKind::Crash { site }
        | EventKind::Recover { site }
        | EventKind::TornWrite { site }
        | EventKind::BitFlip { site } => {
            map.insert("site".to_string(), Value::Int(*site as u64));
        }
        EventKind::Partition { group_a } => {
            map.insert(
                "group_a".to_string(),
                Value::Array(group_a.iter().map(|&s| Value::Int(s as u64)).collect()),
            );
        }
        EventKind::Heal => {}
        EventKind::LossBurst { permille } | EventKind::Duplication { permille } => {
            map.insert("permille".to_string(), Value::Int(u64::from(*permille)));
        }
        EventKind::DelaySpike { extra_ms } => {
            map.insert("extra_ms".to_string(), Value::Int(*extra_ms));
        }
        EventKind::Reconfigure {
            client,
            read_quorum,
            write_quorum,
        } => {
            map.insert("client".to_string(), Value::Int(*client as u64));
            map.insert(
                "read_quorum".to_string(),
                Value::Int(u64::from(*read_quorum)),
            );
            map.insert(
                "write_quorum".to_string(),
                Value::Int(u64::from(*write_quorum)),
            );
        }
        EventKind::IoError { site, count } => {
            map.insert("site".to_string(), Value::Int(*site as u64));
            map.insert("count".to_string(), Value::Int(u64::from(*count)));
        }
        EventKind::DiskStall { site, ms } => {
            map.insert("site".to_string(), Value::Int(*site as u64));
            map.insert("ms".to_string(), Value::Int(*ms));
        }
    }
    Value::Object(map)
}

fn event_from_value(v: &Value) -> Option<FaultEvent> {
    let at_ms = v.get("at_ms")?.as_int()?;
    let kind = match v.get("kind")?.as_str()? {
        "write" => EventKind::Write {
            client: v.get("client")?.as_int()? as usize,
            payload: v.get("payload")?.as_int()?,
        },
        "read" => EventKind::Read {
            client: v.get("client")?.as_int()? as usize,
        },
        "crash" => EventKind::Crash {
            site: v.get("site")?.as_int()? as usize,
        },
        "recover" => EventKind::Recover {
            site: v.get("site")?.as_int()? as usize,
        },
        "partition" => EventKind::Partition {
            group_a: v
                .get("group_a")?
                .as_array()?
                .iter()
                .map(|s| s.as_int().map(|n| n as usize))
                .collect::<Option<Vec<_>>>()?,
        },
        "heal" => EventKind::Heal,
        "loss_burst" => EventKind::LossBurst {
            permille: v.get("permille")?.as_int()? as u32,
        },
        "delay_spike" => EventKind::DelaySpike {
            extra_ms: v.get("extra_ms")?.as_int()?,
        },
        "duplication" => EventKind::Duplication {
            permille: v.get("permille")?.as_int()? as u32,
        },
        "reconfigure" => EventKind::Reconfigure {
            client: v.get("client")?.as_int()? as usize,
            read_quorum: v.get("read_quorum")?.as_int()? as u32,
            write_quorum: v.get("write_quorum")?.as_int()? as u32,
        },
        "torn_write" => EventKind::TornWrite {
            site: v.get("site")?.as_int()? as usize,
        },
        "bit_flip" => EventKind::BitFlip {
            site: v.get("site")?.as_int()? as usize,
        },
        "io_error" => EventKind::IoError {
            site: v.get("site")?.as_int()? as usize,
            count: v.get("count")?.as_int()? as u32,
        },
        "disk_stall" => EventKind::DiskStall {
            site: v.get("site")?.as_int()? as usize,
            ms: v.get("ms")?.as_int()?,
        },
        _ => return None,
    };
    Some(FaultEvent { at_ms, kind })
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
                    EventKind::Crash { site }
                    | EventKind::Recover { site }
                    | EventKind::TornWrite { site }
                    | EventKind::BitFlip { site }
                    | EventKind::IoError { site, .. }
                    | EventKind::DiskStall { site, .. } => assert!(*site < 5),
                    EventKind::Partition { group_a } => {
                        assert!(group_a.iter().all(|&s| s < 7));
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
            for e in &s.events {
                match e.kind {
                    EventKind::LossBurst { permille } => {
                        loss_open += if permille > 0 { 1 } else { -1 }
                    }
                    EventKind::DelaySpike { extra_ms } => {
                        delay_open += if extra_ms > 0 { 1 } else { -1 }
                    }
                    EventKind::Duplication { permille } => {
                        dup_open += if permille > 0 { 1 } else { -1 }
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
        let mut seen: HashSet<&'static str> = HashSet::new();
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
                .filter(|e| matches!(e.kind, EventKind::BitFlip { .. }))
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
                let (EventKind::TornWrite { site } | EventKind::BitFlip { site }) = e.kind else {
                    continue;
                };
                let crash = s.events[i + 1..]
                    .iter()
                    .take_while(|n| n.at_ms == e.at_ms)
                    .any(|n| n.kind == EventKind::Crash { site });
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
        // one's carries none.
        for spec in [ClusterSpec::majority(5, 2), ClusterSpec::broken(5, 2, 2)] {
            let s = generate(&spec, 99);
            let text = s.to_json(&spec);
            let (spec2, s2) = Schedule::from_json(&text).expect("parses");
            assert_eq!(spec, spec2);
            assert_eq!(s, s2);
            // And the bytes themselves are stable.
            assert_eq!(text, s2.to_json(&spec2));
            let reconfigures = s.events.iter().any(|e| e.kind.name() == "reconfigure");
            assert_eq!(reconfigures, !spec.unchecked_quorums);
        }
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
        let parses = |spec: ClusterSpec, kind: EventKind| {
            let events = vec![FaultEvent { at_ms: 0, kind }];
            Schedule::from_json(&Schedule { seed: 1, events }.to_json(&spec)).is_some()
        };
        let spec = spec();
        assert!(parses(spec, EventKind::Crash { site: 4 }));
        assert!(parses(
            spec,
            EventKind::Partition {
                group_a: vec![0, 6]
            }
        ));
        for kind in [
            EventKind::Crash { site: 5 },
            EventKind::Crash { site: 99 },
            EventKind::Recover { site: 5 },
            EventKind::TornWrite { site: 5 },
            EventKind::BitFlip { site: 5 },
            EventKind::IoError { site: 5, count: 1 },
            EventKind::DiskStall { site: 5, ms: 10 },
            EventKind::Partition {
                group_a: vec![0, 0],
            },
        ] {
            assert!(!parses(spec, kind.clone()), "{kind:?}");
        }
        for empty in [
            ClusterSpec { servers: 0, ..spec },
            ClusterSpec { clients: 0, ..spec },
        ] {
            assert!(!parses(empty, EventKind::Heal), "{empty:?}");
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
