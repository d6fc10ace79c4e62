//! E14 — availability and read tail latency under faulty disks.
//!
//! A sweep over disk-fault rates, two arms per rate. Each trial runs a
//! three-site majority cluster under a steady read-heavy workload while
//! disk faults fire at a controlled rate: torn writes and (at most one
//! per trial) bit flips riding crash/recover cycles, plus transient I/O
//! errors and sync stalls on live servers. The *healing off* arm runs
//! the classic stack — a replica quarantined by interior corruption
//! stays quarantined, serving nothing, until the trial ends. The
//! *healing on* arm adds anti-entropy repair and health-tracked clients,
//! so a quarantined replica rebuilds from full peer pulls and rejoins.
//!
//! Both arms of a trial replay the *same* schedule (the arm flag never
//! reaches the builder), so the comparison is paired; trials fan out
//! over [`wv_bench::runner::run_trials`], so the report is bit-identical
//! at any worker count.

use wv_core::{Fault, OpKind};
use wv_net::{Fault as NetFault, SiteId};
use wv_sim::{derive_seed, DetRng, SampleSet, SimDuration};

use wv_bench::runner;
use wv_bench::table::Table;

use crate::exec::{run_schedule, Tally};
use crate::schedule::{ClusterSpec, EventKind, FaultEvent, Schedule};

/// Voting representatives (one vote each, majority quorums).
const SERVERS: usize = 3;
/// Pure client sites.
const CLIENTS: usize = 1;
/// Workload horizon in milliseconds.
const HORIZON_MS: u64 = 30_000;
/// One read every `READ_EVERY_MS` — light enough that the classic
/// (no-health) arm is not queue-saturated at rate 0, so the latency
/// columns measure fault impact rather than workload backlog.
const READ_EVERY_MS: u64 = 500;
/// One write every `WRITE_EVERY_MS`.
const WRITE_EVERY_MS: u64 = 2_000;
/// Disk-fault slots: every `FAULT_SLOT_MS` the builder rolls the rate.
const FAULT_SLOT_MS: u64 = 1_500;
/// How long a damaged server stays down before its recovery.
const OUTAGE_MS: u64 = 400;
/// The swept fault rates, in permille per slot.
pub const RATES_PERMILLE: &[u32] = &[0, 150, 400, 800];
/// Trials per cell in the full report.
pub const TRIALS: usize = 12;
/// Seed-derivation label for the fault timeline.
const FAULT_LABEL: u64 = 0xE14_FA17;

/// Builds the schedule both arms of a trial share: the steady workload
/// plus disk faults drawn at `rate_permille` per slot. Pure function of
/// `(seed, rate_permille)` — the healing flag never reaches it.
pub fn build_schedule(seed: u64, rate_permille: u32) -> Schedule {
    let mut rng = DetRng::new(derive_seed(seed, FAULT_LABEL + u64::from(rate_permille)));
    let mut events = Vec::new();

    let mut t = READ_EVERY_MS;
    while t < HORIZON_MS {
        events.push(FaultEvent::new(t, EventKind::Read { client: 0 }));
        t += READ_EVERY_MS;
    }
    let mut t = 100;
    let mut payload = 0;
    while t < HORIZON_MS {
        payload += 1;
        events.push(FaultEvent::new(t, EventKind::Write { client: 0, payload }));
        t += WRITE_EVERY_MS;
    }

    // Fault slots: at each, with probability rate/1000, one disk fault
    // on a currently-up server. Durable damage (tears, flips) is latent,
    // so it rides a crash/recover cycle; at most one flip per trial —
    // quarantine surrenders votes, and the vote-safety argument assumes
    // a single simultaneously-degraded disk.
    let mut up_again = [0u64; SERVERS];
    let mut flip_armed = false;
    let mut slot = FAULT_SLOT_MS;
    while slot < HORIZON_MS {
        let fire = rng.below(1_000) < u64::from(rate_permille);
        let site = rng.below(SERVERS as u64) as usize;
        let kind = rng.below(4);
        // All five draws happen unconditionally so the stream is a pure
        // function of the slot index, never of what earlier slots fired.
        let at = slot + rng.below(1_000);
        let tear_jitter = rng.below(10);
        // Durable-damage crashes aim at the prepare window of the next
        // write: the prepare record reaches a server one inquiry
        // round-trip plus one hop after the write fires (~300 ms on the
        // 100 ms links) and sits volatile for the 5 ms group-commit
        // sync, so tears around that instant genuinely catch a volatile
        // tail mid-flush.
        let w = ((slot - 100) / WRITE_EVERY_MS + 1) * WRITE_EVERY_MS + 100;
        let damage_at = w + 297 + tear_jitter;
        if fire && up_again[site] <= damage_at.min(at) {
            let id = SiteId::from(site);
            match kind {
                0 | 1 => {
                    let damage = if kind == 0 && !flip_armed {
                        flip_armed = true;
                        Fault::BitFlip(id)
                    } else {
                        Fault::TornWrite(id)
                    };
                    let up = damage_at + OUTAGE_MS;
                    events.push(FaultEvent::new(damage_at, damage));
                    events.push(FaultEvent::new(damage_at, NetFault::Crash(id)));
                    events.push(FaultEvent::new(up, NetFault::Recover(id)));
                    up_again[site] = up;
                }
                2 => {
                    let n = 1 + rng.below(3) as u32;
                    events.push(FaultEvent::new(at, Fault::IoErrors { site: id, n }));
                }
                _ => {
                    let d = SimDuration::from_millis(200 + rng.below(800));
                    events.push(FaultEvent::new(at, Fault::DiskStall { site: id, d }));
                }
            }
        }
        slot += FAULT_SLOT_MS;
    }

    events.sort_by_key(|e| e.at_ms);
    Schedule { seed, events }
}

/// One cell: a fault rate crossed with a healing arm.
pub struct Cell {
    /// The cell's fault rate (permille per slot).
    pub rate_permille: u32,
    /// Its trials' tallies, summed.
    pub total: Tally,
    /// Median read latency (ms) over committed reads.
    pub read_p50_ms: f64,
    /// 99th-percentile read latency (ms) over committed reads.
    pub read_p99_ms: f64,
}

impl Cell {
    /// Committed fraction over the cell.
    pub fn availability(&self) -> f64 {
        self.total.ops_ok as f64 / self.total.ops().max(1) as f64
    }
}

/// Runs one cell: `trials` paired trials at one rate, one arm.
fn run_cell(master_seed: u64, trials: usize, rate_permille: u32, healing: bool) -> Cell {
    // Group commit on both arms: without it every record syncs the
    // instant it is appended, so a torn write never has a volatile tail
    // to tear and the recovery-side truncation path would sit idle.
    let spec = if healing {
        ClusterSpec::majority(SERVERS, CLIENTS)
            .with_group_commit()
            .with_repair()
            .with_disk_faults()
    } else {
        ClusterSpec::majority(SERVERS, CLIENTS)
            .with_group_commit()
            .with_disk_faults()
    };
    let results = runner::run_trials(master_seed, trials, move |seed| {
        let schedule = build_schedule(seed, rate_permille);
        let run = run_schedule(&spec, &schedule);
        let mut lat = Vec::new();
        for op in &run.ops {
            if op.kind == OpKind::Read && op.outcome.is_ok() {
                lat.push(op.finished.since(op.started).as_millis_f64());
            }
        }
        (run.tally, lat)
    });
    let mut total = Tally::default();
    let mut lat = SampleSet::new();
    for (tally, trial_lat) in results {
        total += &tally;
        for x in trial_lat {
            lat.record(x);
        }
    }
    Cell {
        rate_permille,
        total,
        read_p50_ms: lat.try_quantile(0.50).unwrap_or(0.0),
        read_p99_ms: lat.try_quantile(0.99).unwrap_or(0.0),
    }
}

/// Runs the whole sweep: per rate, the healing-off and healing-on cells.
pub fn measure(master_seed: u64, trials: usize) -> Vec<(Cell, Cell)> {
    RATES_PERMILLE
        .iter()
        .map(|&rate| {
            (
                run_cell(master_seed, trials, rate, false),
                run_cell(master_seed, trials, rate, true),
            )
        })
        .collect()
}

fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Builds the E14 report with an explicit per-cell trial count.
pub fn run(trials: usize) -> String {
    let cells = measure(0xE14, trials);
    let mut out = String::new();
    out.push_str("## E14 — Availability and read tail latency under faulty disks\n\n");
    out.push_str(&format!(
        "{trials} paired trials per cell; each runs a {SERVERS}-site \
         majority cluster for {} s of virtual time under a steady \
         workload (a read every {} ms, a write every {} s) while disk \
         faults fire at the swept rate: torn writes and at most one bit \
         flip per trial riding {} ms crash/recover cycles, plus \
         transient I/O errors and sync stalls on live servers. Both arms \
         of a trial replay the same schedule; only the self-healing \
         layer (anti-entropy repair + health-tracked clients) differs. \
         A bit flip corrupts durable WAL bytes, so the damaged replica \
         quarantines itself at recovery: with healing off it stays \
         quarantined for the rest of the trial; with healing on it \
         rebuilds from full peer pulls and rejoins.\n\n",
        HORIZON_MS / 1_000,
        READ_EVERY_MS,
        WRITE_EVERY_MS / 1_000,
        OUTAGE_MS,
    ));

    let mut t = Table::new(
        "Availability vs disk-fault rate",
        &[
            "fault rate (‰/slot)",
            "availability (healing off)",
            "availability (healing on)",
            "read p99 ms (off)",
            "read p99 ms (on)",
        ],
    );
    for (off, on) in &cells {
        t.row(&[
            off.rate_permille.to_string(),
            pct(off.availability()),
            pct(on.availability()),
            format!("{:.1}", off.read_p99_ms),
            format!("{:.1}", on.read_p99_ms),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let mut t = Table::new(
        "Disk-fault pathology and repair (summed over trials)",
        &[
            "fault rate (‰/slot)",
            "torn tails truncated",
            "corrupt records detected",
            "quarantines (off / on)",
            "quarantines healed (off / on)",
        ],
    );
    for (off, on) in &cells {
        let (a, b) = (&off.total.server, &on.total.server);
        t.row(&[
            off.rate_permille.to_string(),
            (a.torn_truncations + b.torn_truncations).to_string(),
            (a.corrupt_records_detected + b.corrupt_records_detected).to_string(),
            format!("{} / {}", a.quarantines, b.quarantines),
            format!("{} / {}", a.requarantine_repairs, b.requarantine_repairs),
        ]);
    }
    out.push_str(&t.to_markdown());
    out.push('\n');

    let poison: u64 = cells
        .iter()
        .flat_map(|(off, on)| [off, on])
        .map(|c| c.total.server.poison_escapes + c.total.server.served_while_quarantined)
        .sum();
    let (top_off, top_on) = cells.last().expect("at least one rate");
    out.push_str(&format!(
        "No-poisoned-read tripwires (CRC collisions, serves while \
         quarantined) across the whole sweep: **{poison}**. At the top \
         rate, availability healing off → on: **{} → {}**; a quarantined \
         replica without anti-entropy stays vote-less until the end of \
         the trial, so the healing arm holds the availability line as \
         the fault rate climbs. At rate 0 both tails sit at one read \
         round trip: a write asks nobody for a version first, so its \
         commit locks are taken and gone again before this workload's \
         next read is due, and a read that does meet one is held at the \
         representative and answered at the release. Reader–writer \
         contention costs no phase timeout, and the whole climb *within* \
         each arm is the disk-fault signal. The healing arm's tail sits lower at every faulty rate \
         because its adaptive timeouts give up on a refusing or \
         recovering replica sooner.\n",
        pct(top_off.availability()),
        pct(top_on.availability()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_paired_and_rate_controlled() {
        // Pure function of (seed, rate): identical twice, zero faults at
        // rate zero, at most one bit flip at any rate.
        assert_eq!(build_schedule(7, 400), build_schedule(7, 400));
        let quiet = build_schedule(7, 0);
        assert!(quiet
            .events
            .iter()
            .all(|e| matches!(e.kind, EventKind::Read { .. } | EventKind::Write { .. })));
        for seed in 0..40u64 {
            let s = build_schedule(seed, 800);
            let flips = s
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Fault(Fault::BitFlip(_))))
                .count();
            assert!(flips <= 1, "seed {seed}: {flips} bit flips");
        }
    }

    #[test]
    fn healing_holds_the_availability_line_at_the_top_rate() {
        let cells = measure(0xE14, 6);
        let (base_off, base_on) = &cells[0];
        let (top_off, top_on) = cells.last().unwrap();
        // Rate zero: both arms are effectively fault-free and healthy.
        assert!(base_off.availability() > 0.99, "quiet baseline broke");
        assert!(base_on.availability() > 0.99);
        assert_eq!(
            base_off.total.server.quarantines + base_on.total.server.quarantines,
            0
        );
        // Top rate: corruption happened, was detected, and only the
        // healing arm recovered its quarantined replicas.
        let (off_s, on_s) = (&top_off.total.server, &top_on.total.server);
        assert!(off_s.quarantines > 0, "no trial hit a quarantine");
        assert_eq!(off_s.requarantine_repairs, 0, "healing off must never heal");
        assert!(
            on_s.requarantine_repairs > 0,
            "healing on must heal quarantines"
        );
        assert!(
            top_on.availability() >= top_off.availability(),
            "healing arm regressed availability: off {} vs on {}",
            top_off.availability(),
            top_on.availability()
        );
        // The tripwires stay silent everywhere.
        for c in cells.iter().flat_map(|(off, on)| [off, on]) {
            assert_eq!(c.total.server.poison_escapes, 0);
            assert_eq!(c.total.server.served_while_quarantined, 0);
        }
    }

    #[test]
    fn the_report_is_deterministic() {
        assert_eq!(run(2), run(2));
    }
}
