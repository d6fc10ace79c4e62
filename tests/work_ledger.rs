//! The work ledger's properties that compare its columns or need a
//! distribution, and its fixed-link read rows (the ledger is
//! `ledger/mod.rs`).

mod ledger;

use ledger::*;
use weighted_voting::analysis::read_messages_bounds;
use weighted_voting::prelude::*;

#[test]
fn a_read_on_jittered_links_costs_one_bound_or_the_other() {
    // On fixed links a read costs the lower bound: the cheapest host holds
    // the write and answers within the read quorum, its answer brings the
    // contents, and nothing else moves.
    for (sites, n) in [(THREE, 3), (FIVE, 5)] {
        let mut l = Ledger::on(sites, &[], prime, ONCE);
        l.row(Read, [read_messages_bounds(n).0, 0, ANY, 0]);
    }
    // The host asked for the contents sometimes answers after the quorum
    // has settled on the other two, one of which the priming write
    // skipped: then, and only then, a fetch goes out.
    let base = SimDuration::from_millis(20);
    let tail_mean = SimDuration::from_millis(5);
    let jitter = Opt::Links(LatencyModel::ShiftedExponential { base, tail_mean });
    let mut h = cluster(THREE, &[jitter]);
    prime(&mut h);
    let (lo, hi) = read_messages_bounds(3);
    let mut seen = [0u32; 2];
    for _ in 0..60 {
        let [sent, ..] = measure(&mut h, Read, ONCE);
        assert!(sent == lo || sent == hi, "{sent} messages");
        seen[usize::from(sent == hi)] += 1;
    }
    assert!(seen[0] > seen[1] && seen[1] > 0, "{seen:?}");
}

#[test]
fn a_read_allocates_less_than_once_per_message_it_delivers() {
    let mut h = cluster(Sites::Example1, &[]);
    prime(&mut h);
    measure(&mut h, Read, (4, 0));
    let delivered = h.net_stats().delivered;
    let [.., allocations, _] = measure(&mut h, Read, (0, 16));
    let delivered = h.net_stats().delivered - delivered;
    let bound = allocations <= 2 * 16 && allocations < delivered;
    assert!(bound, "{allocations} allocations, {delivered} deliveries");
}

#[test]
fn under_group_commit_the_only_timers_fired_are_the_syncs() {
    let mut h = cluster(THREE, &[Opt::GroupCommit(5)]);
    let syncs = |h: &Harness| -> u64 {
        (0..3u16)
            .map(|s| h.server_at(SiteId(s)).expect("server").stats.wal_batches)
            .sum()
    };
    for op in [Write(16), Read, Train] {
        let before = syncs(&h);
        let [_, fired, ..] = measure(&mut h, op, ONCE);
        let synced = syncs(&h) - before;
        assert_eq!(fired, synced, "{op:?}");
        assert!(synced > 0 || matches!(op, Read), "{op:?}");
    }
}

#[test]
fn a_healthy_run_frames_nothing_and_a_crash_frames_the_whole_image() {
    let mut h = cluster(THREE, SIM_WRITE);
    measure(&mut h, Write(1024), WARM_16);
    assert_eq!(counters(&h)[3], 0, "warm-up included");
    let image = wal(&h, 0).expect("a server").image_bytes() as u64;
    assert!(image > 16 * 1024, "the log holds the values: {image} bytes");
    h.inject(Fault::Crash(SiteId(0)));
    // Site 0 framed its image, all of it durable, and the others nothing.
    assert_eq!(wal(&h, 0).expect("a server").image_bytes() as u64, image);
    assert_eq!(counters(&h)[3], image);
    // The recovery scan reads the image the crash built, framing nothing.
    h.inject(Fault::Recover(SiteId(0)));
    h.run_until_quiet(QUIET);
    assert_eq!(counters(&h)[3], image);
}
