//! Pinned chaos seeds: trials of the E9 campaign (`wv-exp e9 --trials N`)
//! that broke an invariant or the progress bound at some point while the
//! write path was being taken from two quorum accesses to one, and then
//! from one write per commit-lock hold to one train — and, last, two that
//! break under the one-line mutation of the one-round read. The seeds
//! are campaign *trial* seeds, exactly as the report's violation tables
//! print them; each is replayed in every arm of the campaign, the one
//! that showed it included.

use weighted_voting::chaos::oracle::check_trial;
use weighted_voting::chaos::report::arms;
use weighted_voting::chaos::{generate, run_schedule};

fn replays_clean(seeds: &[u64]) {
    for &seed in seeds {
        for (arm, spec) in arms() {
            let schedule = generate(&spec, seed);
            let run = run_schedule(&spec, &schedule);
            let violations = check_trial(&run);
            assert!(
                violations.is_empty(),
                "{arm} arm, trial seed {seed:#x}: {violations:?}"
            );
            assert!(run.quiesced, "{arm} arm, trial seed {seed:#x}: not quiet");
        }
    }
}

/// Multi-suite arm. A direct transaction sent into a partition held suite
/// locks at the two sites it did reach for the whole phase timeout, and a
/// younger write behind it gave way three times — until a participant
/// that stays silent a round trip after the first yes was widened away
/// from.
#[test]
fn direct_prepares_sent_into_a_partition_do_not_starve_the_writes_behind_them() {
    replays_clean(&[0x8b45_5257_bd17_31c1, 0x327f_e6ce_9dd6_bf1a]);
}

/// One-round blind retries (after `GaveWay` / `VoteNo`) outran a
/// reconfiguration's exact-version read-modify-write for all six of its
/// attempts, in three arms — until every retry went back to inquiring
/// first.
#[test]
fn blind_retries_do_not_outrun_a_reconfiguration() {
    replays_clean(&[0x4504_566b_c884_53c1]);
}

/// Aborting at a shortened deadline after the first yes, instead of
/// widening, cleared the partition seeds above and failed these.
#[test]
fn widening_past_a_silent_participant_beats_aborting_early() {
    replays_clean(&[
        0xd929_f5b1_d23e_cd3c,
        0x87f7_79a3_0343_0bad,
        0xd6bd_d93b_06fb_8a64,
    ]);
}

/// Multi-suite arm. A transaction widens per written suite, as a single
/// write does: with widening for single writes only, this one needed five
/// attempts.
#[test]
fn a_transaction_widens_past_a_silent_participant_too() {
    replays_clean(&[0xf4f7_6ec9_596d_985c]);
}

/// Multi-suite arm; none quiesced. Widening gave a site that was already
/// preparing one suite of a transaction a second prepare for another —
/// under the same request id, which the site takes for a re-ask — and
/// then waited for two votes from it.
#[test]
fn a_widening_transaction_never_hands_a_participant_a_second_suite() {
    replays_clean(&[
        0xd8fb_4fe3_6085_f44e,
        0xcc31_1a3e_a913_4883,
        0xf91b_dd5d_d954_c575,
        0x94e5_9b08_2759_e585,
        0x7d11_4ecc_3481_9fc5,
        0xf67a_ae73_0a30_78d5,
    ]);
}

/// Shipped, cache-tier and multi-suite arms. In the crowd a healed
/// partition lets loose, a young reconfiguration (first seed) and a young
/// two-suite transaction (second) lost every race to an older operation
/// and burned their attempts faster than the crowd drained — until a lost
/// race was not retried sooner than the lost attempt had lasted.
#[test]
fn a_lost_race_waits_out_the_winner() {
    replays_clean(&[0x64f1_3177_45e5_7a0d, 0xd425_9a83_64c3_99c0]);
}

/// Self-healing and faulty-disk arms. Two participants' yes votes were
/// lost to a partition while their coordinator believed them in line, and
/// its re-asks had thinned out to one in 7 s: two reads held behind the
/// commit locks needed five attempts — until the participants' own
/// decision probes were taken as word that a yes had gone missing.
#[test]
fn a_probe_from_a_participant_whose_yes_was_lost_gets_it_asked_again() {
    replays_clean(&[0xc2c6_dcdd_2a15_bdf5]);
}

/// Shipped and cache-tier arms (first seed), multi-suite arm (second). A
/// write launched into a healed cluster parked behind a direct attempt of
/// its client that one participant had left unanswered since the
/// partition, left three seconds later with the phase timeout, carrying
/// the writes parked before it, straight into the crowd the heal had let
/// loose, and needed five attempts — until a write stopped parking behind
/// an attempt that has stalled, and took the marker over instead. The
/// second seed is the one ISSUE 22 reports for a variant of that rule in
/// which one answer from any participant vouched for all of them.
#[test]
fn a_write_does_not_wait_out_a_stalled_attempt_of_its_own_client() {
    replays_clean(&[0x3411_a3d9_e446_d04a, 0x364c_2353_a48d_39b6]);
}

/// One-round reads: contents that come with a version answer are held
/// until a read quorum's highest version is no higher. Believing the
/// first contents-bearing answer on its own returned v3 after v4 was
/// acknowledged (sixteen reads of the first trial, in the shipped arm;
/// 248 stale reads over 1,200 trials).
#[test]
fn contents_that_came_with_a_version_answer_wait_for_the_read_quorum() {
    replays_clean(&[0x391f_050c_cc26_4772, 0xae62_443f_0d2c_70a4]);
}
