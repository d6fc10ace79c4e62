//! The work ledger's allocation column: rows that pin what an op allocates
//! (the ledger and its counting allocator are `ledger/mod.rs`).

mod ledger;

use ledger::*;
use weighted_voting::analysis::{read_messages_bounds, write_messages};

#[test]
fn a_committed_read_write_train_and_transaction_cost_exact_allocations() {
    // The voting server and the own copy are asked (`h = 2`); a train is
    // one write alone and then eight together.
    let (read, write) = (16 * at_workstation(2, 0), 16 * write_messages(1));
    let mut l = Ledger::on(Sites::Example1, &[], prime, WARM_16);
    l.row(Read, [read, 0, 16, 0]);
    l.row(Write(16), [write, 0, 118, 0]);
    l.row(Train, [2 * write, 0, 597, 0]);
    l.row(Transaction, [ANY, 0, 144, 0]);
}

#[test]
fn a_write_and_reads_cost_exact_allocations_at_the_benchmarks_shapes() {
    // `sim-write`'s write; `sim-churn`'s read, healthy and with a suspect.
    let mut l = Ledger::on(THREE, SIM_WRITE, fresh, WARM_16);
    l.row(Write(1024), [16 * write_messages(2), ANY, 136, 0]);
    let mut l = Ledger::on(FIVE, SIM_CHURN, prime, WARM_16);
    l.row(Read, [16 * read_messages_bounds(5).0, 0, 16, 0]);
    let mut l = Ledger::on(FIVE, SIM_CHURN, suspect, WARM_16);
    l.row(Read, [ANY, 0, 16, 0]);
    // The crashed servers were found out, and site 0 ranked last.
    let stats = l.client().stats;
    assert_eq!(stats.suspicions_raised, 3);
    assert!(stats.reroutes > 0, "the suspect was ranked last");
}
