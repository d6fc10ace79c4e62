//! The work ledger's timer column on a healthy majority (the ledger is
//! `ledger/mod.rs`): past every phase timeout, commit resend and decision
//! probe an op armed, it has fired none of them.

mod ledger;

use ledger::*;
use weighted_voting::analysis::{read_messages_bounds, write_messages};

#[test]
fn a_healthy_write_read_and_train_fire_no_timer() {
    let mut l = Ledger::on(THREE, &[], fresh, ONCE);
    l.row(Write(16), [write_messages(2), 0, ANY, 0]);
    l.row(Read, [read_messages_bounds(3).0, 0, ANY, 0]);
    l.row(Train, [train(2), 0, ANY, 0]);
    // The lone write is a train of one; of the nine, one goes alone and
    // eight ride one prepare. All nine completed.
    let client = l.client();
    assert_eq!((client.stats.trains, client.stats.writes_ridden), (3, 7));
    assert_eq!(client.completed.len(), 9);
}
