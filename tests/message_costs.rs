//! The work ledger's message column: rows that hold the transport to
//! `wv_analysis::cost` (the ledger is `ledger/mod.rs`).

mod ledger;

use ledger::*;
use weighted_voting::analysis::{inquiry_messages, read_messages_sequential, write_messages};

#[test]
fn write_message_count_is_exact() {
    // Equal votes: the write quorum has exactly w sites, and the write is
    // that one quorum access — unless write quorums need not intersect,
    // when every server is asked for its version first.
    for (servers, r, w) in [
        (3, 2, 2),
        (5, 3, 3),
        (3, 1, 3),
        (5, 1, 5),
        (3, 3, 1),
        (5, 4, 2),
    ] {
        let ask_first = u64::from(2 * w <= u32::from(servers));
        let messages = write_messages(w as usize) + ask_first * inquiry_messages(servers.into());
        let mut l = Ledger::on(Servers(servers, 0, r, w), &[], fresh, ONCE);
        l.row(Write(16), [messages, 0, ANY, 0]);
    }
}

#[test]
fn a_train_costs_its_members_one_quorum_access_between_them() {
    for (sites, w) in [(THREE, 2), (FIVE, 3)] {
        let mut l = Ledger::on(sites, &[], fresh, ONCE);
        l.row(Train, [train(w), 0, ANY, 0]);
        // One write goes alone; the other eight ride one prepare.
        let stats = l.client().stats;
        assert_eq!((stats.trains, stats.writes_ridden), (2, 7));
    }
}

#[test]
fn sequential_read_message_count_is_exact() {
    for (sites, n) in [(THREE, 3), (FIVE, 5)] {
        let mut l = Ledger::on(sites, &[Opt::Sequential], prime, ONCE);
        l.row(Read, [read_messages_sequential(n), 0, ANY, 0]);
    }
}

// A workstation's own copy (75 ms self-link against 100 ms to a server) can
// be the fetch source and is asked; another workstation's copy costs what a
// server costs, can never be chosen ahead of one, and is not. The first read
// after a write misses, the next one hits; a write asks nobody: it installs
// at two servers, and that is all.

#[test]
fn weak_representative_adds_one_host_and_cache_fill() {
    let mut l = Ledger::on(Servers(1, 1, 1, 1), &[], prime, ONCE);
    l.row(Read, [at_workstation(2, 1), 0, ANY, 0]);
    l.row(Read, [at_workstation(2, 0), 0, ANY, 0]);
}

#[test]
fn a_read_inquires_the_servers_and_its_own_workstation_only() {
    let mut l = Ledger::on(Servers(3, 3, 2, 2), &[], prime, ONCE);
    l.row(Read, [at_workstation(4, 1), 0, ANY, 0]);
    l.row(Read, [at_workstation(4, 0), 0, ANY, 0]);
    l.row(Write(16), [write_messages(2), 0, ANY, 0]);
}
