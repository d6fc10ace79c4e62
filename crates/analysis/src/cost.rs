//! Message-count model: what a quorum operation costs the network.
//!
//! The paper discusses operation cost in representative accesses; on a
//! message-passing substrate each access is a request/response pair. For a
//! suite with `h` inquired hosts — every voting representative, plus
//! each weak one cheap enough to be chosen as a fetch source ahead of
//! some voting one (a workstation's own copy; another workstation's is
//! not asked) — and write quorum size `|W|` (sites, not votes):
//!
//! * a **write** exchanges exactly `4|W|` messages — prepare/vote and
//!   commit/ack per quorum member, one quorum access and nothing else —
//!   where any two write quorums intersect (`2w > N`); where they need
//!   not, and on any retry, an inquiry and answer per host come first:
//!   `2h + 4|W|`; the `k` writes one client has outstanding on a suite
//!   leave as one train, which is one such access: `4|W| / k` each;
//! * a **read** exchanges exactly `2h` messages when the contents come
//!   with the inquiry: the best-ranked voting host is asked for them in
//!   its inquiry and sends them in its answer if its copy is newer than
//!   the reader's. A workstation's own zero-vote copy, ranked first, is
//!   one of the `h`: its inquiry asks for whatever it holds, so its
//!   answer is the content read; `+ 1` is the refresh pushed at it when
//!   it proved stale. One case still sends a separate fetch, `+ 2`: the
//!   quorum settles with no current contents
//!   to hand — the host asked for them answers last *and* is needed (the
//!   hosts that answered first are stale, or it is itself stale). Its
//!   late answer may still end the read before the fetch's does.
//!
//! The work ledger (`tests/ledger/mod.rs`) computes the message cells of
//! its read, write and train rows from these formulas and checks them
//! against the transport's actual counters.

/// Exact message count of a successful write's one quorum access.
pub fn write_messages(write_quorum_sites: usize) -> u64 {
    (4 * write_quorum_sites) as u64
}

/// Messages per write of a train of `members` writes: the whole train is
/// one quorum access, [`write_messages`], whatever its length.
pub fn train_messages_per_write(write_quorum_sites: usize, members: usize) -> f64 {
    write_messages(write_quorum_sites) as f64 / members as f64
}

/// Exact message count of the inquiry round a write adds in front of
/// [`write_messages`] where write quorums need not intersect.
pub fn inquiry_messages(hosts: usize) -> u64 {
    (2 * hosts) as u64
}

/// Inclusive bounds on the message count of a successful read over
/// `hosts` voting hosts with the contents asked for in the inquiry: the
/// inquiry alone, or — the host asked for the contents answers last and
/// is needed — the inquiry and a fetch.
pub fn read_messages_bounds(hosts: usize) -> (u64, u64) {
    ((2 * hosts) as u64, (2 * hosts + 2) as u64)
}

/// Exact message count of a successful read with the optimistic fetch
/// disabled (sequential inquiry then fetch).
pub fn read_messages_sequential(hosts: usize) -> u64 {
    (2 * hosts + 2) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_scale_linearly() {
        assert_eq!(write_messages(2), 8);
        assert_eq!(write_messages(3), 12);
        assert_eq!(inquiry_messages(5) + write_messages(2), 18);
        assert_eq!(train_messages_per_write(2, 1), 8.0);
        assert_eq!(train_messages_per_write(3, 8), 1.5);
        assert_eq!(read_messages_bounds(3), (6, 8));
        assert_eq!(read_messages_sequential(3), 8);
    }

    #[test]
    fn a_read_never_costs_more_than_inquiry_then_fetch_and_usually_saves_the_fetch() {
        for h in 1..10 {
            let (lo, hi) = read_messages_bounds(h);
            assert_eq!(hi, read_messages_sequential(h));
            assert_eq!(hi - lo, 2);
        }
    }
}
