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
//! * a **read** exchanges `2h + 2` messages when the optimistic fetch wins
//!   and up to `2h + 4` when the inquiry quorum settles first and a
//!   redundant explicit fetch goes out (both fetches are answered).
//!
//! `tests/message_costs.rs` checks these formulas against the transport's
//! actual counters.

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

/// Inclusive bounds on the message count of a successful read with the
/// optimistic parallel fetch enabled.
pub fn read_messages_bounds(hosts: usize) -> (u64, u64) {
    ((2 * hosts + 2) as u64, (2 * hosts + 4) as u64)
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
        assert_eq!(read_messages_bounds(3), (8, 10));
        assert_eq!(read_messages_sequential(3), 8);
    }

    #[test]
    fn optimistic_read_costs_at_most_two_extra_messages() {
        for h in 1..10 {
            let (lo, hi) = read_messages_bounds(h);
            assert_eq!(hi - lo, 2);
            assert_eq!(lo, read_messages_sequential(h));
        }
    }
}
