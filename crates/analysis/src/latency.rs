//! Expected operation latency under the quorum structure.
//!
//! The model matches how the protocol actually behaves on constant-latency
//! links:
//!
//! * A **read** inquires all representatives in parallel and fetches the
//!   contents from the cheapest current representative. The *optimistic*
//!   read latency is the cost of that fetch alone — the number the paper
//!   reports, valid when the cheapest representative turns out to be
//!   current (the common case for read-mostly suites). The *verified*
//!   latency also waits for the cheapest read quorum of version answers:
//!   `max(min-max read quorum cost, fetch cost)`.
//! * A **write** is one access of the cheapest write quorum — the
//!   paper's charge — where any two write quorums intersect (`2w > N`):
//!   the representatives assign the version under their commit locks, and
//!   nobody is asked for it first. Where write quorums need not intersect
//!   it also learns the current version from the cheapest read quorum;
//!   with pipelining the paper charges
//!   `max(inquiry, min-max write quorum cost)`.

use wv_core::quorum::minimal_quorums;

use crate::model::SystemModel;

/// The cheapest "assemble `needed` votes in parallel" cost: the minimum
/// over minimal quorums of the maximum member cost.
fn quorum_cost(model: &SystemModel, needed: u32) -> f64 {
    minimal_quorums(&model.assignment, needed)
        .into_iter()
        .map(|q| {
            q.iter()
                .map(|s| model.cost(*s))
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .fold(f64::INFINITY, f64::min)
}

/// The paper's read-latency number: fetching contents from the cheapest
/// representative, weak ones included, assuming it is current.
pub fn read_latency_optimistic(model: &SystemModel) -> f64 {
    model
        .assignment
        .all_sites()
        .into_iter()
        .map(|s| model.cost(s))
        .fold(f64::INFINITY, f64::min)
}

/// Read latency including the wait for a version-number quorum.
pub fn read_latency_verified(model: &SystemModel) -> f64 {
    read_latency_optimistic(model).max(quorum_cost(model, model.quorum.read))
}

/// Write latency: the installation at the cheapest write quorum — and,
/// where write quorums need not intersect, the version inquiry if that is
/// slower.
pub fn write_latency(model: &SystemModel) -> f64 {
    let install = quorum_cost(model, model.quorum.write);
    if model.quorum.writes_intersect(&model.assignment) {
        install
    } else {
        install.max(quorum_cost(model, model.quorum.read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn paper_example_1_latencies() {
        let m = SystemModel::paper_example_1(0.99);
        // Weak representative on the workstation: 65 ms reads.
        assert!((read_latency_optimistic(&m) - 65.0).abs() < EPS);
        // The verified read still waits for the voting rep's answer.
        assert!((read_latency_verified(&m) - 75.0).abs() < EPS);
        // Writes touch only the single voting representative.
        assert!((write_latency(&m) - 75.0).abs() < EPS);
    }

    #[test]
    fn paper_example_2_latencies() {
        let m = SystemModel::paper_example_2(0.99);
        // Representative 0 alone carries r = 2 votes: 75 ms reads.
        assert!((read_latency_optimistic(&m) - 75.0).abs() < EPS);
        assert!((read_latency_verified(&m) - 75.0).abs() < EPS);
        // Cheapest write quorum is {s0, s1} at max(75, 100) = 100 ms.
        assert!((write_latency(&m) - 100.0).abs() < EPS);
    }

    #[test]
    fn paper_example_3_latencies() {
        let m = SystemModel::paper_example_3(0.99);
        assert!((read_latency_optimistic(&m) - 75.0).abs() < EPS);
        assert!((read_latency_verified(&m) - 75.0).abs() < EPS);
        // Write-all over two 750 ms links.
        assert!((write_latency(&m) - 750.0).abs() < EPS);
    }

    #[test]
    fn verified_read_never_beats_optimistic() {
        for m in [
            SystemModel::paper_example_1(0.9),
            SystemModel::paper_example_2(0.9),
            SystemModel::paper_example_3(0.9),
        ] {
            assert!(read_latency_verified(&m) >= read_latency_optimistic(&m) - EPS);
        }
    }

    #[test]
    fn quorum_cost_picks_cheapest_combination() {
        use wv_core::quorum::QuorumSpec;
        use wv_core::votes::VoteAssignment;

        // Votes <1,1,1>, r=2: cheapest pair is {s0, s1} -> max(10, 20).
        let m = SystemModel::with_uniform_up(
            VoteAssignment::equal(3),
            QuorumSpec::new(2, 2),
            vec![10.0, 20.0, 500.0],
            0.99,
        );
        assert!((read_latency_verified(&m) - 20.0).abs() < EPS);
        assert!((write_latency(&m) - 20.0).abs() < EPS);
    }

    #[test]
    fn a_write_pays_for_the_inquiry_only_where_write_quorums_need_not_intersect() {
        use wv_core::quorum::QuorumSpec;
        use wv_core::votes::VoteAssignment;

        let costs = vec![10.0, 20.0, 30.0, 40.0, 500.0];
        let at = |r, w| {
            let quorum = QuorumSpec::new(r, w);
            SystemModel::with_uniform_up(VoteAssignment::equal(5), quorum, costs.clone(), 0.99)
        };
        // r = 4, w = 3: any two write quorums share a site; one access.
        assert!((write_latency(&at(4, 3)) - 30.0).abs() < EPS);
        // r = 5, w = 1: they need not, and the inquiry asks everyone.
        assert!((write_latency(&at(5, 1)) - 500.0).abs() < EPS);
    }
}
