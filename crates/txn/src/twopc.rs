//! The two-phase commit vote vocabulary.
//!
//! The coordinator is the client in `wv-core`: it sends the prepares,
//! tallies each participant's [`Vote`], logs the commit decision and
//! tells the participants (`send_prepares` → `on_prepare_vote` →
//! `log_commit_decision` in `wv_core::client`). The suite servers are the
//! participants. This module holds the one type both sides and the wire
//! protocol share.

/// A participant's vote.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Vote {
    /// The participant prepared successfully and promises to commit.
    Yes,
    /// The participant cannot commit.
    No,
}
