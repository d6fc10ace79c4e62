//! The replicated suite configuration — the paper's "prefix".
//!
//! Gifford stores the vote assignment and quorum sizes in a replicated
//! prefix attached to the suite, updated under the *old* configuration's
//! write quorum so that reconfiguration is just another quorum write. We
//! realise that by storing the serialised [`SuiteConfig`] as a second
//! object (the *config object*) in the same containers that hold the data
//! object; its version number is the configuration generation.

use wv_net::SiteId;
use wv_storage::ObjectId;

use crate::quorum::{QuorumError, QuorumSpec};
use crate::votes::VoteAssignment;

/// High bit tag distinguishing config objects from data objects.
const CONFIG_TAG: u64 = 1 << 63;

/// The object under which a suite's data lives.
pub fn data_object(suite: ObjectId) -> ObjectId {
    assert_eq!(
        suite.0 & CONFIG_TAG,
        0,
        "suite ids must not use the top bit"
    );
    suite
}

/// The object under which a suite's configuration lives.
pub fn config_object(suite: ObjectId) -> ObjectId {
    assert_eq!(
        suite.0 & CONFIG_TAG,
        0,
        "suite ids must not use the top bit"
    );
    ObjectId(suite.0 | CONFIG_TAG)
}

/// True if `object` is a config object, and if so, for which suite.
pub fn suite_of_config_object(object: ObjectId) -> Option<ObjectId> {
    if object.0 & CONFIG_TAG != 0 {
        Some(ObjectId(object.0 & !CONFIG_TAG))
    } else {
        None
    }
}

/// A suite's complete replication configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteConfig {
    /// The suite's data object id.
    pub suite: ObjectId,
    /// Votes per hosting site.
    pub assignment: VoteAssignment,
    /// Read/write quorum sizes.
    pub quorum: QuorumSpec,
    /// Configuration generation; bumped by each reconfiguration.
    pub generation: u64,
}

impl SuiteConfig {
    /// Builds and validates a configuration at generation 1.
    pub fn new(
        suite: ObjectId,
        assignment: VoteAssignment,
        quorum: QuorumSpec,
    ) -> Result<Self, QuorumError> {
        quorum.validate(&assignment)?;
        Ok(SuiteConfig {
            suite,
            assignment,
            quorum,
            generation: 1,
        })
    }

    /// Builds a configuration at generation 1 *without* the quorum
    /// intersection check.
    ///
    /// This exists solely for fault-injection work: the chaos campaign
    /// deliberately runs clusters whose quorums do not intersect
    /// (`r + w = N`) to prove that the history oracle catches the resulting
    /// stale reads. Production paths must go through [`SuiteConfig::new`].
    pub fn new_unchecked(suite: ObjectId, assignment: VoteAssignment, quorum: QuorumSpec) -> Self {
        SuiteConfig {
            suite,
            assignment,
            quorum,
            generation: 1,
        }
    }

    /// The successor configuration with a new assignment and quorum.
    pub fn evolve(
        &self,
        assignment: VoteAssignment,
        quorum: QuorumSpec,
    ) -> Result<Self, QuorumError> {
        quorum.validate(&assignment)?;
        Ok(SuiteConfig {
            suite: self.suite,
            assignment,
            quorum,
            generation: self.generation + 1,
        })
    }

    /// Serialises for storage in the config object.
    pub fn encode(&self) -> Vec<u8> {
        // A compact hand-rolled encoding: no serde_json in the approved
        // dependency set, and the format is internal to the repository.
        let mut out = Vec::new();
        out.extend_from_slice(&self.suite.0.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.quorum.read.to_le_bytes());
        out.extend_from_slice(&self.quorum.write.to_le_bytes());
        let entries = self.assignment.entries();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (site, votes) in entries {
            out.extend_from_slice(&site.0.to_le_bytes());
            out.extend_from_slice(&votes.to_le_bytes());
        }
        out
    }

    /// Parses what [`SuiteConfig::encode`] produced.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        fn take<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
            if b.len() < N {
                return None;
            }
            let (head, rest) = b.split_at(N);
            *b = rest;
            head.try_into().ok()
        }
        let mut b = bytes;
        let suite = ObjectId(u64::from_le_bytes(take::<8>(&mut b)?));
        let generation = u64::from_le_bytes(take::<8>(&mut b)?);
        let read = u32::from_le_bytes(take::<4>(&mut b)?);
        let write = u32::from_le_bytes(take::<4>(&mut b)?);
        let n = u32::from_le_bytes(take::<4>(&mut b)?) as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let site = SiteId(u16::from_le_bytes(take::<2>(&mut b)?));
            let votes = u32::from_le_bytes(take::<4>(&mut b)?);
            entries.push((site, votes));
        }
        if !b.is_empty() {
            return None;
        }
        Some(SuiteConfig {
            suite,
            assignment: VoteAssignment::new(entries),
            quorum: QuorumSpec::new(read, write),
            generation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SuiteConfig {
        SuiteConfig::new(
            ObjectId(5),
            VoteAssignment::new([
                (SiteId(0), 2),
                (SiteId(1), 1),
                (SiteId(2), 1),
                (SiteId(3), 0),
            ]),
            QuorumSpec::new(2, 3),
        )
        .expect("legal")
    }

    #[test]
    fn object_id_mapping_is_a_bijection() {
        let suite = ObjectId(42);
        assert_eq!(data_object(suite), suite);
        let cfg = config_object(suite);
        assert_ne!(cfg, suite);
        assert_eq!(suite_of_config_object(cfg), Some(suite));
        assert_eq!(suite_of_config_object(suite), None);
    }

    #[test]
    #[should_panic(expected = "top bit")]
    fn config_tagged_suite_ids_rejected() {
        let _ = config_object(ObjectId(1 << 63));
    }

    #[test]
    fn new_validates_quorum() {
        let bad = SuiteConfig::new(ObjectId(1), VoteAssignment::equal(4), QuorumSpec::new(2, 2));
        assert!(bad.is_err());
    }

    #[test]
    fn new_unchecked_skips_the_intersection_check() {
        // r + w = N: illegal for `new`, accepted by the fault-injection
        // constructor so chaos tests can run a deliberately broken cluster.
        let cfg = SuiteConfig::new_unchecked(
            ObjectId(1),
            VoteAssignment::equal(4),
            QuorumSpec::new(2, 2),
        );
        assert_eq!(cfg.generation, 1);
        assert_eq!(cfg.quorum, QuorumSpec::new(2, 2));
    }

    #[test]
    fn evolve_bumps_generation_and_validates() {
        let c = config();
        let c2 = c
            .evolve(VoteAssignment::equal(3), QuorumSpec::majority(3))
            .expect("legal");
        assert_eq!(c2.generation, 2);
        assert_eq!(c2.suite, c.suite);
        assert!(c
            .evolve(VoteAssignment::equal(4), QuorumSpec::new(1, 1))
            .is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let c = config();
        let bytes = c.encode();
        let back = SuiteConfig::decode(&bytes).expect("decodes");
        assert_eq!(back, c);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SuiteConfig::decode(&[]).is_none());
        assert!(SuiteConfig::decode(&[1, 2, 3]).is_none());
        let mut bytes = config().encode();
        bytes.push(0); // trailing garbage
        assert!(SuiteConfig::decode(&bytes).is_none());
    }

    mod props {
        //! Randomized round-trip checks over seeded cases (offline stand-in
        //! for the old proptest strategies; every seed reproduces exactly).

        use super::*;
        use wv_sim::DetRng;

        #[test]
        fn round_trip_any_config() {
            for seed in 0..256u64 {
                let mut rng = DetRng::new(0x5417e ^ seed);
                let suite = rng.below(1 << 62);
                let n = 1 + rng.below(5) as usize;
                let votes: Vec<u32> = (0..n).map(|_| rng.below(5) as u32).collect();
                let gen = 1 + rng.below(99);
                if votes.iter().sum::<u32>() == 0 {
                    continue;
                }
                let total: u32 = votes.iter().sum();
                let assignment = VoteAssignment::new(
                    votes.iter().enumerate().map(|(i, v)| (SiteId::from(i), *v)),
                );
                let mut c =
                    SuiteConfig::new(ObjectId(suite), assignment, QuorumSpec::new(total, 1))
                        .expect("r=N, w=1 is always legal");
                c.generation = gen;
                let back = SuiteConfig::decode(&c.encode()).expect("decodes");
                assert_eq!(back, c, "seed {seed}");
            }
        }
    }
}
