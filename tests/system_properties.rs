//! Cross-crate property tests: the running system obeys the quorum math.
//!
//! For random legal configurations (votes, quorum sizes) and every crash
//! set of their sites, the live protocol's behaviour must match the pure
//! arithmetic: an operation succeeds exactly when the surviving sites
//! carry enough votes — no hidden liveness dependencies, no hidden safety
//! holes.
//!
//! Cases are generated from seeded [`DetRng`] streams (an offline stand-in
//! for the old proptest strategies): every case index reproduces exactly.

use weighted_voting::core::quorum::Subsets;
use weighted_voting::prelude::*;

/// A random legal configuration of up to 5 voting sites.
#[derive(Clone, Debug)]
struct Config {
    votes: Vec<u32>,
    r: u32,
    w: u32,
}

/// Draws a legal configuration: 2..=5 sites with 1..=3 votes each, a read
/// quorum in `1..=total`, and the tight write quorum `w = total + 1 - r`.
fn random_config(rng: &mut DetRng) -> Config {
    let n = 2 + rng.below(4) as usize;
    let votes: Vec<u32> = (0..n).map(|_| 1 + rng.below(3) as u32).collect();
    let total: u32 = votes.iter().sum();
    let r = 1 + rng.below(u64::from(total)) as u32;
    let w = total + 1 - r;
    Config { votes, r, w }
}

fn build(cfg: &Config, seed: u64) -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(seed)
        .quorum(QuorumSpec::new(cfg.r, cfg.w));
    for &v in &cfg.votes {
        b = b.site(SiteSpec::server(v));
    }
    b.client().build().expect("constructed legal by strategy")
}

/// Runs `check` on every crash set of `cfg`'s sites: a fresh cluster from
/// `seed`, handed over with the sites outside the up-set `mask` crashed
/// once `prime` has run on the healthy cluster, and the votes left up.
fn every_crash_set<P>(
    cfg: &Config,
    seed: u64,
    prime: impl Fn(&mut Harness) -> P,
    check: impl Fn(&mut Harness, P, u32),
) {
    let assignment = VoteAssignment::new(
        cfg.votes
            .iter()
            .enumerate()
            .map(|(i, v)| (SiteId::from(i), *v)),
    );
    let subsets = Subsets::of(&assignment);
    for (up, alive) in subsets.iter() {
        let mut h = build(cfg, seed);
        let primed = prime(&mut h);
        for site in subsets.members(!up) {
            h.crash(site);
        }
        check(&mut h, primed, alive);
    }
}

const CASES: u64 = 48;

/// Writes succeed iff the surviving votes reach the write quorum and
/// the read quorum (with r + w = N + 1, the larger of the two is the
/// inquiry where `2w <= N`, the write quorum otherwise).
#[test]
fn write_availability_matches_vote_arithmetic() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11ab ^ case);
        let cfg = random_config(&mut rng);
        let seed = rng.below(1000);
        let prime = |h: &mut Harness| {
            let suite = h.suite_id();
            h.write(suite, b"primed".to_vec()).expect("healthy write");
        };
        every_crash_set(&cfg, seed, prime, |h, (), alive| {
            let should_work = alive >= cfg.w.max(cfg.r);
            let outcome = h.write(h.suite_id(), b"probe".to_vec());
            assert_eq!(
                outcome.is_ok(),
                should_work,
                "case {}: votes alive {} vs r={} w={}; outcome {:?}",
                case,
                alive,
                cfg.r,
                cfg.w,
                outcome.err()
            );
        });
    }
}

/// Reads succeed iff the surviving votes reach the read quorum, and
/// when they succeed they always return the newest committed version.
#[test]
fn read_availability_and_freshness() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x22cd ^ case);
        let cfg = random_config(&mut rng);
        let seed = rng.below(1000);
        let prime = |h: &mut Harness| {
            let suite = h.suite_id();
            let w1 = h.write(suite, b"one".to_vec()).expect("healthy write");
            let w2 = h.write(suite, b"two".to_vec()).expect("healthy write");
            assert!(w2.version > w1.version);
            w2.version
        };
        every_crash_set(&cfg, seed, prime, |h, newest, alive| {
            let should_work = alive >= cfg.r;
            match h.read(h.suite_id()) {
                Ok(r) => {
                    assert!(
                        should_work,
                        "case {case}: read succeeded with only {alive} votes"
                    );
                    assert_eq!(
                        r.version, newest,
                        "case {case}: read missed the newest write"
                    );
                    assert_eq!(&r.value[..], b"two");
                }
                Err(_) => assert!(
                    !should_work,
                    "case {case}: read blocked despite {alive} votes"
                ),
            }
        });
    }
}

/// After crashing everything and recovering everything, all committed
/// state survives and service resumes.
#[test]
fn full_recovery_is_lossless() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x33ef ^ case);
        let cfg = random_config(&mut rng);
        let seed = rng.below(1000);
        let mut h = build(&cfg, seed);
        let suite = h.suite_id();
        let w = h.write(suite, b"durable".to_vec()).expect("write");
        for i in 0..cfg.votes.len() {
            h.crash(SiteId::from(i));
        }
        h.advance(SimDuration::from_secs(2));
        for i in 0..cfg.votes.len() {
            h.recover(SiteId::from(i));
        }
        let r = h.read(suite).expect("read after full recovery");
        assert_eq!(r.version, w.version, "case {case}");
        assert_eq!(&r.value[..], b"durable", "case {case}");
    }
}
