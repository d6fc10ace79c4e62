//! Network topology: per-link latency, loss, and partitions.

use wv_sim::{DetRng, LatencyModel, SimDuration};

use crate::site::SiteId;

/// Per-link behaviour of the network connecting a set of sites.
///
/// The configuration is a full matrix: `latency[from][to]` and
/// `drop[from][to]`. Self-links model local access (a client talking to a
/// representative on its own machine) and default to the paper's 75 ms
/// local-file-system latency with no loss.
#[derive(Clone, Debug)]
pub struct NetConfig {
    sites: usize,
    latency: Vec<Vec<LatencyModel>>,
    drop: Vec<Vec<f64>>,
    /// Probability that a successfully delivered message is delivered twice
    /// (models retransmission duplicates end-to-end).
    pub duplicate_prob: f64,
    /// Extra one-way delay added to every cross-site link on top of its
    /// latency model (models a transient congestion spike; self-links are
    /// unaffected). Zero in the healthy state.
    pub extra_delay: SimDuration,
}

impl NetConfig {
    /// A network of `sites` sites where every link (including self-links)
    /// uses `model` and nothing is lost.
    pub fn uniform(sites: usize, model: LatencyModel) -> Self {
        NetConfig {
            sites,
            latency: vec![vec![model.clone(); sites]; sites],
            drop: vec![vec![0.0; sites]; sites],
            duplicate_prob: 0.0,
            extra_delay: SimDuration::ZERO,
        }
    }

    /// Number of sites in the network.
    pub fn sites(&self) -> usize {
        self.sites
    }

    /// Sets the latency of the directed link `from -> to`.
    pub fn set_link(&mut self, from: SiteId, to: SiteId, model: LatencyModel) -> &mut Self {
        self.latency[from.index()][to.index()] = model;
        self
    }

    /// Sets the latency of both directions between `a` and `b`.
    pub fn set_link_symmetric(&mut self, a: SiteId, b: SiteId, model: LatencyModel) -> &mut Self {
        self.latency[a.index()][b.index()] = model.clone();
        self.latency[b.index()][a.index()] = model;
        self
    }

    /// Sets the drop probability of the directed link `from -> to`.
    pub fn set_drop(&mut self, from: SiteId, to: SiteId, p: f64) -> &mut Self {
        self.drop[from.index()][to.index()] = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the drop probability on every link between distinct sites.
    pub fn set_drop_all(&mut self, p: f64) -> &mut Self {
        let p = p.clamp(0.0, 1.0);
        for a in 0..self.sites {
            for b in 0..self.sites {
                if a != b {
                    self.drop[a][b] = p;
                }
            }
        }
        self
    }

    /// The latency model of the directed link `from -> to`.
    pub fn link(&self, from: SiteId, to: SiteId) -> &LatencyModel {
        &self.latency[from.index()][to.index()]
    }

    /// Draws a one-way delay for the directed link `from -> to`.
    ///
    /// Cross-site links pay the configured [`extra_delay`](Self::extra_delay)
    /// on top of the sampled value; local access never crosses the network
    /// and is spared.
    pub fn sample_latency(&self, from: SiteId, to: SiteId, rng: &mut DetRng) -> SimDuration {
        let base = self.latency[from.index()][to.index()].sample(rng);
        if from == to {
            base
        } else {
            base + self.extra_delay
        }
    }

    /// Decides whether a message on `from -> to` is lost.
    pub fn sample_drop(&self, from: SiteId, to: SiteId, rng: &mut DetRng) -> bool {
        rng.chance(self.drop[from.index()][to.index()])
    }

    /// Mean one-way delay of `from -> to`, in milliseconds.
    pub fn mean_latency_ms(&self, from: SiteId, to: SiteId) -> f64 {
        self.latency[from.index()][to.index()].mean_millis()
    }
}

/// A partition of the site set into disjoint connectivity groups.
///
/// Messages flow only between sites in the same group. [`Partition::whole`]
/// (everything in one group) is the healthy state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    group_of: Vec<usize>,
}

impl Partition {
    /// All `sites` sites mutually connected.
    pub fn whole(sites: usize) -> Self {
        Partition {
            group_of: vec![0; sites],
        }
    }

    /// Builds a partition from explicit groups.
    ///
    /// Sites not named in any group each become singleton groups (fully
    /// isolated), which is the conservative reading of "the rest of the
    /// network is unreachable".
    ///
    /// # Panics
    ///
    /// Panics if a site appears in two groups or is out of range.
    pub fn split(sites: usize, groups: &[&[SiteId]]) -> Self {
        // Group 0..groups.len()-1 are the named groups; unnamed sites get
        // fresh singleton group ids after those.
        let unset = usize::MAX;
        let mut group_of = vec![unset; sites];
        for (g, members) in groups.iter().enumerate() {
            for &s in *members {
                assert!(s.index() < sites, "site {s} out of range");
                assert_eq!(group_of[s.index()], unset, "site {s} in two groups");
                group_of[s.index()] = g;
            }
        }
        let mut next = groups.len();
        for slot in group_of.iter_mut() {
            if *slot == unset {
                *slot = next;
                next += 1;
            }
        }
        Partition { group_of }
    }

    /// Isolates a single site from everyone else.
    pub fn isolate(sites: usize, lonely: SiteId) -> Self {
        let mut p = Partition::whole(sites);
        p.group_of[lonely.index()] = 1;
        p
    }

    /// True if `a` can exchange messages with `b`.
    ///
    /// A site can always reach itself (local access does not cross the
    /// network).
    pub fn connected(&self, a: SiteId, b: SiteId) -> bool {
        a == b || self.group_of[a.index()] == self.group_of[b.index()]
    }

    /// Number of sites covered.
    pub fn sites(&self) -> usize {
        self.group_of.len()
    }

    /// The sites of group `g`, in site order. In a [`Partition::split`]
    /// group `g` is `groups[g]`, and each site left unnamed has a group of
    /// its own, numbered after those.
    pub fn group(&self, g: usize) -> impl Iterator<Item = SiteId> + '_ {
        SiteId::all(self.sites()).filter(move |s| self.group_of[s.index()] == g)
    }
}

/// A site crash or recovery, or a change to the network, that
/// [`Cluster::apply_at`](crate::sim_net::Cluster::apply_at) applies at an
/// instant. A dial (`DropAll`, `ExtraDelay`, `Duplicate`) holds until
/// the next fault of its kind.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// The site crashes: it loses its volatile state and pending timers,
    /// and receives nothing until it recovers.
    Crash(SiteId),
    /// The site recovers and runs its recovery hook.
    Recover(SiteId),
    /// Splits the network; [`Fault::Heal`] joins it again.
    Partition(Partition),
    /// Joins every site into one group.
    Heal,
    /// The loss probability of every cross-site link (`DropAll(0.0)` ends
    /// a link-loss burst).
    DropAll(f64),
    /// A delay spike: every cross-site message pays this on top of its
    /// sampled latency (`SimDuration::ZERO` clears it).
    ExtraDelay(SimDuration),
    /// The end-to-end message duplication probability.
    Duplicate(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(31)
    }

    #[test]
    fn uniform_config_samples_everywhere() {
        let cfg = NetConfig::uniform(3, LatencyModel::constant_millis(100));
        let mut r = rng();
        for a in SiteId::all(3) {
            for b in SiteId::all(3) {
                assert_eq!(
                    cfg.sample_latency(a, b, &mut r),
                    SimDuration::from_millis(100)
                );
                assert!(!cfg.sample_drop(a, b, &mut r));
            }
        }
        assert_eq!(cfg.sites(), 3);
    }

    #[test]
    fn set_link_overrides_one_direction() {
        let mut cfg = NetConfig::uniform(2, LatencyModel::constant_millis(10));
        cfg.set_link(SiteId(0), SiteId(1), LatencyModel::constant_millis(99));
        assert_eq!(cfg.mean_latency_ms(SiteId(0), SiteId(1)), 99.0);
        assert_eq!(cfg.mean_latency_ms(SiteId(1), SiteId(0)), 10.0);
        cfg.set_link_symmetric(SiteId(0), SiteId(1), LatencyModel::constant_millis(7));
        assert_eq!(cfg.mean_latency_ms(SiteId(0), SiteId(1)), 7.0);
        assert_eq!(cfg.mean_latency_ms(SiteId(1), SiteId(0)), 7.0);
    }

    #[test]
    fn drop_probability_is_respected() {
        let mut cfg = NetConfig::uniform(2, LatencyModel::constant_millis(1));
        cfg.set_drop(SiteId(0), SiteId(1), 1.0);
        let mut r = rng();
        assert!(cfg.sample_drop(SiteId(0), SiteId(1), &mut r));
        assert!(!cfg.sample_drop(SiteId(1), SiteId(0), &mut r));
        cfg.set_drop_all(0.5);
        let n = 4000;
        let drops = (0..n)
            .filter(|_| cfg.sample_drop(SiteId(0), SiteId(1), &mut r))
            .count();
        let frac = drops as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "drop fraction {frac}");
        // Self links never configured lossy by set_drop_all.
        assert!(!cfg.sample_drop(SiteId(0), SiteId(0), &mut r));
    }

    #[test]
    fn extra_delay_applies_to_cross_site_links_only() {
        let mut cfg = NetConfig::uniform(2, LatencyModel::constant_millis(10));
        cfg.extra_delay = SimDuration::from_millis(250);
        let mut r = rng();
        assert_eq!(
            cfg.sample_latency(SiteId(0), SiteId(1), &mut r),
            SimDuration::from_millis(260)
        );
        // Local access never crosses the network.
        assert_eq!(
            cfg.sample_latency(SiteId(0), SiteId(0), &mut r),
            SimDuration::from_millis(10)
        );
        cfg.extra_delay = SimDuration::ZERO;
        assert_eq!(
            cfg.sample_latency(SiteId(1), SiteId(0), &mut r),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn whole_partition_connects_everyone() {
        let p = Partition::whole(4);
        for a in SiteId::all(4) {
            for b in SiteId::all(4) {
                assert!(p.connected(a, b));
            }
        }
    }

    #[test]
    fn split_partition_blocks_cross_group_traffic() {
        let p = Partition::split(5, &[&[SiteId(0), SiteId(1)], &[SiteId(2), SiteId(3)]]);
        assert!(p.connected(SiteId(0), SiteId(1)));
        assert!(p.connected(SiteId(2), SiteId(3)));
        assert!(!p.connected(SiteId(0), SiteId(2)));
        // Site 4 was unnamed: isolated, but still reaches itself.
        assert!(!p.connected(SiteId(4), SiteId(0)));
        assert!(p.connected(SiteId(4), SiteId(4)));
        let group = |g| p.group(g).collect::<Vec<_>>();
        assert_eq!(group(0), [SiteId(0), SiteId(1)]);
        assert_eq!(group(1), [SiteId(2), SiteId(3)]);
        assert_eq!(group(2), [SiteId(4)]);
    }

    #[test]
    fn isolate_cuts_one_site() {
        let p = Partition::isolate(3, SiteId(1));
        assert!(p.connected(SiteId(0), SiteId(2)));
        assert!(!p.connected(SiteId(0), SiteId(1)));
        assert!(p.connected(SiteId(1), SiteId(1)));
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn split_rejects_duplicate_membership() {
        let _ = Partition::split(3, &[&[SiteId(0)], &[SiteId(0)]]);
    }
}
