//! What a client knows about sites, and every choice it makes among them.
//!
//! Which representatives an operation uses is a performance policy: any
//! `r` / `w` votes are a quorum, and no safety argument depends on which.
//! So the state machine in [`crate::client`] owns the protocol and *asks*
//! here — [`Planner::rank`] orders a suite's sites for one decision, and
//! every choice is a filter or a prefix of that order made by a function
//! of this file — and *tells* what it saw. Nothing here sends a message or
//! arms a timer, and only [`QuorumPolicy::Random`] draws from the RNG.

use std::cmp::Ordering;
use std::sync::Arc;

use wv_net::SiteId;
use wv_sim::audit::SiteInput;
use wv_sim::{DetRng, SimDuration, SimTime};
use wv_storage::{IdHashMap, ObjectId};

use crate::client::{ClientOptions, ClientStats, QuorumPolicy};
use crate::error::OpKind;
use crate::msg::Shared;
use crate::quorum::{cheapest_quorum, quorum_of_prefix};
use crate::site_map::Sites;
use crate::suite::SuiteConfig;
use crate::votes::VoteAssignment;

/// EWMA smoothing factor: weight of the newest RTT sample.
const RTT_ALPHA: f64 = 0.3;
/// What one unanswered phase adds to a site's suspicion score, and the
/// score at which the site becomes suspected.
const SUSPICION_STEP: f64 = 1.0;
const SUSPICION_THRESHOLD: f64 = 2.0;
/// Adaptive phase timeout = this × the slowest contacted site's EWMA RTT,
/// clamped to `[MIN_TIMEOUT, phase_timeout]`: a run of fast responses
/// cannot collapse it to nothing.
const TIMEOUT_MULTIPLIER: f64 = 6.0;
const MIN_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// A site is late once a request has waited this × its round trip: a
/// write takes it for silent, and the writes parked behind a prepare it
/// holds up stop waiting for that prepare.
pub(crate) const LATE_MULTIPLIER: f64 = 3.0;
/// Seed salt for the load-balanced rotation cursor.
const LB_SALT: u64 = 0x10AD_BA1A_7C3D_5EED;

/// What the client knows about one site. The health fields are kept, and
/// consulted, only with health tracking on.
#[derive(Default)]
struct Site {
    /// Mean access cost (typically the mean one-way link latency).
    cost: f64,
    /// EWMA of observed round-trip times, in milliseconds; starts at the
    /// static cost's round trip.
    rtt_ms: f64,
    /// Accrual suspicion score, and whether it has crossed the threshold.
    suspicion: f64,
    suspected: bool,
    /// When the oldest request the site has left unanswered went out.
    owes_since: Option<SimTime>,
    /// It let a phase time out, or was widened away from; nothing since.
    silent: bool,
    /// Data requests sent to it (fetch legs, prepares).
    load: u64,
}

/// A memoized quorum plan, valid for one configuration generation: every
/// cheapest-first decision is a filter or prefix of one sorted order, so
/// caching it takes the sort off the hot path (the random ablation's too).
struct QuorumPlan {
    generation: u64,
    /// All sites of the assignment (weak included) in `(cost, site id)`
    /// order. Shared: handing it to a decision is one refcount bump.
    site_order: Arc<[SiteId]>,
    /// Rotation cursor for [`QuorumPolicy::LoadBalanced`]: seeded from
    /// `(site, generation)`, advanced once per attempt.
    rr: u64,
    /// `site_order` with the suspects demoted, and whether that moved
    /// anyone, as of [`Planner::flips`] `.0`: reused until a site's
    /// suspected flag flips, so a rank under suspicion allocates nothing.
    demoted: Option<(u64, Arc<[SiteId]>, bool)>,
}

/// A set of sites whose votes reach a quorum, where there is one.
type Quorum = Option<Sites>;

/// One decision's ranking of a suite's sites (weak included), best first.
/// Whoever holds one cannot tell whether it came from the cache, a
/// rotation, a random draw or a demotion; the two public fields say so for
/// the audit log alone.
#[derive(Default)]
pub(crate) struct Ranked {
    order: Shared<SiteId>,
    /// The load-balanced rotation cursor decided under (0 otherwise).
    pub(crate) cursor: u64,
    /// Whether health demotion changed the cost order.
    pub(crate) rerouted: bool,
}

impl Ranked {
    /// Who a read asks for the contents in its inquiry's own round: the
    /// zero-vote copy ranked first, if one is (the workstation's own), and
    /// the best-ranked voting representative.
    pub(crate) fn content_sources(&self, a: &VoteAssignment) -> (Option<SiteId>, Option<SiteId>) {
        let own = self.order.first().copied().filter(|s| a.is_weak(*s));
        (own, self.order.iter().copied().find(|s| !a.is_weak(*s)))
    }

    /// The sites `keep` keeps, best first: a read's fetch candidates, say.
    pub(crate) fn among(&self, keep: impl Fn(SiteId) -> bool) -> Sites {
        self.order.iter().copied().filter(|s| keep(*s)).collect()
    }

    /// The best-ranked write quorum of `cfg` among the sites `vouched`
    /// for: a filter keeps the order, so the greedy prefix is the best.
    pub(crate) fn write_quorum(
        &self,
        cfg: &SuiteConfig,
        vouched: impl Fn(SiteId) -> bool,
    ) -> Quorum {
        let among = self.among(vouched);
        let quorum = quorum_of_prefix(&cfg.assignment, cfg.quorum.write, &among)?.collect();
        Some(quorum)
    }
}

/// `(cost, site id)` order: the ranking every policy sorts by.
fn by_cost(cost: impl Fn(SiteId) -> f64, a: SiteId, b: SiteId) -> Ordering {
    let by_cost = cost(a).partial_cmp(&cost(b));
    by_cost.unwrap_or(Ordering::Equal).then(a.cmp(&b))
}

/// A table of sites, a plan cache, and what `ClientOptions` fixed.
pub(crate) struct Planner {
    /// The client's own site: it seeds the load-balanced cursor.
    site: SiteId,
    /// Indexed by site.
    sites: Vec<Site>,
    plans: IdHashMap<ObjectId, QuorumPlan>,
    policy: QuorumPolicy,
    /// Whether the self-healing layer is on.
    health: bool,
    /// Times any site's `suspected` flag has flipped: what a memoized
    /// demotion ([`QuorumPlan::demoted`]) is valid for.
    flips: u64,
    /// The fixed phase timeout, and the adaptive one's ceiling.
    phase_timeout: SimDuration,
}

impl Planner {
    /// For the client at `site`; `costs` are one-way means per site.
    pub(crate) fn new(site: SiteId, costs: Vec<f64>, options: &ClientOptions) -> Self {
        let known = |cost: f64| Site {
            cost,
            rtt_ms: 2.0 * cost.clamp(0.0, 1e12),
            ..Site::default()
        };
        Planner {
            site,
            sites: costs.into_iter().map(known).collect(),
            plans: IdHashMap::default(),
            policy: options.quorum_policy,
            health: options.health.is_some(),
            flips: 0,
            phase_timeout: options.phase_timeout,
        }
    }

    fn cost(&self, site: SiteId) -> f64 {
        self.sites.get(site.index()).map_or(f64::MAX, |s| s.cost)
    }

    /// With health tracking on, the site's record.
    fn tracked(&mut self, site: SiteId) -> Option<&mut Site> {
        self.sites.get_mut(site.index()).filter(|_| self.health)
    }

    /// Per-decision costs: static, or the random ablation's fresh draws.
    fn decision_costs(&self, rng: &mut DetRng) -> impl Fn(SiteId) -> f64 {
        let costs: Vec<f64> = match self.policy {
            QuorumPolicy::Random => self.sites.iter().map(|_| rng.f64()).collect(),
            _ => self.sites.iter().map(|s| s.cost).collect(),
        };
        move |s| costs.get(s.index()).copied().unwrap_or(f64::MAX)
    }

    /// The memoized cost-sorted site order for `cfg`. A plan of an older
    /// generation is a miss, even where [`Self::forget`] was missed.
    fn cached_order(&mut self, cfg: &SuiteConfig, stats: &mut ClientStats) -> Arc<[SiteId]> {
        if let Some(plan) = self.plans.get(&cfg.suite) {
            if plan.generation == cfg.generation {
                stats.plan_cache_hits += 1;
                return Arc::clone(&plan.site_order);
            }
        }
        stats.plan_cache_misses += 1;
        let mut site_order = cfg.assignment.all_sites();
        site_order.sort_by(|a, b| by_cost(|s| self.cost(s), *a, *b));
        let site_order: Arc<[SiteId]> = Arc::from(site_order);
        let plan = QuorumPlan {
            generation: cfg.generation,
            site_order: Arc::clone(&site_order),
            rr: wv_sim::derive_seed(LB_SALT ^ u64::from(self.site.0), cfg.generation),
            demoted: None,
        };
        self.plans.insert(cfg.suite, plan);
        site_order
    }

    /// Rotates each run of equal-cost sites in a cost-sorted order by `rr`
    /// positions: only tie-breaks move, so a greedy quorum is as cheap.
    fn rotate_cost_ties(&self, order: &[SiteId], rr: u64) -> Arc<[SiteId]> {
        let mut out: Vec<SiteId> = Vec::with_capacity(order.len());
        let mut i = 0;
        while i < order.len() {
            let mut j = i + 1;
            while j < order.len() && self.cost(order[j]) == self.cost(order[i]) {
                j += 1;
            }
            let run = &order[i..j];
            let k = (rr % run.len() as u64) as usize;
            out.extend_from_slice(&run[k..]);
            out.extend_from_slice(&run[..k]);
            i = j;
        }
        Arc::from(out)
    }

    /// Demotes suspected sites behind every unsuspected one, stably —
    /// unless all are: routing around everyone is routing nowhere. Returns
    /// the order and whether it changed, counting a reroute when it did.
    /// With nobody suspected that is `order` itself; `memo` names the suite
    /// whose plan `order` is, and keeps the demotion for the next rank.
    fn demote(
        &mut self,
        order: Arc<[SiteId]>,
        memo: Option<ObjectId>,
        stats: &mut ClientStats,
    ) -> (Arc<[SiteId]>, bool) {
        if !self.health {
            return (order, false);
        }
        let suspected = |s: &&SiteId| self.sites.get(s.index()).is_some_and(|h| h.suspected);
        let count = order.iter().filter(suspected).count();
        if count == 0 || count == order.len() {
            return (order, false);
        }
        let flips = self.flips;
        let kept = memo
            .and_then(|suite| self.plans.get_mut(&suite))
            .map(|p| &mut p.demoted);
        let (demoted, rerouted) = match kept {
            Some(Some((at, demoted, rerouted))) if *at == flips => (Arc::clone(demoted), *rerouted),
            kept => {
                let trusted = order.iter().filter(|s| !suspected(s));
                let list: Sites = trusted
                    .chain(order.iter().filter(suspected))
                    .copied()
                    .collect();
                let demoted: Arc<[SiteId]> = Arc::from(&list[..]);
                let rerouted = list[..] != order[..];
                if let Some(slot) = kept {
                    *slot = Some((flips, Arc::clone(&demoted), rerouted));
                }
                (demoted, rerouted)
            }
        };
        stats.reroutes += u64::from(rerouted);
        (demoted, rerouted)
    }

    /// Ranks `cfg`'s sites for one decision, the seam every site choice
    /// goes through: the cached plan (cost-ties rotated for load-balanced)
    /// or the random ablation's fresh sort, then suspects demoted.
    pub(crate) fn rank(
        &mut self,
        cfg: &SuiteConfig,
        rng: &mut DetRng,
        stats: &mut ClientStats,
    ) -> Ranked {
        let (order, cursor, memo) = match self.policy {
            QuorumPolicy::CheapestFirst => (self.cached_order(cfg, stats), 0, Some(cfg.suite)),
            QuorumPolicy::LoadBalanced => {
                let order = self.cached_order(cfg, stats);
                let rr = self.plans[&cfg.suite].rr;
                (self.rotate_cost_ties(&order, rr), rr, None)
            }
            QuorumPolicy::Random => {
                let cost = self.decision_costs(rng);
                let mut order = cfg.assignment.all_sites();
                order.sort_by(|a, b| by_cost(&cost, *a, *b));
                (Arc::from(order), 0, None)
            }
        };
        let (order, rerouted) = self.demote(order, memo, stats);
        Ranked {
            order: order.into(),
            cursor,
            rerouted,
        }
    }

    /// An attempt on `suite` begins: the load-balanced rotation steps. A
    /// step per ranking would visit only every k-th tied site when each
    /// operation ranks k times.
    pub(crate) fn step(&mut self, suite: ObjectId) {
        if self.policy == QuorumPolicy::LoadBalanced {
            if let Some(plan) = self.plans.get_mut(&suite) {
                plan.rr = plan.rr.wrapping_add(1);
            }
        }
    }

    /// The client adopted a new configuration of `suite`.
    pub(crate) fn forget(&mut self, suite: ObjectId) {
        self.plans.remove(&suite);
    }

    /// The client crashed, and no longer remembers whom it had asked.
    pub(crate) fn crash(&mut self) {
        for site in &mut self.sites {
            (site.silent, site.owes_since) = (false, None);
        }
    }

    /// The representatives whose answer to an inquiry by an operation of
    /// `kind` can matter, in send (declaration) order. Every voting one:
    /// first-`r`-of-`N` latency and the health signal depend on it. A
    /// zero-vote one only if it precedes some voting one in the static
    /// `(cost, site id)` order and so could be the fetch source ahead of
    /// it, as a workstation's own copy is. A reconfiguration asks everyone:
    /// its responders must form the *new* write quorum, which may promote a
    /// weak copy. Whoever is not asked is never called silent.
    pub(crate) fn inquiry_set<'a>(
        &'a self,
        kind: OpKind,
        cfg: &'a SuiteConfig,
    ) -> impl Iterator<Item = SiteId> + 'a {
        let last_voting = self.last_voting(cfg);
        let entries = cfg.assignment.entries().iter();
        let asked =
            entries.filter(move |&&(site, votes)| self.asks(kind, last_voting, site, votes));
        asked.map(|(site, _)| *site)
    }

    /// The voting site last in the static `(cost, site id)` order.
    fn last_voting(&self, cfg: &SuiteConfig) -> Option<SiteId> {
        let voting = cfg
            .assignment
            .entries()
            .iter()
            .filter(|(_, votes)| *votes > 0);
        let static_order = |a: &SiteId, b: &SiteId| by_cost(|s| self.cost(s), *a, *b);
        voting.map(|(site, _)| *site).max_by(static_order)
    }

    /// Whether an inquiry of `kind` asks `site`, holding `votes`, given
    /// the [`Self::last_voting`] site.
    fn asks(&self, kind: OpKind, last_voting: Option<SiteId>, site: SiteId, votes: u32) -> bool {
        let before = |last| by_cost(|s| self.cost(s), site, last).is_lt();
        votes > 0 || kind == OpKind::Reconfigure || last_voting.is_some_and(before)
    }

    /// [`Self::asked`] for every site of an inquiry. One call, so that
    /// with health off the read path does not walk the set.
    pub(crate) fn asked_inquiry(&mut self, kind: OpKind, cfg: &SuiteConfig, now: SimTime) {
        if self.health {
            let last_voting = self.last_voting(cfg);
            for &(site, votes) in cfg.assignment.entries() {
                if self.asks(kind, last_voting, site, votes) {
                    self.asked(site, now);
                }
            }
        }
    }

    /// A request whose answer is due a round trip from now goes out.
    pub(crate) fn asked(&mut self, site: SiteId, now: SimTime) {
        if let Some(s) = self.tracked(site) {
            s.owes_since.get_or_insert(now);
        }
    }

    /// Any message from a site proves it alive and pays what it owed.
    pub(crate) fn heard(&mut self, site: SiteId) {
        let health = self.health;
        if let Some(s) = self.sites.get_mut(site.index()) {
            s.silent = false;
            if health {
                self.flips += u64::from(s.suspected);
                (s.suspicion, s.suspected, s.owes_since) = (0.0, false, None);
            }
        }
    }

    /// Folds one RTT sample into a site's EWMA.
    pub(crate) fn rtt(&mut self, site: SiteId, rtt_ms: f64) {
        if let Some(s) = self
            .tracked(site)
            .filter(|_| rtt_ms.is_finite() && rtt_ms >= 0.0)
        {
            s.rtt_ms = RTT_ALPHA * rtt_ms + (1.0 - RTT_ALPHA) * s.rtt_ms;
        }
    }

    /// Moves `site`'s suspicion to `score` of what it was.
    fn suspect(&mut self, site: SiteId, score: impl Fn(f64) -> f64, stats: &mut ClientStats) {
        if let Some(s) = self.tracked(site) {
            s.suspicion = score(s.suspicion);
            if !s.suspected && s.suspicion >= SUSPICION_THRESHOLD {
                s.suspected = true;
                stats.suspicions_raised += 1;
                self.flips += 1;
            }
        }
    }

    /// A phase timed out, or a direct prepare widened, with these sites
    /// still silent: remember them so, and bump their suspicion.
    pub(crate) fn unanswered(&mut self, sites: &[SiteId], stats: &mut ClientStats) {
        for &site in sites {
            if let Some(s) = self.sites.get_mut(site.index()) {
                s.silent = true;
            }
            self.suspect(site, |score| score + SUSPICION_STEP, stats);
        }
    }

    /// A site announced its own quarantine: straight to the threshold —
    /// the refusal is long-lived, unlike a timeout's soft evidence.
    pub(crate) fn quarantined(&mut self, site: SiteId, stats: &mut ClientStats) {
        self.suspect(site, |score| score.max(SUSPICION_THRESHOLD), stats);
    }

    /// A data request (fetch leg, prepare) goes out to `site`.
    pub(crate) fn load(&mut self, site: SiteId) {
        if let Some(s) = self.sites.get_mut(site.index()) {
            s.load += 1;
        }
    }

    /// Data requests sent so far, by site: what the policy distributes.
    pub(crate) fn site_load(&self) -> Vec<u64> {
        self.sites.iter().map(|s| s.load).collect()
    }

    /// The timeout for a phase contacting `sites`: the fixed one, or with
    /// health tracking on one that adapts to the slowest site's EWMA RTT.
    pub(crate) fn phase_delay(&self, sites: impl IntoIterator<Item = SiteId>) -> SimDuration {
        if !self.health {
            return self.phase_timeout;
        }
        let rtts = sites.into_iter().filter_map(|s| self.sites.get(s.index()));
        let max_rtt = rtts.map(|s| s.rtt_ms).fold(0.0_f64, f64::max);
        if max_rtt <= 0.0 {
            return self.phase_timeout;
        }
        let adaptive = SimDuration::from_millis_f64(max_rtt * TIMEOUT_MULTIPLIER);
        adaptive.max(MIN_TIMEOUT).min(self.phase_timeout)
    }

    /// The round trip the static costs expect of the slowest of `sites`.
    pub(crate) fn round_trip<'a>(&self, sites: impl Iterator<Item = &'a SiteId>) -> SimDuration {
        let known = sites.filter_map(|s| self.sites.get(s.index()));
        let slowest = known.fold(0.0_f64, |a, s| a.max(s.cost));
        SimDuration::from_millis_f64(2.0 * slowest.clamp(0.0, 1e12))
    }

    /// Whether `site` is taken for silent: remembered so, or — with health
    /// tracking on — late with an answer right now. Reads ask every voting
    /// site all the time, so that finds a dead site before a write does.
    pub(crate) fn is_silent(&self, site: SiteId, now: SimTime) -> bool {
        let late = |s: &Site| {
            let owed = s.owes_since.map(|t| now.since(t).as_millis_f64());
            self.health && owed.is_some_and(|ms| ms > s.rtt_ms * LATE_MULTIPLIER)
        };
        let known = self.sites.get(site.index());
        known.is_some_and(|s| s.silent || late(s))
    }

    /// A direct attempt's write quorum — the best-ranked one outright — or
    /// `None` while a site of it is silent: the inquiry was also a liveness
    /// probe (prepares went only to sites that had just answered), so a
    /// write that knows better keeps it, and is routed around the site.
    pub(crate) fn direct_quorum(&self, ranked: &Ranked, cfg: &SuiteConfig, now: SimTime) -> Quorum {
        let quorum: Sites =
            quorum_of_prefix(&cfg.assignment, cfg.quorum.write, &ranked.order)?.collect();
        let silent = quorum.iter().any(|s| self.is_silent(*s, now));
        (!silent).then_some(quorum)
    }

    /// Widens a direct prepare whose kept members hold `votes` of `cfg`:
    /// the next voting sites in rank order, neither `taken` (preparing
    /// under the request already) nor silent, until `w` is covered again.
    pub(crate) fn widen(
        &self,
        ranked: &Ranked,
        cfg: &SuiteConfig,
        mut votes: u32,
        taken: &[SiteId],
        now: SimTime,
    ) -> Quorum {
        let mut next = Sites::default();
        for &site in ranked.order.iter() {
            if votes >= cfg.quorum.write {
                break;
            }
            let held = cfg.assignment.votes_of(site);
            if held > 0 && !taken.contains(&site) && !self.is_silent(site, now) {
                votes += held;
                next.push(site);
            }
        }
        (votes >= cfg.quorum.write).then_some(next)
    }

    /// A reconfiguration's two write quorums, the cheapest among its
    /// inquiry's `responders`: the old configuration's (for the config
    /// object) and the new one's (for the data copies). Not through
    /// [`Self::rank`]: it needs the sites under two assignments at once,
    /// one not yet adopted, and reconfigurations are on no hot path.
    pub(crate) fn reconfig_quorums(
        &self,
        responders: &[SiteId],
        [old, new]: [&SuiteConfig; 2],
        rng: &mut DetRng,
    ) -> [Quorum; 2] {
        let cost = self.decision_costs(rng);
        [old, new].map(|cfg| {
            let quorum = cheapest_quorum(&cfg.assignment, cfg.quorum.write, responders, &cost);
            quorum.map(Sites::from_iter)
        })
    }

    /// The audit log's inputs: the policy's stable name and, for the sites
    /// ranked and in that order, what there was to go on. A follow-up
    /// choice (a fetch failover) `chose` the next site of an order already
    /// recorded, and considered nothing else.
    pub(crate) fn audit_inputs(
        &self,
        ranked: Option<&Ranked>,
        chose: &[SiteId],
    ) -> (&'static str, Vec<SiteInput>) {
        let policy = match self.policy {
            QuorumPolicy::CheapestFirst => "cheapest_first",
            QuorumPolicy::Random => "random",
            QuorumPolicy::LoadBalanced => "load_balanced",
        };
        let to_fixed = |v: f64, scale: f64| (v.clamp(0.0, 1e15) * scale).round() as u64;
        let input = |&s: &SiteId| {
            let known = self.sites.get(s.index());
            let h = known.filter(|_| self.health);
            SiteInput {
                site: s.0,
                cost_us: to_fixed(self.cost(s), 1000.0),
                rtt_us: h.map_or(0, |h| to_fixed(h.rtt_ms, 1000.0)),
                suspicion_milli: h.map_or(0, |h| to_fixed(h.suspicion, 1000.0)),
                suspected: h.is_some_and(|h| h.suspected),
                load: known.map_or(0, |s| s.load),
            }
        };
        (
            policy,
            ranked
                .map_or(chose, |r| &r.order[..])
                .iter()
                .map(input)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HealthOptions;
    use crate::quorum::QuorumSpec;
    use wv_storage::Version;

    const SUITE: ObjectId = ObjectId(1);
    const SITES: [SiteId; 3] = [SiteId(0), SiteId(1), SiteId(2)];

    fn config(suite: ObjectId) -> SuiteConfig {
        SuiteConfig::new(suite, VoteAssignment::equal(3), QuorumSpec::new(2, 2)).expect("legal")
    }

    /// The planner of a client at site 3, with or without health tracking.
    fn planner(policy: QuorumPolicy, health: bool, costs: &[f64]) -> Planner {
        let options = ClientOptions {
            quorum_policy: policy,
            health: health.then(HealthOptions::default),
            ..ClientOptions::default()
        };
        Planner::new(SiteId(3), costs.to_vec(), &options)
    }

    fn tracking() -> Planner {
        planner(QuorumPolicy::CheapestFirst, true, &[10.0, 20.0, 30.0, 1.0])
    }

    #[test]
    fn plan_cache_is_per_suite_and_adoption_never_evicts_siblings() {
        // Plans are keyed by suite and valid for one generation, so
        // adopting a new configuration for one suite leaves the sibling's
        // cached plan untouched — same generation, same shared allocation.
        let mut p = planner(QuorumPolicy::CheapestFirst, false, &[10.0, 20.0, 30.0, 1.0]);
        let (mut rng, mut stats) = (DetRng::new(21), ClientStats::default());
        let (cfg, sibling) = (config(SUITE), config(ObjectId(2)));
        for cfg in [&cfg, &sibling, &cfg, &sibling] {
            // Cheapest-first over costs [10, 20, 30]: 0 before 1 before 2.
            assert_eq!(p.rank(cfg, &mut rng, &mut stats).order[..], SITES);
        }
        let counted = |s: &ClientStats| (s.plan_cache_misses, s.plan_cache_hits);
        assert_eq!(counted(&stats), (2, 2), "one build per suite, then hits");
        let shared = Arc::clone(&p.plans[&sibling.suite].site_order);
        p.forget(SUITE);
        assert!(
            !p.plans.contains_key(&SUITE),
            "adopted suite's plan dropped"
        );
        // The next decisions: suite 1 rebuilds against generation 2 — and
        // would have had `forget` been missed — suite 2 still hits.
        let next = cfg.evolve(VoteAssignment::equal(3), QuorumSpec::new(1, 3));
        p.rank(&next.expect("legal"), &mut rng, &mut stats);
        let hit = p.rank(&sibling, &mut rng, &mut stats);
        assert_eq!(counted(&stats), (3, 3));
        assert_eq!(p.plans[&SUITE].generation, 2);
        assert_eq!(p.plans[&sibling.suite].generation, 1);
        assert!(hit.order.same(&shared.into()), "a hit is a refcount bump");
        p.rank(&cfg, &mut rng, &mut stats);
        assert_eq!(counted(&stats), (4, 3), "a stale plan is never served");
    }

    #[test]
    fn random_policy_bypasses_plan_cache() {
        let mut p = planner(QuorumPolicy::Random, false, &[10.0, 20.0, 30.0, 1.0]);
        let (mut rng, mut stats) = (DetRng::new(12), ClientStats::default());
        for _ in 0..3 {
            p.rank(&config(SUITE), &mut rng, &mut stats);
        }
        assert!(p.plans.is_empty(), "random ablation must not memoize costs");
        assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (0, 0));
    }

    #[test]
    fn rotate_cost_ties_rotates_only_within_equal_cost_runs() {
        let p = planner(QuorumPolicy::LoadBalanced, false, &[5.0, 5.0, 5.0, 9.0]);
        let order = [SiteId(0), SiteId(1), SiteId(2), SiteId(3)];
        assert_eq!(p.rotate_cost_ties(&order, 0)[..], order);
        let r1 = p.rotate_cost_ties(&order, 1);
        assert_eq!(r1[..], [SiteId(1), SiteId(2), SiteId(0), SiteId(3)]);
        let r2 = p.rotate_cost_ties(&order, 2);
        assert_eq!(r2[..], [SiteId(2), SiteId(0), SiteId(1), SiteId(3)]);
        // The cursor wraps around the run length.
        assert_eq!(p.rotate_cost_ties(&order, 3)[..], order);
    }

    #[test]
    fn suspected_sites_are_demoted_and_cleared_by_any_response() {
        let (mut p, mut stats) = (tracking(), ClientStats::default());
        p.unanswered(&[SiteId(0)], &mut stats);
        assert_eq!(stats.suspicions_raised, 0, "one strike is not enough");
        p.unanswered(&[SiteId(0)], &mut stats);
        assert_eq!(stats.suspicions_raised, 1);
        let (order, rerouted) = p.demote(Arc::from(SITES), None, &mut stats);
        // Suspected site demoted, cost order kept within groups.
        assert_eq!(order[..], [SiteId(1), SiteId(2), SiteId(0)]);
        assert_eq!((rerouted, stats.reroutes), (true, 1));
        // Any message from the site clears the suspicion.
        p.heard(SiteId(0));
        let (order, rerouted) = p.demote(Arc::from(SITES), None, &mut stats);
        assert_eq!(order[..], SITES);
        assert_eq!((rerouted, stats.reroutes), (false, 1), "nothing moved");
        // A quarantine needs no second strike, and is raised once.
        p.quarantined(SiteId(1), &mut stats);
        p.quarantined(SiteId(1), &mut stats);
        assert_eq!((p.sites[1].suspected, stats.suspicions_raised), (true, 2));
    }

    #[test]
    fn routing_around_everyone_is_routing_nowhere() {
        let (mut p, mut stats) = (tracking(), ClientStats::default());
        for _ in 0..2 {
            p.unanswered(&SITES, &mut stats);
        }
        assert_eq!(stats.suspicions_raised, 3);
        let (order, _) = p.demote(Arc::from(SITES), None, &mut stats);
        assert_eq!((&order[..], stats.reroutes), (&SITES[..], 0));
    }

    /// The demotion as it was first written: collect the trusted, then
    /// the suspects, and compare.
    fn demoted_by_collecting(order: &[SiteId], suspects: &[SiteId]) -> (Vec<SiteId>, bool) {
        let suspected = |s: &SiteId| suspects.contains(s);
        let mut collected: Vec<SiteId> = order.iter().copied().filter(|s| !suspected(s)).collect();
        if collected.is_empty() || collected.len() == order.len() {
            return (order.to_vec(), false);
        }
        collected.extend(order.iter().copied().filter(suspected));
        let rerouted = collected[..] != order[..];
        (collected, rerouted)
    }

    #[test]
    fn with_nobody_suspected_a_rank_hands_out_the_plans_own_order() {
        let (mut p, mut rng, mut stats) = (tracking(), DetRng::new(1), ClientStats::default());
        let cfg = config(SUITE);
        let first = p.rank(&cfg, &mut rng, &mut stats);
        let again = p.rank(&cfg, &mut rng, &mut stats);
        let plan = &p.plans[&SUITE].site_order;
        let plan = Shared::from(Arc::clone(plan));
        assert!(first.order.same(&plan) && again.order.same(&plan));
        assert_eq!((first.rerouted, stats.reroutes), (false, 0));
    }

    #[test]
    fn demotion_orders_as_collecting_did_under_any_suspicion() {
        let mut pick = DetRng::new(0xDE3);
        for case in 0..300 {
            // Five sites at coarse costs, so ties (broken by site id) occur.
            let costs: Vec<f64> = (0..6).map(|_| pick.below(3) as f64).collect();
            let mut p = planner(QuorumPolicy::CheapestFirst, true, &costs);
            let assignment = VoteAssignment::new((0..5).map(|i| (SiteId(i), 1)));
            let cfg = SuiteConfig::new(SUITE, assignment, QuorumSpec::new(3, 3)).expect("legal");
            let (mut rng, mut stats) = (DetRng::new(case), ClientStats::default());
            let plain = p.rank(&cfg, &mut rng, &mut stats).order;
            let mut reroutes = 0;
            // Suspicions raised and cleared at random, ranking after each.
            for _ in 0..6 {
                let site = SiteId(pick.below(5) as u16);
                match pick.chance(0.6) {
                    true => p.quarantined(site, &mut stats),
                    false => p.heard(site),
                }
                let suspects: Vec<SiteId> = (0..5)
                    .map(SiteId)
                    .filter(|s| p.sites[s.index()].suspected)
                    .collect();
                let ranked = p.rank(&cfg, &mut rng, &mut stats);
                let (expected, rerouted) = demoted_by_collecting(&plain, &suspects);
                assert_eq!(
                    ranked.order[..],
                    expected[..],
                    "case {case}: suspects {suspects:?}"
                );
                assert_eq!(ranked.rerouted, rerouted);
                reroutes += u64::from(rerouted);
                assert_eq!(stats.reroutes, reroutes, "every rank counts its reroute");
            }
        }
    }

    #[test]
    fn a_kept_demotion_is_rebuilt_once_a_suspected_flag_flips() {
        let (mut p, mut rng, mut stats) = (tracking(), DetRng::new(1), ClientStats::default());
        let cfg = config(SUITE);
        p.quarantined(SiteId(0), &mut stats);
        let first = p.rank(&cfg, &mut rng, &mut stats).order;
        let again = p.rank(&cfg, &mut rng, &mut stats).order;
        assert_eq!(first[..], [SiteId(1), SiteId(2), SiteId(0)]);
        assert!(first.same(&again), "reused while nothing flips");
        // Site 1 becomes a suspect too: rebuilt, and kept again.
        p.quarantined(SiteId(1), &mut stats);
        let both = p.rank(&cfg, &mut rng, &mut stats).order;
        assert_eq!(both[..], [SiteId(2), SiteId(0), SiteId(1)]);
        assert!(both.same(&p.rank(&cfg, &mut rng, &mut stats).order));
        // Site 0 is heard from: its flag flips back.
        p.heard(SiteId(0));
        let one = p.rank(&cfg, &mut rng, &mut stats).order;
        assert_eq!(one[..], [SiteId(0), SiteId(2), SiteId(1)]);
        // A score that moves without crossing the threshold flips nothing.
        p.unanswered(&[SiteId(2)], &mut stats);
        assert!(one.same(&p.rank(&cfg, &mut rng, &mut stats).order));
        assert_eq!(stats.reroutes, 6, "each demoting rank counts");
    }

    #[test]
    fn adaptive_phase_timeout_tracks_the_slowest_contacted_site() {
        let mut p = tracking();
        // EWMA seeds at 2x the static one-way cost: site 2 starts at 60ms.
        let slowest = p.phase_delay([SiteId(0), SiteId(2)]);
        assert_eq!(slowest, SimDuration::from_millis_f64(60.0 * 6.0));
        // Clamped below by `MIN_TIMEOUT` (site 0: 20ms RTT * 6 = 120ms)…
        assert_eq!(p.phase_delay([SiteId(0)]), MIN_TIMEOUT);
        // …and above by the fixed phase timeout.
        p.rtt(SiteId(2), 1e7);
        assert_eq!(p.phase_delay([SiteId(2)]), p.phase_timeout);
        // Health off: always the fixed phase timeout.
        let fixed = planner(QuorumPolicy::CheapestFirst, false, &[10.0]);
        assert_eq!(fixed.phase_delay([SiteId(0)]), fixed.phase_timeout);
    }

    #[test]
    fn rtt_samples_fold_into_the_ewma() {
        let mut p = tracking();
        // Site 1 seeds at 40ms; one 10ms sample with alpha 0.3 gives 31ms.
        p.rtt(SiteId(1), 10.0);
        assert!((p.sites[1].rtt_ms - 31.0).abs() < 1e-9);
        // Garbage samples are dropped.
        p.rtt(SiteId(1), f64::NAN);
        p.rtt(SiteId(1), -5.0);
        assert!((p.sites[1].rtt_ms - 31.0).abs() < 1e-9);
    }

    #[test]
    fn every_choice_is_a_filter_or_prefix_of_rank() {
        // Each selection function, against an oracle that sorts by this
        // decision's costs instead of filtering the ranked order.
        let assignment = VoteAssignment::new([
            (SiteId(0), 2),
            (SiteId(1), 1),
            (SiteId(2), 1),
            (SiteId(3), 0),
            (SiteId(4), 1),
        ]);
        let cfg =
            SuiteConfig::new(SUITE, assignment.clone(), QuorumSpec::new(3, 3)).expect("legal");
        let mut pick = DetRng::new(43);
        for case in 0..300u64 {
            let policy = [QuorumPolicy::CheapestFirst, QuorumPolicy::Random][(case % 2) as usize];
            // Coarse costs, so ties (broken by site id) occur too.
            let mut costs: Vec<f64> = (0..6).map(|_| pick.below(4) as f64).collect();
            let mut p = planner(policy, false, &costs);
            let mut rng = DetRng::new(case);
            if policy == QuorumPolicy::Random {
                // The ablation ranks by this decision's draw instead.
                let mut draw = rng.clone();
                costs = (0..6).map(|_| draw.f64()).collect();
            }
            let ranked = p.rank(&cfg, &mut rng, &mut ClientStats::default());
            let cost = |s: SiteId| costs[s.index()];
            let mut sorted = assignment.all_sites();
            sorted.sort_by(|a, b| by_cost(cost, *a, *b));
            assert_eq!(ranked.order[..], sorted[..]);
            // The contents are asked of the cheapest site if it is a weak
            // one, and of the cheapest voting one.
            let first_voting = sorted.iter().find(|s| !assignment.is_weak(**s));
            let own = sorted.first().filter(|s| assignment.is_weak(**s));
            let sources = (own.copied(), first_voting.copied());
            assert_eq!(ranked.content_sources(&assignment), sources);
            // A random subset of responders at random versions, answering
            // in site order: the ranking is not the order of arrival.
            let mut answers: Vec<(SiteId, Version)> = assignment
                .all_sites()
                .into_iter()
                .filter(|_| pick.chance(0.7))
                .map(|site| (site, Version::INITIAL))
                .collect();
            for (_, version) in &mut answers {
                *version = Version(pick.below(2));
            }
            let answer = |s: SiteId| answers.iter().find(|(a, _)| *a == s).map(|(_, v)| *v);
            // Fetch candidates: the current holders, cheapest-first.
            let current = answers.iter().map(|(_, v)| *v).max();
            let mut holders: Vec<SiteId> = answers.iter().map(|(s, _)| *s).collect();
            holders.retain(|s| answer(*s) == current);
            holders.sort_by(|a, b| by_cost(cost, *a, *b));
            assert_eq!(
                ranked.among(|s| current.is_some() && answer(s) == current)[..],
                holders[..]
            );
            // Write quorum: the cheapest among the strong responders — and,
            // for a direct attempt, among everybody.
            let responders: Vec<SiteId> = answers.iter().map(|(s, _)| *s).collect();
            assert_eq!(
                ranked.write_quorum(&cfg, |s| answer(s).is_some()),
                cheapest_quorum(&assignment, 3, &responders, cost).map(Sites::from_iter),
                "case {case}: costs {costs:?}, responders {responders:?}"
            );
            let outright = cheapest_quorum(&assignment, 3, &sorted, cost);
            let direct = p.direct_quorum(&ranked, &cfg, SimTime::ZERO);
            assert_eq!(direct.map(|q| q.to_vec()), outright);
            // Widening away from a silent first member: the shortest
            // prefix of the eligible voting sites that covers `w` again.
            let outright = outright.expect("all five sites reach w");
            let (silent, kept) = (outright[0], &outright[1..]);
            p.unanswered(&[silent], &mut ClientStats::default());
            assert_eq!(p.direct_quorum(&ranked, &cfg, SimTime::ZERO), None);
            let held = assignment.votes_in(kept);
            let next = p.widen(&ranked, &cfg, held, kept, SimTime::ZERO);
            let next = next.expect("the other four hold three votes or more");
            let eligible =
                |s: &SiteId| *s != silent && !kept.contains(s) && !assignment.is_weak(*s);
            let eligible: Vec<SiteId> = sorted.iter().copied().filter(eligible).collect();
            assert_eq!(next[..], eligible[..next.len()]);
            let votes = |more: &[SiteId]| assignment.votes_in(kept.iter().chain(more));
            let minimal = next.split_last().is_none_or(|(_, fewer)| votes(fewer) < 3);
            assert!(votes(&next) >= 3 && minimal, "case {case}: {next:?}");
        }
    }
}
