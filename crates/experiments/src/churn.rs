//! Link-churn event paths: the Fig. 7 WAN regime distilled.
//!
//! The paper's Fig. 7 regime is dominated by link events: every cost change
//! or flap rotates the image digest, so before the incremental repair layer
//! the SPF cache missed on essentially every computation. This module builds
//! that workload as a pure event path — one deterministic link mutation per
//! event, then a window of switches recomputing their routing tables from
//! the shared image — so the tests below can assert that on exactly the
//! pattern that used to collapse the cached path is answered by repairs
//! and stays bit-equivalent to the uncached one. (Its speed is measured by
//! `perf/`'s `link_churn_k256` workload.)

use dgmc_lsr::RoutingTable;
use dgmc_topology::generate::{self, WaxmanParams};
use dgmc_topology::{LinkId, LinkState, NodeId, SpfCache, SpfCacheStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of one churn run. Everything is deterministic in `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnParams {
    /// Switch count of the generated Waxman graph.
    pub n: usize,
    /// Number of link events.
    pub events: usize,
    /// Seed for the topology draw.
    pub seed: u64,
    /// Every `flap_every`-th event toggles the link state instead of
    /// changing its cost (the Fig. 7 failure/repair component).
    pub flap_every: usize,
    /// How many switches recompute their routing table per event. The
    /// convergence model recomputes at every switch; a smaller fixed window
    /// keeps big-`n` runs affordable without changing the per-switch work
    /// being compared.
    pub switches_per_event: usize,
}

/// Result of a churn run: a route checksum (for cached-vs-uncached
/// equivalence and `--jobs` byte-identity) plus the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnOutcome {
    /// Order-sensitive digest of every computed route cost.
    pub checksum: u64,
    /// Events executed.
    pub events: usize,
    /// Cache counters accumulated over the run (deterministic fields only
    /// are meaningful for comparisons; `miss_nanos` is wall clock).
    pub stats: SpfCacheStats,
}

/// Runs the churn event path over `cache` and returns the outcome.
///
/// Per event: one deterministic link mutation (cost cycle, with every
/// [`ChurnParams::flap_every`]-th event flapping the link instead), then
/// switches `0..switches_per_event` recompute [`RoutingTable`]s from the
/// mutated image through `cache`. The checksum folds every route cost, so
/// two runs agree iff every table agreed — the cached run must equal the
/// [`SpfCache::disabled`] run exactly.
///
/// # Panics
///
/// Panics if `n < 2` or `flap_every == 0`.
pub fn churn_event_path(params: &ChurnParams, cache: &SpfCache) -> ChurnOutcome {
    assert!(params.n >= 2, "churn needs at least two switches");
    assert!(params.flap_every > 0, "flap_every must be positive");
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut net = generate::waxman(&mut rng, params.n, &WaxmanParams::default());
    let links = net.link_count();
    let window = params.switches_per_event.clamp(1, params.n);
    let mut checksum = 0x9e37_79b9_7f4a_7c15u64;
    for k in 0..params.events {
        let link = LinkId((k % links) as u32);
        if k % params.flap_every == params.flap_every - 1 {
            let flip = if net.link(link).unwrap().is_up() {
                LinkState::Down
            } else {
                LinkState::Up
            };
            net.set_link_state(link, flip).unwrap();
        } else {
            let cost = 1 + ((k as u64).wrapping_mul(7919) % 97);
            net.set_link_cost(link, cost).unwrap();
        }
        for s in 0..window {
            let table = RoutingTable::compute_with(&net, NodeId(s as u32), cache);
            for dest in net.nodes() {
                let c = table.cost(dest).unwrap_or(u64::MAX);
                checksum = checksum
                    .rotate_left(7)
                    .wrapping_add(c.wrapping_mul(0x0100_0000_01b3));
            }
        }
    }
    ChurnOutcome {
        checksum,
        events: params.events,
        stats: cache.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: ChurnParams = ChurnParams {
        n: 60,
        events: 24,
        seed: 11,
        flap_every: 5,
        switches_per_event: 16,
    };

    #[test]
    fn cached_run_is_bit_equivalent_to_uncached() {
        let cached = churn_event_path(&SMOKE, &SpfCache::new());
        let uncached = churn_event_path(&SMOKE, &SpfCache::disabled());
        assert_eq!(cached.checksum, uncached.checksum);
        assert_eq!(cached.events, uncached.events);
    }

    #[test]
    fn churn_misses_are_answered_by_repairs() {
        let outcome = churn_event_path(&SMOKE, &SpfCache::new());
        assert!(
            outcome.stats.repairs > 0,
            "link churn should repair, got {:?}",
            outcome.stats
        );
        // After the first event, every digest rotation is one link away
        // from a live generation: repairs dominate misses.
        assert!(outcome.stats.repairs * 2 > outcome.stats.misses);
    }

    #[test]
    fn outcome_is_deterministic() {
        let a = churn_event_path(&SMOKE, &SpfCache::new());
        let b = churn_event_path(&SMOKE, &SpfCache::new());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(
            (a.stats.hits, a.stats.misses, a.stats.repairs),
            (b.stats.hits, b.stats.misses, b.stats.repairs)
        );
    }
}
