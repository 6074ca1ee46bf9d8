//! Network sparsification — Algorithms 2–4 (Lemmas 8–10).
//!
//! `Sparsification` repeatedly builds a proximity graph, selects an
//! independent set `Y`, and turns `Y`-adjacent nodes into *children* of
//! `Y`-nodes (their *parents*); children and parents leave the active set.
//! Each pass shrinks every dense cluster, so after `O(Γ)` passes the
//! returned set (`Active ∪ Prnts`) has per-cluster density ≤ ¾Γ (Lemma 8).
//! The child↔parent links live on proximity-graph edges, so the recorded
//! [`ReplayUnit`]s allow later tree communication (Lemma 11's labeling).
//!
//! `SparsificationU` (Alg. 3) iterates the unclustered variant `χ(5, 1−ε)`
//! times (the saturation argument of Lemma 9); `FullSparsification`
//! (Alg. 4) iterates with geometrically shrinking density targets until
//! constant density, producing the level sets `A_0 ⊇ A_1 ⊇ … ⊇ A_k`.

use crate::mis::{local_minima, local_mis, MisStrategy};
use crate::msg::Msg;
use crate::params::ProtocolParams;
use crate::proximity::build_proximity_graph;
use crate::run::{ReplayUnit, SeedSeq};
use dcluster_sim::engine::Engine;
use dcluster_sim::metrics::chi_upper;

/// A child → parent link created during sparsification, tagged with the
/// replay unit (proximity exchange schedule) on which it lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The removed (child) node.
    pub child: usize,
    /// Its parent (an independent-set node of the same cluster).
    pub parent: usize,
    /// Index into the owner's `units` vector.
    pub unit: usize,
}

/// Outcome of one `Sparsification` call (Alg. 2).
#[derive(Debug, Clone)]
pub struct SparsifyOutcome {
    /// The returned set `Active ∪ Prnts` (node indices, sorted).
    pub kept: Vec<usize>,
    /// Child→parent links created, in creation order.
    pub links: Vec<Link>,
    /// Replay units, one per executed iteration (referenced by links).
    pub units: Vec<ReplayUnit>,
}

/// Which independent-set rule Alg. 2 uses (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndependentSetRule {
    /// Local minima of `H` (clustered case).
    LocalMinima,
    /// Simulated LOCAL MIS (unclustered case), by the default
    /// [`MisStrategy`].
    Mis,
}

/// Runs Alg. 2 on the nodes `x` with densities bounded by `gamma`.
/// `cluster_of[v]` gives clusters (ignored when `rule` is `Mis`, i.e. the
/// unclustered case — the paper's `cluster(v) = 1` convention).
pub fn sparsification(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    gamma: usize,
    x: &[usize],
    cluster_of: &[u64],
    rule: IndependentSetRule,
) -> SparsifyOutcome {
    let net = engine.network();
    let n = net.len();
    let clustered = matches!(rule, IndependentSetRule::LocalMinima);
    let mut active: Vec<usize> = x.to_vec();
    active.sort_unstable();
    let mut parents_kept: Vec<usize> = Vec::new();
    let mut links: Vec<Link> = Vec::new();
    let mut units: Vec<ReplayUnit> = Vec::new();

    let max_iter = params.cap(gamma.max(1));
    let mut idle_streak = 0usize;

    for _ in 0..max_iter {
        if active.len() < 2 {
            break;
        }
        let p = build_proximity_graph(engine, params, seeds, &active, cluster_of, clustered);
        let y: Vec<bool> = match rule {
            IndependentSetRule::LocalMinima => local_minima(net.ids(), &active, &p.adj),
            IndependentSetRule::Mis => local_mis(
                engine,
                &p.unit,
                &active,
                &p.adj,
                params.kappa,
                MisStrategy::default(),
            ),
        };
        // NewChl: active nodes outside Y with a Y-neighbor; parent = min-ID
        // such neighbor (Alg. 2 line 8).
        let mut new_links: Vec<Link> = Vec::new();
        for &v in &active {
            if y[v] {
                continue;
            }
            let parent = p
                .adj
                .get(&v)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&u| y[u])
                .min_by_key(|&u| net.id(u));
            if let Some(u) = parent {
                new_links.push(Link {
                    child: v,
                    parent: u,
                    unit: units.len(),
                });
            }
        }
        // Child→parent notification replay (Alg. 2 lines 7–9): children
        // announce their chosen parent; everyone else transmits padding so
        // the reception pattern is preserved.
        {
            let net = engine.network();
            let mut announce: Vec<Option<u64>> = vec![None; n];
            for l in &new_links {
                announce[l.child] = Some(net.id(l.parent));
            }
            // The handler ignores every delivery, so one call per pair
            // changes nothing; the replay keeps the rounds and counts.
            p.unit.run_pairs(
                engine,
                &|v| match announce[v] {
                    Some(pid) => Msg::Parent {
                        child: net.id(v),
                        parent: pid,
                    },
                    None => Msg::Hello {
                        id: net.id(v),
                        cluster: cluster_of[v],
                    },
                },
                &mut |_recv, _s, _m| { /* parents learn children */ },
            );
        }
        units.push(p.unit);

        if new_links.is_empty() {
            idle_streak += 1;
            if params.adaptive && idle_streak >= 2 {
                break;
            }
            continue;
        }
        idle_streak = 0;
        let mut is_child = vec![false; n];
        let mut is_parent = vec![false; n];
        for l in &new_links {
            is_child[l.child] = true;
            is_parent[l.parent] = true;
        }
        links.extend(new_links);
        for &v in &active {
            if is_parent[v] {
                parents_kept.push(v);
            }
        }
        active.retain(|&v| !is_child[v] && !is_parent[v]);
    }

    let mut kept = active;
    kept.extend(parents_kept);
    kept.sort_unstable();
    kept.dedup();
    SparsifyOutcome { kept, links, units }
}

/// Outcome of `SparsificationU` (Alg. 3) / `FullSparsification` (Alg. 4):
/// nested level sets plus the accumulated replayable forest.
#[derive(Debug, Clone)]
pub struct LevelsOutcome {
    /// `A_0 ⊇ A_1 ⊇ … ⊇ A_k` (node-index lists; `A_0` = input).
    pub levels: Vec<Vec<usize>>,
    /// All replay units, globally ordered (earlier = created earlier).
    pub units: Vec<ReplayUnit>,
    /// All links; `unit` indexes the global `units`.
    pub links: Vec<Link>,
    /// Unit-index range of each transition: `steps[t]` produced
    /// `levels[t+1]` from `levels[t]` (one `Sparsification` call each).
    pub steps: Vec<std::ops::Range<usize>>,
}

impl LevelsOutcome {
    /// The final (sparsest) level.
    pub fn last(&self) -> &[usize] {
        self.levels.last().expect("at least the input level") // lint:allow(P1, reason = "levels always holds the input level")
    }

    /// Parent array over the whole network (None = root or non-member).
    pub fn parent_array(&self, n: usize) -> Vec<Option<usize>> {
        let mut parent = vec![None; n];
        for l in &self.links {
            debug_assert!(parent[l.child].is_none(), "child relinked");
            parent[l.child] = Some(l.parent);
        }
        parent
    }
}

/// `⌈log_{4/3} Γ⌉`, with Γ taken as at least 2: how many ¾-shrinking
/// density targets lead from `gamma` down to a constant (line 2 of
/// Algorithms 4 and 6).
pub(crate) fn log43(gamma: usize) -> usize {
    ((gamma.max(2) as f64).ln() / (4.0f64 / 3.0).ln()).ceil() as usize
}

/// The loop Algorithms 3 and 4 share: up to `params.cap(passes)` calls of
/// `pass` (one `Sparsification` each) on the last level, while it holds at
/// least two nodes; under `params.adaptive` it also stops once a pass
/// removed nobody or `sparse` holds for the new level.
fn sparsify_levels<'n>(
    engine: &mut Engine<'n>,
    params: &ProtocolParams,
    x: &[usize],
    passes: usize,
    mut pass: impl FnMut(&mut Engine<'n>, &[usize]) -> SparsifyOutcome,
    sparse: impl Fn(&Engine<'n>, &[usize]) -> bool,
) -> LevelsOutcome {
    engine.begin_phase("sparsify");
    let mut out = LevelsOutcome {
        levels: vec![x.to_vec()],
        units: Vec::new(),
        links: Vec::new(),
        steps: Vec::new(),
    };
    for _ in 0..params.cap(passes) {
        let current = out.last();
        if current.len() < 2 {
            break;
        }
        let step = pass(engine, current);
        let progressed = step.kept.len() < current.len();
        let offset = out.units.len();
        out.units.extend(step.units);
        out.links.extend(step.links.into_iter().map(|l| Link {
            unit: l.unit + offset,
            ..l
        }));
        out.steps.push(offset..out.units.len());
        out.levels.push(step.kept);
        if params.adaptive && (!progressed || sparse(engine, out.last())) {
            break;
        }
    }
    engine.end_phase();
    out
}

/// Alg. 3 — `SparsificationU`: unclustered sparsification repeated up to
/// `χ(5, 1−ε)` times (adaptive: stops when the measured density drops to
/// ¾Γ). Returns the level sets `X_0 ⊇ … ⊇ X_l` and schedules.
pub fn sparsification_u(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    gamma: usize,
    x: &[usize],
) -> LevelsOutcome {
    let eps = engine.network().params().epsilon;
    let one_cluster = vec![1u64; engine.network().len()];
    sparsify_levels(
        engine,
        params,
        x,
        chi_upper(5.0, 1.0 - eps),
        |engine, current| {
            sparsification(
                engine,
                params,
                seeds,
                gamma,
                current,
                &one_cluster,
                IndependentSetRule::Mis,
            )
        },
        |engine, level| 4 * subset_density(engine, level) <= 3 * gamma,
    )
}

/// Alg. 4 — `FullSparsification`: clustered sparsification with density
/// targets `Γ, ¾Γ, (¾)²Γ, …` until the remaining set has constant
/// per-cluster density. Returns `A_0 ⊇ A_1 ⊇ … ⊇ A_k`.
pub fn full_sparsification(
    engine: &mut Engine<'_>,
    params: &ProtocolParams,
    seeds: &mut SeedSeq,
    gamma: usize,
    a: &[usize],
    cluster_of: &[u64],
) -> LevelsOutcome {
    let mut lambda = gamma as f64;
    sparsify_levels(
        engine,
        params,
        a,
        log43(gamma),
        |engine, current| {
            let target = (lambda.ceil() as usize).max(1);
            lambda *= 0.75;
            sparsification(
                engine,
                params,
                seeds,
                target,
                current,
                cluster_of,
                IndependentSetRule::LocalMinima,
            )
        },
        |_, level| max_cluster_size(level, cluster_of) <= 2,
    )
}

/// Measured unclustered density of a node subset (observer utility used by
/// the adaptive loop caps and by tests).
pub fn subset_density(engine: &Engine<'_>, subset: &[usize]) -> usize {
    let net = engine.network();
    let r = net.params().range();
    subset
        .iter()
        .map(|&v| {
            subset
                .iter()
                .filter(|&&u| net.pos(u).dist(net.pos(v)) <= r)
                .count()
        })
        .max()
        .unwrap_or(0)
}

/// Largest per-cluster population of a subset.
pub fn max_cluster_size(subset: &[usize], cluster_of: &[u64]) -> usize {
    let mut counts = std::collections::BTreeMap::new();
    for &v in subset {
        *counts.entry(cluster_of[v]).or_insert(0usize) += 1;
    }
    counts.values().copied().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network, Point};

    fn dense_blob_net(n: usize, seed: u64) -> Network {
        let mut rng = Rng64::new(seed);
        Network::builder(deploy::uniform_square(n, 1.5, &mut rng))
            .build()
            .unwrap()
    }

    #[test]
    fn clustered_sparsification_reduces_cluster_density() {
        // One cluster = a dense blob; Lemma 8 promises ≤ ¾Γ per cluster.
        let net = dense_blob_net(40, 2);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        let cluster_of = vec![7u64; net.len()];
        let gamma = net.density();
        let out = sparsification(
            &mut engine,
            &params,
            &mut seeds,
            gamma,
            &all,
            &cluster_of,
            IndependentSetRule::LocalMinima,
        );
        assert!(
            4 * out.kept.len() <= 3 * net.len(),
            "kept {} of {} — expected ≤ 3/4",
            out.kept.len(),
            net.len()
        );
        // Every removed node has a parent in the kept set, same cluster.
        let kept: std::collections::HashSet<_> = out.kept.iter().copied().collect();
        let mut linked: std::collections::HashSet<_> = out.links.iter().map(|l| l.child).collect();
        for &v in &all {
            if !kept.contains(&v) {
                assert!(linked.remove(&v), "removed node {v} has no parent link");
            }
        }
        for l in &out.links {
            assert_eq!(cluster_of[l.child], cluster_of[l.parent]);
        }
    }

    #[test]
    fn unclustered_sparsification_u_reduces_density() {
        let net = dense_blob_net(50, 3);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        let gamma = net.density();
        let out = sparsification_u(&mut engine, &params, &mut seeds, gamma, &all);
        let final_density = subset_density(&engine, out.last());
        assert!(
            4 * final_density <= 3 * gamma,
            "density {final_density} not reduced below 3/4·{gamma}"
        );
        assert!(
            !out.last().is_empty(),
            "sparsification must keep at least one node"
        );
    }

    #[test]
    fn levels_are_nested_and_links_point_into_next_level() {
        let net = dense_blob_net(45, 4);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        let cluster_of = vec![1u64; net.len()];
        let out = full_sparsification(
            &mut engine,
            &params,
            &mut seeds,
            net.density(),
            &all,
            &cluster_of,
        );
        for w in out.levels.windows(2) {
            let prev: std::collections::HashSet<_> = w[0].iter().copied().collect();
            assert!(
                w[1].iter().all(|v| prev.contains(v)),
                "levels must be nested"
            );
            assert!(w[1].len() <= w[0].len());
        }
        // Forest sanity: no child is its own ancestor.
        let parent = out.parent_array(net.len());
        for v in 0..net.len() {
            let mut seen = std::collections::HashSet::new();
            let mut cur = v;
            while let Some(p) = parent[cur] {
                assert!(seen.insert(cur), "cycle through {cur}");
                cur = p;
            }
        }
    }

    #[test]
    fn full_sparsification_reaches_constant_cluster_density() {
        let net = dense_blob_net(60, 5);
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let all: Vec<usize> = (0..net.len()).collect();
        let cluster_of = vec![1u64; net.len()];
        let out = full_sparsification(
            &mut engine,
            &params,
            &mut seeds,
            net.density(),
            &all,
            &cluster_of,
        );
        let final_size = max_cluster_size(out.last(), &cluster_of);
        assert!(
            final_size <= 8,
            "final per-cluster density {final_size} not constant-ish"
        );
        assert!(!out.last().is_empty());
    }

    #[test]
    fn two_nodes_degenerate_case() {
        let net = Network::builder(vec![Point::new(0.0, 0.0), Point::new(0.2, 0.0)])
            .build()
            .unwrap();
        let params = ProtocolParams::practical();
        let mut seeds = SeedSeq::new(params.seed);
        let mut engine = Engine::new(&net);
        let out = sparsification(
            &mut engine,
            &params,
            &mut seeds,
            2,
            &[0, 1],
            &[1, 1],
            IndependentSetRule::LocalMinima,
        );
        // The pair is a close pair: one becomes the other's child.
        assert_eq!(out.kept.len(), 1);
        assert_eq!(out.links.len(), 1);
    }
}
