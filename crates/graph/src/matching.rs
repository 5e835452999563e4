//! Parallel heavy matching for the coarsening phase, generic over the
//! `Incidence` being coarsened.
//!
//! The classic Karypis–Kumar heuristic ("A fast and high quality multilevel
//! scheme for partitioning irregular graphs") visits vertices in random
//! order and matches each to its heaviest available neighbor. That
//! formulation is inherently sequential — every decision depends on all
//! earlier ones — so this module uses the standard parallel reformulation
//! (the mt-METIS family): **propose rounds with mutual acceptance**.
//!
//! Each round runs two phases:
//!
//! 1. **Propose** (parallel over vertex chunks): every unmatched vertex
//!    computes its preferred partner — the unmatched candidate with the
//!    highest score, ties broken by a seed-derived per-vertex priority —
//!    against the *frozen* matching state of the round start. Pure function
//!    of `(structure, mate, seed)`, so chunk decomposition cannot change it.
//! 2. **Resolve** (sequential, O(n)): mutual proposals (`prop[v] == u` and
//!    `prop[u] == v`) become matches. This is the deterministic cross-chunk
//!    conflict tie-break: one-sided proposals simply lose the round and
//!    retry against the shrunken candidate set next round.
//!
//! A proposal outlives its round: the candidate set only shrinks, so a
//! vertex rescans its partners only once the one it proposed to has been
//! taken, which leaves the matching exactly what a full rescan would give.
//!
//! Rounds repeat until no pair matches; a sequential greedy **cleanup** pass
//! in seeded random order then guarantees maximality (the leftover set is
//! small, so this costs little), and the METIS-style **two-hop** pass pairs
//! the leaves of hub-and-spoke structures — Schism's replication stars —
//! that no direct matching can reduce.
//!
//! What a "candidate", its "score" and "two hops away" mean is the
//! implementation's (`Incidence::for_each_partner`, `Incidence::two_hop`):
//! a plain graph scores a neighbour by edge weight (heavy-edge matching), a
//! hypergraph by co-membership in heavy, small nets (heavy-pin matching).
//!
//! Determinism contract: for a fixed `(structure, rng state)` the returned
//! matching is bit-identical for every pool size, because the parallel
//! phase is pure and every tie-break is a total order independent of
//! scheduling.

use crate::csr::NodeId;
use crate::incidence::Incidence;
use rand::seq::SliceRandom;
use rand::Rng;
use schism_par::{chunk_size, Pool};

/// Sentinel meaning "not matched yet" during the algorithm. In the returned
/// vector every vertex is matched (unmatched vertices are matched to
/// themselves), so the sentinel never escapes.
const UNMATCHED: NodeId = NodeId::MAX;

/// Sentinel for "no eligible partner" in a proposal vector.
const NO_PROPOSAL: NodeId = NodeId::MAX;

/// Propose rounds before falling back to the sequential cleanup. Random
/// priorities match an expected constant fraction of eligible pairs per
/// round, so eight rounds leave only a thin remainder.
const PROPOSE_ROUNDS: usize = 8;

/// SplitMix64 — the per-vertex tie-break priority. Seeded per matching call
/// so repeated levels explore different orders, like the shuffle used to.
#[inline]
fn prio(seed: u64, v: NodeId) -> u64 {
    let mut z = seed.wrapping_add((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Computes a heavy matching of `g`, parallelized over `pool`.
///
/// Returns `mate` with `mate[v] == v` for vertices left unmatched (isolated
/// vertices or odd leftovers) and `mate[v] == u`, `mate[u] == v` for matched
/// pairs.
///
/// `max_pair_weight` caps the combined weight of a matched pair: the
/// multilevel driver uses it to stop vertices from snowballing past the
/// point where a balanced partition is impossible (a coarse vertex heavier
/// than a partition's capacity can never be placed without overflowing it).
///
/// With `labels`, only vertices with equal labels pair up. The V-cycle
/// relies on this: coarsening that never crosses a label boundary keeps
/// every coarse vertex on one side of the seed partitioning, so the seed
/// projects exactly onto every level of the hierarchy and the refiner can
/// move whole co-access clusters (which single-vertex moves on the fine
/// structure cannot — evicting one member of a clique is always a
/// negative-gain move).
pub fn heavy_matching<G: Incidence, R: Rng>(
    g: &G,
    labels: Option<&[u32]>,
    max_pair_weight: u64,
    rng: &mut R,
    pool: &Pool,
) -> Vec<NodeId> {
    let n = g.num_vertices();
    debug_assert!(labels.is_none_or(|l| l.len() == n));
    let mut mate = vec![UNMATCHED; n];
    // One seed draw and one shuffle: the rng advances by the same amount
    // whatever the pool size, so downstream consumers see identical state.
    let seed: u64 = rng.gen();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(rng);

    // Whether `v` (of weight `vw`) may pair with `u`, `u`'s matching state
    // aside.
    let pairable = |v: NodeId, u: NodeId, vw: u64| -> bool {
        u != v
            && vw + g.vertex_weight(u) as u64 <= max_pair_weight
            && labels.is_none_or(|l| l[u as usize] == l[v as usize])
    };

    // Highest-scoring eligible partner; ties by seeded priority, then id —
    // a total order, so the proposal is unique.
    let best_partner = |v: NodeId, mate: &[NodeId], s: &mut G::PartnerScratch| -> NodeId {
        let vw = g.vertex_weight(v) as u64;
        let mut best: Option<(u64, u64, NodeId)> = None;
        g.for_each_partner(v, s, |u, score| {
            if mate[u as usize] != UNMATCHED || !pairable(v, u, vw) {
                return;
            }
            let key = (score, prio(seed, u), u);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        });
        best.map_or(NO_PROPOSAL, |(_, _, u)| u)
    };

    // `v`'s proposal given the one it made last (`None` before round one).
    // Candidates only ever leave — a matched vertex stays matched — so a
    // cached partner that is still unmatched is still the best one, and a
    // vertex that had no candidate has none now; only a vertex whose
    // partner was taken rescores.
    let propose = |v: NodeId,
                   cached: Option<NodeId>,
                   mate: &[NodeId],
                   s: &mut G::PartnerScratch| match cached {
        Some(NO_PROPOSAL) => NO_PROPOSAL,
        Some(u) if mate[u as usize] == UNMATCHED => u,
        _ => best_partner(v, mate, s),
    };

    let chunk = chunk_size(n, pool.threads());
    let mut prop: Vec<NodeId> = Vec::new();
    for _ in 0..PROPOSE_ROUNDS {
        // Phase 1: propose against the frozen `mate` (parallel, pure).
        let proposals: Vec<Vec<NodeId>> = pool.scope_chunks_with(
            n,
            chunk,
            || g.partner_scratch(),
            |s, r| {
                r.map(|v| {
                    if mate[v] != UNMATCHED {
                        NO_PROPOSAL
                    } else {
                        propose(v as NodeId, prop.get(v).copied(), &mate, s)
                    }
                })
                .collect()
            },
        );
        prop = proposals.into_iter().flatten().collect();

        // Phase 2: deterministic conflict resolution — mutual proposals
        // match, everyone else retries next round.
        let mut matched = 0usize;
        for v in 0..n {
            let u = prop[v];
            if u == NO_PROPOSAL || (u as usize) <= v {
                continue;
            }
            if prop[u as usize] == v as NodeId {
                mate[v] = u;
                mate[u as usize] = v as NodeId;
                matched += 1;
            }
        }
        if matched == 0 {
            break;
        }
    }

    // Cleanup: greedy maximal matching over the remainder, in the seeded
    // random visit order the sequential algorithm used. Vertices with no
    // eligible partner self-match.
    let mut scratch = g.partner_scratch();
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let u = propose(v, prop.get(v as usize).copied(), &mate, &mut scratch);
        if u == NO_PROPOSAL {
            mate[v as usize] = v;
        } else {
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }

    // Two-hop pass. Hub-and-spoke structures — Schism's replication stars
    // and hot-tuple cliques — leave most leaves self-matched because their
    // only neighbor (the hub) is taken, stalling coarsening; pair each such
    // leftover with another one two hops away.
    for &v in &order {
        if mate[v as usize] != v {
            continue; // only self-matched leftovers
        }
        let vw = g.vertex_weight(v) as u64;
        if let Some(w2) = g.two_hop(v, |w2| mate[w2 as usize] == w2 && pairable(v, w2, vw)) {
            mate[v as usize] = w2;
            mate[w2 as usize] = v;
        }
    }
    mate
}

/// Number of matched *pairs* in a matching produced by [`heavy_matching`].
pub fn matched_pairs(mate: &[NodeId]) -> usize {
    mate.iter()
        .enumerate()
        .filter(|&(v, &m)| (m as usize) > v)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Uncapped, unlabeled, single-threaded.
    fn heavy_edge_matching(g: &CsrGraph, rng: &mut StdRng) -> Vec<NodeId> {
        heavy_matching(g, None, u64::MAX, rng, &Pool::new(1))
    }

    fn check_is_matching(g: &CsrGraph, mate: &[NodeId]) {
        for v in 0..g.num_vertices() as NodeId {
            let m = mate[v as usize];
            assert_ne!(m, UNMATCHED, "every vertex must be resolved");
            assert_eq!(mate[m as usize], v, "matching must be symmetric");
            if m != v {
                assert!(
                    g.neighbors(v).contains(&m),
                    "matched pair {v}-{m} must be an edge"
                );
            }
        }
    }

    #[test]
    fn prefers_heavy_edges() {
        // Triangle with weights 0-1: 1, 0-2: 100, 1-2: 50. The mutual
        // proposal 0<->2 always wins round one, so the weight-1 edge can
        // never be the matched edge.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 100);
        b.add_edge(1, 2, 50);
        let g = b.build();
        for seed in 0..20 {
            let mate = heavy_edge_matching(&g, &mut StdRng::seed_from_u64(seed));
            check_is_matching(&g, &mate);
            assert!(
                !(mate[0] == 1 && mate[1] == 0),
                "seed {seed} matched the light edge"
            );
        }
    }

    #[test]
    fn cap_prevents_heavy_pairs() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 10);
        b.set_vertex_weight(0, 100);
        b.set_vertex_weight(1, 100);
        let g = b.build();
        let pool = Pool::new(1);
        let mate = heavy_matching(&g, None, 150, &mut StdRng::seed_from_u64(0), &pool);
        assert_eq!(mate, vec![0, 1], "pair exceeding cap must stay unmatched");
        let mate = heavy_matching(&g, None, 200, &mut StdRng::seed_from_u64(0), &pool);
        assert_eq!(mate, vec![1, 0]);
    }

    #[test]
    fn isolated_vertices_self_match() {
        let g = GraphBuilder::new(3).build();
        let mate = heavy_edge_matching(&g, &mut StdRng::seed_from_u64(1));
        assert_eq!(mate, vec![0, 1, 2]);
        assert_eq!(matched_pairs(&mate), 0);
    }

    #[test]
    fn labeled_matching_never_crosses_labels() {
        // Path 0-1-2-3 with labels [0,0,1,1]: edge 1-2 crosses and must not
        // be matched, whatever the visit order.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 100); // heaviest, but crosses
        b.add_edge(2, 3, 1);
        let g = b.build();
        let labels = [0u32, 0, 1, 1];
        for seed in 0..20 {
            let mate = heavy_matching(
                &g,
                Some(&labels),
                u64::MAX,
                &mut StdRng::seed_from_u64(seed),
                &Pool::new(1),
            );
            check_is_matching(&g, &mate);
            for v in 0..4usize {
                let m = mate[v] as usize;
                assert_eq!(labels[v], labels[m], "seed {seed} matched across labels");
            }
            assert_eq!(matched_pairs(&mate), 2);
        }
    }

    #[test]
    fn path_graph_matching_is_valid() {
        let n = 101;
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as NodeId, (i + 1) as NodeId, 1);
        }
        let g = b.build();
        for seed in 0..5 {
            let mate = heavy_edge_matching(&g, &mut StdRng::seed_from_u64(seed));
            check_is_matching(&g, &mate);
            // A path of 101 vertices admits at most 50 pairs; the cleanup
            // pass guarantees maximality, and a maximal matching on a path
            // has at least ceil((n-1)/3) pairs.
            let pairs = matched_pairs(&mate);
            assert!(pairs >= 34, "suspiciously small matching: {pairs}");
        }
    }

    #[test]
    fn identical_across_pool_sizes() {
        // 600-edge random-ish graph: the matching must be bit-identical for
        // 1, 2, and 4 worker threads.
        let mut b = GraphBuilder::new(300);
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..900 {
            let u = (next() % 300) as NodeId;
            let v = (next() % 300) as NodeId;
            b.add_edge(u, v, 1 + (next() % 7) as u32);
        }
        let g = b.build();
        let run = |threads: usize| {
            heavy_matching(
                &g,
                None,
                u64::MAX,
                &mut StdRng::seed_from_u64(99),
                &Pool::new(threads),
            )
        };
        let base = run(1);
        // Symmetry only: the two-hop pass may legitimately pair
        // non-adjacent leaves of a shared hub.
        for v in 0..g.num_vertices() {
            let m = base[v];
            assert_ne!(m, UNMATCHED);
            assert_eq!(base[m as usize], v as NodeId, "matching must be symmetric");
        }
        for t in [2, 4] {
            assert_eq!(run(t), base, "pool size {t} changed the matching");
        }
    }
}
