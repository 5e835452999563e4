//! Partition refinement.
//!
//! Two refiners live here:
//!
//! - [`fm_bisection`]: Fiduccia–Mattheyses refinement of a 2-way partition
//!   with hill-climbing (negative-gain moves are allowed, the best prefix of
//!   the move sequence is kept). Used on the coarsest graph where quality
//!   matters most; stays sequential (it runs on thousands of vertices).
//! - [`kway_greedy_refine`] + [`enforce_balance`]: the greedy boundary
//!   k-way refinement used at every uncoarsening step, as in k-way METIS —
//!   generic over the `Incidence` being partitioned.
//!
//! The k-way refiners are parallelized as **scan/apply passes**: the
//! boundary scan — finding movable vertices and their gains — runs over
//! vertex chunks against the frozen pass-start state (a pure function, so
//! chunking cannot change it), and only the *conflict set* (the candidate
//! moves, a small fraction of the vertices) is serialized: candidates are
//! ordered by a deterministic key and re-validated one at a time against
//! the live assignment before applying. Results are therefore bit-identical
//! for every pool size.
//!
//! Both weigh a move through `Incidence::pull`: the vertex's attraction
//! `toward` every other part and to `stay` where it is. On a plain graph
//! that is the edge weight into each part and the gain `toward[p] − stay`
//! is the edge-cut reduction; on a hypergraph it is the weight of nets
//! already spanning the part, and the same difference is the (λ−1)
//! connectivity reduction — moving the last pin out of a part stops the net
//! spanning it; moving into a part the net doesn't touch extends it.

use crate::csr::{CsrGraph, NodeId};
use crate::incidence::{Incidence, MoveScratch};
use crate::metrics::{edge_cut, part_weights};
use schism_par::{chunk_size, Pool};
use std::collections::BinaryHeap;

/// One FM pass moves each vertex at most once; hill-climbing stops after
/// this many consecutive non-improving moves.
const FM_STALL_LIMIT: usize = 64;

/// Internal/external connectivity of `v` under a bisection.
fn bisection_gain(g: &CsrGraph, side: &[u8], v: NodeId) -> i64 {
    let own = side[v as usize];
    let mut gain = 0i64;
    for (u, w) in g.edges(v) {
        if side[u as usize] == own {
            gain -= w as i64;
        } else {
            gain += w as i64;
        }
    }
    gain
}

/// FM refinement of a bisection. `target0` is the desired weight of side 0;
/// sides may exceed their target by a factor of `1 + epsilon`. Returns the
/// final edge cut.
///
/// The implementation uses a lazy-invalidating max-heap rather than the
/// classic gain buckets: on the coarse graphs where this runs (thousands of
/// vertices) the `O(E log E)` pass is indistinguishable from bucket FM.
pub fn fm_bisection(
    g: &CsrGraph,
    side: &mut [u8],
    target0: u64,
    epsilon: f64,
    max_passes: usize,
) -> u64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0;
    }
    let total = g.total_vertex_weight();
    let target1 = total.saturating_sub(target0);
    let max0 = ((target0 as f64) * (1.0 + epsilon)).ceil() as u64;
    let max1 = ((target1 as f64) * (1.0 + epsilon)).ceil() as u64;
    let maxes = [max0.max(1), max1.max(1)];

    let mut weights = [0u64; 2];
    for v in 0..n {
        weights[side[v] as usize] += g.vertex_weight(v as NodeId) as u64;
    }
    let assign: Vec<u32> = side.iter().map(|&s| s as u32).collect();
    let mut cut = edge_cut(g, &assign);

    for _ in 0..max_passes {
        // One pass: tentatively move vertices by best gain, remember the best
        // prefix, then roll back past it.
        let mut gains: Vec<i64> = (0..n as NodeId)
            .map(|v| bisection_gain(g, side, v))
            .collect();
        let mut heap: BinaryHeap<(i64, NodeId)> =
            (0..n as NodeId).map(|v| (gains[v as usize], v)).collect();
        let mut moved = vec![false; n];
        let mut move_log: Vec<NodeId> = Vec::new();
        let mut best_cut = cut;
        let mut best_len = 0usize;
        let mut cur_cut = cut;
        let mut stall = 0usize;

        while let Some((gain, v)) = heap.pop() {
            let vi = v as usize;
            if moved[vi] || gains[vi] != gain {
                continue; // stale
            }
            let from = side[vi] as usize;
            let to = 1 - from;
            let vw = g.vertex_weight(v) as u64;
            // Feasible if the destination stays within its cap, or the move
            // strictly improves balance of an overweight source.
            let feasible = weights[to] + vw <= maxes[to]
                || (weights[from] > maxes[from] && weights[to] + vw < weights[from]);
            if !feasible {
                continue;
            }
            // Apply the move.
            moved[vi] = true;
            side[vi] = to as u8;
            weights[from] -= vw;
            weights[to] += vw;
            cur_cut = (cur_cut as i64 - gain) as u64;
            move_log.push(v);
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_len = move_log.len();
                stall = 0;
            } else {
                stall += 1;
                if stall > FM_STALL_LIMIT {
                    break;
                }
            }
            // Refresh neighbor gains.
            for (u, _) in g.edges(v) {
                let ui = u as usize;
                if !moved[ui] {
                    gains[ui] = bisection_gain(g, side, u);
                    heap.push((gains[ui], u));
                }
            }
        }

        // Roll back everything after the best prefix.
        for &v in move_log[best_len..].iter().rev() {
            let vi = v as usize;
            let from = side[vi] as usize;
            let to = 1 - from;
            let vw = g.vertex_weight(v) as u64;
            side[vi] = to as u8;
            weights[from] -= vw;
            weights[to] += vw;
        }
        if best_cut >= cut {
            break; // converged
        }
        cut = best_cut;
    }
    cut
}

/// A candidate move weighed against a (frozen or live) state: the gain and
/// destination of `v`'s best admissible move, or `None` for interior /
/// immovable vertices.
///
/// Two objectives rank a move to `p`: the connectivity gain `toward[p] −
/// stay` and the cut-net gain `uncut[p] − interior` (nets un-cut minus nets
/// newly cut — exactly the change in distributed transactions; always zero
/// on a plain graph). `cut_primary` picks which one leads; the other breaks
/// ties, so the refiner keeps lowering the distributed fraction on
/// connectivity plateaus.
fn weigh_move<G: Incidence>(
    g: &G,
    assignment: &[u32],
    weights: &[u64],
    max_part_weight: u64,
    v: NodeId,
    s: &mut MoveScratch,
    cut_primary: bool,
) -> Option<(i64, u32)> {
    let own = assignment[v as usize] as usize;
    let (stay, interior) = g.pull(assignment, v, s);
    let vw = g.vertex_weight(v) as u64;
    let mut best: Option<(i64, i64, u32)> = None;
    for &p in &s.touched {
        let conn_gain = s.toward[p as usize] as i64 - stay;
        let cut_gain = s.uncut[p as usize] as i64 - interior;
        let (gain, tie) = if cut_primary {
            (cut_gain, conn_gain)
        } else {
            (conn_gain, cut_gain)
        };
        let landing = weights[p as usize] + vw;
        let fits = landing <= max_part_weight;
        let improves_balance = landing < weights[own];
        let rebalances = weights[own] > max_part_weight && improves_balance;
        if !(fits || rebalances) {
            continue;
        }
        // Zero-gain moves must not pay the secondary objective for balance:
        // balance is already capped by epsilon, the objectives are not.
        let take = gain > 0 || (gain == 0 && (tie > 0 || (tie == 0 && improves_balance)));
        // Best objective pair wins; equal pairs go to the lighter part.
        if take
            && best.is_none_or(|(bg, bt, bp)| {
                (gain, tie) > (bg, bt)
                    || ((gain, tie) == (bg, bt) && weights[p as usize] < weights[bp as usize])
            })
        {
            best = Some((gain, tie, p));
        }
    }
    s.reset();
    best.map(|(gain, _, p)| (gain, p))
}

/// Greedy k-way boundary refinement (the METIS "greedy refinement" variant),
/// parallelized as scan/apply passes over `pool`.
///
/// Each pass first scans every vertex **in parallel** against the frozen
/// pass-start state, collecting candidate moves with positive gain (or
/// zero gain that improves the secondary objective or balance). The
/// candidates — the conflict set — are then ordered deterministically
/// (largest frozen gain first, vertex id as tie-break) and re-validated
/// sequentially against the live assignment before applying, so stale gains
/// never corrupt the objective and the result is independent of the pool
/// size. Returns the number of moves performed.
///
/// With `cut_primary` the **cut-net metric leads** — the weight of nets
/// spanning more than one part, i.e. exactly the distributed transactions
/// the placement produces (the paper's §6.1 metric). Minimizing Σ(λ−1)
/// alone happily trades one 3-way transaction for two 2-way ones; a
/// cut-primary pass undoes such trades when they don't pay, accepting a
/// (λ−1) regression only for a strict cut-net win.
pub fn kway_greedy_refine<G: Incidence>(
    g: &G,
    assignment: &mut [u32],
    k: u32,
    max_part_weight: u64,
    passes: usize,
    cut_primary: bool,
    pool: &Pool,
) -> usize {
    let n = g.num_vertices();
    let kk = k as usize;
    let mut weights = part_weights(g, assignment, k);
    let chunk = chunk_size(n, pool.threads());
    let mut live = MoveScratch::new(kk);
    let mut total_moves = 0usize;

    for _pass in 0..passes {
        // --- Scan (parallel, frozen state): the boundary + its gains. ---
        let frozen_assignment: &[u32] = assignment;
        let frozen_weights: &[u64] = &weights;
        let candidates: Vec<Vec<(i64, NodeId)>> = pool.scope_chunks_with(
            n,
            chunk,
            || MoveScratch::new(kk),
            |s, range| {
                range
                    .filter_map(|v| {
                        weigh_move(
                            g,
                            frozen_assignment,
                            frozen_weights,
                            max_part_weight,
                            v as NodeId,
                            s,
                            cut_primary,
                        )
                        .map(|(gain, _)| (gain, v as NodeId))
                    })
                    .collect()
            },
        );
        let mut cands: Vec<(i64, NodeId)> = candidates.into_iter().flatten().collect();
        if cands.is_empty() {
            break;
        }
        // Deterministic application order: best frozen gain first; vertex id
        // breaks ties into a total order.
        cands.sort_unstable_by_key(|&(gain, v)| (std::cmp::Reverse(gain), v));

        // --- Apply (sequential): re-validate each candidate live. ---
        let mut moves = 0usize;
        for (_, v) in cands {
            let Some((_, p)) = weigh_move(
                g,
                assignment,
                &weights,
                max_part_weight,
                v,
                &mut live,
                cut_primary,
            ) else {
                continue;
            };
            let own = assignment[v as usize];
            let vw = g.vertex_weight(v) as u64;
            weights[own as usize] -= vw;
            weights[p as usize] += vw;
            assignment[v as usize] = p;
            moves += 1;
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

/// Forces every partition under `max_part_weight` (if at all possible) by
/// evicting vertices from overweight partitions into feasible destinations,
/// **cheapest damage first**: each sweep scores every vertex of an
/// overweight partition by the objective delta of its best unconstrained
/// move (`stay − max toward`) and evicts in ascending order. An interior
/// vertex of a co-access cluster is therefore never chosen while a whole
/// contracted cluster (delta 0) is available — which is what keeps
/// warm-started repartitioning from shredding cliques the refiner can never
/// reassemble. [`kway_greedy_refine`] runs afterwards to repair what damage
/// was unavoidable.
///
/// The scoring sweep runs in parallel over vertex chunks; candidates come
/// back in vertex order regardless of pool size, and the eviction loop
/// (sorted, re-validated per move) stays sequential.
pub fn enforce_balance<G: Incidence>(
    g: &G,
    assignment: &mut [u32],
    k: u32,
    max_part_weight: u64,
    pool: &Pool,
) {
    let n = g.num_vertices();
    let kk = k as usize;
    let mut weights = part_weights(g, assignment, k);
    let chunk = chunk_size(n, pool.threads());
    let mut live = MoveScratch::new(kk);
    // Bounded sweeps: stale scores self-correct next sweep, and the bound
    // avoids thrashing on impossible instances (e.g. one vertex heavier
    // than the cap).
    for _ in 0..4 {
        if !weights.iter().any(|&w| w > max_part_weight) {
            break;
        }
        // Score every vertex of an overweight partition. The destination is
        // re-chosen at move time against fresh weights.
        let frozen_assignment: &[u32] = assignment;
        let frozen_weights: &[u64] = &weights;
        let scored: Vec<Vec<(i64, NodeId)>> = pool.scope_chunks_with(
            n,
            chunk,
            || MoveScratch::new(kk),
            |s, range| {
                range
                    .filter_map(|v| {
                        let own = frozen_assignment[v] as usize;
                        if frozen_weights[own] <= max_part_weight {
                            return None;
                        }
                        let (stay, _) = g.pull(frozen_assignment, v as NodeId, s);
                        let best_other = s.touched.iter().map(|&p| s.toward[p as usize]).max();
                        s.reset();
                        Some((stay - best_other.unwrap_or(0) as i64, v as NodeId))
                    })
                    .collect()
            },
        );
        let mut cands: Vec<(i64, NodeId)> = scored.into_iter().flatten().collect();
        if cands.is_empty() {
            break;
        }
        // Cheapest damage first; heavier vertex first on ties (fewer moves).
        cands.sort_unstable_by_key(|&(delta, v)| (delta, std::cmp::Reverse(g.vertex_weight(v)), v));
        let mut moved = false;
        for (_, v) in cands {
            let own = assignment[v as usize] as usize;
            if weights[own] <= max_part_weight {
                continue; // partition already fixed this sweep
            }
            let vw = g.vertex_weight(v) as u64;
            g.pull(assignment, v, &mut live);
            // Feasible destination with the strongest pull; break ties
            // toward the lightest load.
            let dest = (0..kk)
                .filter(|&p| p != own && weights[p] + vw <= max_part_weight)
                .max_by_key(|&p| (live.toward[p], std::cmp::Reverse(weights[p])));
            live.reset();
            if let Some(p) = dest {
                weights[own] -= vw;
                weights[p] += vw;
                assignment[v as usize] = p as u32;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::metrics::imbalance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fm_fixes_a_bad_bisection() {
        // Two 6-cliques bridged by one edge; start from an interleaved
        // (worst-case) bisection and let FM untangle it.
        let g = gen::two_cliques(6, 1);
        let mut side: Vec<u8> = (0..12u32).map(|v| (v % 2) as u8).collect();
        let before = edge_cut(&g, &side.iter().map(|&s| s as u32).collect::<Vec<_>>());
        let cut = fm_bisection(&g, &mut side, 6, 0.05, 10);
        let assign: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        assert_eq!(cut, edge_cut(&g, &assign), "returned cut must match actual");
        assert!(cut < before, "FM made no progress: {before} -> {cut}");
        assert_eq!(cut, 1, "optimal cut is the single bridge edge");
        let w = part_weights(&g, &assign, 2);
        assert_eq!(w, vec![6, 6]);
    }

    #[test]
    fn kway_refine_reduces_cut() {
        let g = gen::grid(12, 12);
        let mut rng = StdRng::seed_from_u64(9);
        // Random assignment into 4 parts.
        use rand::Rng;
        let mut assign: Vec<u32> = (0..g.num_vertices()).map(|_| rng.gen_range(0..4)).collect();
        let before = edge_cut(&g, &assign);
        let cap = (g.total_vertex_weight() as f64 * 1.05 / 4.0).ceil() as u64;
        kway_greedy_refine(&g, &mut assign, 4, cap, 10, false, &Pool::new(1));
        let after = edge_cut(&g, &assign);
        assert!(after < before, "refinement failed: {before} -> {after}");
        let w = part_weights(&g, &assign, 4);
        assert!(imbalance(&w) <= 1.25, "imbalance {:?}", w);
    }

    #[test]
    fn kway_refine_identical_across_pool_sizes() {
        let g = gen::grid(16, 16);
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(4);
        let start: Vec<u32> = (0..g.num_vertices()).map(|_| rng.gen_range(0..4)).collect();
        let cap = (g.total_vertex_weight() as f64 * 1.05 / 4.0).ceil() as u64;
        let run = |threads: usize| {
            let mut a = start.clone();
            kway_greedy_refine(&g, &mut a, 4, cap, 10, false, &Pool::new(threads));
            a
        };
        let base = run(1);
        for t in [2, 4] {
            assert_eq!(run(t), base, "pool size {t} changed refinement");
        }
    }

    #[test]
    fn enforce_balance_moves_overflow() {
        let g = gen::grid(8, 8); // 64 vertices
        let mut assign = vec![0u32; 64];
        let cap = 40;
        enforce_balance(&g, &mut assign, 2, cap, &Pool::new(1));
        let w = part_weights(&g, &assign, 2);
        assert!(w[0] <= cap && w[1] <= cap, "still overweight: {w:?}");
    }

    #[test]
    fn enforce_balance_identical_across_pool_sizes() {
        let g = gen::grid(10, 10);
        let cap = 60;
        let run = |threads: usize| {
            let mut a = vec![0u32; 100];
            enforce_balance(&g, &mut a, 3, cap, &Pool::new(threads));
            a
        };
        let base = run(1);
        let w = part_weights(&g, &base, 3);
        assert!(w.iter().all(|&x| x <= cap), "still overweight: {w:?}");
        for t in [2, 4] {
            assert_eq!(run(t), base, "pool size {t} changed balance enforcement");
        }
    }
}
