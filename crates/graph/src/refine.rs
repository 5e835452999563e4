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
//!
//! Neither recomputes what no move changed. A level is balanced and refined
//! over one `Incidence::Tally` — for a hypergraph the pins each net has in
//! each part, so a pull reads a row per net instead of the net's pins —
//! which every move brings up to date (`Incidence::moved`), and the refiner
//! rescans only the vertices a move can have affected (see
//! [`kway_greedy_refine`]). Both are exact: partitions are what recounting
//! everything on every evaluation and rescanning everyone on every pass
//! would give, bit for bit, which the differential tests below pin.

use crate::csr::{CsrGraph, NodeId};
use crate::incidence::{Incidence, MoveScratch};
use crate::metrics::{edge_cut, part_weights};
use schism_par::{chunk_size, Pool};
use std::collections::BinaryHeap;

/// One FM pass moves each vertex at most once; hill-climbing stops after
/// this many consecutive non-improving moves.
const FM_STALL_LIMIT: usize = 64;

/// FM passes per bisection, at most.
const FM_PASSES: usize = 8;

/// k-way refinement passes per level, at most.
pub(crate) const REFINE_PASSES: usize = 6;

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
pub fn fm_bisection(g: &CsrGraph, side: &mut [u8], target0: u64, epsilon: f64) -> u64 {
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

    for _ in 0..FM_PASSES {
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

/// `v`'s best admissible move against a (frozen or live) state — its gain
/// and destination, or `None` for interior / immovable vertices — and
/// whether `v` is **awake**.
///
/// Two objectives rank a move to `p`: the connectivity gain `toward[p] −
/// stay` and the cut-net gain `uncut[p] − interior` (nets un-cut minus nets
/// newly cut — exactly the change in distributed transactions; always zero
/// on a plain graph). `cut_primary` picks which one leads; the other breaks
/// ties, so the refiner keeps lowering the distributed fraction on
/// connectivity plateaus.
///
/// A vertex is awake when some part it touches offers `(gain, tie) ≥
/// (0, 0)`: a move the objectives would take, whether or not the part
/// weights admit it right now. One that is not awake yields `None` under
/// *any* weights, and stays that way until its pull changes.
#[allow(clippy::too_many_arguments)]
fn weigh_move<G: Incidence>(
    g: &G,
    tally: &G::Tally,
    assignment: &[u32],
    weights: &[u64],
    max_part_weight: u64,
    v: NodeId,
    s: &mut MoveScratch,
    cut_primary: bool,
) -> (Option<(i64, u32)>, bool) {
    let own = assignment[v as usize] as usize;
    let (stay, interior) = g.pull(tally, assignment, v, s);
    let vw = g.vertex_weight(v) as u64;
    let mut best: Option<(i64, i64, u32)> = None;
    let mut awake = false;
    for &p in &s.touched {
        let conn_gain = s.toward[p as usize] as i64 - stay;
        let cut_gain = s.uncut[p as usize] as i64 - interior;
        let (gain, tie) = if cut_primary {
            (cut_gain, conn_gain)
        } else {
            (conn_gain, cut_gain)
        };
        // No move that loses — and no zero-gain move may pay the secondary
        // objective, not even for balance: balance is already capped by
        // epsilon, the objectives are not.
        if (gain, tie) < (0, 0) {
            continue;
        }
        awake = true;
        let landing = weights[p as usize] + vw;
        let fits = landing <= max_part_weight;
        let improves_balance = landing < weights[own];
        let rebalances = weights[own] > max_part_weight && improves_balance;
        if !(fits || rebalances) {
            continue;
        }
        // A move that changes neither objective is taken only for balance.
        let take = (gain, tie) > (0, 0) || improves_balance;
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
    (best.map(|(gain, _, p)| (gain, p)), awake)
}

/// Greedy k-way boundary refinement (the METIS "greedy refinement" variant),
/// parallelized as scan/apply passes over `pool`.
///
/// Each pass first scans vertices **in parallel** against the frozen
/// pass-start state, collecting candidate moves with positive gain (or
/// zero gain that improves the secondary objective or balance). The
/// candidates — the conflict set — are then ordered deterministically
/// (largest frozen gain first, vertex id as tie-break) and re-validated
/// sequentially against the live assignment before applying, so stale gains
/// never corrupt the objective and the result is independent of the pool
/// size. Returns the number of moves performed.
///
/// Only the first pass scans every vertex. A later pass scans the **active
/// set**: the vertices the previous apply phase reported (`Incidence::moved`
/// — everyone whose pull a move changed) plus those that were awake when
/// last scanned (see `weigh_move` — the part weights alone decide about
/// them, and those changed). Every other vertex pulls what it pulled when
/// it last came out `None` for every possible weight vector, so scanning it
/// again could only repeat that; and since the candidates are totally
/// ordered before they are applied, neither the order of the active list
/// nor how it is chunked can show in the result.
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
    cut_primary: bool,
    pool: &Pool,
) -> usize {
    let mut level = Level::new(g, assignment, k, max_part_weight);
    let moves = level.refine(cut_primary, pool);
    level.finish();
    moves
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
    // Nothing overweight is the common case; it needs no tally.
    if part_weights(g, assignment, k)
        .iter()
        .any(|&w| w > max_part_weight)
    {
        let mut level = Level::new(g, assignment, k, max_part_weight);
        level.balance(pool);
        level.finish();
    }
}

/// What the driver does to every level on the way up: [`enforce_balance`],
/// then [`kway_greedy_refine`], over one shared tally.
pub(crate) fn settle<G: Incidence>(
    g: &G,
    assignment: &mut [u32],
    k: u32,
    max_part_weight: u64,
    cut_primary: bool,
    pool: &Pool,
) {
    let mut level = Level::new(g, assignment, k, max_part_weight);
    level.balance(pool);
    level.refine(cut_primary, pool);
    level.finish();
}

/// One level being balanced and refined: the assignment with everything
/// derived from it — part weights and the implementation's tally — kept
/// current move by move.
struct Level<'a, G: Incidence> {
    g: &'a G,
    assignment: &'a mut [u32],
    k: usize,
    max_part_weight: u64,
    weights: Vec<u64>,
    tally: G::Tally,
}

impl<'a, G: Incidence> Level<'a, G> {
    fn new(g: &'a G, assignment: &'a mut [u32], k: u32, max_part_weight: u64) -> Self {
        Self {
            weights: part_weights(g, assignment, k),
            tally: g.tally(assignment, k),
            g,
            assignment,
            k: k as usize,
            max_part_weight,
        }
    }

    /// Moves `v` to `p` and reports who pulls differently for it.
    fn apply(&mut self, v: NodeId, p: u32, report: impl FnMut(NodeId)) {
        let vw = self.g.vertex_weight(v) as u64;
        self.weights[self.assignment[v as usize] as usize] -= vw;
        self.weights[p as usize] += vw;
        self.assignment[v as usize] = p;
        self.g.moved(&mut self.tally, self.assignment, v, report);
    }

    /// The maintained tally must be the one a fresh count would give.
    fn finish(self) {
        debug_assert!(
            self.tally == self.g.tally(self.assignment, self.k as u32),
            "tally drifted from the assignment"
        );
    }

    fn refine(&mut self, cut_primary: bool, pool: &Pool) -> usize {
        let g = self.g;
        let n = g.num_vertices();
        let mut live = MoveScratch::new(self.k);
        let mut total_moves = 0usize;
        // The vertices this pass scans, and (`queued`) whether a vertex is
        // already on the next pass's list.
        let mut active: Vec<NodeId> = (0..n as NodeId).collect();
        let mut queued = vec![false; n];

        for _pass in 0..REFINE_PASSES {
            // --- Scan (parallel, frozen state): the boundary + its gains. ---
            let (tally, assignment, weights) = (&self.tally, &*self.assignment, &self.weights);
            let (k, max_part_weight) = (self.k, self.max_part_weight);
            let scanned = pool.scope_chunks_with(
                active.len(),
                chunk_size(active.len(), pool.threads()),
                || MoveScratch::new(k),
                |s, range| {
                    let mut cands: Vec<(i64, NodeId)> = Vec::new();
                    let mut awake: Vec<NodeId> = Vec::new();
                    for &v in &active[range] {
                        let (best, is_awake) = weigh_move(
                            g,
                            tally,
                            assignment,
                            weights,
                            max_part_weight,
                            v,
                            s,
                            cut_primary,
                        );
                        if let Some((gain, _)) = best {
                            cands.push((gain, v));
                        }
                        if is_awake {
                            awake.push(v);
                        }
                    }
                    (cands, awake)
                },
            );
            let mut cands = Vec::new();
            active.clear();
            for (chunk_cands, chunk_awake) in scanned {
                cands.extend(chunk_cands);
                active.extend(chunk_awake);
            }
            if cands.is_empty() {
                break;
            }
            for &v in &active {
                queued[v as usize] = true;
            }
            // Deterministic application order: best frozen gain first; vertex id
            // breaks ties into a total order.
            cands.sort_unstable_by_key(|&(gain, v)| (std::cmp::Reverse(gain), v));

            // --- Apply (sequential): re-validate each candidate live. ---
            let mut moves = 0usize;
            for (_, v) in cands {
                let (Some((_, p)), _) = weigh_move(
                    g,
                    &self.tally,
                    self.assignment,
                    &self.weights,
                    max_part_weight,
                    v,
                    &mut live,
                    cut_primary,
                ) else {
                    continue;
                };
                // A candidate is awake, so `v` itself is queued already.
                self.apply(v, p, |u| {
                    if !std::mem::replace(&mut queued[u as usize], true) {
                        active.push(u);
                    }
                });
                moves += 1;
            }
            total_moves += moves;
            if moves == 0 {
                break;
            }
            for &v in &active {
                queued[v as usize] = false;
            }
        }
        total_moves
    }

    fn balance(&mut self, pool: &Pool) {
        let g = self.g;
        let n = g.num_vertices();
        let chunk = chunk_size(n, pool.threads());
        let mut live = MoveScratch::new(self.k);
        // Bounded sweeps: stale scores self-correct next sweep, and the bound
        // avoids thrashing on impossible instances (e.g. one vertex heavier
        // than the cap).
        for _ in 0..4 {
            let max_part_weight = self.max_part_weight;
            if !self.weights.iter().any(|&w| w > max_part_weight) {
                break;
            }
            // Score every vertex of an overweight partition. The destination is
            // re-chosen at move time against fresh weights.
            let (tally, assignment, weights, k) =
                (&self.tally, &*self.assignment, &self.weights, self.k);
            let scored: Vec<Vec<(i64, NodeId)>> = pool.scope_chunks_with(
                n,
                chunk,
                || MoveScratch::new(k),
                |s, range| {
                    range
                        .filter_map(|v| {
                            let own = assignment[v] as usize;
                            if weights[own] <= max_part_weight {
                                return None;
                            }
                            let (stay, _) = g.pull(tally, assignment, v as NodeId, s);
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
            cands.sort_unstable_by_key(|&(delta, v)| {
                (delta, std::cmp::Reverse(g.vertex_weight(v)), v)
            });
            let mut moved = false;
            for (_, v) in cands {
                let own = self.assignment[v as usize] as usize;
                if self.weights[own] <= max_part_weight {
                    continue; // partition already fixed this sweep
                }
                let vw = g.vertex_weight(v) as u64;
                g.pull(&self.tally, self.assignment, v, &mut live);
                // Feasible destination with the strongest pull; break ties
                // toward the lightest load.
                let weights = &self.weights;
                let dest = (0..self.k)
                    .filter(|&p| p != own && weights[p] + vw <= max_part_weight)
                    .max_by_key(|&p| (live.toward[p], std::cmp::Reverse(weights[p])));
                live.reset();
                if let Some(p) = dest {
                    self.apply(v, p as u32, |_| {});
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen;
    use crate::hpartition::random_hypergraph;
    use crate::metrics::imbalance;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The refiner before it remembered anything: every pass weighs every
    /// vertex, and every evaluation reads a tally counted from the
    /// assignment as it stands.
    fn full_rescan_refine<G: Incidence>(
        g: &G,
        assignment: &mut [u32],
        k: u32,
        max_part_weight: u64,
        cut_primary: bool,
    ) -> usize {
        let mut weights = part_weights(g, assignment, k);
        let mut s = MoveScratch::new(k as usize);
        let mut total_moves = 0;
        for _ in 0..REFINE_PASSES {
            let mut tally = g.tally(assignment, k);
            let mut cands: Vec<(i64, NodeId)> = Vec::new();
            for v in 0..g.num_vertices() as NodeId {
                let weighed = weigh_move(
                    g,
                    &tally,
                    assignment,
                    &weights,
                    max_part_weight,
                    v,
                    &mut s,
                    cut_primary,
                );
                if let (Some((gain, _)), _) = weighed {
                    cands.push((gain, v));
                }
            }
            cands.sort_unstable_by_key(|&(gain, v)| (std::cmp::Reverse(gain), v));
            let mut moves = 0;
            for (_, v) in cands {
                let weighed = weigh_move(
                    g,
                    &tally,
                    assignment,
                    &weights,
                    max_part_weight,
                    v,
                    &mut s,
                    cut_primary,
                );
                if let (Some((_, p)), _) = weighed {
                    let vw = g.vertex_weight(v) as u64;
                    weights[assignment[v as usize] as usize] -= vw;
                    weights[p as usize] += vw;
                    assignment[v as usize] = p;
                    tally = g.tally(assignment, k);
                    moves += 1;
                }
            }
            total_moves += moves;
            if moves == 0 {
                break;
            }
        }
        total_moves
    }

    /// [`enforce_balance`] with a tally counted afresh after every move.
    fn recounting_balance<G: Incidence>(
        g: &G,
        assignment: &mut [u32],
        k: u32,
        max_part_weight: u64,
    ) {
        let kk = k as usize;
        let mut weights = part_weights(g, assignment, k);
        let mut s = MoveScratch::new(kk);
        for _ in 0..4 {
            if !weights.iter().any(|&w| w > max_part_weight) {
                break;
            }
            let mut tally = g.tally(assignment, k);
            let mut cands: Vec<(i64, NodeId)> = Vec::new();
            for v in 0..g.num_vertices() as NodeId {
                if weights[assignment[v as usize] as usize] > max_part_weight {
                    let (stay, _) = g.pull(&tally, assignment, v, &mut s);
                    let best_other = s.touched.iter().map(|&p| s.toward[p as usize]).max();
                    s.reset();
                    cands.push((stay - best_other.unwrap_or(0) as i64, v));
                }
            }
            cands.sort_unstable_by_key(|&(delta, v)| {
                (delta, std::cmp::Reverse(g.vertex_weight(v)), v)
            });
            let mut moved = false;
            for (_, v) in cands {
                let own = assignment[v as usize] as usize;
                if weights[own] <= max_part_weight {
                    continue;
                }
                let vw = g.vertex_weight(v) as u64;
                g.pull(&tally, assignment, v, &mut s);
                let dest = (0..kk)
                    .filter(|&p| p != own && weights[p] + vw <= max_part_weight)
                    .max_by_key(|&p| (s.toward[p], std::cmp::Reverse(weights[p])));
                s.reset();
                if let Some(p) = dest {
                    weights[own] -= vw;
                    weights[p] += vw;
                    assignment[v as usize] = p as u32;
                    tally = g.tally(assignment, k);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// Refinement and balancing against their oracles, from a random start
    /// (skewed toward the low parts, so some start overweight) and from
    /// everything on part 0, at pools of 1, 2 and 4.
    fn matches_oracles<G: Incidence>(g: &G, k: u32, rng: &mut StdRng) {
        let n = g.num_vertices();
        let cap = (g.total_vertex_weight() as f64 * 1.05 / k as f64).ceil() as u64;
        let start: Vec<u32> = (0..n)
            .map(|_| rng.gen_range(0..k).min(rng.gen_range(0..k)))
            .collect();
        for cut_primary in [false, true] {
            let mut want = start.clone();
            let want_moves = full_rescan_refine(g, &mut want, k, cap, cut_primary);
            for threads in [1, 2, 4] {
                let mut got = start.clone();
                let pool = Pool::new(threads);
                let moves = kway_greedy_refine(g, &mut got, k, cap, cut_primary, &pool);
                assert_eq!(moves, want_moves, "moves, cut_primary {cut_primary}");
                assert!(
                    got == want,
                    "labels, cut_primary {cut_primary}, pool {threads}"
                );
            }
        }
        let mut want = vec![0u32; n];
        recounting_balance(g, &mut want, k, cap);
        for threads in [1, 2, 4] {
            let mut got = vec![0u32; n];
            enforce_balance(g, &mut got, k, cap, &Pool::new(threads));
            assert!(got == want, "balance, pool {threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Large enough (over 1 024 vertices) that a pool of 2 or 4 really
        /// splits the scan, with a few nets too wide to be tallied.
        #[test]
        fn hypergraph_refiner_and_balancer_match_full_rescan(
            seed in 0..u64::MAX,
            k in 2..=16u32,
            n in 1_100..1_400usize,
            wide in 0..3usize,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let hg = random_hypergraph(&mut rng, n, n / 3, wide);
            matches_oracles(&hg, k, &mut rng);
        }

        #[test]
        fn graph_refiner_and_balancer_match_full_rescan(
            seed in 0..u64::MAX,
            k in 2..=16u32,
            n in 1_100..1_500usize,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new(n);
            for v in 0..n as NodeId {
                b.set_vertex_weight(v, rng.gen_range(1..=4));
            }
            for _ in 0..3 * n {
                // Mostly short-range edges, weights 1–3: clustered, with ties.
                let u = rng.gen_range(0..n);
                let v = (u + rng.gen_range(1..24usize)) % n;
                b.add_edge(u as NodeId, v as NodeId, rng.gen_range(1..=3));
            }
            matches_oracles(&b.build(), k, &mut rng);
        }
    }

    #[test]
    fn fm_fixes_a_bad_bisection() {
        // Two 6-cliques bridged by one edge; start from an interleaved
        // (worst-case) bisection and let FM untangle it.
        let g = gen::two_cliques(6, 1);
        let mut side: Vec<u8> = (0..12u32).map(|v| (v % 2) as u8).collect();
        let before = edge_cut(&g, &side.iter().map(|&s| s as u32).collect::<Vec<_>>());
        let cut = fm_bisection(&g, &mut side, 6, 0.05);
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
        kway_greedy_refine(&g, &mut assign, 4, cap, false, &Pool::new(1));
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
            kway_greedy_refine(&g, &mut a, 4, cap, false, &Pool::new(threads));
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
