//! Initial partitioning of the coarsest graph.
//!
//! Bisection = greedy graph growing (GGGP) from several random seeds,
//! keeping the best cut, followed by Fiduccia–Mattheyses (FM) boundary
//! refinement. k-way = recursive bisection with weight-proportional targets
//! so any `k` (not just powers of two) yields balanced parts.
//!
//! The independent growing attempts are embarrassingly parallel: each try
//! draws its RNG seed from the caller's stream **up front** (so the
//! caller's RNG advances identically whatever the pool size), runs
//! grow+FM on its own `StdRng`, and the winner is selected by scanning
//! results in try order with the same cut-then-balance rule the
//! sequential loop used — first-best wins, so the choice is independent
//! of which worker finished first.

use crate::csr::{CsrGraph, NodeId};
use crate::refine::fm_bisection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_par::Pool;

/// A bisection: `side[v] ∈ {0, 1}`.
pub type Side = Vec<u8>;

/// Independent greedy-growing attempts per bisection.
const INIT_TRIES: usize = 4;

/// Grows partition 0 from a random seed until its weight reaches
/// `target0`, preferring the frontier vertex most strongly connected to the
/// grown region. Restarts from a fresh random vertex when the frontier
/// empties (disconnected graphs).
fn greedy_grow<R: Rng>(g: &CsrGraph, target0: u64, rng: &mut R) -> Side {
    let n = g.num_vertices();
    let mut side: Side = vec![1; n];
    if n == 0 || target0 == 0 {
        return side;
    }

    // conn[v] = weight of edges from v into the grown region; used as the
    // priority. A BinaryHeap with lazy invalidation keeps this O(E log E).
    let mut conn = vec![0u64; n];
    let mut heap: std::collections::BinaryHeap<(u64, NodeId)> = std::collections::BinaryHeap::new();
    let mut grown_weight = 0u64;

    let grow = |v: NodeId,
                side: &mut Side,
                conn: &mut Vec<u64>,
                heap: &mut std::collections::BinaryHeap<(u64, NodeId)>,
                grown_weight: &mut u64| {
        side[v as usize] = 0;
        *grown_weight += g.vertex_weight(v) as u64;
        for (u, w) in g.edges(v) {
            if side[u as usize] == 1 {
                conn[u as usize] += w as u64;
                heap.push((conn[u as usize], u));
            }
        }
    };

    let seed = rng.gen_range(0..n) as NodeId;
    grow(seed, &mut side, &mut conn, &mut heap, &mut grown_weight);

    while grown_weight < target0 {
        let next = loop {
            match heap.pop() {
                Some((pri, v)) => {
                    if side[v as usize] == 0 || conn[v as usize] != pri {
                        continue; // stale entry
                    }
                    break Some(v);
                }
                None => break None,
            }
        };
        let v = match next {
            Some(v) => v,
            None => {
                // Frontier exhausted (disconnected component fully grown):
                // jump to a random ungrown vertex.
                match (0..n)
                    .map(|i| ((i + seed as usize) % n) as NodeId)
                    .find(|&u| side[u as usize] == 1)
                {
                    Some(u) => u,
                    None => break,
                }
            }
        };
        grow(v, &mut side, &mut conn, &mut heap, &mut grown_weight);
    }
    side
}

/// Bisects `g` so that side 0 holds approximately `target0` of the total
/// vertex weight (side 1 gets the rest). Runs `INIT_TRIES` independent
/// greedy growths **concurrently over `pool`**, FM-refines each, and returns the
/// best (cut, then balance, then earliest try — the sequential loop's
/// first-best rule, preserved by reducing in try order).
pub fn bisect<R: Rng>(g: &CsrGraph, target0: u64, epsilon: f64, rng: &mut R, pool: &Pool) -> Side {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let total = g.total_vertex_weight();
    let target1 = total - target0;

    // Seeds are drawn sequentially from the caller's RNG so its state
    // advances the same way regardless of parallelism.
    let seeds: Vec<u64> = (0..INIT_TRIES).map(|_| rng.gen()).collect();

    let attempts: Vec<(u64, u64, Side)> = pool
        .scope_chunks(INIT_TRIES, 1, |r| {
            let mut trng = StdRng::seed_from_u64(seeds[r.start]);
            let mut side = greedy_grow(g, target0, &mut trng);
            let cut = fm_bisection(g, &mut side, target0, epsilon);
            let w0: u64 = (0..n)
                .filter(|&v| side[v] == 0)
                .map(|v| g.vertex_weight(v as NodeId) as u64)
                .sum();
            let err = w0.abs_diff(target0) + (total - w0).abs_diff(target1);
            (cut, err, side)
        })
        .into_iter()
        .collect();

    let mut best: Option<(u64, u64, Side)> = None; // (cut, balance_err, side)
    for (cut, err, side) in attempts {
        let better = match &best {
            None => true,
            Some((bc, be, _)) => cut < *bc || (cut == *bc && err < *be),
        };
        if better {
            best = Some((cut, err, side));
        }
    }
    best.expect("at least one try").2
}

/// Extracts the subgraph induced by the vertices with `side[v] == which`.
///
/// Returns the subgraph and the mapping `local -> original`.
pub fn induced_subgraph(g: &CsrGraph, side: &[u8], which: u8) -> (CsrGraph, Vec<NodeId>) {
    let n = g.num_vertices();
    let mut local_of = vec![NodeId::MAX; n];
    let mut orig_of: Vec<NodeId> = Vec::new();
    for v in 0..n {
        if side[v] == which {
            local_of[v] = orig_of.len() as NodeId;
            orig_of.push(v as NodeId);
        }
    }
    let ln = orig_of.len();
    let mut xadj = Vec::with_capacity(ln + 1);
    xadj.push(0u32);
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    let mut vwgt = Vec::with_capacity(ln);
    for &ov in &orig_of {
        for (u, w) in g.edges(ov) {
            if side[u as usize] == which {
                adjncy.push(local_of[u as usize]);
                adjwgt.push(w);
            }
        }
        xadj.push(adjncy.len() as u32);
        vwgt.push(g.vertex_weight(ov));
    }
    (CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt), orig_of)
}

/// Recursive-bisection k-way initial partitioning.
///
/// Targets are weight-proportional: splitting `k` into `k/2` and `k - k/2`
/// aims side 0 at `k/2 / k` of the weight, so odd `k` still balances.
pub fn recursive_bisection<R: Rng>(
    g: &CsrGraph,
    k: u32,
    epsilon: f64,
    rng: &mut R,
    pool: &Pool,
) -> Vec<u32> {
    let mut assignment = vec![0u32; g.num_vertices()];
    if k <= 1 {
        return assignment;
    }
    struct Frame {
        graph: CsrGraph,
        orig: Vec<NodeId>,
        k: u32,
        base: u32,
    }
    let identity: Vec<NodeId> = (0..g.num_vertices() as NodeId).collect();
    let mut stack = vec![Frame {
        graph: g.clone(),
        orig: identity,
        k,
        base: 0,
    }];
    while let Some(Frame {
        graph,
        orig,
        k,
        base,
    }) = stack.pop()
    {
        if k == 1 || graph.num_vertices() == 0 {
            for &ov in &orig {
                assignment[ov as usize] = base;
            }
            continue;
        }
        let k0 = k / 2;
        let k1 = k - k0;
        let target0 = g_mul_frac(graph.total_vertex_weight(), k0 as u64, k as u64);
        let side = bisect(&graph, target0, epsilon, rng, pool);
        let (g0, o0) = induced_subgraph(&graph, &side, 0);
        let (g1, o1) = induced_subgraph(&graph, &side, 1);
        let orig0: Vec<NodeId> = o0.iter().map(|&l| orig[l as usize]).collect();
        let orig1: Vec<NodeId> = o1.iter().map(|&l| orig[l as usize]).collect();
        stack.push(Frame {
            graph: g0,
            orig: orig0,
            k: k0,
            base,
        });
        stack.push(Frame {
            graph: g1,
            orig: orig1,
            k: k1,
            base: base + k0,
        });
    }
    assignment
}

/// `total * num / den` without intermediate overflow for the magnitudes we
/// see (total < 2^63, den small).
fn g_mul_frac(total: u64, num: u64, den: u64) -> u64 {
    ((total as u128 * num as u128) / den as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen;
    use crate::metrics::{edge_cut, imbalance, part_weights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bisect_two_cliques() {
        // Two 8-cliques joined by a single light edge: the bisection must
        // cut exactly that bridge.
        let g = gen::two_cliques(8, 1);
        let mut rng = StdRng::seed_from_u64(42);
        let side = bisect(
            &g,
            g.total_vertex_weight() / 2,
            0.05,
            &mut rng,
            &Pool::new(1),
        );
        let assign: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        assert_eq!(edge_cut(&g, &assign), 1);
        let w = part_weights(&g, &assign, 2);
        assert_eq!(w, vec![8, 8]);
    }

    #[test]
    fn induced_subgraph_roundtrip() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        b.add_edge(3, 4, 4);
        let g = b.build();
        let side = vec![0, 0, 0, 1, 1];
        let (sub, orig) = induced_subgraph(&g, &side, 0);
        sub.validate().unwrap();
        assert_eq!(orig, vec![0, 1, 2]);
        assert_eq!(sub.num_edges(), 2); // 0-1 and 1-2 survive, 2-3 is cut away
        let (sub1, orig1) = induced_subgraph(&g, &side, 1);
        assert_eq!(orig1, vec![3, 4]);
        assert_eq!(sub1.num_edges(), 1);
    }

    #[test]
    fn recursive_bisection_balances_odd_k() {
        let g = gen::grid(10, 9); // 90 unit-weight vertices
        let mut rng = StdRng::seed_from_u64(7);
        let assign = recursive_bisection(&g, 3, 0.05, &mut rng, &Pool::new(1));
        let w = part_weights(&g, &assign, 3);
        assert!(
            imbalance(&w) < 1.15,
            "k=3 imbalance too high: {w:?} -> {}",
            imbalance(&w)
        );
        assert!(assign.iter().all(|&p| p < 3));
        // All three labels must actually be used.
        for p in 0..3 {
            assert!(assign.contains(&p), "partition {p} is empty");
        }
    }

    #[test]
    fn bisect_identical_across_pool_sizes() {
        let g = gen::grid(12, 12);
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(21);
            bisect(
                &g,
                g.total_vertex_weight() / 2,
                0.05,
                &mut rng,
                &Pool::new(threads),
            )
        };
        let base = run(1);
        for t in [2, 4] {
            assert_eq!(run(t), base, "pool size {t} changed the bisection");
        }
    }

    #[test]
    fn grow_handles_disconnected() {
        // Two disjoint triangles; ask for 50% of the weight.
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 1);
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(3);
        let side = bisect(&g, 3, 0.05, &mut rng, &Pool::new(1));
        let assign: Vec<u32> = side.iter().map(|&s| s as u32).collect();
        assert_eq!(
            edge_cut(&g, &assign),
            0,
            "cut should separate the triangles"
        );
    }
}
