//! Contraction: collapse a matching into a coarser structure.
//!
//! Matched pairs become a single coarse vertex whose weight is the sum of the
//! pair's weights; the mapping from fine to coarse vertex ids is retained so
//! partitions can be projected back during uncoarsening. Coarse ids and
//! weights are computed here, once, for every `Incidence`; what the merge
//! does to the structure itself is the implementation's business
//! (`Incidence::contract`).
//!
//! For a plain graph (`contract_adjacency`) parallel edges created by the
//! contraction are merged with summed weights and edges interior to a pair
//! vanish. The expensive part — building the coarse adjacency, O(E) — is
//! parallelized over *coarse* vertex ranges: each chunk accumulates its
//! vertices' merged neighbor lists into private buffers with a private
//! timestamped scratch table, and a sequential stitch concatenates them
//! with offset fixups. Because every coarse vertex's adjacency is emitted
//! by exactly one chunk and emission order within a vertex only depends on
//! fine-edge order, the stitched CSR is **byte-identical to the sequential
//! build** for any pool size.

use crate::csr::{CsrGraph, NodeId};
use crate::incidence::Incidence;
use schism_par::Pool;

/// One level of the multilevel hierarchy.
#[derive(Clone, Debug)]
pub struct CoarseLevel<G> {
    /// The contracted structure.
    pub graph: G,
    /// `map[v_fine] = v_coarse`.
    pub map: Vec<NodeId>,
}

/// Contracts `g` according to `mate` (as produced by
/// [`crate::matching::heavy_matching`]), sharing the structure build across
/// `pool`.
///
/// # Panics
/// If a matched pair weighs more than `u32::MAX` — the driver caps pair
/// weights below that, so a coarse level always carries the full mass of
/// the level under it.
pub fn contract<G: Incidence>(g: &G, mate: &[NodeId], pool: &Pool) -> CoarseLevel<G> {
    let n = g.num_vertices();
    debug_assert_eq!(mate.len(), n);

    // Assign coarse ids: the lower-numbered endpoint of each pair owns the
    // id. Sequential O(n) — a prefix-sum dependency not worth sharding.
    let mut map = vec![NodeId::MAX; n];
    let mut next: NodeId = 0;
    for v in 0..n {
        let m = mate[v] as usize;
        if m >= v {
            map[v] = next;
            map[m] = next; // no-op when m == v
            next += 1;
        }
    }

    let mut vwgt = vec![0u32; next as usize];
    for v in 0..n {
        let w = &mut vwgt[map[v] as usize];
        *w = w
            .checked_add(g.vertex_weight(v as NodeId))
            .expect("matching caps a pair's weight at u32::MAX");
    }

    CoarseLevel {
        graph: g.contract(mate, &map, vwgt, pool),
        map,
    }
}

/// The plain-graph half of [`contract`]: the merged coarse adjacency.
pub(crate) fn contract_adjacency(
    g: &CsrGraph,
    mate: &[NodeId],
    map: &[NodeId],
    vwgt: Vec<u32>,
    pool: &Pool,
) -> CsrGraph {
    let cn = vwgt.len();

    // The owner (emitting) fine vertex of each coarse vertex — the lower
    // endpoint of its pair.
    let mut owner = vec![0 as NodeId; cn];
    for v in 0..g.num_vertices() {
        if mate[v] as usize >= v {
            owner[map[v] as usize] = v as NodeId;
        }
    }

    // Parallel adjacency build over coarse-vertex chunks. Each chunk owns
    // a contiguous id range, so concatenating chunk outputs in order
    // reproduces the sequential emission exactly.
    struct ChunkAdj {
        degrees: Vec<u32>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<u32>,
    }
    // One chunk per worker (static split): the scratch tables below are
    // O(cn) each, so fine-grained chunking would spend more on re-zeroing
    // `stamp` than on merging edges.
    let chunk = cn.div_ceil(pool.threads()).max(1024);
    let parts: Vec<ChunkAdj> = pool.scope_chunks(cn, chunk, |range| {
        // slot[c] = index into the chunk-local adjacency being built, valid
        // when stamp[c] == the coarse vertex currently being emitted.
        let mut slot = vec![0u32; cn];
        let mut stamp = vec![NodeId::MAX; cn];
        let mut out = ChunkAdj {
            degrees: Vec::with_capacity(range.len()),
            adjncy: Vec::new(),
            adjwgt: Vec::new(),
        };
        for cv in range {
            let cv = cv as NodeId;
            let begin = out.adjncy.len();
            let mut emit = |fine: NodeId| {
                for (u, w) in g.edges(fine) {
                    let cu = map[u as usize];
                    if cu == cv {
                        continue; // interior edge of the pair
                    }
                    if stamp[cu as usize] == cv {
                        let s = slot[cu as usize] as usize;
                        out.adjwgt[s] = out.adjwgt[s].saturating_add(w);
                    } else {
                        stamp[cu as usize] = cv;
                        slot[cu as usize] = out.adjncy.len() as u32;
                        out.adjncy.push(cu);
                        out.adjwgt.push(w);
                    }
                }
            };
            let v = owner[cv as usize];
            emit(v);
            let m = mate[v as usize];
            if m != v {
                emit(m);
            }
            out.degrees.push((out.adjncy.len() - begin) as u32);
        }
        out
    });

    // Sequential stitch: chunk outputs are already in coarse-id order.
    let total_adj: usize = parts.iter().map(|p| p.adjncy.len()).sum();
    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0u32);
    let mut adjncy: Vec<NodeId> = Vec::with_capacity(total_adj);
    let mut adjwgt: Vec<u32> = Vec::with_capacity(total_adj);
    for p in parts {
        for d in p.degrees {
            xadj.push(xadj.last().expect("non-empty") + d);
        }
        adjncy.extend_from_slice(&p.adjncy);
        adjwgt.extend_from_slice(&p.adjwgt);
    }

    CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::matching::heavy_matching;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn contract_square() {
        // Square 0-1-2-3-0, match (0,1) and (2,3): coarse graph is two
        // vertices joined by an edge of weight 2 (edges 1-2 and 3-0 merge).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 10);
        b.add_edge(3, 0, 1);
        let g = b.build();
        let mate = vec![1, 0, 3, 2];
        let lvl = contract(&g, &mate, &Pool::new(1));
        lvl.graph.validate().unwrap();
        assert_eq!(lvl.graph.num_vertices(), 2);
        assert_eq!(lvl.graph.num_edges(), 1);
        assert_eq!(lvl.graph.edges(0).next(), Some((1, 2)));
        assert_eq!(lvl.graph.vertex_weight(0), 2);
        assert_eq!(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn self_matched_vertices_survive() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let mate = vec![1, 0, 2];
        let lvl = contract(&g, &mate, &Pool::new(1));
        assert_eq!(lvl.graph.num_vertices(), 2);
        assert_eq!(lvl.graph.num_edges(), 0);
        assert_eq!(lvl.graph.vertex_weight(lvl.map[2] as NodeId), 1);
    }

    #[test]
    fn weight_conserved_on_random_graph() {
        let mut b = GraphBuilder::new(200);
        let mut rng = StdRng::seed_from_u64(7);
        use rand::Rng;
        for _ in 0..600 {
            let u = rng.gen_range(0..200u32);
            let v = rng.gen_range(0..200u32);
            b.add_edge(u, v, rng.gen_range(1..5));
        }
        let g = b.build();
        let mate = heavy_matching(&g, None, u64::MAX, &mut rng, &Pool::new(1));
        let lvl = contract(&g, &mate, &Pool::new(1));
        lvl.graph.validate().unwrap();
        assert_eq!(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
        assert!(lvl.graph.num_vertices() < g.num_vertices());
        // Total edge weight = fine total minus interior (matched) edges.
        let interior: u64 = (0..200u32)
            .filter(|&v| mate[v as usize] > v)
            .map(|v| {
                g.edges(v)
                    .filter(|&(u, _)| u == mate[v as usize])
                    .map(|(_, w)| w as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(
            lvl.graph.total_edge_weight(),
            g.total_edge_weight() - interior
        );
    }

    #[test]
    fn contraction_identical_across_pool_sizes() {
        let mut b = GraphBuilder::new(500);
        let mut rng = StdRng::seed_from_u64(11);
        use rand::Rng;
        for _ in 0..1_500 {
            let u = rng.gen_range(0..500u32);
            let v = rng.gen_range(0..500u32);
            b.add_edge(u, v, rng.gen_range(1..9));
        }
        let g = b.build();
        let mate = heavy_matching(&g, None, u64::MAX, &mut rng, &Pool::new(1));
        let base = contract(&g, &mate, &Pool::new(1));
        base.graph.validate().unwrap();
        for t in [2, 4] {
            let lvl = contract(&g, &mate, &Pool::new(t));
            assert_eq!(lvl.map, base.map, "pool size {t} changed the map");
            // CSR must be byte-identical: compare per-vertex adjacency.
            assert_eq!(lvl.graph.num_vertices(), base.graph.num_vertices());
            for v in 0..base.graph.num_vertices() as NodeId {
                assert_eq!(
                    lvl.graph.edges(v).collect::<Vec<_>>(),
                    base.graph.edges(v).collect::<Vec<_>>(),
                    "pool size {t} changed adjacency of {v}"
                );
            }
        }
    }
}
