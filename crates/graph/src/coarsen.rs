//! What every coarsening step shares, and contraction: collapse one
//! step's groups into a coarser structure.
//!
//! A coarsening step (`Incidence::coarsen_step`: heavy matching for a plain
//! graph, first-choice clustering for a hypergraph) scores its candidates
//! its own way, but both draw the same from the V's rng (`draw_order`)
//! and rank a candidate `u` of `v` by the same key, `(score, tie(seed,
//! {v, u}))` (`tie`). A step decides only which vertices merge, as a
//! [`Grouping`] — fine → coarse ids, numbered in first-member order.
//! Contraction reads that map alone. Each group becomes a single coarse
//! vertex whose weight is the sum of its members' weights, and the map is
//! retained so partitions can be projected back during uncoarsening.
//! Coarse weights are computed here, once, for every `Incidence`; what the
//! merge does to the structure itself is the implementation's business
//! (`Incidence::contract`).
//!
//! For a plain graph (`contract_adjacency`) parallel edges created by the
//! contraction are merged with summed weights and edges interior to a group
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
use rand::seq::SliceRandom;
use rand::Rng;
use schism_par::Pool;

/// The tie-break of the candidate pair `{v, u}`: the SplitMix64 finaliser
/// over the packed *unordered* pair — a bijection of a 64-bit word, so both
/// ends compute the same value and two pairs never tie under one seed.
/// Seeded per step so repeated levels explore different orders.
#[inline]
pub(crate) fn tie(seed: u64, v: NodeId, u: NodeId) -> u64 {
    let edge = (u64::from(v.min(u)) << 32) | u64::from(v.max(u));
    let mut z = seed.wrapping_add(edge.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// All a coarsening step draws from `rng` over `n` vertices: the seed of
/// [`tie`] and one shuffled visit order. The rng advances by the same
/// amount whatever the pool's size, so the levels below see the same state.
pub(crate) fn draw_order<R: Rng>(n: usize, rng: &mut R) -> (u64, Vec<NodeId>) {
    let seed: u64 = rng.gen();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(rng);
    (seed, order)
}

/// One level of the multilevel hierarchy.
#[derive(Clone, Debug)]
pub struct CoarseLevel<G> {
    /// The contracted structure.
    pub graph: G,
    /// `map[v_fine] = v_coarse`.
    pub map: Vec<NodeId>,
}

/// Which vertices one coarsening step merges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grouping {
    /// `map[v_fine] = v_coarse`, coarse ids numbered in the order of each
    /// group's lowest-numbered member.
    pub map: Vec<NodeId>,
    /// Number of groups, i.e. of coarse vertices.
    pub groups: usize,
}

impl Grouping {
    /// Numbers the groups `rep` names — `rep[v]` is the same member for
    /// every member `v` of a group, and `rep[rep[v]] == rep[v]` — in
    /// first-member order. O(n), sequential: a prefix-sum dependency not
    /// worth sharding.
    pub(crate) fn from_reps(rep: &[NodeId]) -> Self {
        // A representative's own slot holds its group's id from the group's
        // first member on; by the time the scan reaches the representative,
        // that is the id it needs.
        let mut map = vec![NodeId::MAX; rep.len()];
        let mut groups: NodeId = 0;
        for v in 0..rep.len() {
            let r = rep[v] as usize;
            if map[r] == NodeId::MAX {
                map[r] = groups;
                groups += 1;
            }
            map[v] = map[r];
        }
        Self {
            map,
            groups: groups as usize,
        }
    }

    /// The groups of a matching: `mate[v] == u` and `mate[u] == v` for a
    /// pair, `mate[v] == v` for a vertex left single.
    pub(crate) fn from_mate(mate: &[NodeId]) -> Self {
        let rep: Vec<NodeId> = (0..mate.len() as NodeId)
            .map(|v| v.min(mate[v as usize]))
            .collect();
        Self::from_reps(&rep)
    }
}

/// Contracts `g` according to `grouping` (as produced by one coarsening
/// step), sharing the structure build across `pool`.
///
/// # Panics
/// If a group weighs more than `u32::MAX` — every coarsening step caps a
/// group's weight below that, so a coarse level always carries the full
/// mass of the level under it.
pub fn contract<G: Incidence>(g: &G, grouping: Grouping, pool: &Pool) -> CoarseLevel<G> {
    let Grouping { map, groups } = grouping;
    debug_assert_eq!(map.len(), g.num_vertices());
    let mut vwgt = vec![0u32; groups];
    for (v, &c) in map.iter().enumerate() {
        let w = &mut vwgt[c as usize];
        *w = w
            .checked_add(g.vertex_weight(v as NodeId))
            .expect("coarsening caps a group's weight at u32::MAX");
    }
    CoarseLevel {
        graph: g.contract(&map, vwgt, pool),
        map,
    }
}

/// The plain-graph half of [`contract`]: the merged coarse adjacency.
pub(crate) fn contract_adjacency(
    g: &CsrGraph,
    map: &[NodeId],
    vwgt: Vec<u32>,
    pool: &Pool,
) -> CsrGraph {
    let cn = vwgt.len();

    // Each coarse vertex's fine members, ascending: a counting sort of
    // `map`. A coarse vertex emits its members' edges in that order.
    let mut first = vec![0u32; cn + 1];
    for &c in map {
        first[c as usize + 1] += 1;
    }
    for c in 0..cn {
        first[c + 1] += first[c];
    }
    let mut cursor = first.clone();
    let mut members = vec![0 as NodeId; map.len()];
    for (v, &c) in map.iter().enumerate() {
        members[cursor[c as usize] as usize] = v as NodeId;
        cursor[c as usize] += 1;
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
            let begin = out.adjncy.len();
            let span = first[cv] as usize..first[cv + 1] as usize;
            let cv = cv as NodeId;
            for &fine in &members[span] {
                for (u, w) in g.edges(fine) {
                    let cu = map[u as usize];
                    if cu == cv {
                        continue; // interior edge of the group
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
        let lvl = contract(&g, Grouping::from_mate(&mate), &Pool::new(1));
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
        let lvl = contract(&g, Grouping::from_mate(&mate), &Pool::new(1));
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
        let lvl = contract(&g, Grouping::from_mate(&mate), &Pool::new(1));
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
        let base = contract(&g, Grouping::from_mate(&mate), &Pool::new(1));
        base.graph.validate().unwrap();
        for t in [2, 4] {
            let lvl = contract(&g, Grouping::from_mate(&mate), &Pool::new(t));
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
