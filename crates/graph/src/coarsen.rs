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
//! vertices' merged neighbor lists into private buffers, reserved up to
//! its members' degree sum, with a private scratch table that packs each
//! neighbour's timestamp and slot into one word, and a sequential stitch
//! appends the later chunks to the first one's buffers with offset fixups
//! — so one chunk holding every coarse vertex is not copied at all. Because
//! every coarse vertex's adjacency is emitted by exactly one chunk and
//! emission order within a vertex only depends on fine-edge order, the
//! CSR is **byte-identical to the sequential build** for any pool size.

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
        /// Chunk-local CSR offsets: `xadj[0] == 0`, one end per vertex.
        xadj: Vec<u32>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<u32>,
    }
    // One chunk per worker (static split): the scratch table below is
    // O(cn), so fine-grained chunking would spend more on re-zeroing it
    // than on merging edges.
    let chunk = cn.div_ceil(pool.threads()).max(1024);
    let parts: Vec<ChunkAdj> = pool.scope_chunks(cn, chunk, |range| {
        // seen[c] packs a stamp (one plus the coarse vertex being emitted
        // when `c` was last added; 0, never) over `c`'s index in the
        // chunk-local adjacency, which is valid iff the stamp is the
        // current vertex's. One word, so a neighbour costs one cache miss,
        // not two.
        let mut seen = vec![0u64; cn];
        // The members' degrees bound the merged adjacency from above.
        // Reserved, not written: pages past what is pushed are never
        // touched.
        let fine = first[range.start] as usize..first[range.end] as usize;
        let bound: usize = members[fine].iter().map(|&v| g.degree(v)).sum();
        let mut xadj = Vec::with_capacity(range.len() + 1);
        xadj.push(0u32);
        let mut out = ChunkAdj {
            xadj,
            adjncy: Vec::with_capacity(bound),
            adjwgt: Vec::with_capacity(bound),
        };
        for cv in range {
            let span = first[cv] as usize..first[cv + 1] as usize;
            let stamp = (cv as u64 + 1) << 32;
            let cv = cv as NodeId;
            for &fine in &members[span] {
                for (u, w) in g.edges(fine) {
                    let cu = map[u as usize];
                    if cu == cv {
                        continue; // interior edge of the group
                    }
                    let entry = &mut seen[cu as usize];
                    if *entry & !u64::from(u32::MAX) == stamp {
                        let s = *entry as u32 as usize;
                        out.adjwgt[s] = out.adjwgt[s].saturating_add(w);
                    } else {
                        *entry = stamp | out.adjncy.len() as u64;
                        out.adjncy.push(cu);
                        out.adjwgt.push(w);
                    }
                }
            }
            out.xadj.push(out.adjncy.len() as u32);
        }
        out
    });

    // Sequential stitch: chunk outputs are already in coarse-id order. The
    // first chunk's buffers become the result, so a lone chunk (every pool
    // of one thread) is not copied at all.
    let total_adj: usize = parts.iter().map(|p| p.adjncy.len()).sum();
    let mut parts = parts.into_iter();
    let mut out = parts.next().unwrap_or(ChunkAdj {
        xadj: vec![0],
        adjncy: Vec::new(),
        adjwgt: Vec::new(),
    });
    out.xadj.reserve_exact(cn + 1 - out.xadj.len());
    out.adjncy.reserve_exact(total_adj - out.adjncy.len());
    out.adjwgt.reserve_exact(total_adj - out.adjwgt.len());
    for p in parts {
        let base = out.adjncy.len() as u32;
        out.xadj.extend(p.xadj[1..].iter().map(|&end| base + end));
        out.adjncy.extend_from_slice(&p.adjncy);
        out.adjwgt.extend_from_slice(&p.adjwgt);
    }
    // Give back what the degree-sum reservations did not use.
    out.adjncy.shrink_to_fit();
    out.adjwgt.shrink_to_fit();
    CsrGraph::from_parts(out.xadj, out.adjncy, out.adjwgt, vwgt)
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
        // Over 2 048 coarse vertices, so that pools of 2 and 4 split the
        // build into chunks and stitch them, while a pool of 1 hands its
        // one chunk over as built (`chunk` has a 1 024-vertex floor).
        let n = 6_000;
        let mut b = GraphBuilder::new(n);
        let mut rng = StdRng::seed_from_u64(11);
        use rand::Rng;
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            b.add_edge(u, v, rng.gen_range(1..9));
        }
        let g = b.build();
        let mate = heavy_matching(&g, None, u64::MAX, &mut rng, &Pool::new(1));
        let base = contract(&g, Grouping::from_mate(&mate), &Pool::new(1));
        base.graph.validate().unwrap();
        assert!(base.graph.num_vertices() > 2 * 1024);
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
