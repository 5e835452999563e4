//! The one coarsening step, first-choice clustering, and contraction:
//! collapse one step's clusters into a coarser structure.
//!
//! Both co-access structures coarsen the same way (the hMETIS / PaToH
//! scheme), in two phases per level (`first_choice`). *Rate* (parallel
//! over vertex chunks, pure): every vertex picks the candidate it is most
//! attracted to, ranked by `(score, tie(seed, {v, u}))` among candidates of
//! its label light enough to join it, taken or not. *Join* (sequential, in
//! the level's seeded shuffle): a vertex that has neither joined a cluster
//! nor been joined joins its target's cluster if the cluster stays within
//! the cap; the vertex and its target are then both taken. One candidate
//! scan per vertex per level, and a hub's leaves gather around it in one
//! level, where pair matching pairs a few leaves per hub per level and
//! stalls on hub-and-leaf co-access.
//!
//! One step, two scorers, two caps: an `Incidence` supplies only its
//! scorer (`Incidence::candidates`: a plain graph reports each adjacency
//! entry's edge weight, a hypergraph its heavy pins) and its cluster cap
//! (`Incidence::cluster_cap`: half a part for a plain graph, a twentieth
//! for a hypergraph).
//!
//! A step decides only which vertices merge, as a [`Grouping`] — fine →
//! coarse ids, numbered in first-member order. Contraction reads that map
//! alone. Each group becomes a single coarse vertex whose weight is the sum
//! of its members' weights, and the map is retained so partitions can be
//! projected back during uncoarsening. Coarse weights are computed here,
//! once, for every `Incidence`; what the merge does to the structure itself
//! is the implementation's business (`Incidence::contract`).
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
use schism_par::{chunk_size, Pool};

/// "No eligible candidate" in a rating.
const NO_TARGET: NodeId = NodeId::MAX;

/// The tie-break of the candidate pair `{v, u}`: the SplitMix64 finaliser
/// over the packed *unordered* pair — a bijection of a 64-bit word, so both
/// ends compute the same value and two pairs never tie under one seed.
/// Seeded per step so repeated levels explore different orders.
#[inline]
fn tie(seed: u64, v: NodeId, u: NodeId) -> u64 {
    let edge = (u64::from(v.min(u)) << 32) | u64::from(v.max(u));
    let mut z = seed.wrapping_add(edge.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// All a coarsening step draws from `rng` over `n` vertices: the seed of
/// [`tie`] and the join order. The rng advances by the same amount whatever
/// the pool's size, so the levels below see the same state.
fn draw_order<R: Rng>(n: usize, rng: &mut R) -> (u64, Vec<NodeId>) {
    let seed: u64 = rng.gen();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    order.shuffle(rng);
    (seed, order)
}

/// One level of first-choice clustering under the cluster weight cap
/// `limit`: the step's draws ([`draw_order`]), then [`rate`] and [`join`].
/// Only vertices with equal `labels` merge. Draws the same amount from
/// `rng` and returns the same grouping whatever `pool`'s size.
pub(crate) fn first_choice<G: Incidence>(
    g: &G,
    labels: Option<&[u32]>,
    limit: u64,
    rng: &mut impl Rng,
    pool: &Pool,
) -> Grouping {
    let (seed, order) = draw_order(g.num_vertices(), rng);
    let targets = rate(g, labels, limit, seed, pool);
    Grouping::from_reps(&join(g.vertex_weights(), &targets, limit, &order))
}

/// Phase 1 of first-choice clustering: every vertex's target, the
/// candidate whose key `(score, tie(seed, {v,u}))` ranks highest among
/// those of `v`'s label that weigh at most `limit` together with `v` —
/// [`NO_TARGET`] if there is none. Whether the candidate will be taken by
/// then does not matter, so each vertex scans its candidates once, in
/// parallel, and the ratings are a pure function of `(g, labels, limit,
/// seed)`. A candidate scoring below the best so far cannot win whatever
/// its tie, so neither its eligibility is checked nor its tie hashed.
fn rate<G: Incidence>(
    g: &G,
    labels: Option<&[u32]>,
    limit: u64,
    seed: u64,
    pool: &Pool,
) -> Vec<NodeId> {
    let n = g.num_vertices();
    let chunks: Vec<Vec<NodeId>> = pool.scope_chunks_with(
        n,
        chunk_size(n, pool.threads()),
        || g.score_scratch(),
        |s, range| {
            range
                .map(|v| {
                    let v = v as NodeId;
                    let vw = g.vertex_weight(v) as u64;
                    let mut best: Option<((u64, u64), NodeId)> = None;
                    g.candidates(v, s, |u, score| {
                        if best.is_some_and(|((b, _), _)| score < b)
                            || vw + g.vertex_weight(u) as u64 > limit
                            || labels.is_some_and(|l| l[u as usize] != l[v as usize])
                        {
                            return;
                        }
                        let key = (score, tie(seed, v, u));
                        if best.is_none_or(|(b, _)| key > b) {
                            best = Some((key, u));
                        }
                    });
                    best.map_or(NO_TARGET, |(_, u)| u)
                })
                .collect()
        },
    );
    chunks.concat()
}

/// Phase 2 of first-choice clustering, sequential in `order`: a vertex
/// that has neither joined a cluster nor been joined joins the cluster of
/// its target if that cluster still weighs at most `limit` with it; the
/// vertex and its target are then both taken. Returns each vertex's
/// cluster as a representative (the member whose cluster it first was).
///
/// A vertex that is not taken is alone in its cluster — whoever joins a
/// cluster first takes its representative — so a join only ever moves a
/// single vertex, and a representative is always its own.
fn join(vwgt: &[u32], targets: &[NodeId], limit: u64, order: &[NodeId]) -> Vec<NodeId> {
    let n = vwgt.len();
    let mut rep: Vec<NodeId> = (0..n as NodeId).collect();
    // Indexed by representative; `limit` fits a u32.
    let mut weight: Vec<u32> = vwgt.to_vec();
    let mut taken = vec![false; n];
    for &v in order {
        let t = targets[v as usize];
        if taken[v as usize] || t == NO_TARGET {
            continue;
        }
        let c = rep[t as usize] as usize;
        let w = vwgt[v as usize];
        if weight[c] as u64 + w as u64 <= limit {
            weight[c] += w;
            rep[v as usize] = c as NodeId;
            taken[v as usize] = true;
            taken[t as usize] = true;
        }
    }
    rep
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
pub(crate) mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One unlabeled clustering level of `g` under `limit` at `seed`, on a
    /// pool of one.
    fn cluster(g: &CsrGraph, limit: u64, seed: u64) -> Grouping {
        first_choice(
            g,
            None,
            limit,
            &mut StdRng::seed_from_u64(seed),
            &Pool::new(1),
        )
    }

    /// The sequential oracle of [`first_choice`], written from its
    /// definition: each target a brute-force argmax over everything
    /// `candidates` reports, then the join loop over explicit cluster ids,
    /// a cluster's weight summed afresh at every turn. Returns the grouping
    /// and the targets.
    fn first_choice_oracle<G: Incidence>(
        g: &G,
        labels: Option<&[u32]>,
        limit: u64,
        rng: &mut StdRng,
    ) -> (Grouping, Vec<NodeId>) {
        let n = g.num_vertices();
        let (seed, order) = draw_order(n, rng);
        let mut s = g.score_scratch();
        let targets: Vec<NodeId> = (0..n as NodeId)
            .map(|v| {
                let mut candidates = Vec::new();
                g.candidates(v, &mut s, |u, score| candidates.push((u, score)));
                candidates
                    .into_iter()
                    .filter(|&(u, _)| eligible(g, labels, limit, v, u))
                    .max_by_key(|&(u, score)| (score, tie(seed, v, u)))
                    .map_or(NO_TARGET, |(u, _)| u)
            })
            .collect();
        let mut cluster: Vec<NodeId> = (0..n as NodeId).collect();
        let mut taken = vec![false; n];
        for &v in &order {
            let t = targets[v as usize];
            if taken[v as usize] || t == NO_TARGET {
                continue;
            }
            let c = cluster[t as usize];
            let weight: u64 = (0..n)
                .filter(|&u| cluster[u] == c)
                .map(|u| g.vertex_weight(u as NodeId) as u64)
                .sum();
            if weight + g.vertex_weight(v) as u64 <= limit {
                cluster[v as usize] = c;
                taken[v as usize] = true;
                taken[t as usize] = true;
            }
        }
        (Grouping::from_reps(&cluster), targets)
    }

    /// Whether `u` may be `v`'s target: a candidate of `v`'s label that
    /// weighs at most `limit` together with it.
    fn eligible<G: Incidence>(
        g: &G,
        labels: Option<&[u32]>,
        limit: u64,
        v: NodeId,
        u: NodeId,
    ) -> bool {
        g.vertex_weight(v) as u64 + g.vertex_weight(u) as u64 <= limit
            && labels.is_none_or(|l| l[u as usize] == l[v as usize])
    }

    /// Every property of one clustering level: the same grouping for
    /// pools of 1, 2 and 4; equal to the oracle; every cluster a singleton
    /// or within `limit`, none mixing labels, the coarse weights summing to
    /// the fine total; and a vertex left single had no eligible target, or
    /// its target's cluster had no room for it at its turn — weights only
    /// grow, so no room at the end. Returns the contracted level for the
    /// caller to validate.
    pub(crate) fn clustering_properties<G: Incidence>(
        g: &G,
        labels: Option<&[u32]>,
        limit: u64,
        seed: u64,
    ) -> CoarseLevel<G> {
        let n = g.num_vertices();
        let cluster = |threads: usize| {
            first_choice(
                g,
                labels,
                limit,
                &mut StdRng::seed_from_u64(seed),
                &Pool::new(threads),
            )
        };
        let got = cluster(1);
        for threads in [2, 4] {
            assert!(
                cluster(threads) == got,
                "pool {threads} changed the clustering"
            );
        }
        let (want, targets) =
            first_choice_oracle(g, labels, limit, &mut StdRng::seed_from_u64(seed));
        assert!(
            got == want,
            "the clustering differs from the sequential oracle"
        );

        let mut members = vec![Vec::new(); got.groups];
        for v in 0..n {
            members[got.map[v] as usize].push(v as NodeId);
        }
        let weight = |c: NodeId| -> u64 {
            members[c as usize]
                .iter()
                .map(|&u| g.vertex_weight(u) as u64)
                .sum()
        };
        for group in &members {
            assert!(!group.is_empty(), "an unused coarse id");
            if group.len() > 1 {
                let c = got.map[group[0] as usize];
                assert!(
                    weight(c) <= limit,
                    "cluster {c} weighs {} > {limit}",
                    weight(c)
                );
                if let Some(l) = labels {
                    let label = l[group[0] as usize];
                    assert!(
                        group.iter().all(|&u| l[u as usize] == label),
                        "cluster {c} mixes labels"
                    );
                }
            }
        }
        let level = contract(g, got.clone(), &Pool::new(1));
        assert_eq!(level.graph.total_vertex_weight(), g.total_vertex_weight());
        let mut s = g.score_scratch();
        for v in 0..n as NodeId {
            if members[got.map[v as usize] as usize].len() > 1 {
                continue;
            }
            let t = targets[v as usize];
            if t == NO_TARGET {
                let mut any = false;
                g.candidates(v, &mut s, |u, _| any |= eligible(g, labels, limit, v, u));
                assert!(!any, "single {v} had an eligible candidate");
            } else {
                let room = weight(got.map[t as usize]) + g.vertex_weight(v) as u64 <= limit;
                assert!(!room, "single {v} had room in its target {t}'s cluster");
            }
        }
        level
    }

    /// A random eligibility over `n` vertices weighing `total`: three
    /// labels or none, and a cluster cap between 2 and a fifth of the
    /// total, or none.
    pub(crate) fn random_eligibility(
        rng: &mut StdRng,
        n: usize,
        total: u64,
    ) -> (Option<Vec<u32>>, u64) {
        let labels = rng
            .gen_bool(0.5)
            .then(|| (0..n).map(|_| rng.gen_range(0..3)).collect());
        let limit = if rng.gen_bool(0.8) {
            rng.gen_range(2..=(total / 5).max(2))
        } else {
            u64::MAX
        };
        (labels, limit)
    }

    /// Mostly short-range edges of weight 1–3 (clustered, with score ties
    /// everywhere) over vertices weighing 1–4.
    fn random_graph(rng: &mut StdRng, n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as NodeId {
            b.set_vertex_weight(v, rng.gen_range(1..=4));
        }
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n);
            let v = (u + rng.gen_range(1..24usize)) % n;
            b.add_edge(u as NodeId, v as NodeId, rng.gen_range(1..=3));
        }
        b.build()
    }

    /// [`clustering_properties`] on a random graph of `n` vertices.
    fn random_graph_clustering(seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, n);
        let (labels, limit) = random_eligibility(&mut rng, n, g.total_vertex_weight());
        let level = clustering_properties(&g, labels.as_deref(), limit, rng.gen());
        level.graph.validate().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Over 4 096 vertices: below that, `chunk_size`'s 1 024-vertex
        /// floor gives pools of 1, 2 and 4 the same chunks, and a rating
        /// that depended on them would go unseen.
        #[test]
        fn graph_clustering_matches_its_oracle(seed in 0..u64::MAX, n in 4_200..4_600usize) {
            random_graph_clustering(seed, n);
        }

        /// Small graphs, where whole neighbourhoods tie.
        #[test]
        fn small_graph_clusterings_match_their_oracle(seed in 0..u64::MAX, n in 2..80usize) {
            random_graph_clustering(seed, n);
        }
    }

    #[test]
    fn prefers_heavy_edges() {
        // Triangle with weights 0-1: 1, 0-2: 100, 1-2: 50, clusters of two:
        // 0 and 1 both rate 2 first, so the weight-1 edge never merges.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(0, 2, 100);
        b.add_edge(1, 2, 50);
        let g = b.build();
        for seed in 0..20 {
            let grouping = cluster(&g, 2, seed);
            assert_eq!(grouping.groups, 2, "seed {seed}");
            assert_ne!(
                grouping.map[0], grouping.map[1],
                "seed {seed} merged the light edge"
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
        assert_eq!(
            cluster(&g, 150, 0).map,
            [0, 1],
            "a pair over the cap must stay apart"
        );
        assert_eq!(cluster(&g, 200, 0).map, [0, 0]);
    }

    #[test]
    fn isolated_vertices_stay_single() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(cluster(&g, u64::MAX, 1).map, [0, 1, 2]);
    }

    #[test]
    fn labeled_clustering_never_crosses_labels() {
        // Path 0-1-2-3 with labels [0,0,1,1]: edge 1-2 crosses and must not
        // be merged, whatever the join order.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 100); // heaviest, but crosses
        b.add_edge(2, 3, 1);
        let g = b.build();
        let labels = [0u32, 0, 1, 1];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let grouping = first_choice(&g, Some(&labels), u64::MAX, &mut rng, &Pool::new(1));
            assert_eq!(grouping.map, [0, 0, 1, 1], "seed {seed}");
        }
    }

    #[test]
    fn path_graph_clustering_is_valid() {
        // Clusters of two on a unit-weight path of 101 vertices: a vertex
        // left single found its target's cluster full, so it borders a
        // pair, and a pair borders at most two singles — at least 26
        // pairs form whatever the join order.
        let g = crate::gen::path(101);
        for seed in 0..5 {
            let level = clustering_properties(&g, None, 2, seed);
            level.graph.validate().unwrap();
            assert!(level.graph.num_vertices() <= 101 - 26, "seed {seed}");
        }
    }

    #[test]
    fn contract_square() {
        // Square 0-1-2-3-0 in clusters of two: (0,1) and (2,3) merge, so
        // the coarse graph is two vertices joined by an edge of weight 2
        // (edges 1-2 and 3-0 merge).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 10);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 10);
        b.add_edge(3, 0, 1);
        let g = b.build();
        let lvl = contract(&g, cluster(&g, 2, 0), &Pool::new(1));
        lvl.graph.validate().unwrap();
        assert_eq!(lvl.map, [0, 0, 1, 1]);
        assert_eq!(lvl.graph.num_vertices(), 2);
        assert_eq!(lvl.graph.num_edges(), 1);
        assert_eq!(lvl.graph.edges(0).next(), Some((1, 2)));
        assert_eq!(lvl.graph.vertex_weight(0), 2);
        assert_eq!(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn self_matched_vertices_survive() {
        // Vertex 2 has no candidate and stays a coarse vertex of its own.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let lvl = contract(&g, cluster(&g, u64::MAX, 0), &Pool::new(1));
        assert_eq!(lvl.graph.num_vertices(), 2);
        assert_eq!(lvl.graph.num_edges(), 0);
        assert_eq!(lvl.graph.vertex_weight(lvl.map[2] as NodeId), 1);
    }

    #[test]
    fn weight_conserved_on_random_graph() {
        let mut b = GraphBuilder::new(200);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..600 {
            let u = rng.gen_range(0..200u32);
            let v = rng.gen_range(0..200u32);
            b.add_edge(u, v, rng.gen_range(1..5));
        }
        let g = b.build();
        let lvl = contract(&g, cluster(&g, u64::MAX, rng.gen()), &Pool::new(1));
        lvl.graph.validate().unwrap();
        assert_eq!(lvl.graph.total_vertex_weight(), g.total_vertex_weight());
        assert!(lvl.graph.num_vertices() < g.num_vertices());
        // Total edge weight = fine total minus edges interior to a cluster.
        let map = &lvl.map;
        let interior: u64 = (0..200u32)
            .flat_map(|v| {
                g.edges(v)
                    .filter(move |&(u, _)| u > v && map[u as usize] == map[v as usize])
            })
            .map(|(_, w)| w as u64)
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
        // Uncapped first choice leaves a third of the vertices (4 010).
        let n = 12_000;
        let mut b = GraphBuilder::new(n);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..3 * n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            b.add_edge(u, v, rng.gen_range(1..9));
        }
        let g = b.build();
        let grouping = cluster(&g, u64::MAX, rng.gen());
        let base = contract(&g, grouping.clone(), &Pool::new(1));
        base.graph.validate().unwrap();
        let cn = base.graph.num_vertices();
        assert!(cn > 2 * 1024, "{cn} coarse vertices");
        for t in [2, 4] {
            let lvl = contract(&g, grouping.clone(), &Pool::new(t));
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

    /// The cold descent of `g` under the advisor's `cfg`, stepped as
    /// `vcycle` steps it at run 0's seed, level by level, every vertex's
    /// one candidate scan per step counted. Prints the descent and returns
    /// `(clustering steps, coarsest size, candidate scans)`.
    pub(crate) fn cold_descent<G: Incidence>(
        name: &str,
        g: G,
        cfg: &schism_core::SchismConfig,
    ) -> (usize, usize, usize) {
        use crate::partition::{cold_target, max_part_weight, PartitionerConfig};

        let pcfg = PartitionerConfig {
            k: cfg.k,
            seed: cfg.seed,
            epsilon: cfg.partitioner.epsilon,
            ..PartitionerConfig::default()
        };
        let seed = pcfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ pcfg.seed;
        let mut rng = StdRng::seed_from_u64(seed);
        let max_part = max_part_weight(g.total_vertex_weight(), pcfg.k, pcfg.epsilon);
        let pool = Pool::new(2);
        let (mut current, mut steps, mut scans) = (g, 0usize, 0usize);
        let mut sizes = vec![current.num_vertices()];
        while current.num_vertices() > cold_target(pcfg.k) && steps <= 64 {
            let n = current.num_vertices();
            let limit = current.cluster_cap(pcfg.k, max_part);
            let grouping = first_choice(&current, None, limit, &mut rng, &pool);
            steps += 1;
            scans += n;
            if ((n - grouping.groups) as f64) < 0.02 * n as f64 {
                break;
            }
            current = contract(&current, grouping, &pool).graph;
            sizes.push(current.num_vertices());
        }
        println!(
            "{name} seed 7, cold descent: {steps} clustering steps, \
             vertices per level {sizes:?}, {scans} partner scans"
        );
        (steps, current.num_vertices(), scans)
    }

    /// The counted claim on the graph the repo benchmark's `advisor_tpcc`
    /// partitions at trace seed 7 (`benchmark/src/advisor.rs::tpcc_spec`):
    /// the cold descent, as [`cold_descent`] counts it.
    #[test]
    fn clique_coarsening_counts() {
        use schism_core::{build_graph, CoAccess, SchismConfig};
        use schism_workload::tpcc::{self, TpccConfig};

        let workload = tpcc::generate(&TpccConfig {
            warehouses: 16,
            customers_per_district: 30,
            items: 1_000,
            init_orders_per_district: 30,
            num_txns: 44_000,
            seed: 7,
            ..TpccConfig::full(16)
        });
        let mut cfg = SchismConfig::new(8);
        cfg.tuple_sample = 0.05;
        let (train, _test) = workload.trace.split(cfg.train_fraction, cfg.seed ^ 0x7E57);
        let CoAccess::Clique(built) = build_graph(&workload, &train, &cfg).graph else {
            panic!("clique backend expected");
        };
        // The advisor links the library build of this crate, whose
        // `CsrGraph` is another type to this test build's: copy it over.
        let mut xadj = vec![0u32];
        let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
        for v in 0..built.num_vertices() as NodeId {
            adjncy.extend_from_slice(built.neighbors(v));
            adjwgt.extend_from_slice(built.edge_weights(v));
            xadj.push(adjncy.len() as u32);
        }
        let g = CsrGraph::from_parts(xadj, adjncy, adjwgt, built.vertex_weights().to_vec());
        // 4 steps, 373 085 → 78 vertices, 473 585 scans: the descent
        // reaches the cold target instead of stalling at the shrink floor.
        let (steps, coarsest, scans) = cold_descent("advisor_tpcc", g, &cfg);
        assert!(steps <= 5, "{steps} clustering steps");
        assert!(coarsest <= 192, "coarsest level of {coarsest} vertices");
        assert!(scans <= 500_000, "{scans} partner scans");
    }
}
