//! The hypergraph side of the `Incidence` contract: what multilevel
//! partitioning under the (λ−1) connectivity metric needs beyond the shared
//! driver in [`crate::partition()`].
//!
//! Each phase re-derives, for nets instead of edges, only the part that
//! depends on the representation:
//!
//! 1. **Matching** scores partners by **heavy pins**: a vertex prefers the
//!    partner it co-occurs with in heavy, small nets (each net scores its
//!    pin pairs `w / (|e| − 1)`, so a 2-pin net counts like a full edge and
//!    a wide scan contributes little).
//! 2. **Contraction** remaps and deduplicates pins per net, drops nets that
//!    collapse to one pin and merges identical coarse pin sets.
//! 3. **The coarsest-level seed** is a clique expansion (cheap at coarsest
//!    size; wide nets expand as paths to stay linear), so the plain-graph
//!    recursive bisection is reused.
//! 4. **Move gains**: the gain of moving `v` from `a` to `b` is
//!    `Σ_e w(e)·[Λ(e,a)=1] − w(e)·[Λ(e,b)=0]` where `Λ(e,p)` counts `e`'s
//!    pins in part `p`, with the cut-net change as the second objective.
//! 5. **The schedule** is longer: two more V-cycles after the cold descent,
//!    then the cut-net-primary final stage.
//!
//! The objective `Σ_e w(e)·(λ(e) − 1)` is the number of *extra* partitions
//! each transaction spans — for a transactional workload, a direct count of
//! distributed transactions (weighted by frequency), where the clique
//! model's edge cut is only a quadratic proxy.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use crate::hypergraph::{HyperGraph, HyperGraphBuilder};
use crate::incidence::{Incidence, MoveScratch};
use schism_par::{chunk_size, Pool};
use std::borrow::Cow;

/// Nets wider than this are skipped while *scoring* match candidates: a
/// wide net's per-pair weight `w / (|e| − 1)` is negligible, and skipping
/// keeps the scoring pass linear in pins rather than quadratic.
const SCORE_PIN_CAP: usize = 64;

/// Nets wider than this are treated as connectivity-neutral during
/// refinement gain evaluation: with hundreds of pins a net spans both the
/// source and destination of any single-vertex move with near certainty,
/// so its true gain contribution is ~0 and counting its pins per candidate
/// would make the boundary scan quadratic. The reported cost
/// ([`connectivity_cost`]) is always exact.
const GAIN_PIN_CAP: usize = 512;

/// Nets wider than this expand as paths (not cliques) when the coarsest
/// hypergraph is converted for initial partitioning.
const EXPAND_PIN_CAP: usize = 64;

/// Fixed-point scale for heavy-pin match scores (`w·SCALE / (|e| − 1)`).
const SCORE_SCALE: u64 = 256;

/// The (λ−1) connectivity cost: `Σ_e w(e) · (parts_spanned(e) − 1)`.
/// Zero iff every net is internal to one partition.
pub fn connectivity_cost(hg: &HyperGraph, assignment: &[u32]) -> u64 {
    debug_assert_eq!(assignment.len(), hg.num_vertices());
    let mut seen: Vec<u32> = Vec::with_capacity(16);
    let mut cost = 0u64;
    for e in 0..hg.num_nets() as u32 {
        seen.clear();
        for &p in hg.pins(e) {
            let part = assignment[p as usize];
            if !seen.contains(&part) {
                seen.push(part);
            }
        }
        cost += hg.net_weight(e) as u64 * (seen.len() as u64 - 1);
    }
    cost
}

/// Per-worker scratch for heavy-pin match scoring: `score[u]` is valid when
/// `stamp[u]` equals the vertex currently being scored.
pub struct ScoreScratch {
    score: Vec<u64>,
    stamp: Vec<NodeId>,
    touched: Vec<NodeId>,
}

impl Incidence for HyperGraph {
    const COLD_VCYCLES: usize = 2;
    const CUT_NET_STAGE: bool = true;
    type PartnerScratch = ScoreScratch;

    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn vertex_weight(&self, v: NodeId) -> u32 {
        self.vertex_weight(v)
    }

    fn total_vertex_weight(&self) -> u64 {
        self.total_vertex_weight()
    }

    fn partner_scratch(&self) -> ScoreScratch {
        let n = self.num_vertices();
        ScoreScratch {
            score: vec![0; n],
            stamp: vec![NodeId::MAX; n],
            touched: Vec::new(),
        }
    }

    /// Heavy-pin scoring: every net up to [`SCORE_PIN_CAP`] pins credits
    /// each of `v`'s co-pins with `w·SCALE / (|e| − 1)`.
    fn for_each_partner(&self, v: NodeId, s: &mut ScoreScratch, mut f: impl FnMut(NodeId, u64)) {
        s.touched.clear();
        for &e in self.nets(v) {
            let ps = self.pins(e);
            if ps.len() > SCORE_PIN_CAP {
                continue;
            }
            let inc = self.net_weight(e) as u64 * SCORE_SCALE / (ps.len() as u64 - 1);
            for &u in ps {
                if u == v {
                    continue;
                }
                if s.stamp[u as usize] != v {
                    s.stamp[u as usize] = v;
                    s.score[u as usize] = 0;
                    s.touched.push(u);
                }
                s.score[u as usize] += inc;
            }
        }
        for &u in &s.touched {
            f(u, s.score[u as usize]);
        }
    }

    /// Another vertex reachable through a shared pin — the hypergraph
    /// analog of the METIS star fix (replication stars leave every
    /// replica's partner taken). Bounded scans keep hubs from making this
    /// quadratic.
    fn two_hop(&self, v: NodeId, mut accept: impl FnMut(NodeId) -> bool) -> Option<NodeId> {
        let co_pins = self.nets(v).iter().flat_map(|&e| self.pins(e));
        for &u in co_pins.filter(|&&u| u != v).take(16) {
            for &e2 in self.nets(u).iter().take(8) {
                for &w2 in self.pins(e2).iter().take(32) {
                    if accept(w2) {
                        return Some(w2);
                    }
                }
            }
        }
        None
    }

    fn contract(&self, _mate: &[NodeId], map: &[NodeId], vwgt: Vec<u32>, pool: &Pool) -> Self {
        contract_nets(self, map, vwgt, pool)
    }

    fn seed_graph(&self) -> Cow<'_, CsrGraph> {
        Cow::Owned(clique_expand(self))
    }

    /// Accumulates, over `v`'s nets (up to [`GAIN_PIN_CAP`]), the
    /// ingredients of every (λ−1) move gain: `base` (weight of nets where
    /// `v` is the last pin in its own part — moving `v` anywhere un-spans
    /// them), `total` (weight of all considered nets), and per-part
    /// `toward` (weight of nets already spanning that part — moving there
    /// costs nothing for them). The gain of `a → b` is then `base − (total
    /// − toward[b])`, i.e. `toward[b] − stay` with `stay = total − base`.
    ///
    /// Alongside, it gathers the *cut-net* objective — the number of nets
    /// spanning more than one part, i.e. exactly the distributed
    /// transactions a placement produces: `uncut[p]` (nets un-cut by moving
    /// `v` to `p`) and the returned `interior` (weight of nets fully inside
    /// `own` with more pins than `v` — any move newly cuts them).
    fn pull(&self, assignment: &[u32], v: NodeId, s: &mut MoveScratch) -> (i64, i64) {
        let own = assignment[v as usize];
        s.touched.clear();
        let mut base = 0i64;
        let mut total = 0i64;
        let mut interior = 0i64;
        for &e in self.nets(v) {
            let ps = self.pins(e);
            if ps.len() > GAIN_PIN_CAP {
                continue;
            }
            let w = self.net_weight(e) as i64;
            s.net_parts.clear();
            for &u in ps {
                let p = assignment[u as usize];
                if s.net_cnt[p as usize] == 0 {
                    s.net_parts.push(p);
                }
                s.net_cnt[p as usize] += 1;
            }
            if s.net_cnt[own as usize] == 1 {
                base += w;
                if s.net_parts.len() == 2 {
                    // Span is exactly {own, q}: landing on q un-cuts the net.
                    let q = if s.net_parts[0] == own {
                        s.net_parts[1]
                    } else {
                        s.net_parts[0]
                    };
                    s.uncut[q as usize] += w as u64;
                }
            } else if s.net_parts.len() == 1 {
                // Fully internal with other pins in `own`: any move cuts it.
                interior += w;
            }
            total += w;
            for &p in &s.net_parts {
                if p != own {
                    if s.toward[p as usize] == 0 {
                        s.touched.push(p);
                    }
                    s.toward[p as usize] += w as u64;
                }
                s.net_cnt[p as usize] = 0;
            }
        }
        (total - base, interior)
    }

    fn cost(&self, assignment: &[u32]) -> u64 {
        connectivity_cost(self, assignment)
    }
}

/// The hypergraph half of [`crate::coarsen::contract`]: pins are remapped
/// and deduplicated per net, nets collapsing to a single pin vanish, and
/// identical coarse pin sets merge with summed weights (the builder's
/// canonical form makes the result independent of chunk decomposition).
fn contract_nets(hg: &HyperGraph, map: &[NodeId], vwgt: Vec<u32>, pool: &Pool) -> HyperGraph {
    // Remap pins over net chunks (parallel, pure), then stitch in chunk
    // order; the builder's final canonical sort makes the decomposition
    // invisible.
    struct ChunkNets {
        pins: Vec<NodeId>,
        nets: Vec<(u32, u32)>, // (len, weight)
    }
    let m = hg.num_nets();
    let chunk = chunk_size(m, pool.threads());
    let parts: Vec<ChunkNets> = pool.scope_chunks(m, chunk, |range| {
        let mut out = ChunkNets {
            pins: Vec::new(),
            nets: Vec::new(),
        };
        for e in range {
            let start = out.pins.len();
            out.pins
                .extend(hg.pins(e as u32).iter().map(|&p| map[p as usize]));
            let tail = &mut out.pins[start..];
            tail.sort_unstable();
            let mut write = 0usize;
            for read in 0..tail.len() {
                if read == 0 || tail[read] != tail[read - 1] {
                    tail[write] = tail[read];
                    write += 1;
                }
            }
            out.pins.truncate(start + write);
            if write < 2 {
                out.pins.truncate(start); // net collapsed into one vertex
            } else {
                out.nets.push((write as u32, hg.net_weight(e as u32)));
            }
        }
        out
    });

    let mut b = HyperGraphBuilder::new(vwgt.len());
    for (cv, &w) in vwgt.iter().enumerate() {
        b.set_vertex_weight(cv as NodeId, w);
    }
    for part in &parts {
        let mut offset = 0usize;
        for &(len, w) in &part.nets {
            b.add_net(&part.pins[offset..offset + len as usize], w);
            offset += len as usize;
        }
    }
    b.build()
}

/// Expands the (coarsest) hypergraph into a plain graph for initial
/// partitioning: small nets become cliques with per-pair weight
/// `2w/(|e|−1)` (floor 1, so a 2-pin net keeps its full weight), wide nets
/// become paths over their sorted pins — linear in pins, and enough to keep
/// their vertices attracted during bisection.
fn clique_expand(hg: &HyperGraph) -> CsrGraph {
    let n = hg.num_vertices();
    let mut b = GraphBuilder::new(n);
    for v in 0..n as NodeId {
        b.set_vertex_weight(v, hg.vertex_weight(v));
    }
    for e in 0..hg.num_nets() as u32 {
        let ps = hg.pins(e);
        let w = hg.net_weight(e) as u64;
        if ps.len() <= EXPAND_PIN_CAP {
            let ew = (2 * w / (ps.len() as u64 - 1)).clamp(1, u32::MAX as u64) as u32;
            for i in 0..ps.len() {
                for j in i + 1..ps.len() {
                    b.add_edge(ps[i], ps[j], ew);
                }
            }
        } else {
            let ew = w.clamp(1, u32::MAX as u64) as u32;
            for pair in ps.windows(2) {
                b.add_edge(pair[0], pair[1], ew);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::part_weights;
    use crate::partition::{partition, partition_warm, PartitionerConfig};
    use crate::refine::{enforce_balance, kway_greedy_refine};

    /// Two clusters of `size` vertices each: every consecutive triple inside
    /// a cluster is a net of weight 5, plus one 2-pin bridge net of weight 1.
    fn two_hyper_clusters(size: usize) -> HyperGraph {
        let mut b = HyperGraphBuilder::new(2 * size);
        for base in [0, size] {
            for i in 0..size - 2 {
                let v = (base + i) as NodeId;
                b.add_net(&[v, v + 1, v + 2], 5);
            }
        }
        b.add_net(&[(size - 1) as NodeId, size as NodeId], 1);
        b.build()
    }

    #[test]
    fn k1_is_trivial() {
        let hg = two_hyper_clusters(10);
        let p = partition(&hg, &PartitionerConfig::with_k(1));
        assert_eq!(p.edge_cut, 0);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_hypergraph() {
        let hg = HyperGraph::empty();
        let p = partition(&hg, &PartitionerConfig::with_k(4));
        assert!(p.assignment.is_empty());
        assert_eq!(p.part_weights, vec![0, 0, 0, 0]);
    }

    #[test]
    fn k_exceeds_n() {
        let mut b = HyperGraphBuilder::new(3);
        b.add_net(&[0, 1, 2], 1);
        let hg = b.build();
        let p = partition(&hg, &PartitionerConfig::with_k(8));
        assert_eq!(p.assignment, vec![0, 1, 2]);
    }

    #[test]
    fn two_clusters_optimal() {
        let hg = two_hyper_clusters(24);
        let p = partition(
            &hg,
            &PartitionerConfig {
                k: 2,
                seed: 11,
                ..Default::default()
            },
        );
        assert_eq!(p.edge_cut, 1, "must cut only the bridge net");
        assert_eq!(p.part_weights, vec![24, 24]);
    }

    #[test]
    fn connectivity_metric_counts_extra_parts() {
        let mut b = HyperGraphBuilder::new(6);
        b.add_net(&[0, 1, 2], 2); // spans parts {0} under the assignment below
        b.add_net(&[2, 3, 4], 3); // spans {0, 1}
        b.add_net(&[0, 3, 5], 1); // spans {0, 1, 2}
        let hg = b.build();
        let assignment = vec![0, 0, 0, 1, 1, 2];
        // Per net: weight * (spanned parts - 1) = 2*0 + 3*1 + 1*2.
        assert_eq!(connectivity_cost(&hg, &assignment), 5);
    }

    #[test]
    fn determinism() {
        let hg = two_hyper_clusters(40);
        let cfg = PartitionerConfig {
            k: 2,
            seed: 42,
            ..Default::default()
        };
        let p1 = partition(&hg, &cfg);
        let p2 = partition(&hg, &cfg);
        assert_eq!(p1.assignment, p2.assignment);
        assert_eq!(p1.edge_cut, p2.edge_cut);
    }

    #[test]
    fn identical_across_thread_counts() {
        // Random-ish hypergraph, cold and warm, at threads 1/2/4.
        let mut b = HyperGraphBuilder::new(300);
        let mut state = 5u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..400 {
            let len = 2 + (next() % 5) as usize;
            let pins: Vec<NodeId> = (0..len).map(|_| (next() % 300) as NodeId).collect();
            b.add_net(&pins, 1 + (next() % 7) as u32);
        }
        let hg = b.build();
        hg.validate().unwrap();
        let run = |threads: usize| {
            partition(
                &hg,
                &PartitionerConfig {
                    k: 3,
                    seed: 5,
                    threads,
                    ..Default::default()
                },
            )
        };
        let base = run(1);
        for t in [2, 4] {
            let p = run(t);
            assert_eq!(p.assignment, base.assignment, "threads {t} changed labels");
            assert_eq!(p.edge_cut, base.edge_cut, "threads {t} changed the cost");
        }
        let warm = |threads: usize| {
            partition_warm(
                &hg,
                &base.assignment,
                &PartitionerConfig {
                    k: 3,
                    seed: 5,
                    threads,
                    ..Default::default()
                },
            )
        };
        let wbase = warm(1);
        for t in [2, 4] {
            let p = warm(t);
            assert_eq!(p.assignment, wbase.assignment, "warm threads {t} differs");
            assert_eq!(p.edge_cut, wbase.edge_cut);
        }
    }

    #[test]
    fn warm_start_preserves_good_assignment() {
        let hg = two_hyper_clusters(24);
        let initial: Vec<u32> = (0..48).map(|v| (v >= 24) as u32).collect();
        let p = partition_warm(&hg, &initial, &PartitionerConfig::with_k(2));
        assert_eq!(p.edge_cut, 1);
        assert_eq!(p.assignment, initial, "optimal warm start must be stable");
    }

    #[test]
    fn warm_start_repairs_imbalance() {
        let hg = two_hyper_clusters(20);
        let initial = vec![0u32; 40];
        let p = partition_warm(&hg, &initial, &PartitionerConfig::with_k(4));
        let cap = ((hg.total_vertex_weight() as f64) * 1.05 / 4.0).ceil() as u64;
        for (i, &w) in p.part_weights.iter().enumerate() {
            assert!(w <= cap, "part {i} overweight: {w} > {cap}");
        }
        assert!(p.assignment.iter().any(|&a| a != 0));
    }

    #[test]
    fn warm_start_wraps_out_of_range_labels() {
        let mut b = HyperGraphBuilder::new(6);
        for v in 0..5u32 {
            b.add_net(&[v, v + 1], 1);
        }
        let hg = b.build();
        let initial = vec![7u32, 8, 9, 10, 11, 12];
        let p = partition_warm(&hg, &initial, &PartitionerConfig::with_k(2));
        assert!(p.assignment.iter().all(|&a| a < 2));
    }

    #[test]
    fn respects_balance_on_weighted_hypergraph() {
        let mut b = HyperGraphBuilder::new(100);
        for i in 0..98u32 {
            b.add_net(&[i, i + 1, i + 2], 1);
        }
        for i in 0..100u32 {
            b.set_vertex_weight(i, 1 + (i % 7));
        }
        let hg = b.build();
        let p = partition(
            &hg,
            &PartitionerConfig {
                k: 5,
                seed: 2,
                epsilon: 0.08,
                ..Default::default()
            },
        );
        let cap = ((hg.total_vertex_weight() as f64) * 1.08 / 5.0).ceil() as u64;
        for (i, &w) in p.part_weights.iter().enumerate() {
            assert!(w <= cap + 7, "part {i} overweight: {w} > {cap}");
        }
    }

    #[test]
    fn refiner_reduces_connectivity() {
        // Interleaved start on two clusters: refinement must untangle it.
        let hg = two_hyper_clusters(16);
        let mut assignment: Vec<u32> = (0..32).map(|v| v % 2).collect();
        let before = connectivity_cost(&hg, &assignment);
        let cap = ((hg.total_vertex_weight() as f64) * 1.05 / 2.0).ceil() as u64;
        kway_greedy_refine(&hg, &mut assignment, 2, cap, 10, false, &Pool::new(1));
        let after = connectivity_cost(&hg, &assignment);
        assert!(after < before, "refinement failed: {before} -> {after}");
    }

    #[test]
    fn enforce_balance_moves_overflow() {
        let hg = two_hyper_clusters(16);
        let mut assignment = vec![0u32; 32];
        let cap = 20;
        enforce_balance(&hg, &mut assignment, 2, cap, &Pool::new(1));
        let w = part_weights(&hg, &assignment, 2);
        assert!(w[0] <= cap && w[1] <= cap, "still overweight: {w:?}");
    }
}
