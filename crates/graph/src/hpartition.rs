//! The hypergraph side of the `Incidence` contract: what multilevel
//! partitioning under the (λ−1) connectivity metric needs beyond the shared
//! driver in [`crate::partition()`].
//!
//! Each phase re-derives, for nets instead of edges, only the part that
//! depends on the representation:
//!
//! 1. **Coarsening** is the shared first-choice clustering
//!    ([`crate::coarsen`]), scored by **heavy pins** — co-occurrence in
//!    heavy, small nets, each net scoring its pin pairs `w / (|e| − 1)`, so
//!    a 2-pin net counts like a full edge and a wide scan contributes
//!    little — with clusters capped at a twentieth of a part.
//! 2. **Contraction** remaps each net's pins into a [`HyperEdgeBuffer`],
//!    which deduplicates them and drops nets that collapse to one pin; the
//!    builder merges identical coarse pin sets.
//! 3. **The coarsest-level seed** is a clique expansion (cheap at coarsest
//!    size; wide nets expand as paths to stay linear), so the plain-graph
//!    recursive bisection is reused.
//! 4. **Move gains**: the gain of moving `v` from `a` to `b` is
//!    `Σ_e w(e)·[Λ(e,a)=1] − w(e)·[Λ(e,b)=0]` where `Λ(e,p)` counts `e`'s
//!    pins in part `p`, with the cut-net change as the second objective.
//!    Λ is kept per level as a [`NetTally`] — one row of `(part, pins)`
//!    per net, counted once and recounted only for the nets of a vertex
//!    that moved — so weighing a vertex reads its nets' rows instead of
//!    their pins.
//! 5. **The schedule** is longer: two more V-cycles after the cold descent,
//!    then the cut-net-primary final stage.
//!
//! The objective `Σ_e w(e)·(λ(e) − 1)` is the number of *extra* partitions
//! each transaction spans — for a transactional workload, a direct count of
//! distributed transactions (weighted by frequency), where the clique
//! model's edge cut is only a quadratic proxy.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use crate::hypergraph::{HyperEdgeBuffer, HyperGraph, HyperGraphBuilder};
use crate::incidence::{Incidence, MoveScratch};
use schism_par::{chunk_size, Pool};
use std::borrow::Cow;

/// Nets wider than this are skipped while *scoring* cluster candidates: a
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

/// Fixed-point scale for heavy-pin scores (`w·SCALE / (|e| − 1)`).
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

/// Λ for one level: for every net of at most [`GAIN_PIN_CAP`] pins, how
/// many of its pins each part holds under the current assignment.
///
/// A net's row lists the parts it spans as `(part, pins in part)` **in the
/// order its pins first reach them** — the order a walk over the pins
/// discovers the parts, which fixes the order `pull` first touches a part
/// and so how the refiner breaks a full tie. The row lives in the net's
/// own pin span (a net spans at most as many parts as it has pins), so the
/// table costs 8 B per pin plus 4 B per net and never `k × nets`; the
/// spans of wider nets stay unused. Cells past a row's end are zero, so two
/// tallies of the same assignment compare equal.
#[derive(Debug, PartialEq)]
pub struct NetTally {
    /// `cells[hg.pin_span(e)][..spanned[e]]` is net `e`'s row.
    cells: Vec<(u32, u32)>,
    /// λ(e): the number of parts net `e` spans, i.e. its row's length.
    spanned: Vec<u32>,
    /// Counting scratch: 1 + the row position of each part the net being
    /// counted has reached so far. All zero between nets.
    slot: Vec<u32>,
}

impl NetTally {
    /// Counts net `e`'s pins per part from scratch.
    fn recount(&mut self, hg: &HyperGraph, e: u32, assignment: &[u32]) {
        let row = &mut self.cells[hg.pin_span(e)];
        let mut len = 0usize;
        for &u in hg.pins(e) {
            let p = assignment[u as usize];
            match self.slot[p as usize] {
                0 => {
                    row[len] = (p, 1);
                    len += 1;
                    self.slot[p as usize] = len as u32;
                }
                at => row[at as usize - 1].1 += 1,
            }
        }
        for &(p, _) in &row[..len] {
            self.slot[p as usize] = 0;
        }
        let before = std::mem::replace(&mut self.spanned[e as usize], len as u32) as usize;
        if before > len {
            row[len..before].fill((0, 0));
        }
    }
}

/// Per-worker scratch for heavy-pin scoring: `score[u]` is valid when
/// `stamp[u]` equals the vertex currently being scored.
pub struct ScoreScratch {
    score: Vec<u64>,
    stamp: Vec<NodeId>,
    touched: Vec<NodeId>,
}

impl Incidence for HyperGraph {
    const COLD_VCYCLES: usize = 2;
    const CUT_NET_STAGE: bool = true;
    type Tally = NetTally;
    type Scratch = ScoreScratch;

    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn vertex_weights(&self) -> &[u32] {
        self.vertex_weights()
    }

    fn total_vertex_weight(&self) -> u64 {
        self.total_vertex_weight()
    }

    fn score_scratch(&self) -> ScoreScratch {
        let n = self.num_vertices();
        ScoreScratch {
            score: vec![0; n],
            stamp: vec![NodeId::MAX; n],
            touched: Vec::new(),
        }
    }

    /// Heavy pins: each co-pin `u` of `v`, in first-seen order, where
    /// every net up to [`SCORE_PIN_CAP`] pins credits each of `v`'s co-pins
    /// with `w·SCALE / (|e| − 1)`.
    fn candidates(&self, v: NodeId, s: &mut ScoreScratch, mut f: impl FnMut(NodeId, u64)) {
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

    /// A twentieth of a part, `total / (20·k)`, ten times tighter than the
    /// plain graph's half a part.
    ///
    /// The cap decides how sharply the placement separates TPC-C's old
    /// orders from new ones within a warehouse, and with it whether the
    /// explanation's attribute selection keeps `o_id` beside `o_w_id`. At a
    /// tenth of a part the `advisor_hyper` placement's `o_id` correlation
    /// straddles that bar, so the range scheme won on 11 of 20 workload
    /// seeds and hashing on the rest; at a twentieth it won on 59 of 60.
    /// The price is YCSB-E, whose hottest keys outweigh the cap and cannot
    /// cluster: over eight partitioner seeds of `table1_graph_sizes`' input
    /// the mean (λ−1) cost is 41 220, against 35 995 at a tenth, 40 746 at
    /// half a part and 39 538 under pair matching.
    fn cluster_cap(&self, k: u32, _max_part: u64) -> u64 {
        (self.total_vertex_weight() / (20 * u64::from(k))).clamp(1, u32::MAX as u64)
    }

    fn contract(&self, map: &[NodeId], vwgt: Vec<u32>, pool: &Pool) -> Self {
        contract_nets(self, map, vwgt, pool)
    }

    fn seed_graph(&self) -> Cow<'_, CsrGraph> {
        Cow::Owned(clique_expand(self))
    }

    fn tally(&self, assignment: &[u32], k: u32) -> NetTally {
        let mut tally = NetTally {
            cells: vec![(0, 0); self.num_pins()],
            spanned: vec![0; self.num_nets()],
            slot: vec![0; k as usize],
        };
        for e in 0..self.num_nets() as u32 {
            if self.pins(e).len() <= GAIN_PIN_CAP {
                tally.recount(self, e, assignment);
            }
        }
        tally
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
    ///
    /// Every net contributes through its tally row alone: the parts it
    /// spans, in first-pin order, and how many pins `own` holds.
    fn pull(
        &self,
        tally: &NetTally,
        assignment: &[u32],
        v: NodeId,
        s: &mut MoveScratch,
    ) -> (i64, i64) {
        let own = assignment[v as usize];
        s.touched.clear();
        let mut base = 0i64;
        let mut total = 0i64;
        let mut interior = 0i64;
        for &e in self.nets(v) {
            let span = self.pin_span(e);
            if span.len() > GAIN_PIN_CAP {
                continue;
            }
            let w = self.net_weight(e) as i64;
            let row = &tally.cells[span.start..span.start + tally.spanned[e as usize] as usize];
            let mut own_pins = 0;
            for &(p, pins) in row {
                if p == own {
                    own_pins = pins;
                    continue;
                }
                if s.toward[p as usize] == 0 {
                    s.touched.push(p);
                }
                s.toward[p as usize] += w as u64;
            }
            if own_pins == 1 {
                base += w;
                if let [(a, _), (b, _)] = *row {
                    // Span is exactly {own, q}: landing on q un-cuts the net.
                    let q = if a == own { b } else { a };
                    s.uncut[q as usize] += w as u64;
                }
            } else if row.len() == 1 {
                // Fully internal with other pins in `own`: any move cuts it.
                interior += w;
            }
            total += w;
        }
        (total - base, interior)
    }

    /// Recounts the rows of `v`'s nets — as many pin visits as one counting
    /// pull of `v`, paid once per move — and reports their pins: a co-pin's
    /// pull reads those rows, and even a row whose counts it ignores can
    /// change its first-pin order.
    fn moved(
        &self,
        tally: &mut NetTally,
        assignment: &[u32],
        v: NodeId,
        mut report: impl FnMut(NodeId),
    ) {
        for &e in self.nets(v) {
            let pins = self.pins(e);
            if pins.len() <= GAIN_PIN_CAP {
                tally.recount(self, e, assignment);
                pins.iter().for_each(|&u| report(u));
            }
        }
    }

    fn cost(&self, assignment: &[u32]) -> u64 {
        connectivity_cost(self, assignment)
    }
}

/// The hypergraph half of [`crate::coarsen::contract`]: each net's pins
/// are remapped into a [`HyperEdgeBuffer`] — which deduplicates them and
/// drops a net that collapsed to a single pin — over net chunks (parallel,
/// pure), and the builder takes the buffers over in chunk order; it merges
/// identical coarse pin sets with summed weights, and its canonical form
/// makes the result independent of chunk decomposition.
fn contract_nets(hg: &HyperGraph, map: &[NodeId], vwgt: Vec<u32>, pool: &Pool) -> HyperGraph {
    let m = hg.num_nets();
    let chunk = chunk_size(m, pool.threads());
    let parts: Vec<HyperEdgeBuffer> = pool.scope_chunks(m, chunk, |range| {
        let (mut out, mut pins) = (HyperEdgeBuffer::new(), Vec::new());
        for e in range.map(|e| e as u32) {
            pins.clear();
            pins.extend(hg.pins(e).iter().map(|&p| map[p as usize]));
            out.push(&pins, hg.net_weight(e));
        }
        out
    });

    let mut b = HyperGraphBuilder::new(vwgt.len());
    for (cv, &w) in vwgt.iter().enumerate() {
        b.set_vertex_weight(cv as NodeId, w);
    }
    for part in parts {
        b.append_nets(part, |v| v);
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

/// The pull as it was before there was a tally: every net's pins counted
/// per part on every call. The reference the tally-backed
/// [`Incidence::pull`] is tested against.
#[cfg(test)]
pub(crate) fn recounting_pull(
    hg: &HyperGraph,
    assignment: &[u32],
    v: NodeId,
    s: &mut MoveScratch,
) -> (i64, i64) {
    let own = assignment[v as usize];
    let mut net_cnt = vec![0u32; s.toward.len()];
    let mut net_parts: Vec<u32> = Vec::new();
    s.touched.clear();
    let mut base = 0i64;
    let mut total = 0i64;
    let mut interior = 0i64;
    for &e in hg.nets(v) {
        let ps = hg.pins(e);
        if ps.len() > GAIN_PIN_CAP {
            continue;
        }
        let w = hg.net_weight(e) as i64;
        net_parts.clear();
        for &u in ps {
            let p = assignment[u as usize];
            if net_cnt[p as usize] == 0 {
                net_parts.push(p);
            }
            net_cnt[p as usize] += 1;
        }
        if net_cnt[own as usize] == 1 {
            base += w;
            if net_parts.len() == 2 {
                let q = if net_parts[0] == own {
                    net_parts[1]
                } else {
                    net_parts[0]
                };
                s.uncut[q as usize] += w as u64;
            }
        } else if net_parts.len() == 1 {
            interior += w;
        }
        total += w;
        for &p in &net_parts {
            if p != own {
                if s.toward[p as usize] == 0 {
                    s.touched.push(p);
                }
                s.toward[p as usize] += w as u64;
            }
            net_cnt[p as usize] = 0;
        }
    }
    (total - base, interior)
}

/// A random hypergraph for the differential tests here and in
/// [`crate::refine`]: `nets` nets of 2–40 pins with weights 1–3 (so equal
/// gains abound), `wide` nets above [`GAIN_PIN_CAP`], vertex weights 1–4.
#[cfg(test)]
pub(crate) fn random_hypergraph(
    rng: &mut rand::rngs::StdRng,
    n: usize,
    nets: usize,
    wide: usize,
) -> HyperGraph {
    use rand::Rng;
    assert!(wide == 0 || n > GAIN_PIN_CAP + 8);
    let mut b = HyperGraphBuilder::new(n);
    for v in 0..n as NodeId {
        b.set_vertex_weight(v, rng.gen_range(1..=4));
    }
    for _ in 0..nets {
        // Pins cluster around a centre so that nets overlap.
        let len = rng.gen_range(2..=40usize);
        let centre = rng.gen_range(0..n);
        let pins: Vec<NodeId> = (0..len)
            .map(|_| ((centre + rng.gen_range(0..2 * len)) % n) as NodeId)
            .collect();
        b.add_net(&pins, rng.gen_range(1..=3));
    }
    for _ in 0..wide {
        // Distinct by construction: duplicates would shrink it under the cap.
        let first = rng.gen_range(0..n);
        let pins: Vec<NodeId> = (0..GAIN_PIN_CAP + 1 + rng.gen_range(0..8usize))
            .map(|i| ((first + i) % n) as NodeId)
            .collect();
        b.add_net(&pins, rng.gen_range(1..=3));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::tests::{clustering_properties, cold_descent, random_eligibility};
    use crate::metrics::part_weights;
    use crate::partition::{partition, partition_warm, PartitionerConfig};
    use crate::refine::{enforce_balance, kway_greedy_refine};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        kway_greedy_refine(&hg, &mut assignment, 2, cap, false, &Pool::new(1));
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

    /// Everything `pull` hands the refiner, `touched` in order.
    type Pulled = ((i64, i64), Vec<(u32, u64, u64)>);

    fn pulled(s: &mut MoveScratch, stay_interior: (i64, i64)) -> Pulled {
        let per_part = s
            .touched
            .iter()
            .map(|&p| (p, s.toward[p as usize], s.uncut[p as usize]))
            .collect();
        s.reset();
        (stay_interior, per_part)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The tally-backed pull is the recounting pull — `stay`,
        /// `interior`, every `toward[p]` / `uncut[p]`, and `touched` in
        /// order — on a random assignment and after every one of a random
        /// sequence of moves; and a vertex `moved` does not report pulls
        /// what it pulled before the move.
        #[test]
        fn tally_pull_matches_recounting_pull(
            seed in 0..u64::MAX,
            k in 2..=16u32,
            wide in 0..3usize,
            nets in 1..120usize,
            moves in 1..24usize,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = if wide > 0 { GAIN_PIN_CAP + 40 } else { rng.gen_range(8..160) };
            let hg = random_hypergraph(&mut rng, n, nets, wide);
            hg.validate().unwrap();
            let mut assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            let mut tally = hg.tally(&assignment, k);
            let mut s = MoveScratch::new(k as usize);
            let reference = |assignment: &[u32], s: &mut MoveScratch| -> Vec<Pulled> {
                (0..n as NodeId)
                    .map(|v| {
                        let out = recounting_pull(&hg, assignment, v, s);
                        pulled(s, out)
                    })
                    .collect()
            };
            let mut want = reference(&assignment, &mut s);
            for step in 0..=moves {
                for v in 0..n as NodeId {
                    let out = hg.pull(&tally, &assignment, v, &mut s);
                    prop_assert_eq!(&pulled(&mut s, out), &want[v as usize], "vertex {}, step {}", v, step);
                }
                let v = rng.gen_range(0..n);
                assignment[v] = (assignment[v] + rng.gen_range(1..k)) % k;
                let mut reported = vec![false; n];
                hg.moved(&mut tally, &assignment, v as NodeId, |u| reported[u as usize] = true);
                reported[v] = true;
                prop_assert!(tally == hg.tally(&assignment, k), "tally drifted at step {}", step);
                let after = reference(&assignment, &mut s);
                for u in (0..n).filter(|&u| !reported[u]) {
                    prop_assert_eq!(&after[u], &want[u], "unreported vertex {} changed at step {}", u, step);
                }
                want = after;
            }
        }
    }

    /// [`clustering_properties`] on a random hypergraph of `n` vertices,
    /// `wide` of its nets too wide to score.
    fn random_hypergraph_clustering(seed: u64, n: usize, wide: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hg = random_hypergraph(&mut rng, n, n / 3, wide);
        let (labels, limit) = random_eligibility(&mut rng, n, hg.total_vertex_weight());
        let level = clustering_properties(&hg, labels.as_deref(), limit, rng.gen());
        level.graph.validate().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Over 4 096 vertices: below that, `chunk_size`'s 1 024-vertex
        /// floor gives pools of 1, 2 and 4 the same chunks, and a rating
        /// that depended on them would go unseen.
        #[test]
        fn first_choice_clustering_matches_its_oracle(
            seed in 0..u64::MAX,
            n in 4_200..4_600usize,
            wide in 0..3usize,
        ) {
            random_hypergraph_clustering(seed, n, wide);
        }

        /// Small hypergraphs, where whole neighbourhoods tie.
        #[test]
        fn small_clusterings_match_their_oracle(seed in 0..u64::MAX, n in 2..80usize) {
            random_hypergraph_clustering(seed, n, 0);
        }
    }

    /// The counted claim, on the hypergraph the repo benchmark's
    /// `advisor_hyper` partitions at trace seed 7 (built as
    /// `benches/partitioner.rs::bench_partition_hyper` builds it): the cold
    /// descent stepped as `vcycle` steps it ([`cold_descent`]).
    #[test]
    fn hyper_coarsening_counts() {
        use schism_core::{build_graph, CoAccess, GraphBackend, SchismConfig};
        use schism_workload::tpcc::{self, TpccConfig};

        let mut cfg = SchismConfig::new(8);
        cfg.tuple_sample = 1.0;
        cfg.blanket_threshold = usize::MAX;
        cfg.replication = false;
        cfg.graph_backend = GraphBackend::Hypergraph;
        let workload = tpcc::generate(&TpccConfig {
            num_txns: 20_000,
            seed: 7,
            ..TpccConfig::full(50)
        });
        let (train, _test) = workload.trace.split(cfg.train_fraction, cfg.seed ^ 0x7E57);
        let CoAccess::Hyper(built) = build_graph(&workload, &train, &cfg).graph else {
            panic!("hypergraph backend expected");
        };
        // The advisor links the library build of this crate, whose
        // `HyperGraph` is another type to this test build's: copy it over.
        let mut b = HyperGraphBuilder::new(built.num_vertices());
        for (v, &w) in built.vertex_weights().iter().enumerate() {
            b.set_vertex_weight(v as NodeId, w);
        }
        for e in 0..built.num_nets() as u32 {
            b.add_net(built.pins(e), built.net_weight(e));
        }
        let (steps, coarsest, scans) = cold_descent("advisor_hyper", b.build(), &cfg);
        assert!(steps <= 8, "{steps} clustering steps");
        assert!(coarsest <= 1_500, "coarsest level of {coarsest} vertices");
        assert!(scans <= 80_000, "{scans} partner scans");
    }
}
