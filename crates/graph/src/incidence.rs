//! The incidence contract: everything the multilevel driver needs to know
//! about the structure it partitions.
//!
//! [`crate::partition()`], [`crate::coarsen`] and [`crate::refine`] are
//! written once against [`Incidence`] and statically dispatched to its two
//! implementations — [`CsrGraph`] (below; edge-cut objective) and
//! [`crate::HyperGraph`] (in `hpartition.rs`; (λ−1) connectivity with a
//! cut-net tie-break). A clique edge is a 2-pin net, so the *protocols* —
//! coarse ids and weights, frozen-scan / sorted-apply refinement,
//! cheapest-damage eviction, the V-cycle schedule — are shared; an
//! implementation only supplies what genuinely depends on the
//! representation: how coarsening scores and caps, how a grouping
//! contracts, which plain graph seeds the coarsest level, how strongly a
//! vertex is pulled toward each part, and the cost.
//!
//! One coarsening step, two scorers, two caps. Both structures coarsen by
//! first-choice clustering ([`crate::coarsen`]); an implementation supplies
//! the scorer that rates a vertex's candidates ([`Incidence::candidates`]:
//! edge weight per adjacency entry for a plain graph, heavy pins for a
//! hypergraph) and the cap on a cluster's weight
//! ([`Incidence::cluster_cap`]: half a part, a twentieth of a part).
//!
//! Refinement evaluates the same vertex many times per level, so the pull
//! comes with a per-level **tally** ([`Incidence::Tally`]): whatever the
//! implementation wants to compute once per level and per *move* instead
//! of once per *evaluation*. [`Incidence::pull`] reads it,
//! [`Incidence::moved`] brings it up to date after a move and names every
//! vertex whose pull that move can have changed — which is what lets the
//! refiner skip the vertices nothing happened to. A plain graph's pull is
//! already one walk over the adjacency, so its tally is `()`.
//!
//! The trait is `pub` only so the generic entry points can name it in their
//! bounds; the module is private, so it cannot be named or implemented
//! outside this crate.

use crate::csr::{CsrGraph, NodeId};
use schism_par::Pool;
use std::borrow::Cow;

/// Per-worker scratch for weighing the moves of one vertex: the output of
/// [`Incidence::pull`]. All vectors are `O(k)`; [`MoveScratch::reset`]
/// re-zeroes only the touched entries so one scratch serves a whole vertex
/// chunk.
pub struct MoveScratch {
    /// `toward[p]`: how strongly the vertex is attracted to part `p` (edge
    /// weight into `p`; weight of nets that already have a pin in `p`).
    /// Never set for the vertex's own part.
    pub(crate) toward: Vec<u64>,
    /// `uncut[p]`: weight of nets that become internal if the vertex moves
    /// to `p` — the cut-net objective. Left zero by plain graphs.
    pub(crate) uncut: Vec<u64>,
    /// Parts with an entry in `toward`, in first-seen order.
    pub(crate) touched: Vec<u32>,
}

impl MoveScratch {
    pub(crate) fn new(k: usize) -> Self {
        Self {
            toward: vec![0; k],
            uncut: vec![0; k],
            touched: Vec::with_capacity(16),
        }
    }

    pub(crate) fn reset(&mut self) {
        for &p in &self.touched {
            self.toward[p as usize] = 0;
            self.uncut[p as usize] = 0;
        }
    }
}

/// What the multilevel driver needs from a vertex–structure incidence.
pub trait Incidence: Sized + Sync {
    /// Label-respecting V-cycles appended to a cold run, before the
    /// cut-net stage.
    const COLD_VCYCLES: usize;
    /// Whether cold and warm runs end with one cut-net-primary V-cycle and
    /// a flat cut-net polish.
    const CUT_NET_STAGE: bool;
    /// What refinement remembers about one level under the current
    /// assignment; see [`Incidence::tally`].
    type Tally: PartialEq + Sync;

    /// Per-worker scratch of [`Incidence::candidates`].
    type Scratch;

    fn num_vertices(&self) -> usize;
    fn vertex_weights(&self) -> &[u32];
    fn total_vertex_weight(&self) -> u64;

    fn vertex_weight(&self, v: NodeId) -> u32 {
        self.vertex_weights()[v as usize]
    }

    /// A fresh scratch for [`Incidence::candidates`].
    fn score_scratch(&self) -> Self::Scratch;

    /// First-choice clustering's scorer: calls `f(u, score)` once per
    /// candidate `u != v` of `v`, the higher the score the stronger the
    /// pull. A pure function of the structure and `v`.
    fn candidates(&self, v: NodeId, s: &mut Self::Scratch, f: impl FnMut(NodeId, u64));

    /// Cap on the weight of one cluster of a coarsening step, from `k` and
    /// `max_part`, the balance cap of a `k`-way partition: a fraction of a
    /// part, so balance stays achievable, and never above `u32::MAX`, so a
    /// coarse vertex weight holds its members' mass.
    fn cluster_cap(&self, k: u32, max_part: u64) -> u64;

    /// The structure induced by merging every group: `map` sends fine to
    /// coarse ids and `vwgt` holds the coarse vertex weights. Must be
    /// independent of `pool`'s size.
    fn contract(&self, map: &[NodeId], vwgt: Vec<u32>, pool: &Pool) -> Self;

    /// The plain graph recursive bisection seeds the coarsest level on.
    fn seed_graph(&self) -> Cow<'_, CsrGraph>;

    /// The tally of `assignment` (labels in `0..k`): a pure function of
    /// the two, so a tally kept current through [`Incidence::moved`] always
    /// equals a fresh one.
    fn tally(&self, assignment: &[u32], k: u32) -> Self::Tally;

    /// Fills `s.toward` / `s.uncut` / `s.touched` for `v` under
    /// `assignment` and returns `(stay, interior)`: the attraction of `v`'s
    /// own part (a move to `p` gains `toward[p] − stay`) and the weight of
    /// nets any move newly cuts (a move to `p` un-cuts `uncut[p] −
    /// interior`). `tally` must be current for `assignment`. The caller
    /// calls [`MoveScratch::reset`] afterwards.
    fn pull(
        &self,
        tally: &Self::Tally,
        assignment: &[u32],
        v: NodeId,
        s: &mut MoveScratch,
    ) -> (i64, i64);

    /// Brings `tally` up to date after `assignment[v]` changed and calls
    /// `report(u)` at least once for every other vertex whose
    /// [`Incidence::pull`] reads `v`'s label (`v` itself may be among the
    /// reported). A vertex that is neither `v` nor reported pulls exactly
    /// as it did before the move.
    fn moved(
        &self,
        tally: &mut Self::Tally,
        assignment: &[u32],
        v: NodeId,
        report: impl FnMut(NodeId),
    );

    /// The objective reported as [`crate::Partitioning::edge_cut`].
    fn cost(&self, assignment: &[u32]) -> u64;
}

impl Incidence for CsrGraph {
    const COLD_VCYCLES: usize = 0;
    const CUT_NET_STAGE: bool = false;
    type Tally = ();
    type Scratch = ();

    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    fn vertex_weights(&self) -> &[u32] {
        self.vertex_weights()
    }

    fn total_vertex_weight(&self) -> u64 {
        self.total_vertex_weight()
    }

    fn score_scratch(&self) {}

    /// Each neighbour, scored by the weight of its edge.
    fn candidates(&self, v: NodeId, _: &mut (), mut f: impl FnMut(NodeId, u64)) {
        for (u, w) in self.edges(v) {
            f(u, u64::from(w));
        }
    }

    /// Half a part. A twentieth, the hypergraph's cap, leaves the clique
    /// of a TPC-C transaction too little room: on fig4's tpcc-2w-sampled
    /// row the choice fell from range predicates at 9.9 % to hashing at
    /// 50.6 %.
    fn cluster_cap(&self, _k: u32, max_part: u64) -> u64 {
        (max_part / 2).clamp(1, u32::MAX as u64)
    }

    fn contract(&self, map: &[NodeId], vwgt: Vec<u32>, pool: &Pool) -> Self {
        crate::coarsen::contract_adjacency(self, map, vwgt, pool)
    }

    fn seed_graph(&self) -> Cow<'_, CsrGraph> {
        Cow::Borrowed(self)
    }

    fn tally(&self, _: &[u32], _: u32) {}

    fn pull(&self, _: &(), assignment: &[u32], v: NodeId, s: &mut MoveScratch) -> (i64, i64) {
        let own = assignment[v as usize];
        s.touched.clear();
        let mut stay = 0i64;
        for (u, w) in self.edges(v) {
            let p = assignment[u as usize];
            if p == own {
                stay += w as i64;
                continue;
            }
            if s.toward[p as usize] == 0 {
                s.touched.push(p);
            }
            s.toward[p as usize] += w as u64;
        }
        (stay, 0)
    }

    fn moved(&self, _: &mut (), _: &[u32], v: NodeId, report: impl FnMut(NodeId)) {
        self.neighbors(v).iter().copied().for_each(report);
    }

    fn cost(&self, assignment: &[u32]) -> u64 {
        crate::metrics::edge_cut(self, assignment)
    }
}
