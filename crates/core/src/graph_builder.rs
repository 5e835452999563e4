//! From trace to graph (§4.1) with the scalability heuristics of §5.1 — as
//! a streaming, parallel, deterministic pipeline.
//!
//! The trace is consumed through [`TraceSource`] in transaction chunks, so
//! generators can feed the builder without materializing a
//! `Vec<Transaction>`, and both passes fan out over `schism-par`:
//!
//! - **Pass 1** (filter + count): each chunk builds partial
//!   `TupleId → TupleStats` maps — blanket-statement filtering,
//!   access/write counts and the coalescing signature —
//!   **hash-sharded by tuple** into four independent maps per worker
//!   thread. The maps are [`TupleMap`]s, hashed by a keyed SplitMix
//!   (one key per map) in place of std's SipHash. The shards merge in
//!   parallel (one ordered fold per shard,
//!   [`schism_par::Pool::reduce_shards`]) instead of serializing the
//!   whole fan-in through a single map. Counts merge by addition; the
//!   coalescing signature is a **commutative** sum of per-access hashes
//!   (see `TupleStats::signature`), so the merged maps are independent of
//!   both the chunking and the shard count. Tuple sampling and relevance
//!   filtering then prune each shard (also in parallel), and coalescing
//!   groups tuples over the globally sorted survivor list: tuples with the
//!   same access multiset share one vertex, which weighs their access
//!   count. Grouping writes each survivor's group id into its stats.
//! - **Pass 2** (nodes + edges): each chunk reads every accessed tuple's
//!   group from its pass-1 stats shard (a tuple with none was dropped)
//!   and emits its transaction-clique edges into a chunk-local
//!   [`EdgeBuffer`], allocating replica-star nodes
//!   *chunk-locally* (an encoded id per allocation). The stitch walks the
//!   buffers in chunk order, resolving each allocation to
//!   `replica_base[group] + n` where `n` counts prior allocations of that
//!   group — exactly the ids a sequential trace walk would hand out — and
//!   hands each resolved buffer, uncopied and unmerged, to the
//!   [`GraphBuilder`]. Its CSR assembly merges duplicates per vertex range
//!   on the same pool: every copy of an edge lands in one range, and rows
//!   are laid out by vertex id, so neither the range split nor the pool
//!   size can change a row (`schism_graph`'s `builder` module docs).
//!   Under [`SchismConfig::graph_backend`]` = Hypergraph` the same pass
//!   emits **one net per transaction** into a chunk-local
//!   [`HyperEdgeBuffer`] instead of the O(width²) clique — memory linear in
//!   the trace, so wide transactions need no blanket-scan dropping
//!   — and the stitch resolves pins through the identical allocation log
//!   into a [`HyperGraphBuilder`] (replica stars become 2-pin nets).
//!
//! **Determinism contract:** the resulting [`WorkloadGraph`] — tuples,
//! groups, CSR edges, weights, [`BuildStats`] — is bit-identical for every
//! thread count and for chunked vs. whole-trace ingestion (pinned by
//! `tests/parallel_determinism.rs` and [`WorkloadGraph::digest`]).
//! [`SchismConfig::threads`] trades wall-clock only, never output — and
//! neither does the edge-buffer compaction threshold (`COMPACT_EVERY`).

use crate::config::{GraphBackend, SchismConfig};
use crate::partition_phase::Placement;
use schism_graph::{
    CsrGraph, EdgeBuffer, GraphBuilder, HyperEdgeBuffer, HyperGraph, HyperGraphBuilder, NodeId,
};
use schism_par::{chunk_size, resolve_threads, Pool};
use schism_router::PartitionSet;
use schism_workload::{
    splitmix64, tuple_hash, Trace, TraceSource, TupleId, TupleMap, TupleState, Workload,
};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

/// Deterministic access-weighted sampling decision for a tuple: keep with
/// probability `min(1, p * accesses)`. Plain uniform sampling at e.g. 3%
/// would drop the hub tuples (warehouse/district rows in TPC-C) that carry
/// the entire co-access signal; weighting by access count keeps the
/// workload's mass while still discarding the long tail of barely-touched
/// tuples — which is what lets the paper partition TPC-C from a 0.5%
/// coverage sample (§6.1).
fn keep_tuple(t: TupleId, p: f64, accesses: u32, seed: u64) -> bool {
    let p_eff = p * accesses as f64;
    if p_eff >= 1.0 {
        return true;
    }
    let h = splitmix64(tuple_hash(t) ^ seed);
    (h as f64 / u64::MAX as f64) < p_eff
}

#[derive(Clone, Debug, Default)]
struct TupleStats {
    accesses: u32,
    writes: u32,
    /// Hash of the (transaction, kind) access **multiset**: the wrapping
    /// sum of one SplitMix hash per access. Tuples accessed by exactly the
    /// same transactions in the same way collide, which is what coalescing
    /// wants. The sum (rather than the old hash *chain*) makes the
    /// signature independent of accumulation order, so per-chunk partial
    /// signatures merge associatively — duplicate accesses still count
    /// (`2h ≠ h`), unlike an XOR, which would cancel them.
    signature: u64,
}

impl TupleStats {
    fn absorb(&mut self, other: &TupleStats) {
        self.accesses += other.accesses;
        self.writes += other.writes;
        self.signature = self.signature.wrapping_add(other.signature);
    }
}

/// The per-access signature contribution of transaction `idx` accessing a
/// tuple as a read (`write = false`) or write.
fn access_token(idx: usize, write: bool) -> u64 {
    splitmix64(((idx as u64) << 1 | u64::from(write)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The pass-1 merge shard a tuple's stats live in. Must be a pure function
/// of the tuple (never of chunk or thread), so every chunk's contributions
/// to one tuple meet in exactly one shard.
fn shard_of(t: TupleId, shards: usize) -> usize {
    (tuple_hash(t) % shards as u64) as usize
}

/// Pass-1 merge shards per worker: enough that the parallel merge keeps
/// the whole pool busy even when shard sizes skew.
const MERGE_SHARDS_PER_THREAD: usize = 4;

/// Only groups accessed by at least this many transactions get a replica
/// star (a singleton gains nothing from one).
const REPLICATION_MIN_ACCESSES: u32 = 2;

/// Edge-buffer compaction threshold: once buffered (pre-merge) edge or pin
/// insertions exceed this count, duplicates are eagerly merged to bound
/// peak memory. One buffered edge is 12 bytes, so `1 << 23` means ~100 MiB.
/// Chunk buffers — all held until the stitch consumes them — each compact
/// at `COMPACT_EVERY / n_chunks` (floored at [`CHUNK_COMPACT_FLOOR`]),
/// keeping the *aggregate* ceiling near `COMPACT_EVERY` as the build fans
/// out. The ceiling is soft: a buffer whose deduplicated content exceeds
/// its share keeps it, and then only re-compacts after doubling, to avoid
/// quadratic re-sorting. Any value produces the identical graph
/// (duplicate merging is associative); smaller values re-sort more often.
const COMPACT_EVERY: usize = 1 << 23;

/// Per-chunk compaction thresholds are not divided below this (or below
/// the aggregate threshold itself, when that is smaller).
const CHUNK_COMPACT_FLOOR: usize = 1 << 16;

fn visit_tuple(map: &mut TupleMap<TupleStats>, t: TupleId, write: bool, idx: usize) {
    let e = map.entry(t).or_default();
    e.accesses += 1;
    if write {
        e.writes += 1;
    }
    e.signature = e.signature.wrapping_add(access_token(idx, write));
}

/// One chunk's share of pass 1: one partial stats map per merge shard.
struct Pass1Partial {
    stats: Vec<TupleMap<TupleStats>>,
    dropped_scans: usize,
}

/// One chunk's share of pass 2: its co-access buffer with chunk-locally
/// encoded replica ids, plus the allocation log that resolves them.
struct Pass2Partial {
    /// Group of the `i`-th chunk-local replica allocation; edge endpoints /
    /// net pins `>= num_groups` encode an index into this log.
    alloc: Vec<NodeId>,
    buffer: ChunkBuffer,
    /// Widest transaction seen: maximum distinct-group member count after
    /// dedup and blanket filtering.
    widest: usize,
    /// Mid-stream compactions of `buffer`.
    compactions: usize,
}

/// A chunk's buffered co-access under [`SchismConfig::graph_backend`]:
/// transaction-clique edges, or one net per transaction.
enum ChunkBuffer {
    Clique(EdgeBuffer),
    Hyper(HyperEdgeBuffer),
}

impl ChunkBuffer {
    /// Buffered pre-merge units (edges or pins) for the doubling guard.
    fn len(&self) -> usize {
        match self {
            ChunkBuffer::Clique(edges) => edges.len(),
            ChunkBuffer::Hyper(nets) => nets.pin_count(),
        }
    }

    fn compact(&mut self) {
        match self {
            ChunkBuffer::Clique(edges) => edges.compact(),
            ChunkBuffer::Hyper(nets) => nets.compact(),
        }
    }
}

/// The stitch-side accumulator for whichever backend is active. Both
/// receive the identical vertex weights and replica-star connections over
/// the identical node ids, so the two representations describe the same
/// node set and the invariants tests can compare them directly.
enum BuildSink {
    Clique(GraphBuilder),
    Hyper(HyperGraphBuilder),
}

impl BuildSink {
    fn set_vertex_weight(&mut self, v: NodeId, w: u32) {
        match self {
            BuildSink::Clique(gb) => gb.set_vertex_weight(v, w),
            BuildSink::Hyper(hb) => hb.set_vertex_weight(v, w),
        }
    }

    /// Connects a replica to its group center: a weighted star edge under
    /// the clique backend, a 2-pin net under the hypergraph backend — a
    /// 2-pin net's (λ−1) is exactly a cut edge, so the §4.1 replication
    /// cost model carries over unchanged.
    fn add_star(&mut self, center: NodeId, replica: NodeId, w: u32) {
        match self {
            BuildSink::Clique(gb) => gb.add_edge(center, replica, w),
            BuildSink::Hyper(hb) => hb.add_net(&[center, replica], w),
        }
    }

    /// Buffered pre-merge units (edges or pins) for the doubling guard.
    fn pending(&self) -> usize {
        match self {
            BuildSink::Clique(gb) => gb.pending_edges(),
            BuildSink::Hyper(hb) => hb.pending_pins(),
        }
    }

    fn compact(&mut self) {
        match self {
            BuildSink::Clique(gb) => gb.compact(),
            BuildSink::Hyper(hb) => hb.compact(),
        }
    }
}

/// The co-access representation [`SchismConfig::graph_backend`] built. Both
/// describe the same node set with the same vertex weights.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoAccess {
    /// Transaction cliques plus weighted replica-star edges (§4.1).
    Clique(CsrGraph),
    /// One net per transaction plus 2-pin replica-star nets.
    Hyper(HyperGraph),
}

/// The workload graph plus everything needed to map a partitioning back to
/// tuples.
pub struct WorkloadGraph {
    /// The co-access structure over the node ids below.
    pub graph: CoAccess,
    /// Distinct surviving tuples.
    tuples: Vec<TupleId>,
    /// `group_of[i]` = group (base node) of `tuples[i]`.
    group_of: Vec<NodeId>,
    /// Number of groups; node ids `>= num_groups` are replica nodes.
    num_groups: usize,
    /// For every *planned* replica node (id - num_groups): its group.
    /// Replica ids are clustered per group — group `g`'s star occupies the
    /// contiguous id range its access count reserved.
    replica_owner: Vec<NodeId>,
    /// Whether the planned replica was actually allocated by a
    /// transaction (unused slots stay isolated with weight 1 and do not
    /// contribute to a tuple's partition set).
    replica_used: Vec<bool>,
    /// Per-group write count (for diagnostics).
    group_writes: Vec<u32>,
    /// Per-group access count (training-set weighting in the explanation
    /// phase: frequently-accessed tuples dominate, as in §5.2).
    group_accesses: Vec<u32>,
    /// Statistics of the build.
    pub stats: BuildStats,
}

/// Size/shape accounting (reported in Table 1 style output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Transactions the graph represents: every one the source holds.
    pub sampled_txns: usize,
    pub distinct_tuples: usize,
    pub groups: usize,
    pub exploded_groups: usize,
    pub nodes: usize,
    /// Distinct clique edges (0 under the hypergraph backend).
    pub edges: usize,
    /// Distinct nets after merging (0 under the clique backend).
    pub hyperedges: usize,
    /// Total pins across all nets (0 under the clique backend).
    pub pins: usize,
    /// Widest transaction: maximum distinct groups touched by one
    /// transaction after dedup and blanket filtering. Under the hypergraph
    /// backend with the blanket filter disabled this reports the scan
    /// widths the clique path would have had to drop.
    pub widest_txn: usize,
    pub dropped_scans: usize,
}

impl WorkloadGraph {
    /// Tuples represented in the graph.
    pub fn tuples(&self) -> &[TupleId] {
        &self.tuples
    }

    /// Node count: group centers plus planned replica nodes, whichever
    /// representation was built.
    pub fn num_nodes(&self) -> usize {
        self.num_groups + self.replica_owner.len()
    }

    /// Resolves a graph partitioning into per-tuple partition sets: the set
    /// of distinct partitions hosting the tuple's replicas (singleton when
    /// the partitioner decided not to replicate, §4.2). One set is built
    /// per group, from its base node and every used replica, and each of
    /// the group's tuples gets a copy.
    pub fn tuple_partitions(
        &self,
        assignment: &[u32],
    ) -> impl ExactSizeIterator<Item = (TupleId, PartitionSet)> + '_ {
        let mut per_group: Vec<PartitionSet> = assignment[..self.num_groups]
            .iter()
            .map(|&p| PartitionSet::single(p))
            .collect();
        for (ri, &g) in self.replica_owner.iter().enumerate() {
            if self.replica_used[ri] {
                per_group[g as usize].insert(assignment[self.num_groups + ri]);
            }
        }
        self.tuples
            .iter()
            .zip(&self.group_of)
            .map(move |(&t, &g)| (t, per_group[g as usize]))
    }

    /// [`WorkloadGraph::tuple_partitions`] collected into a [`Placement`]:
    /// the tuple list copied, one set per tuple, no map.
    pub fn placement(&self, assignment: &[u32]) -> Placement {
        self.tuple_partitions(assignment).collect()
    }

    /// The access count of every tuple in the graph, aligned with
    /// [`WorkloadGraph::tuples`].
    pub fn tuple_access_counts(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.group_of
            .iter()
            .map(|&g| self.group_accesses[g as usize])
    }

    /// Resolves any graph node (group center or replica) to its group.
    fn node_group(&self, node: usize) -> Option<usize> {
        if node < self.num_groups {
            Some(node)
        } else {
            self.replica_owner
                .get(node - self.num_groups)
                .map(|&g| g as usize)
        }
    }

    /// Order-sensitive 64-bit digest of everything the build produced:
    /// tuples, grouping, replica plan and usage, per-group counters, vertex
    /// weights, the full CSR adjacency, and [`BuildStats`]. Two builds are
    /// bit-identical iff their digests match (up to hash collisions); the
    /// determinism tests and the graph-build benchmark compare digests
    /// across thread counts and ingestion modes.
    pub fn digest(&self) -> u64 {
        let mut h = 0x53_43_48_49_53_4D_47_52u64;
        let mut put = |x: u64| h = splitmix64(h.rotate_left(1) ^ x);
        put(self.num_groups as u64);
        for t in &self.tuples {
            put(t.table as u64);
            put(t.row);
        }
        for &g in &self.group_of {
            put(g as u64);
        }
        for &g in &self.replica_owner {
            put(g as u64);
        }
        for &u in &self.replica_used {
            put(u as u64);
        }
        for &w in &self.group_writes {
            put(w as u64);
        }
        for &a in &self.group_accesses {
            put(a as u64);
        }
        let s = &self.stats;
        for x in [
            s.sampled_txns,
            s.distinct_tuples,
            s.groups,
            s.exploded_groups,
            s.nodes,
            s.edges,
            s.hyperedges,
            s.pins,
            s.widest_txn,
            s.dropped_scans,
        ] {
            put(x as u64);
        }
        match &self.graph {
            CoAccess::Clique(g) => {
                for v in 0..g.num_vertices() as NodeId {
                    put(u64::from(g.vertex_weight(v)));
                    for (u, w) in g.edges(v) {
                        put((u64::from(u)) << 32 | u64::from(w));
                    }
                }
            }
            CoAccess::Hyper(hg) => {
                for v in 0..hg.num_vertices() as NodeId {
                    put(u64::from(hg.vertex_weight(v)));
                }
                for e in 0..hg.num_nets() as u32 {
                    put(u64::from(hg.net_weight(e)));
                    for &p in hg.pins(e) {
                        put(u64::from(p));
                    }
                }
            }
        }
        h
    }

    /// Builds a per-node initial assignment from a previous per-tuple
    /// placement — the warm start for incremental repartitioning.
    ///
    /// Each group takes the majority previous *primary* partition of its
    /// member tuples; a group's **used** replica nodes seed onto the extra
    /// partitions its tuples already replicated to (majority order), so a
    /// tuple the previous plan replicated starts the refinement already
    /// spread — without this, hot tuples oscillate replicated↔single
    /// between incremental repartitions because every replica node starts
    /// on the group label and the refiner must rediscover the spread from
    /// scratch each time. Unused replica slots stay on the group label.
    /// Groups whose tuples were never seen before take the edge-weighted
    /// majority label of their graph neighbors (label propagation, up to
    /// three sweeps) so a newly-hot co-access cluster seeds onto *one*
    /// partition rather than being scattered; only groups with no labeled
    /// neighbors at all fall back to the currently lightest partition.
    pub fn seed_assignment(&self, prev: &Placement, k: u32) -> Vec<u32> {
        assert!(k >= 1);
        // Majority vote per group over the previous placement, counted in
        // one flat row of `k` counters per group.
        let width = k as usize;
        let mut votes = vec![0u32; self.num_groups * width];
        for (t, &g) in self.tuples.iter().zip(&self.group_of) {
            if let Some(p) = prev.get(t).and_then(PartitionSet::first) {
                votes[g as usize * width + (p % k) as usize] += 1;
            }
        }
        let mut load = vec![0u64; width];
        let mut labels = vec![u32::MAX; self.num_groups];
        let mut unlabeled = 0usize;
        for (g, v) in votes.chunks_exact(width).enumerate() {
            // Deterministic tie-break: highest count, then lowest partition.
            if let Some(p) = (0..k)
                .filter(|&p| v[p as usize] > 0)
                .max_by_key(|&p| (v[p as usize], std::cmp::Reverse(p)))
            {
                labels[g] = p;
                load[p as usize] += u64::from(self.group_accesses[g].max(1));
            } else {
                unlabeled += 1;
            }
        }

        // Label propagation for unseen groups: a group co-accessed with
        // placed groups belongs with them. Each net — or clique edge, as a
        // 2-pin net — votes `weight × labeled pins with that label` onto its
        // unlabeled pins, so both representations spread the same co-access
        // evidence.
        let mut pass = 0;
        while unlabeled > 0 && pass < 3 {
            pass += 1;
            let mut gains: HashMap<usize, HashMap<u32, u64>> = HashMap::new();
            let mut placed: Vec<(u32, u64)> = Vec::new();
            let mut open: Vec<usize> = Vec::new();
            let mut vote = |pins: &[NodeId], w: u32| {
                placed.clear();
                open.clear();
                for g in pins.iter().filter_map(|&p| self.node_group(p as usize)) {
                    if labels[g] == u32::MAX {
                        open.push(g);
                    } else if let Some((_, lw)) = placed.iter_mut().find(|(l, _)| *l == labels[g]) {
                        *lw += u64::from(w);
                    } else {
                        placed.push((labels[g], u64::from(w)));
                    }
                }
                for &g in &open {
                    for &(l, lw) in &placed {
                        *gains.entry(g).or_default().entry(l).or_insert(0) += lw;
                    }
                }
            };
            match &self.graph {
                CoAccess::Hyper(hg) => {
                    for e in 0..hg.num_nets() as u32 {
                        vote(hg.pins(e), hg.net_weight(e));
                    }
                }
                CoAccess::Clique(g) => {
                    for v in 0..g.num_vertices() as NodeId {
                        for (u, w) in g.edges(v).filter(|&(u, _)| v < u) {
                            vote(&[v, u], w);
                        }
                    }
                }
            }
            if gains.is_empty() {
                break;
            }
            for (g, vote) in gains {
                let (&p, _) = vote
                    .iter()
                    .max_by_key(|&(&p, &w)| (w, std::cmp::Reverse(p)))
                    .expect("non-empty vote");
                labels[g] = p;
                load[p as usize] += u64::from(self.group_accesses[g].max(1));
                unlabeled -= 1;
            }
        }

        // Whatever is still unlabeled has no placed neighborhood: spread by
        // load so newcomers don't all pile onto partition 0.
        for (g, label) in labels.iter_mut().enumerate() {
            if *label == u32::MAX {
                let lightest = (0..k).min_by_key(|&p| load[p as usize]).unwrap_or(0);
                *label = lightest;
                load[lightest as usize] += u64::from(self.group_accesses[g].max(1));
            }
        }
        // Previous *extra* partitions per group (copies beyond the
        // primary), ordered by vote count then partition id, the group's
        // own label excluded — the partitions this group's replicas
        // should keep occupying.
        votes.fill(0);
        for (t, &g) in self.tuples.iter().zip(&self.group_of) {
            if let Some(ps) = prev.get(t) {
                for p in ps.iter().skip(1) {
                    votes[g as usize * width + (p % k) as usize] += 1;
                }
            }
        }
        let extras: Vec<Vec<u32>> = votes
            .chunks_exact(width)
            .enumerate()
            .map(|(g, v)| {
                let mut ps: Vec<u32> = (0..k)
                    .filter(|&p| v[p as usize] > 0 && p != labels[g])
                    .collect();
                ps.sort_unstable_by_key(|&p| (std::cmp::Reverse(v[p as usize]), p));
                ps
            })
            .collect();

        let mut assignment = Vec::with_capacity(self.num_nodes());
        assignment.extend_from_slice(&labels);
        // Used replica slots take the group's previous extra partitions in
        // order (replica ids are clustered per group, so a simple running
        // cursor hands each used slot the next extra); slots beyond the
        // previous spread — and all unused slots, which are isolated —
        // start on the group label, where the refiner is free to move them.
        let mut cursor = vec![0usize; self.num_groups];
        for (ri, &g) in self.replica_owner.iter().enumerate() {
            let g = g as usize;
            let seeded = if self.replica_used[ri] {
                let i = cursor[g];
                cursor[g] += 1;
                extras[g].get(i).copied()
            } else {
                None
            };
            assignment.push(seeded.unwrap_or(labels[g]));
        }
        debug_assert_eq!(assignment.len(), self.num_nodes());
        assignment
    }
}

/// Builds the workload graph from the training trace (the whole-trace
/// ingestion path; see [`build_graph_source`] for streaming sources). The
/// graph is a function of `trace` alone; `_workload` names the trace's
/// workload for callers that hold both, and is not read.
pub fn build_graph(_workload: &Workload, trace: &Trace, cfg: &SchismConfig) -> WorkloadGraph {
    build_graph_source(trace, cfg)
}

/// Builds the workload graph from any [`TraceSource`], consuming it in
/// transaction chunks across [`SchismConfig::threads`] workers.
///
/// The output is bit-identical for every thread count and for any chunking
/// of the source — see the module docs for how each pass earns that. The
/// graph is a function of the trace alone: no vertex weight or grouping
/// reads the workload's database.
pub fn build_graph_source<S>(source: &S, cfg: &SchismConfig) -> WorkloadGraph
where
    S: TraceSource + ?Sized,
{
    build_graph_inner(source, cfg, COMPACT_EVERY).0
}

/// [`build_graph_source`] with the compaction threshold as a parameter —
/// the seam the compaction tests drive; everything else passes
/// [`COMPACT_EVERY`]. Also returns how many mid-stream compactions ran in
/// `(chunk buffers, the stitch sink)`.
fn build_graph_inner<S>(
    source: &S,
    cfg: &SchismConfig,
    compact_every: usize,
) -> (WorkloadGraph, (usize, usize))
where
    S: TraceSource + ?Sized,
{
    let seed = cfg.seed ^ 0x5C41_53A7;
    let n_txns = source.len();
    let pool = Pool::new(resolve_threads(cfg.threads));
    let chunk = chunk_size(n_txns, pool.threads());

    // --- Pass 1: filter + count, hash-sharded partial stats maps per
    // chunk. Sharding by tuple means shard `s` of every chunk holds
    // contributions for the same tuple population, so the merge decomposes
    // into `shards` independent folds.
    let shards = pool.threads() * MERGE_SHARDS_PER_THREAD;
    let partials = pool.scope_chunks(n_txns, chunk, |range| {
        let mut p = Pass1Partial {
            stats: (0..shards).map(|_| TupleMap::default()).collect(),
            dropped_scans: 0,
        };
        source.for_chunk(range, &mut |idx, txn| {
            for &t in &txn.reads {
                visit_tuple(&mut p.stats[shard_of(t, shards)], t, false, idx);
            }
            for &t in &txn.writes {
                visit_tuple(&mut p.stats[shard_of(t, shards)], t, true, idx);
            }
            for scan in &txn.scans {
                if scan.len() > cfg.blanket_threshold {
                    p.dropped_scans += 1;
                    continue;
                }
                for &t in scan {
                    visit_tuple(&mut p.stats[shard_of(t, shards)], t, false, idx);
                }
            }
        });
        p
    });

    // Sharded merge: shard `s` folds its per-chunk partials in chunk order,
    // and distinct shards fold in parallel. Every merged quantity is
    // commutative (sums — including the reformulated signature), so the
    // result is independent of the chunk decomposition *and* of the shard
    // count: a tuple's contributions always meet inside its one shard, and
    // `shards == 1` reproduces the old single-map reduce exactly. Tuple
    // sampling (access-weighted, so it keeps every tuple at
    // `tuple_sample >= 1`) runs per shard in the same parallel step.
    let mut dropped_scans = 0usize;
    let shard_parts: Vec<Vec<TupleMap<TupleStats>>> = partials
        .into_iter()
        .map(|p| {
            dropped_scans += p.dropped_scans;
            p.stats
        })
        .collect();
    let merged = pool.reduce_shards(
        shard_parts,
        |_| None::<TupleMap<TupleStats>>,
        |acc, part| match acc {
            None => Some(part),
            Some(map) => {
                // Absorb the smaller map into the larger (commutative, so
                // the swap never changes the result).
                let (mut into, from) = if part.len() > map.len() {
                    (part, map)
                } else {
                    (map, part)
                };
                for (t, s) in from {
                    match into.entry(t) {
                        Entry::Occupied(e) => e.into_mut().absorb(&s),
                        Entry::Vacant(v) => {
                            v.insert(s);
                        }
                    }
                }
                Some(into)
            }
        },
    );
    // Tuple sampling, then each shard drains into a run of its survivors
    // sorted by tuple, one shard per task. Sampling runs in place first so
    // the run is allocated at its exact size.
    let runs: Vec<Vec<(TupleId, TupleStats)>> = pool.map_each(merged, |_, shard| {
        let mut shard = shard.unwrap_or_default();
        shard.retain(|&t, s| keep_tuple(t, cfg.tuple_sample, s.accesses, seed));
        let mut run: Vec<(TupleId, TupleStats)> = shard.into_iter().collect();
        run.sort_unstable_by_key(|&(t, _)| t);
        run
    });

    // --- Grouping (tuple coalescing). The runs merge into the globally
    // sorted survivor list, and a group's id is the rank of the first
    // occurrence of its `(signature, accesses)` key in that order. The
    // serial loop reads only the runs; `run_groups[s]` takes the group of
    // each entry of run `s`, in run order.
    let survivors: usize = runs.iter().map(Vec::len).sum();
    let mut tuples: Vec<TupleId> = Vec::with_capacity(survivors);
    let mut group_of: Vec<NodeId> = Vec::with_capacity(survivors);
    let mut run_groups: Vec<Vec<NodeId>> =
        runs.iter().map(|r| Vec::with_capacity(r.len())).collect();
    let mut group_key: HashMap<(u64, u32), NodeId, TupleState> = HashMap::default();
    let mut groups: Vec<(u32, u32)> = Vec::new(); // (accesses, writes)
    let mut heads: BinaryHeap<Reverse<(TupleId, usize)>> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| run.first().map(|&(t, _)| Reverse((t, r))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((t, r)) = *head;
        let i = run_groups[r].len();
        let s = &runs[r][i].1;
        let gid = *group_key
            .entry((s.signature, s.accesses))
            .or_insert_with(|| {
                groups.push((0, 0));
                (groups.len() - 1) as NodeId
            });
        let g = &mut groups[gid as usize];
        g.0 = g.0.max(s.accesses); // identical within a group by construction
        g.1 = g.1.max(s.writes);
        tuples.push(t);
        group_of.push(gid);
        run_groups[r].push(gid);
        match runs[r].get(i + 1) {
            Some(&(next, _)) => head.0 = (next, r),
            None => {
                PeekMut::pop(head);
            }
        }
    }
    let num_groups = groups.len();
    // Each shard's groups go back into the map pass 2 reads (tuple `t`'s
    // group lives in `group_maps[shard_of(t, shards)]`), one shard per
    // task, each run freed as its map is built.
    let group_maps: Vec<TupleMap<NodeId>> = pool.map_each(
        runs.into_iter().zip(run_groups).collect(),
        |_, (run, gids)| run.into_iter().map(|(t, _)| t).zip(gids).collect(),
    );

    // --- Explosion plan: groups accessed often enough get replica stars.
    // Each exploded group reserves a contiguous replica-id range sized by
    // its access count (a transaction allocates at most one replica per
    // group per transaction, so the access count bounds the allocations);
    // `replica_base[g]` is the first id of group `g`'s range. Chunk-local
    // allocations resolve against these bases during the stitch, which is
    // what lets pass 2 run without cross-chunk coordination.
    let exploded: Vec<bool> = groups
        .iter()
        .map(|g| cfg.replication && g.0 >= REPLICATION_MIN_ACCESSES)
        .collect();
    let exploded_groups = exploded.iter().filter(|&&e| e).count();
    let mut replica_base = vec![0 as NodeId; num_groups];
    let mut next_base = num_groups as u64;
    for (g, grp) in groups.iter().enumerate() {
        replica_base[g] = next_base as NodeId;
        if exploded[g] {
            next_base += grp.0 as u64;
        }
    }
    assert!(next_base <= u32::MAX as u64, "too many nodes for u32 ids");
    let n_nodes = next_base as usize;
    let total_replicas = n_nodes - num_groups;
    let mut replica_owner = vec![0 as NodeId; total_replicas];
    for (g, grp) in groups.iter().enumerate() {
        if exploded[g] {
            let base = replica_base[g] as usize - num_groups;
            replica_owner[base..base + grp.0 as usize].fill(g as NodeId);
        }
    }

    // --- Pass 2: edge emission into chunk-local buffers. A tuple's group
    // is read from its pass-1 stats shard; a tuple with none was dropped.
    let num_groups_u32 = num_groups as NodeId;
    // Every chunk buffer is retained until the stitch consumes it, so the
    // per-buffer threshold is this chunk's share of `compact_every`.
    let n_chunks = n_txns.div_ceil(chunk);
    let local_compact =
        (compact_every / n_chunks.max(1)).max(CHUNK_COMPACT_FLOOR.min(compact_every));
    let parts = pool.scope_chunks_with(
        n_txns,
        chunk,
        || Vec::<NodeId>::with_capacity(64),
        |members, range| {
            let mut out = Pass2Partial {
                alloc: Vec::new(),
                buffer: match cfg.graph_backend {
                    GraphBackend::Clique => ChunkBuffer::Clique(EdgeBuffer::new()),
                    GraphBackend::Hypergraph => ChunkBuffer::Hyper(HyperEdgeBuffer::new()),
                },
                widest: 0,
                compactions: 0,
            };
            // Length after the last compaction: once the deduplicated edge
            // set itself exceeds the threshold, re-compact only after the
            // buffer doubles — compaction can no longer shrink it below the
            // threshold, and re-sorting per transaction would be O(n²).
            let mut compacted_len = 0usize;
            source.for_chunk(range, &mut |_, txn| {
                members.clear();
                {
                    let mut add = |t: TupleId| {
                        if let Some(&g) = group_maps[shard_of(t, shards)].get(&t) {
                            members.push(g);
                        }
                    };
                    for &t in &txn.reads {
                        add(t);
                    }
                    for &t in &txn.writes {
                        add(t);
                    }
                    for scan in &txn.scans {
                        if scan.len() > cfg.blanket_threshold {
                            continue;
                        }
                        for &t in scan {
                            add(t);
                        }
                    }
                }
                // One member per distinct group per transaction.
                members.sort_unstable();
                members.dedup();
                out.widest = out.widest.max(members.len());
                // Exploded groups contribute a fresh replica node; encode
                // it as `num_groups + <chunk-local allocation index>` and
                // log the owning group — the stitch resolves real ids.
                for m in members.iter_mut() {
                    if exploded[*m as usize] {
                        let local = num_groups_u32 + out.alloc.len() as NodeId;
                        out.alloc.push(*m);
                        *m = local;
                    }
                }
                match &mut out.buffer {
                    // Transaction clique (§4.1; Appendix B prefers cliques
                    // over stars for transactions).
                    ChunkBuffer::Clique(edges) => {
                        for i in 0..members.len() {
                            for j in i + 1..members.len() {
                                edges.push(members[i], members[j], 1);
                            }
                        }
                    }
                    // One net per transaction: O(|members|) memory where
                    // the clique costs O(|members|²), so no width is ever
                    // too expensive to represent.
                    ChunkBuffer::Hyper(nets) => nets.push(members, 1),
                }
                let buffered = out.buffer.len();
                if buffered > local_compact && buffered >= 2 * compacted_len {
                    out.buffer.compact();
                    out.compactions += 1;
                    compacted_len = out.buffer.len();
                }
            });
            out
        },
    );

    // --- Stitch: resolve allocations and hand the buffers to the sink in
    // chunk order. A replica allocation's global id is `replica_base[g] + n`
    // where `n` counts the group's prior allocations across all earlier
    // chunks (and earlier transactions of this chunk) — exactly the rank a
    // sequential walk would assign, so the graph is chunking-independent.
    let widest_txn = parts.iter().map(|p| p.widest).max().unwrap_or(0);
    let mut sink = match cfg.graph_backend {
        // The sink takes the chunk buffers over whole; what it buffers
        // itself is at most one star edge per allocation.
        GraphBackend::Clique => BuildSink::Clique(GraphBuilder::with_edge_capacity(
            n_nodes,
            parts.iter().map(|p| p.alloc.len()).sum(),
        )),
        GraphBackend::Hypergraph => BuildSink::Hyper(HyperGraphBuilder::new(n_nodes)),
    };
    // Node weights: a group weighs its access count (at least 1: every
    // surviving tuple was accessed). Exploded groups spread it over their
    // replicas (every planned slot keeps the builder's unit weight); the
    // center is a zero-weight anchor.
    for (gid, g) in groups.iter().enumerate() {
        sink.set_vertex_weight(gid as NodeId, if exploded[gid] { 0 } else { g.0 });
    }
    let mut alloc_count = vec![0u32; num_groups];
    let mut replica_used = vec![false; total_replicas];
    let mut map_local: Vec<NodeId> = Vec::new();
    let mut sink_compacted_len = 0usize;
    let mut compactions = (0usize, 0usize);
    for part in parts {
        compactions.0 += part.compactions;
        map_local.clear();
        map_local.reserve(part.alloc.len());
        for &gid in &part.alloc {
            let g = gid as usize;
            let grp = &groups[g];
            let node = if alloc_count[g] < grp.0 {
                let node = replica_base[g] + alloc_count[g];
                alloc_count[g] += 1;
                replica_used[node as usize - num_groups] = true;
                // Star edge to the center, weighted by the update cost
                // (§4.1: the number of transactions that update the tuple).
                // The floor of 1 mirrors METIS's requirement of positive
                // edge weights: replicating even a read-only tuple costs a
                // token amount, so replicas do not scatter on zero-gain
                // balance moves.
                sink.add_star(gid, node, grp.1.max(1));
                node
            } else {
                // Star capacity exhausted — only reachable if a signature
                // collision coalesced tuples with different access sets.
                // Fall back to the group center (still deterministic).
                gid
            };
            map_local.push(node);
        }
        let resolve = |e: NodeId| {
            if e < num_groups_u32 {
                e
            } else {
                map_local[(e - num_groups_u32) as usize]
            }
        };
        match (&mut sink, part.buffer) {
            (BuildSink::Clique(gb), ChunkBuffer::Clique(edges)) => gb.append_edges(edges, resolve),
            (BuildSink::Hyper(hb), ChunkBuffer::Hyper(nets)) => hb.append_nets(nets, resolve),
            _ => unreachable!("sink and chunk buffers both follow cfg.graph_backend"),
        }
        // Same doubling guard as the chunk buffers: once the merged edge
        // (or pin) set exceeds the threshold, only re-compact after 2x
        // growth.
        if sink.pending() > compact_every && sink.pending() >= 2 * sink_compacted_len {
            sink.compact();
            compactions.1 += 1;
            sink_compacted_len = sink.pending();
        }
    }

    // Replicas may be fewer than planned (a transaction that reads and
    // writes a tuple counts two accesses but allocates once); unused planned
    // ids stay isolated, and still weigh one unit each.
    let graph = match sink {
        BuildSink::Clique(gb) => CoAccess::Clique(gb.build_on(&pool)),
        BuildSink::Hyper(hb) => CoAccess::Hyper(hb.build()),
    };
    let (edges, hyperedges, pins) = match &graph {
        CoAccess::Clique(g) => (g.num_edges(), 0, 0),
        CoAccess::Hyper(h) => (0, h.num_nets(), h.num_pins()),
    };
    let stats = BuildStats {
        sampled_txns: n_txns,
        distinct_tuples: tuples.len(),
        groups: num_groups,
        exploded_groups,
        nodes: n_nodes,
        edges,
        hyperedges,
        pins,
        widest_txn,
        dropped_scans,
    };
    let group_writes: Vec<u32> = groups.iter().map(|g| g.1).collect();
    let group_accesses: Vec<u32> = groups.iter().map(|g| g.0).collect();
    let wg = WorkloadGraph {
        graph,
        tuples,
        group_of,
        num_groups,
        replica_owner,
        replica_used,
        group_writes,
        group_accesses,
        stats,
    };
    (wg, compactions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchismConfig;
    use schism_workload::simplecount::{self, AccessMode, SimpleCountConfig};
    use schism_workload::ycsb::{self, YcsbConfig};

    fn base_cfg() -> SchismConfig {
        SchismConfig::new(2)
    }

    fn clique(g: &WorkloadGraph) -> &CsrGraph {
        let CoAccess::Clique(c) = &g.graph else {
            panic!("clique backend expected");
        };
        c
    }

    fn hyper(g: &WorkloadGraph) -> &HyperGraph {
        let CoAccess::Hyper(h) = &g.graph else {
            panic!("hypergraph backend expected");
        };
        h
    }

    #[test]
    fn co_accessed_tuples_get_edges() {
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 2,
            rows_per_client: 50,
            servers: 2,
            mode: AccessMode::SinglePartition,
            num_txns: 300,
            ..Default::default()
        });
        let mut cfg = base_cfg();
        cfg.replication = false;
        let g = build_graph(&w, &w.trace, &cfg);
        assert!(clique(&g).num_edges() > 0);
        assert_eq!(g.stats.sampled_txns, 300);
        assert_eq!(g.stats.nodes, g.stats.groups);
        clique(&g).validate().unwrap();
    }

    #[test]
    fn replication_explodes_hot_tuples() {
        let w = ycsb::generate(&YcsbConfig {
            records: 200,
            num_txns: 1_000,
            ..YcsbConfig::workload_a()
        });
        let g = build_graph(&w, &w.trace, &base_cfg());
        assert!(g.stats.exploded_groups > 0, "zipfian head must explode");
        assert!(g.stats.nodes > g.stats.groups, "replica nodes expected");
        clique(&g).validate().unwrap();
    }

    #[test]
    fn blanket_filter_drops_large_scans() {
        let w = ycsb::generate(&YcsbConfig {
            records: 1_000,
            num_txns: 500,
            scan_max: 10,
            ..YcsbConfig::workload_e()
        });
        let mut strict = base_cfg();
        strict.blanket_threshold = 2; // everything bigger dropped
        let g_strict = build_graph(&w, &w.trace, &strict);
        let mut lax = base_cfg();
        lax.blanket_threshold = 100;
        let g_lax = build_graph(&w, &w.trace, &lax);
        assert!(g_strict.stats.dropped_scans > 0);
        assert!(clique(&g_strict).num_edges() < clique(&g_lax).num_edges());
    }

    #[test]
    fn tuple_sampling_shrinks_graph() {
        let w = ycsb::generate(&YcsbConfig {
            records: 5_000,
            num_txns: 2_000,
            ..YcsbConfig::workload_e()
        });
        let full = build_graph(&w, &w.trace, &base_cfg());
        let mut half = base_cfg();
        half.tuple_sample = 0.3;
        let sampled = build_graph(&w, &w.trace, &half);
        assert!(
            (sampled.stats.distinct_tuples as f64) < 0.6 * full.stats.distinct_tuples as f64,
            "{} vs {}",
            sampled.stats.distinct_tuples,
            full.stats.distinct_tuples
        );
    }

    #[test]
    fn coalescing_merges_always_together_tuples() {
        // SimpleCount single-partition with 2 rows per server range and
        // txns always reading the same pair -> pairs coalesce.
        use schism_workload::{Trace, TupleId, TxnBuilder};
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 1,
            rows_per_client: 40,
            servers: 1,
            num_txns: 1,
            ..Default::default()
        });
        // Hand-build a trace where tuples (2i, 2i+1) always co-occur.
        let mut txns = Vec::new();
        for round in 0..5 {
            for i in 0..20u64 {
                let mut b = TxnBuilder::new(false);
                b.read(TupleId::new(0, 2 * i))
                    .read(TupleId::new(0, 2 * i + 1));
                let _ = round;
                txns.push(b.finish());
            }
        }
        let trace = Trace { transactions: txns };
        let mut cfg = base_cfg();
        cfg.replication = false;
        let coalesced = build_graph(&w, &trace, &cfg);
        assert_eq!(coalesced.stats.distinct_tuples, 40);
        assert_eq!(coalesced.stats.groups, 20, "pairs must merge");
        // Edges all interior to groups -> none survive.
        assert_eq!(clique(&coalesced).num_edges(), 0);
    }

    #[test]
    fn chunked_source_equals_whole_trace_at_one_thread() {
        // The threads=1 equivalence pin for the signature reformulation and
        // the chunk-local replica allocation: ingesting a streaming source
        // chunk by chunk must produce the bit-identical graph to ingesting
        // its materialized whole trace.
        use schism_workload::drifting::{self, DriftingConfig};
        let dcfg = DriftingConfig {
            num_txns: 2_000,
            ..Default::default()
        };
        let w = drifting::generate(&dcfg);
        let src = drifting::stream(&dcfg);
        let whole = src.materialize();
        for threads in [1usize, 3] {
            let mut cfg = base_cfg();
            cfg.threads = threads;
            let from_source = build_graph_source(&src, &cfg);
            let from_trace = build_graph(&w, &whole, &cfg);
            assert_eq!(from_source.stats, from_trace.stats);
            assert_eq!(from_source.digest(), from_trace.digest());
            assert_eq!(from_source.graph, from_trace.graph);
        }
    }

    /// Builds a multi-tuple trace (3 chunks) under a compaction threshold
    /// small enough that chunk buffers and the stitch sink both compact
    /// mid-stream — repeatedly, so the doubling guard runs too — and
    /// checks the graph against the never-compacting default.
    fn compaction_never_changes_the_graph(backend: GraphBackend) {
        use schism_workload::drifting::{self, DriftingConfig};
        let w = drifting::generate(&DriftingConfig {
            num_txns: 3_000,
            ..Default::default()
        });
        let mut cfg = base_cfg();
        cfg.graph_backend = backend;
        cfg.threads = 3;
        let (base, never) = build_graph_inner(&w.trace, &cfg, COMPACT_EVERY);
        assert_eq!(never, (0, 0), "the default threshold is out of reach");
        let (compacted, (in_chunks, in_sink)) = build_graph_inner(&w.trace, &cfg, 32);
        assert!(in_chunks >= 6, "{in_chunks} chunk-buffer compactions");
        assert!(in_sink >= 1, "{in_sink} sink compactions");
        assert_eq!(base.digest(), compacted.digest());
        assert_eq!(base.graph, compacted.graph);
    }

    #[test]
    fn compact_threshold_never_changes_the_graph() {
        compaction_never_changes_the_graph(GraphBackend::Clique);
    }

    #[test]
    fn seed_assignment_preserves_previous_replica_spread() {
        let w = ycsb::generate(&YcsbConfig {
            records: 200,
            num_txns: 1_000,
            ..YcsbConfig::workload_a()
        });
        let g = build_graph(&w, &w.trace, &base_cfg());
        assert!(g.stats.nodes > g.stats.groups, "need replica nodes");
        // Groups with used replicas, found by probing: primaries -> 0,
        // replica nodes -> 1, then any tuple spanning both is hot.
        let probe: Vec<u32> = (0..g.num_nodes())
            .map(|v| u32::from(v >= g.stats.groups))
            .collect();
        let hot: std::collections::HashSet<TupleId> = g
            .tuple_partitions(&probe)
            .filter(|(_, ps)| ps.len() == 2)
            .map(|(t, _)| t)
            .collect();
        assert!(!hot.is_empty(), "zipfian head must allocate replicas");
        // Previous placement: everything primary on 0; hot tuples also
        // replicated on 1 and 2.
        let mut prev: HashMap<TupleId, schism_router::PartitionSet> = HashMap::new();
        for &t in g.tuples() {
            prev.insert(t, schism_router::PartitionSet::single(0));
        }
        for &t in &hot {
            prev.insert(t, [0u32, 1, 2].into_iter().collect());
        }
        let seeded = g.seed_assignment(&Placement::from(&prev), 3);
        for (t, ps) in g.tuple_partitions(&seeded) {
            if hot.contains(&t) {
                assert_eq!(ps.first(), Some(0), "primary placement preserved");
                assert!(
                    ps.len() >= 2,
                    "previously replicated tuple {t} must seed replicated"
                );
                assert!(
                    ps.iter().skip(1).all(|p| [1, 2].contains(&p)),
                    "replicas must seed onto the previous extras, got {ps:?}"
                );
            } else {
                assert_eq!(ps, PartitionSet::single(0), "cold tuples stay single-homed");
            }
        }
    }

    #[test]
    fn hypergraph_backend_emits_nets_not_edges() {
        let w = ycsb::generate(&YcsbConfig {
            records: 500,
            num_txns: 1_000,
            scan_max: 20,
            ..YcsbConfig::workload_e()
        });
        let mut cfg = base_cfg();
        cfg.graph_backend = GraphBackend::Hypergraph;
        cfg.blanket_threshold = usize::MAX; // linear memory: keep every scan
        let g = build_graph(&w, &w.trace, &cfg);
        let hg = hyper(&g);
        hg.validate().unwrap();
        assert_eq!(g.stats.edges, 0);
        assert!(g.stats.hyperedges > 0);
        assert!(g.stats.pins >= 2 * g.stats.hyperedges);
        assert_eq!(g.stats.dropped_scans, 0);
        assert!(g.stats.widest_txn >= 2);
        assert_eq!(g.stats.nodes, hg.num_vertices());
        assert_eq!(g.num_nodes(), hg.num_vertices());
    }

    #[test]
    fn backends_agree_on_nodes_and_weights() {
        let w = ycsb::generate(&YcsbConfig {
            records: 400,
            num_txns: 1_000,
            ..YcsbConfig::workload_a()
        });
        let cfg = base_cfg();
        let mut hcfg = base_cfg();
        hcfg.graph_backend = GraphBackend::Hypergraph;
        let cg = build_graph(&w, &w.trace, &cfg);
        let hg = build_graph(&w, &w.trace, &hcfg);
        assert_eq!(cg.tuples(), hg.tuples());
        assert_eq!(cg.num_nodes(), hg.num_nodes());
        assert_eq!(cg.stats.widest_txn, hg.stats.widest_txn);
        let hyper = hyper(&hg);
        for v in 0..cg.num_nodes() {
            assert_eq!(
                clique(&cg).vertex_weight(v as NodeId),
                hyper.vertex_weight(v as NodeId),
                "vertex {v} weight"
            );
        }
    }

    /// The one weighting rule: a group weighs its access count. With
    /// replication on, an exploded group's center is a zero-weight anchor
    /// and its star holds one unit per planned slot, so on both backends
    /// the graph's total vertex weight is the sum of its groups' accesses.
    #[test]
    fn vertex_weights_sum_to_group_accesses() {
        let w = ycsb::generate(&YcsbConfig {
            records: 400,
            num_txns: 1_000,
            ..YcsbConfig::workload_a()
        });
        for backend in [GraphBackend::Clique, GraphBackend::Hypergraph] {
            let mut cfg = base_cfg();
            cfg.graph_backend = backend;
            assert!(cfg.replication);
            let g = build_graph(&w, &w.trace, &cfg);
            assert!(g.stats.exploded_groups > 0, "zipfian head must explode");
            let weight = |v: usize| match &g.graph {
                CoAccess::Clique(c) => u64::from(c.vertex_weight(v as NodeId)),
                CoAccess::Hyper(h) => u64::from(h.vertex_weight(v as NodeId)),
            };
            let mut star = vec![0u64; g.num_groups];
            let mut slots = vec![0u32; g.num_groups];
            for (v, s) in star.iter_mut().enumerate() {
                *s = weight(v);
            }
            for (ri, &owner) in g.replica_owner.iter().enumerate() {
                assert_eq!(weight(g.num_groups + ri), 1, "{backend:?} slot {ri}");
                star[owner as usize] += 1;
                slots[owner as usize] += 1;
            }
            for (gid, &accesses) in g.group_accesses.iter().enumerate() {
                assert_eq!(star[gid], u64::from(accesses), "{backend:?} group {gid}");
                if slots[gid] > 0 {
                    assert_eq!(slots[gid], accesses, "one planned slot per access");
                    assert_eq!(weight(gid), 0, "an exploded center is an anchor");
                }
            }
            let total: u64 = (0..g.num_nodes()).map(weight).sum();
            let accesses: u64 = g.group_accesses.iter().map(|&a| u64::from(a)).sum();
            assert_eq!(total, accesses, "{backend:?}");
        }
    }

    #[test]
    fn hypergraph_chunked_source_equals_whole_trace() {
        use schism_workload::drifting::{self, DriftingConfig};
        let dcfg = DriftingConfig {
            num_txns: 2_000,
            ..Default::default()
        };
        let w = drifting::generate(&dcfg);
        let src = drifting::stream(&dcfg);
        let whole = src.materialize();
        for threads in [1usize, 3] {
            let mut cfg = base_cfg();
            cfg.graph_backend = GraphBackend::Hypergraph;
            cfg.threads = threads;
            let from_source = build_graph_source(&src, &cfg);
            let from_trace = build_graph(&w, &whole, &cfg);
            assert_eq!(from_source.stats, from_trace.stats);
            assert_eq!(from_source.digest(), from_trace.digest());
            assert_eq!(from_source.graph, from_trace.graph);
        }
    }

    #[test]
    fn hypergraph_compact_threshold_never_changes_the_graph() {
        compaction_never_changes_the_graph(GraphBackend::Hypergraph);
    }

    #[test]
    fn hypergraph_seed_assignment_propagates_labels() {
        // Hand-build a trace of co-access pairs so label propagation has
        // unambiguous nets to vote over. Each odd row is also read once on
        // its own, so no pair shares an access set and none coalesces.
        use schism_workload::{Trace, TupleId, TxnBuilder};
        let w = simplecount::generate(&SimpleCountConfig {
            clients: 1,
            rows_per_client: 8,
            servers: 1,
            num_txns: 1,
            ..Default::default()
        });
        let mut txns = Vec::new();
        for _ in 0..5 {
            for i in 0..4u64 {
                let mut b = TxnBuilder::new(false);
                b.read(TupleId::new(0, 2 * i))
                    .read(TupleId::new(0, 2 * i + 1));
                txns.push(b.finish());
            }
        }
        for i in 0..4u64 {
            let mut b = TxnBuilder::new(false);
            b.read(TupleId::new(0, 2 * i + 1));
            txns.push(b.finish());
        }
        let trace = Trace { transactions: txns };
        let mut cfg = base_cfg();
        cfg.graph_backend = GraphBackend::Hypergraph;
        cfg.replication = false;
        let g = build_graph(&w, &trace, &cfg);
        assert_eq!(g.stats.groups, 8, "every row is its own vertex");
        // Previous placement labels only the even rows; the odd partner of
        // each pair must follow its net-mate, not the load-balance
        // fallback.
        let mut prev: HashMap<TupleId, schism_router::PartitionSet> = HashMap::new();
        for i in 0..4u64 {
            prev.insert(
                TupleId::new(0, 2 * i),
                schism_router::PartitionSet::single((i % 2) as u32),
            );
        }
        let seeded = g.seed_assignment(&Placement::from(&prev), 2);
        let label_of: HashMap<TupleId, u32> = g
            .tuple_partitions(&seeded)
            .map(|(t, ps)| (t, ps.first().expect("placed")))
            .collect();
        for i in 0..4u64 {
            assert_eq!(
                label_of[&TupleId::new(0, 2 * i + 1)],
                (i % 2) as u32,
                "odd row {} must co-locate with its pair",
                2 * i + 1
            );
        }
    }

    /// Grouping by its definition: the survivors sorted, and a group's id
    /// the rank of the first occurrence of its `(signature, accesses)` key
    /// in that order — recounted from the trace in one map, against the
    /// sharded, merged build at 1 and 3 threads.
    #[test]
    fn grouping_matches_its_definition() {
        let w = ycsb::generate(&YcsbConfig {
            records: 3_000,
            num_txns: 2_000,
            ..YcsbConfig::workload_e()
        });
        let cfg = base_cfg();
        let mut stats: TupleMap<TupleStats> = TupleMap::default();
        for (idx, txn) in w.trace.transactions.iter().enumerate() {
            for &t in &txn.reads {
                visit_tuple(&mut stats, t, false, idx);
            }
            for &t in &txn.writes {
                visit_tuple(&mut stats, t, true, idx);
            }
            for scan in txn
                .scans
                .iter()
                .filter(|s| s.len() <= cfg.blanket_threshold)
            {
                for &t in scan {
                    visit_tuple(&mut stats, t, false, idx);
                }
            }
        }
        let seed = cfg.seed ^ 0x5C41_53A7;
        let mut tuples: Vec<TupleId> = stats
            .iter()
            .filter(|&(&t, s)| keep_tuple(t, cfg.tuple_sample, s.accesses, seed))
            .map(|(&t, _)| t)
            .collect();
        tuples.sort_unstable();
        let mut first: HashMap<(u64, u32), NodeId> = HashMap::new();
        let group_of: Vec<NodeId> = tuples
            .iter()
            .map(|t| {
                let next = first.len() as NodeId;
                *first
                    .entry((stats[t].signature, stats[t].accesses))
                    .or_insert(next)
            })
            .collect();
        assert!(first.len() < tuples.len(), "sanity: scans coalesce tuples");
        for threads in [1, 3] {
            let mut c = base_cfg();
            c.threads = threads;
            let g = build_graph(&w, &w.trace, &c);
            assert_eq!(g.tuples, tuples, "threads={threads}");
            assert_eq!(g.group_of, group_of, "threads={threads}");
            assert_eq!(g.num_groups, first.len(), "threads={threads}");
        }
    }

    #[test]
    fn tuple_partitions_resolve_replication() {
        let w = ycsb::generate(&YcsbConfig {
            records: 100,
            num_txns: 500,
            ..YcsbConfig::workload_a()
        });
        let cfg = base_cfg();
        let g = build_graph(&w, &w.trace, &cfg);
        // Fake assignment: alternate partitions by node id.
        let assignment: Vec<u32> = (0..g.num_nodes() as u32).map(|v| v % 2).collect();
        let parts: Vec<_> = g.tuple_partitions(&assignment).collect();
        assert_eq!(parts.len(), g.tuples().len());
        for (_, ps) in &parts {
            assert!(!ps.is_empty());
            assert!(ps.len() <= 2);
        }
        // At least one hot tuple must span both partitions under this
        // adversarial assignment.
        assert!(parts.iter().any(|(_, ps)| ps.len() == 2));
    }
}
