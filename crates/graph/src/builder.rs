//! Incremental construction of [`CsrGraph`]s from unordered edge lists.
//!
//! Workload graphs are produced by streaming over a transaction trace, which
//! yields edges in arbitrary order with many duplicates (two tuples
//! co-accessed by many transactions). The builder buffers `(u, v, w)`
//! triples and merges duplicates at build time, so that parallel edges end
//! up as a single edge whose weight is the sum — exactly the accumulation
//! the paper's edge weights require ("edge weights account for the number of
//! transactions that co-access a pair of tuples").
//!
//! The build never sorts the triples as a whole. It cuts the vertex ids into
//! equal power-of-two ranges, each holding about a core cache's worth of
//! triples, and assembles the CSR range by range, the ranges spread over a
//! [`Pool`]:
//!
//! 1. group the triples by the range of their lower endpoint;
//! 2. per range, sort its triples by `(lower, upper)` and merge duplicates
//!    (weights summed, saturating): every vertex's *upper* neighbours,
//!    ascending;
//! 3. copy the merged triples, in that order, into groups by the range of
//!    their upper endpoint: every vertex's *lower* neighbours, which arrive
//!    ascending because ranges and runs are both walked in vertex order;
//! 4. per range, write each row as its lower neighbours, then its upper
//!    ones.
//!
//! Each row comes out strictly ascending by neighbour with every duplicate
//! merged — the row a global sort-then-merge produces — whatever the range
//! split or pool size. Neither decides which triples meet in a merge (every
//! copy of an edge has the same lower endpoint, hence the same range) nor
//! the order a row is written in (fixed by vertex ids alone), and a
//! saturating sum of non-negative weights does not depend on the order it
//! is taken in.
//!
//! Sharded builds (the parallel graph builder in `schism-core`) accumulate
//! edges per chunk in standalone [`EdgeBuffer`]s, then hand them to one
//! [`GraphBuilder`] in chunk order via [`GraphBuilder::append_edges`], which
//! takes each buffer over whole rather than copying it. The same
//! order-independence makes the sharded build bit-identical to a sequential
//! one.

use crate::csr::{CsrGraph, NodeId};
use schism_par::{chunk_size, Pool};
use std::sync::Mutex;

/// A buffered edge: `(lower endpoint, upper endpoint, weight)`.
type Triple = (NodeId, NodeId, u32);

/// Bytes of buffered triples one range aims to hold on average: a fraction
/// of a core's L2, so a range's sort, merge and row writes stay in cache.
const RANGE_BYTES: usize = 1 << 19;

/// Upper bound on the range count. Step 3 carves one slice per (source,
/// destination) pair of ranges; past this many ranges each range simply
/// holds more than [`RANGE_BYTES`].
const MAX_RANGES: usize = 256;

/// Accumulates edges and vertex weights, then produces a [`CsrGraph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    /// Canonicalized (min, max, w) triples, possibly with duplicates. The
    /// first segment takes [`GraphBuilder::add_edge`]; each later one is a
    /// buffer [`GraphBuilder::append_edges`] took over.
    segments: Vec<Vec<Triple>>,
    vwgt: Vec<u32>,
}

impl GraphBuilder {
    /// A builder for a graph with `n` vertices, all with unit weight.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        Self {
            n,
            segments: vec![Vec::new()],
            vwgt: vec![1; n],
        }
    }

    /// Pre-allocates capacity for `m` edge insertions.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.segments[0].reserve(m);
        b
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge. Self loops are ignored (the partitioner
    /// derives nothing from them). Duplicate edges are merged at build time
    /// with their weights summed (saturating).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u32) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge endpoint out of range"
        );
        if u == v || w == 0 {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.segments[0].push((a, b, w));
    }

    /// Sets the weight of vertex `v` (default is 1).
    pub fn set_vertex_weight(&mut self, v: NodeId, w: u32) {
        self.vwgt[v as usize] = w;
    }

    /// Number of buffered (pre-merge) edge insertions.
    pub fn pending_edges(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Eagerly merges buffered duplicate edges in place. Long streaming
    /// builds (Schism's transaction cliques repeat hot tuple pairs
    /// constantly) call this periodically to bound peak memory; `build`
    /// performs the same merge at the end regardless.
    pub fn compact(&mut self) {
        // Extend the first non-empty segment, freeing each other one as
        // soon as it is copied.
        let mut segments = std::mem::take(&mut self.segments)
            .into_iter()
            .filter(|s| !s.is_empty());
        let mut all = segments.next().unwrap_or_default();
        for segment in segments {
            all.extend(segment);
        }
        compact_triples(&mut all);
        self.segments = vec![all];
    }

    /// Takes over a chunk's buffer — the stitch half of a sharded build —
    /// mapping each endpoint through `resolve` in place. Every edge then
    /// goes through the same canonicalization as [`GraphBuilder::add_edge`]
    /// (range-checked, self loops dropped, endpoints ordered), so a sequence
    /// of `append_edges` calls followed by [`GraphBuilder::build`] yields
    /// exactly the graph the equivalent `add_edge` stream would.
    pub fn append_edges(&mut self, buf: EdgeBuffer, resolve: impl Fn(NodeId) -> NodeId) {
        let n = self.n;
        let mut edges = buf.edges;
        edges.retain_mut(|t| {
            let (u, v) = (resolve(t.0), resolve(t.1));
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge endpoint out of range"
            );
            *t = (u.min(v), u.max(v), t.2);
            u != v
        });
        self.segments.push(edges);
    }

    /// Merges duplicates and emits the CSR graph on the calling thread:
    /// [`GraphBuilder::build_on`] with a pool of one.
    pub fn build(self) -> CsrGraph {
        self.build_on(&Pool::new(1))
    }

    /// Merges duplicates and emits the CSR graph, one vertex range per task
    /// on `pool` (module docs). The graph is identical for every pool size.
    /// Triples that fit in one range are assembled inline, spawning nothing.
    pub fn build_on(self, pool: &Pool) -> CsrGraph {
        let shift = span_shift(self.n, self.pending_edges());
        assemble(self.segments, self.vwgt, shift, pool)
    }
}

/// Ranges span `1 << span_shift` vertices: the smallest power of two that
/// leaves [`RANGE_BYTES`] of triples per range on average, within
/// [`MAX_RANGES`]. One range covers everything when the triples fit in it.
fn span_shift(n: usize, triples: usize) -> u32 {
    let ranges = (triples * std::mem::size_of::<Triple>() / RANGE_BYTES).clamp(1, MAX_RANGES);
    n.div_ceil(ranges).next_power_of_two().trailing_zeros()
}

/// Steps 1–4 of the module docs over ranges of `1 << shift` vertices.
/// Pre-merge counts are `usize`; only the merged adjacency must fit the
/// CSR's `u32` index. Holds at most the triples, one merged copy and the
/// CSR at once: step 1 frees each segment as soon as it is grouped.
fn assemble(segments: Vec<Vec<Triple>>, vwgt: Vec<u32>, shift: u32, pool: &Pool) -> CsrGraph {
    let n = vwgt.len();
    let nr = n.div_ceil(1 << shift).max(1);
    // `shift` reaches 32 for one range over more than 2^31 vertices.
    let range = |v: NodeId| v as usize >> shift;
    let first = |r: usize| (r << shift).min(n);

    // 1. Group by lower endpoint; nothing to group in one segment of one
    // range.
    let (mut edges, offsets) = if nr == 1 && segments.len() == 1 {
        let edges = segments.into_iter().next().expect("one segment");
        let len = edges.len();
        (edges, vec![0, len])
    } else {
        let piece = |s: &[Triple]| chunk_size(s.len(), pool.threads());
        let pieces: Vec<&[Triple]> = segments.iter().flat_map(|s| s.chunks(piece(s))).collect();
        let counts = map_parts(pool, pieces, |_, p| tally(p, nr, |t| range(t.0)));
        let mut edges = vec![(0, 0, 0); counts.iter().flatten().sum()];
        let (outs, offsets) = carve_groups(&mut edges, nr, &counts);
        let mut outs = outs.into_iter();
        for segment in segments {
            let work: Vec<_> = segment.chunks(piece(&segment)).zip(outs.by_ref()).collect();
            map_parts(pool, work, |_, (p, out)| scatter(p, out, |t| range(t.0)));
        }
        (edges, offsets)
    };

    // 2. Per range: sort, merge, and count the merged triples bound for
    // each range's lower lists.
    let groups = carve(&mut edges, offsets.windows(2).map(|w| w[1] - w[0]));
    let merged: Vec<(usize, Vec<usize>)> = map_parts(pool, groups, |_, group| {
        let len = sort_merge(group);
        (len, tally(&group[..len], nr, |t| range(t.1)))
    });
    let uppers: Vec<&[Triple]> = (0..nr)
        .map(|r| &edges[offsets[r]..offsets[r] + merged[r].0])
        .collect();

    // 3. Group the merged runs by upper endpoint, each range's run copied
    // whole by one task.
    let counts: Vec<Vec<usize>> = merged.into_iter().map(|(_, to)| to).collect();
    let mut lower = vec![(0, 0, 0); counts.iter().flatten().sum()];
    let (outs, lower_offsets) = carve_groups(&mut lower, nr, &counts);
    map_parts(pool, outs, |r, out| scatter(uppers[r], out, |t| range(t.1)));
    let lowers: Vec<&[Triple]> = lower_offsets
        .windows(2)
        .map(|w| &lower[w[0]..w[1]])
        .collect();

    // 4. Row lengths, the global offsets, then every range's rows.
    let lens = pool.scope_chunks(nr, 1, |r| {
        let lo = first(r.start);
        let mut len = vec![0u32; first(r.end) - lo];
        for &(_, b, _) in lowers[r.start] {
            len[b as usize - lo] += 1;
        }
        for &(a, _, _) in uppers[r.start] {
            len[a as usize - lo] += 1;
        }
        len
    });
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0u32);
    let mut acc = 0u32;
    for &d in lens.iter().flatten() {
        acc = acc
            .checked_add(d)
            .expect("edge count overflows u32 adjacency index");
        xadj.push(acc);
    }
    let mut adjncy = vec![0 as NodeId; acc as usize];
    let mut adjwgt = vec![0u32; acc as usize];
    let widths = || (0..nr).map(|r| (xadj[first(r + 1)] - xadj[first(r)]) as usize);
    let rows: Vec<_> = carve(&mut adjncy, widths())
        .into_iter()
        .zip(carve(&mut adjwgt, widths()))
        .collect();
    map_parts(pool, rows, |r, (adj, wgt)| {
        let lo = first(r);
        let mut cursor: Vec<u32> = xadj[lo..first(r + 1)]
            .iter()
            .map(|&x| x - xadj[lo])
            .collect();
        let mut put = |row: NodeId, neighbour: NodeId, w: u32| {
            let c = &mut cursor[row as usize - lo];
            adj[*c as usize] = neighbour;
            wgt[*c as usize] = w;
            *c += 1;
        };
        for &(a, b, w) in lowers[r] {
            put(b, a, w);
        }
        for &(a, b, w) in uppers[r] {
            put(a, b, w);
        }
    });
    CsrGraph::from_parts(xadj, adjncy, adjwgt, vwgt)
}

/// Sorts `triples` by endpoint pair and merges equal pairs into the first
/// slots (weights summed, saturating); returns the merged length.
fn sort_merge(triples: &mut [Triple]) -> usize {
    triples.sort_unstable_by_key(|&(a, b, _)| (a, b));
    let mut len = 0;
    for i in 0..triples.len() {
        let (a, b, w) = triples[i];
        if len > 0 && (triples[len - 1].0, triples[len - 1].1) == (a, b) {
            triples[len - 1].2 = triples[len - 1].2.saturating_add(w);
        } else {
            triples[len] = (a, b, w);
            len += 1;
        }
    }
    len
}

/// How many of `triples` fall in each of `keys` groups.
fn tally(triples: &[Triple], keys: usize, key: impl Fn(&Triple) -> usize) -> Vec<usize> {
    let mut counts = vec![0usize; keys];
    for t in triples {
        counts[key(t)] += 1;
    }
    counts
}

/// Copies `triples` into `out[key(t)]`, each slice exactly filled.
fn scatter(triples: &[Triple], mut out: Vec<&mut [Triple]>, key: impl Fn(&Triple) -> usize) {
    let mut filled = vec![0usize; out.len()];
    for &t in triples {
        let k = key(&t);
        out[k][filled[k]] = t;
        filled[k] += 1;
    }
}

/// Lays `buf` out by group, then by piece: returns each piece's slices
/// (sized `counts[piece][group]`) and where each group starts, then the
/// end.
fn carve_groups<'a>(
    mut buf: &'a mut [Triple],
    groups: usize,
    counts: &[Vec<usize>],
) -> (Vec<Vec<&'a mut [Triple]>>, Vec<usize>) {
    let mut outs: Vec<Vec<&mut [Triple]>> =
        counts.iter().map(|_| Vec::with_capacity(groups)).collect();
    let mut starts = vec![0];
    for g in 0..groups {
        let mut end = starts[g];
        for (out, count) in outs.iter_mut().zip(counts) {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(count[g]);
            out.push(head);
            buf = tail;
            end += count[g];
        }
        starts.push(end);
    }
    (outs, starts)
}

/// Splits `buf` into consecutive slices of the given lengths.
fn carve<T>(mut buf: &mut [T], lens: impl IntoIterator<Item = usize>) -> Vec<&mut [T]> {
    lens.into_iter()
        .map(|len| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
            buf = tail;
            head
        })
        .collect()
}

/// Runs `f(i, parts[i])` for every part on `pool`, results in part order:
/// how each task gets its own `&mut` slices of a shared buffer.
fn map_parts<P: Send, T: Send>(
    pool: &Pool,
    parts: Vec<P>,
    f: impl Fn(usize, P) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    pool.scope_chunks(slots.len(), 1, |i| {
        let part = slots[i.start]
            .lock()
            .expect("part slot poisoned")
            .take()
            .expect("each part runs once");
        f(i.start, part)
    })
}

/// [`sort_merge`], dropping the merged-away tail.
fn compact_triples(edges: &mut Vec<Triple>) {
    let len = sort_merge(edges);
    edges.truncate(len);
}

/// A standalone edge-accumulation buffer for the chunk half of a sharded
/// graph build.
///
/// Worker chunks push edges here (canonicalized, self loops and zero
/// weights dropped — the same normalization as [`GraphBuilder::add_edge`]),
/// periodically [`EdgeBuffer::compact`]ing to bound memory, and the
/// stitching pass hands the buffers to a [`GraphBuilder`] in chunk order.
/// Unlike the builder there is **no vertex-range check**: chunk buffers may
/// hold caller-encoded ids (e.g. chunk-local replica indices) that are
/// remapped to real node ids during the stitch.
#[derive(Clone, Debug, Default)]
pub struct EdgeBuffer {
    edges: Vec<Triple>,
}

impl EdgeBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an undirected edge; self loops and zero weights are dropped,
    /// endpoints are stored `(min, max)`.
    pub fn push(&mut self, u: NodeId, v: NodeId, w: u32) {
        if u == v || w == 0 {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Number of buffered (pre-merge) insertions.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Merges duplicate endpoint pairs in place (weights summed,
    /// saturating). Safe to call at any time: compaction never changes the
    /// graph the buffered edges describe.
    pub fn compact(&mut self) {
        compact_triples(&mut self.edges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The build this module used before the range assembly: one global
    /// sort of the triples, a merge, then a scatter by endpoint. The
    /// differential test holds every pool size and range split to it.
    fn sort_merge_oracle(b: GraphBuilder) -> CsrGraph {
        let mut edges: Vec<Triple> = b.segments.concat();
        edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
        let mut merged: Vec<Triple> = Vec::with_capacity(edges.len());
        for (a, b, w) in edges.drain(..) {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 = last.2.saturating_add(w),
                _ => merged.push((a, b, w)),
            }
        }
        let n = b.n;
        let mut deg = vec![0u32; n];
        for &(a, b, _) in &merged {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0u32);
        let mut acc = 0u32;
        for &d in &deg {
            acc = acc
                .checked_add(d)
                .expect("edge count overflows u32 adjacency index");
            xadj.push(acc);
        }
        let m2 = acc as usize;
        let mut adjncy = vec![0 as NodeId; m2];
        let mut adjwgt = vec![0u32; m2];
        let mut cursor: Vec<u32> = xadj[..n].to_vec();
        for &(a, b, w) in &merged {
            let ca = cursor[a as usize] as usize;
            adjncy[ca] = b;
            adjwgt[ca] = w;
            cursor[a as usize] += 1;
            let cb = cursor[b as usize] as usize;
            adjncy[cb] = a;
            adjwgt[cb] = w;
            cursor[b as usize] += 1;
        }
        CsrGraph::from_parts(xadj, adjncy, adjwgt, b.vwgt)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random multigraphs — duplicates in both orientations, self
        /// loops, zero and near-`u32::MAX` weights, isolated vertices, `n`
        /// down to 0, edges spread over several taken-over buffers —
        /// assembled on pools of 1, 2 and 4 by `build_on` and over every
        /// range span from one vertex up (vertex counts rarely divide
        /// evenly, so the last range is usually short).
        #[test]
        fn assembly_matches_the_sort_merge_oracle(
            seed in 0..u64::MAX,
            n in 0..400usize,
            m in 0..3_000usize,
            buffers in 0..4usize,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = GraphBuilder::new(n);
            let mut chunks = vec![EdgeBuffer::new(); buffers];
            // Endpoints drawn from the first half only, so the rest stay
            // isolated; a narrow window around `u` makes duplicates common.
            let half = n.div_ceil(2).max(1);
            for _ in 0..if n == 0 { 0 } else { m } {
                let u = rng.gen_range(0..half) as NodeId;
                let v = if rng.gen_bool(0.7) {
                    (u + rng.gen_range(0..4u32)) % half as NodeId
                } else {
                    rng.gen_range(0..half) as NodeId
                };
                let w = match rng.gen_range(0..10u32) {
                    0 => 0,
                    1 => u32::MAX - rng.gen_range(0..3u32),
                    _ => rng.gen_range(1..=5u32),
                };
                match rng.gen_range(0..=buffers) {
                    0 => b.add_edge(v, u, w),
                    i => chunks[i - 1].push(u, v, w),
                }
            }
            for v in 0..n as NodeId {
                b.set_vertex_weight(v, rng.gen_range(0..4u32));
            }
            for chunk in chunks {
                b.append_edges(chunk, |v| v);
            }
            let want = sort_merge_oracle(b.clone());
            want.validate().unwrap();
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                prop_assert_eq!(&b.clone().build_on(&pool), &want);
                for shift in 0..=n.max(1).next_power_of_two().trailing_zeros() {
                    let got = assemble(b.segments.clone(), b.vwgt.clone(), shift, &pool);
                    prop_assert_eq!(&got, &want, "threads {} shift {}", threads, shift);
                }
            }
        }
    }

    #[test]
    fn span_covers_small_inputs_with_one_range() {
        assert_eq!(span_shift(0, 0), 0);
        assert_eq!(1 << span_shift(1_000, 10), 1_024, "fits in one range");
        assert_eq!(
            span_shift(u32::MAX as usize, 10),
            32,
            "wider than a u32 shift"
        );
        let triples = 100 * RANGE_BYTES / std::mem::size_of::<Triple>();
        assert_eq!(
            1 << span_shift(1_000_000, triples),
            16_384,
            "about 100 ranges"
        );
        let many = 10_000 * RANGE_BYTES / std::mem::size_of::<Triple>();
        assert!(1_000_000usize.div_ceil(1 << span_shift(1_000_000, many)) <= MAX_RANGES);
    }

    #[test]
    fn merges_duplicate_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 0, 2); // reversed orientation merges too
        b.add_edge(0, 1, 3);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges(0).next(), Some((1, 6)));
        g.validate().unwrap();
    }

    #[test]
    fn ignores_self_loops_and_zero_weight() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(1, 1, 10);
        b.add_edge(0, 2, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn vertex_weights_roundtrip() {
        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(0, 10);
        b.set_vertex_weight(2, 5);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 10);
        assert_eq!(g.vertex_weight(1), 1);
        assert_eq!(g.vertex_weight(2), 5);
        assert_eq!(g.total_vertex_weight(), 16);
    }

    #[test]
    fn saturating_edge_merge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, u32::MAX);
        b.add_edge(0, 1, 100);
        let g = b.build();
        assert_eq!(g.edges(0).next(), Some((1, u32::MAX)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1);
    }

    #[test]
    fn edge_buffer_normalizes_like_the_builder() {
        let mut buf = EdgeBuffer::new();
        buf.push(1, 0, 2);
        buf.push(0, 1, 3);
        buf.push(2, 2, 9); // self loop dropped
        buf.push(0, 2, 0); // zero weight dropped
        assert_eq!(buf.len(), 2);
        buf.compact();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.edges, vec![(0, 1, 5)]);
    }

    #[test]
    fn append_edges_matches_add_edge_stream() {
        let edges = [(0u32, 1u32, 2u32), (1, 0, 1), (2, 3, 4), (1, 2, 1)];
        let mut whole = GraphBuilder::new(4);
        for (u, v, w) in edges {
            whole.add_edge(u, v, w);
        }
        // Chunk-local ids 10.. stand for 0..; the second chunk maps two
        // ids onto vertex 3, a self loop the stitch must drop.
        let mut chunked = GraphBuilder::new(4);
        let mut first = EdgeBuffer::new();
        let mut second = EdgeBuffer::new();
        for &(u, v, w) in &edges[..2] {
            first.push(u + 10, v + 10, w);
        }
        for &(u, v, w) in &edges[2..] {
            second.push(u + 10, v + 10, w);
        }
        second.push(13, 14, 7);
        first.compact();
        chunked.append_edges(first, |v| v - 10);
        chunked.append_edges(second, |v| (v - 10).min(3));
        let (a, b) = (whole.build(), chunked.build());
        assert_eq!(a, b, "sharded build must equal the sequential one");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn append_edges_rejects_out_of_range() {
        let mut buf = EdgeBuffer::new();
        buf.push(0, 7, 1);
        GraphBuilder::new(2).append_edges(buf, |v| v);
    }
}
