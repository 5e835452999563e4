//! Hypergraph representation: one hyperedge (net) per transaction.
//!
//! Schism's clique expansion (§4.1) turns a transaction touching `t` tuples
//! into `t(t-1)/2` edges — the reason `build_graph` needs blanket-scan
//! thresholds and O(txn²) chunk-local edge buffers. The hypergraph model
//! (arXiv 1309.1556) stores the same transaction as a single **net** whose
//! **pins** are the touched vertices: memory is linear in the trace, and the
//! partitioner can optimize the (λ−1) connectivity metric — the number of
//! *extra* partitions a transaction spans — which is exactly the
//! distributed-transaction count the paper's edge cut only approximates.
//!
//! [`HyperGraph`] is a dual-CSR structure: a vertex → incident-net index
//! (`vxadj`/`vnets`) and a net → pin index (`exadj`/`pins`), plus net
//! weights (merged transaction counts) and vertex weights. Construction
//! mirrors the plain-graph path: [`HyperGraphBuilder`] accumulates nets in
//! any order and canonicalizes at build time (pins sorted and deduplicated
//! per net, nets sorted lexicographically by pin list, identical pin sets
//! merged with summed weights), so a build is insensitive to insertion
//! order. [`HyperEdgeBuffer`] is the chunk-local half of a sharded build,
//! exactly as [`crate::builder::EdgeBuffer`] is for plain graphs.

use crate::csr::NodeId;

/// A net entry in a flattened pin buffer: `pins[start .. start + len]`.
#[derive(Clone, Copy, Debug)]
struct NetEntry {
    start: usize,
    len: u32,
    w: u32,
}

/// Sorts nets lexicographically by pin list and merges identical pin sets
/// (weights summed, saturating). Rebuilds the pin buffer densely. The
/// result is a canonical form: any interleaving of the same multiset of
/// nets compacts to the same buffers.
fn compact_nets(pin_buf: &mut Vec<NodeId>, nets: &mut Vec<NetEntry>) {
    if nets.len() <= 1 {
        return;
    }
    let mut order: Vec<u32> = (0..nets.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let ea = nets[a as usize];
        let eb = nets[b as usize];
        let sa = &pin_buf[ea.start..ea.start + ea.len as usize];
        let sb = &pin_buf[eb.start..eb.start + eb.len as usize];
        sa.cmp(sb).then(a.cmp(&b))
    });
    let mut new_pins: Vec<NodeId> = Vec::with_capacity(pin_buf.len());
    let mut new_nets: Vec<NetEntry> = Vec::with_capacity(nets.len());
    for &i in &order {
        let e = nets[i as usize];
        let slice = &pin_buf[e.start..e.start + e.len as usize];
        if let Some(last) = new_nets.last_mut() {
            let prev = &new_pins[last.start..last.start + last.len as usize];
            if prev == slice {
                last.w = last.w.saturating_add(e.w);
                continue;
            }
        }
        let start = new_pins.len();
        new_pins.extend_from_slice(slice);
        new_nets.push(NetEntry {
            start,
            len: e.len,
            w: e.w,
        });
    }
    *pin_buf = new_pins;
    *nets = new_nets;
}

/// Sorts and deduplicates the tail `buf[start..]` in place, truncating the
/// buffer to the deduplicated length. Returns the deduplicated pin count.
fn canonicalize_tail(buf: &mut Vec<NodeId>, start: usize) -> usize {
    let tail = &mut buf[start..];
    tail.sort_unstable();
    let mut write = 0usize;
    for read in 0..tail.len() {
        if read == 0 || tail[read] != tail[read - 1] {
            tail[write] = tail[read];
            write += 1;
        }
    }
    buf.truncate(start + write);
    write
}

/// An immutable hypergraph in dual-CSR form.
///
/// Vertices and nets are numbered densely from 0. Pins of a net are stored
/// sorted and unique; the nets incident to a vertex are stored in ascending
/// net order. Net weights count the transactions merged into the net.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HyperGraph {
    /// Vertex → incident nets: `vnets[vxadj[v] .. vxadj[v + 1]]`.
    vxadj: Vec<u32>,
    vnets: Vec<u32>,
    /// Net → pins: `pins[exadj[e] .. exadj[e + 1]]`.
    exadj: Vec<u32>,
    pins: Vec<NodeId>,
    /// Net weights (transactions merged into the net).
    ewgt: Vec<u32>,
    /// Vertex weights.
    vwgt: Vec<u32>,
    total_vwgt: u64,
}

impl HyperGraph {
    /// The empty hypergraph (no vertices, no nets).
    pub fn empty() -> Self {
        Self {
            vxadj: vec![0],
            exadj: vec![0],
            ..Self::default()
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of nets (hyperedges).
    pub fn num_nets(&self) -> usize {
        self.ewgt.len()
    }

    /// Total number of pins across all nets.
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Weight of vertex `v`.
    pub fn vertex_weight(&self, v: NodeId) -> u32 {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    pub fn vertex_weights(&self) -> &[u32] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> u64 {
        self.total_vwgt
    }

    /// Net ids incident to vertex `v`, ascending.
    pub fn nets(&self, v: NodeId) -> &[u32] {
        let v = v as usize;
        &self.vnets[self.vxadj[v] as usize..self.vxadj[v + 1] as usize]
    }

    /// Pins of net `e`, sorted and unique.
    pub fn pins(&self, e: u32) -> &[NodeId] {
        &self.pins[self.pin_span(e)]
    }

    /// Where net `e`'s pins sit among all [`HyperGraph::num_pins`] pins:
    /// the index range a per-pin side table uses for the net.
    pub(crate) fn pin_span(&self, e: u32) -> std::ops::Range<usize> {
        let e = e as usize;
        self.exadj[e] as usize..self.exadj[e + 1] as usize
    }

    /// Weight of net `e`.
    pub fn net_weight(&self, e: u32) -> u32 {
        self.ewgt[e as usize]
    }

    /// Structural sanity checks; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        let m = self.num_nets();
        if self.vxadj.len() != n + 1 || self.exadj.len() != m + 1 {
            return Err("index array length mismatch".into());
        }
        for w in self.vxadj.windows(2) {
            if w[0] > w[1] {
                return Err("vxadj not monotone".into());
            }
        }
        for w in self.exadj.windows(2) {
            if w[0] > w[1] {
                return Err("exadj not monotone".into());
            }
        }
        if *self.vxadj.last().unwrap() as usize != self.vnets.len() {
            return Err("vxadj does not cover vnets".into());
        }
        if *self.exadj.last().unwrap() as usize != self.pins.len() {
            return Err("exadj does not cover pins".into());
        }
        let mut pin_total = 0usize;
        for e in 0..m as u32 {
            let ps = self.pins(e);
            if ps.len() < 2 {
                return Err(format!("net {e} has fewer than 2 pins"));
            }
            if self.ewgt[e as usize] == 0 {
                return Err(format!("net {e} has zero weight"));
            }
            for w in ps.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("net {e} pins not strictly ascending"));
                }
            }
            if ps.iter().any(|&p| p as usize >= n) {
                return Err(format!("net {e} pin out of range"));
            }
            pin_total += ps.len();
        }
        if pin_total != self.vnets.len() {
            return Err("incidence and pin counts disagree".into());
        }
        for v in 0..n as NodeId {
            for w in self.nets(v).windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("vertex {v} nets not strictly ascending"));
                }
            }
            for &e in self.nets(v) {
                if e as usize >= m {
                    return Err(format!("vertex {v} net out of range"));
                }
                if !self.pins(e).contains(&v) {
                    return Err(format!("vertex {v} lists net {e} without a pin"));
                }
            }
        }
        let total: u64 = self.vwgt.iter().map(|&w| w as u64).sum();
        if total != self.total_vwgt {
            return Err("total vertex weight out of date".into());
        }
        Ok(())
    }
}

/// Accumulates nets and vertex weights, then produces a [`HyperGraph`].
#[derive(Clone, Debug)]
pub struct HyperGraphBuilder {
    n: usize,
    nets: HyperEdgeBuffer,
    vwgt: Vec<u32>,
}

impl HyperGraphBuilder {
    /// A builder for a hypergraph with `n` vertices, all of unit weight.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "too many vertices for u32 ids");
        Self {
            n,
            nets: HyperEdgeBuffer::new(),
            vwgt: vec![1; n],
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds a net over `pins` with weight `w`. Pins are sorted and
    /// deduplicated; nets with fewer than two distinct pins or zero weight
    /// are dropped (they carry no cut information, like self loops in the
    /// plain-graph builder). Identical pin sets are merged at build time
    /// with their weights summed (saturating).
    pub fn add_net(&mut self, pins: &[NodeId], w: u32) {
        if w == 0 || pins.len() < 2 {
            return;
        }
        assert!(
            pins.iter().all(|&p| (p as usize) < self.n),
            "net pin out of range"
        );
        self.nets.push(pins, w);
    }

    /// Takes over a chunk's buffer — the stitch half of a sharded build —
    /// mapping each pin through `resolve` straight into the builder's own
    /// buffer. Every net then goes through the same canonicalization as
    /// [`HyperGraphBuilder::add_net`] (range-checked, pins sorted and
    /// deduplicated, nets left with fewer than two pins dropped), in the
    /// buffer's order, so a sequence of `append_nets` calls yields exactly
    /// the hypergraph the equivalent `add_net` stream would.
    pub fn append_nets(&mut self, buf: HyperEdgeBuffer, resolve: impl Fn(NodeId) -> NodeId) {
        for (pins, w) in buf.nets() {
            let start = self.nets.pin_buf.len();
            self.nets.pin_buf.extend(pins.iter().map(|&p| resolve(p)));
            assert!(
                self.nets.pin_buf[start..]
                    .iter()
                    .all(|&p| (p as usize) < self.n),
                "net pin out of range"
            );
            self.nets.seal(start, w);
        }
    }

    /// Sets the weight of vertex `v` (default is 1).
    pub fn set_vertex_weight(&mut self, v: NodeId, w: u32) {
        self.vwgt[v as usize] = w;
    }

    /// Number of buffered (pre-merge) pins.
    pub fn pending_pins(&self) -> usize {
        self.nets.pin_count()
    }

    /// Eagerly merges identical pin sets in place. Long streaming builds
    /// call this periodically to bound peak memory; [`Self::build`]
    /// performs the same merge at the end regardless.
    pub fn compact(&mut self) {
        self.nets.compact();
    }

    /// Canonicalizes and emits the dual-CSR hypergraph.
    pub fn build(mut self) -> HyperGraph {
        self.nets.compact();
        let n = self.n;
        let m = self.nets.nets.len();

        let mut exadj = Vec::with_capacity(m + 1);
        exadj.push(0u32);
        let mut pins: Vec<NodeId> = Vec::with_capacity(self.nets.pin_count());
        let mut ewgt: Vec<u32> = Vec::with_capacity(m);
        for (net, w) in self.nets.nets() {
            pins.extend_from_slice(net);
            let end = u32::try_from(pins.len()).expect("pin count overflows u32 index");
            exadj.push(end);
            ewgt.push(w);
        }

        // Vertex → net incidence: counting pass then scatter. Scanning nets
        // in ascending id order leaves each vertex's net list ascending.
        let mut deg = vec![0u32; n];
        for &p in &pins {
            deg[p as usize] += 1;
        }
        let mut vxadj = Vec::with_capacity(n + 1);
        vxadj.push(0u32);
        let mut acc = 0u32;
        for &d in &deg {
            acc = acc
                .checked_add(d)
                .expect("pin count overflows u32 incidence index");
            vxadj.push(acc);
        }
        let mut vnets = vec![0u32; acc as usize];
        let mut cursor: Vec<u32> = vxadj[..n].to_vec();
        for (e, window) in exadj.windows(2).enumerate() {
            for &p in &pins[window[0] as usize..window[1] as usize] {
                let c = cursor[p as usize] as usize;
                vnets[c] = e as u32;
                cursor[p as usize] += 1;
            }
        }

        let total_vwgt = self.vwgt.iter().map(|&w| w as u64).sum();
        HyperGraph {
            vxadj,
            vnets,
            exadj,
            pins,
            ewgt,
            vwgt: self.vwgt,
            total_vwgt,
        }
    }
}

/// A standalone net-accumulation buffer for the chunk half of a sharded
/// hypergraph build.
///
/// Worker chunks push one net per transaction, periodically
/// [`HyperEdgeBuffer::compact`]ing to bound memory, and the stitching pass
/// hands the buffers to a [`HyperGraphBuilder`] in chunk order
/// ([`HyperGraphBuilder::append_nets`]). Like
/// [`crate::builder::EdgeBuffer`] there is **no vertex-range check**: chunk
/// buffers may hold caller-encoded ids (chunk-local replica indices) that
/// are remapped to real node ids during the stitch. Compaction only merges
/// *identical* local pin lists, which is remap-safe: two lists equal before
/// a deterministic remap are equal after it.
#[derive(Clone, Debug, Default)]
pub struct HyperEdgeBuffer {
    pin_buf: Vec<NodeId>,
    nets: Vec<NetEntry>,
}

impl HyperEdgeBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a net; pins are sorted and deduplicated, nets with fewer than
    /// two distinct pins or zero weight are dropped.
    pub fn push(&mut self, pins: &[NodeId], w: u32) {
        if w == 0 || pins.len() < 2 {
            return;
        }
        let start = self.pin_buf.len();
        self.pin_buf.extend_from_slice(pins);
        self.seal(start, w);
    }

    /// Canonicalizes the pins from `start` on into one net of weight `w`,
    /// or drops them if fewer than two distinct pins remain.
    fn seal(&mut self, start: usize, w: u32) {
        let len = canonicalize_tail(&mut self.pin_buf, start);
        if len < 2 {
            self.pin_buf.truncate(start);
        } else {
            self.nets.push(NetEntry {
                start,
                len: len as u32,
                w,
            });
        }
    }

    /// Number of buffered (pre-merge) pins.
    pub fn pin_count(&self) -> usize {
        self.pin_buf.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// Merges identical pin lists in place (weights summed, saturating).
    pub fn compact(&mut self) {
        compact_nets(&mut self.pin_buf, &mut self.nets);
    }

    /// Iterates the buffered nets as `(pins, weight)`, in canonical order up
    /// to the last [`HyperEdgeBuffer::compact`] and in push order after it.
    pub fn nets(&self) -> impl Iterator<Item = (&[NodeId], u32)> {
        self.nets
            .iter()
            .map(|e| (&self.pin_buf[e.start..e.start + e.len as usize], e.w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_merges_identical_nets() {
        let mut b = HyperGraphBuilder::new(4);
        b.add_net(&[0, 1, 2], 1);
        b.add_net(&[2, 1, 0], 2); // same set, different order
        b.add_net(&[1, 3], 5);
        let hg = b.build();
        hg.validate().unwrap();
        assert_eq!(hg.num_nets(), 2);
        assert_eq!(hg.num_pins(), 5);
        // Canonical order is lexicographic by pin list.
        assert_eq!(hg.pins(0), &[0, 1, 2]);
        assert_eq!(hg.net_weight(0), 3);
        assert_eq!(hg.pins(1), &[1, 3]);
        assert_eq!(hg.net_weight(1), 5);
    }

    #[test]
    fn drops_degenerate_nets() {
        let mut b = HyperGraphBuilder::new(3);
        b.add_net(&[1], 4); // single pin
        b.add_net(&[2, 2, 2], 4); // dedups to a single pin
        b.add_net(&[0, 1], 0); // zero weight
        let hg = b.build();
        assert_eq!(hg.num_nets(), 0);
        assert_eq!(hg.num_pins(), 0);
        hg.validate().unwrap();
    }

    #[test]
    fn incidence_is_consistent() {
        let mut b = HyperGraphBuilder::new(5);
        b.add_net(&[0, 1, 2], 1);
        b.add_net(&[2, 3], 2);
        b.add_net(&[0, 4], 3);
        let hg = b.build();
        hg.validate().unwrap();
        assert_eq!(hg.nets(2).len(), 2);
        assert_eq!(hg.nets(4).len(), 1);
        for v in 0..5u32 {
            for &e in hg.nets(v) {
                assert!(hg.pins(e).contains(&v));
            }
        }
    }

    #[test]
    fn vertex_weights_roundtrip() {
        let mut b = HyperGraphBuilder::new(3);
        b.set_vertex_weight(0, 10);
        b.set_vertex_weight(2, 5);
        let hg = b.build();
        assert_eq!(hg.vertex_weight(0), 10);
        assert_eq!(hg.vertex_weight(1), 1);
        assert_eq!(hg.vertex_weight(2), 5);
        assert_eq!(hg.total_vertex_weight(), 16);
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let nets: Vec<(Vec<NodeId>, u32)> = vec![
            (vec![0, 1, 2], 1),
            (vec![3, 4], 2),
            (vec![0, 1, 2], 4),
            (vec![1, 4], 3),
        ];
        let build = |order: &[usize]| {
            let mut b = HyperGraphBuilder::new(5);
            for &i in order {
                b.add_net(&nets[i].0, nets[i].1);
            }
            b.build()
        };
        let a = build(&[0, 1, 2, 3]);
        let b = build(&[3, 2, 1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn buffer_stitch_matches_direct_build() {
        let nets: [(&[NodeId], u32); 4] =
            [(&[0, 1, 2], 1), (&[2, 3], 2), (&[0, 1, 2], 1), (&[4, 5], 9)];
        let mut whole = HyperGraphBuilder::new(6);
        for &(pins, w) in &nets {
            whole.add_net(pins, w);
        }
        whole.add_net(&[3, 5], 7);
        // Chunk-local ids 10.. stand for 0..; the second chunk maps 16 onto
        // vertex 5 as well, so its net [13, 15, 16] becomes [3, 5] and its
        // net [15, 16] collapses to one pin, which the stitch must drop.
        let mut chunked = HyperGraphBuilder::new(6);
        let mut first = HyperEdgeBuffer::new();
        let mut second = HyperEdgeBuffer::new();
        let local = |pins: &[NodeId]| pins.iter().map(|p| p + 10).collect::<Vec<_>>();
        for &(pins, w) in &nets[..2] {
            first.push(&local(pins), w);
        }
        for &(pins, w) in &nets[2..] {
            second.push(&local(pins), w);
        }
        second.push(&[13, 15, 16], 7);
        second.push(&[15, 16], 3);
        first.compact();
        chunked.append_nets(first, |v| v - 10);
        chunked.append_nets(second, |v| (v - 10).min(5));
        assert_eq!(whole.build(), chunked.build());
    }

    #[test]
    fn compact_is_idempotent_and_lossless() {
        let mut buf = HyperEdgeBuffer::new();
        for _ in 0..10 {
            buf.push(&[1, 0], 1);
            buf.push(&[2, 3, 4], 2);
        }
        assert_eq!(buf.nets().count(), 20);
        buf.compact();
        assert_eq!(buf.nets().count(), 2);
        assert_eq!(buf.pin_count(), 5);
        let got: Vec<(Vec<NodeId>, u32)> = buf.nets().map(|(pins, w)| (pins.to_vec(), w)).collect();
        assert_eq!(got, vec![(vec![0, 1], 10), (vec![2, 3, 4], 20)]);
        buf.compact();
        assert_eq!(buf.nets().count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn append_nets_rejects_out_of_range() {
        let mut buf = HyperEdgeBuffer::new();
        buf.push(&[0, 7], 1);
        HyperGraphBuilder::new(2).append_nets(buf, |v| v);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = HyperGraphBuilder::new(2);
        b.add_net(&[0, 5], 1);
    }

    #[test]
    fn empty_hypergraph() {
        let hg = HyperGraph::empty();
        hg.validate().unwrap();
        assert_eq!(hg.num_vertices(), 0);
        assert_eq!(hg.num_nets(), 0);
    }
}
