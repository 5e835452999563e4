//! Compressed sparse row (CSR) representation of an undirected weighted graph.
//!
//! This is the storage format consumed by the multilevel partitioner. Every
//! edge `{u, v}` is stored twice (once in each endpoint's adjacency list),
//! exactly like the METIS input format. Vertex and edge weights are `u32`;
//! aggregates use `u64` so coarsening billions of unit weights cannot
//! overflow.

/// A vertex identifier. Graphs are limited to `u32::MAX` vertices, which is
/// plenty for the tuple-level graphs Schism builds (the paper's largest graph
/// has 3M nodes).
pub type NodeId = u32;

/// An undirected weighted graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`]):
/// - `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` non-decreasing
/// - `adjncy.len() == adjwgt.len() == xadj[n]`
/// - adjacency is symmetric: `v ∈ adj(u)` with weight `w` iff `u ∈ adj(v)`
///   with weight `w`
/// - no self loops
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<u32>,
    adjncy: Vec<NodeId>,
    adjwgt: Vec<u32>,
    vwgt: Vec<u32>,
    total_vwgt: u64,
}

impl CsrGraph {
    /// Builds a graph directly from CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent (lengths, monotone
    /// `xadj`). Symmetry is *not* checked here (it is O(E log E)); call
    /// [`CsrGraph::validate`] in tests.
    pub fn from_parts(
        xadj: Vec<u32>,
        adjncy: Vec<NodeId>,
        adjwgt: Vec<u32>,
        vwgt: Vec<u32>,
    ) -> Self {
        assert!(!xadj.is_empty(), "xadj must have at least one entry");
        let n = xadj.len() - 1;
        assert_eq!(vwgt.len(), n, "vwgt length must equal vertex count");
        assert_eq!(xadj[0], 0, "xadj must start at 0");
        assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be non-decreasing"
        );
        let m = *xadj.last().expect("non-empty") as usize;
        assert_eq!(adjncy.len(), m, "adjncy length must equal xadj[n]");
        assert_eq!(adjwgt.len(), m, "adjwgt length must equal xadj[n]");
        let total_vwgt = vwgt.iter().map(|&w| w as u64).sum();
        Self {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            total_vwgt,
        }
    }

    /// An empty graph with zero vertices.
    pub fn empty() -> Self {
        Self {
            xadj: vec![0],
            adjncy: vec![],
            adjwgt: vec![],
            vwgt: vec![],
            total_vwgt: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges (each stored twice internally).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: NodeId) -> u32 {
        self.vwgt[v as usize]
    }

    /// Sum of all vertex weights.
    #[inline]
    pub fn total_vertex_weight(&self) -> u64 {
        self.total_vwgt
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[u32] {
        &self.vwgt
    }

    /// Degree (number of incident edges) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Edge weights aligned with [`CsrGraph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: NodeId) -> &[u32] {
        let v = v as usize;
        &self.adjwgt[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Iterates `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Total weight of all undirected edges.
    pub fn total_edge_weight(&self) -> u64 {
        self.adjwgt.iter().map(|&w| w as u64).sum::<u64>() / 2
    }

    /// Exhaustive structural validation; O(E log E). Intended for tests.
    ///
    /// Returns an error message describing the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices() as u32;
        for v in 0..n {
            for (u, w) in self.edges(v) {
                if u == v {
                    return Err(format!("self loop at vertex {v}"));
                }
                if u >= n {
                    return Err(format!("vertex {v} has out-of-range neighbor {u}"));
                }
                if w == 0 {
                    return Err(format!("zero-weight edge {v}-{u}"));
                }
                // Find the reverse edge.
                let back = self
                    .edges(u)
                    .find(|&(x, _)| x == v)
                    .ok_or_else(|| format!("edge {v}->{u} has no reverse"))?;
                if back.1 != w {
                    return Err(format!(
                        "asymmetric weights on edge {v}-{u}: {w} vs {}",
                        back.1
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_vertex_weight(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn triangle_accessors() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 7);
        b.add_edge(0, 2, 1);
        let g = b.build();
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_edge_weight(), 13);
        assert_eq!(g.total_vertex_weight(), 3); // default unit weights
        let mut nbrs: Vec<_> = g.edges(0).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![(1, 5), (2, 1)]);
    }

    #[test]
    #[should_panic(expected = "xadj must start at 0")]
    fn from_parts_rejects_bad_xadj() {
        CsrGraph::from_parts(vec![1, 2], vec![0], vec![1], vec![1]);
    }

    #[test]
    fn validate_catches_asymmetry() {
        // 0 -> 1 exists but 1 -> 0 missing.
        let g = CsrGraph::from_parts(vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
        assert!(g.validate().is_err());
    }
}
