//! Quality metrics for partitionings: edge cut, partition weights, imbalance.

use crate::csr::{CsrGraph, NodeId};
use crate::incidence::Incidence;

/// Total weight of edges whose endpoints lie in different partitions.
///
/// This is the objective the partitioner minimizes; in Schism's graph it
/// approximates the number of distributed transactions (§4.2).
pub fn edge_cut(g: &CsrGraph, assignment: &[u32]) -> u64 {
    debug_assert_eq!(assignment.len(), g.num_vertices());
    let mut cut = 0u64;
    for v in 0..g.num_vertices() as NodeId {
        let pv = assignment[v as usize];
        for (u, w) in g.edges(v) {
            if u > v && assignment[u as usize] != pv {
                cut += w as u64;
            }
        }
    }
    cut
}

/// Sum of vertex weights per partition (of a graph or a hypergraph).
pub fn part_weights<G: Incidence>(g: &G, assignment: &[u32], k: u32) -> Vec<u64> {
    let mut w = vec![0u64; k as usize];
    for v in 0..g.num_vertices() {
        w[assignment[v] as usize] += g.vertex_weight(v as NodeId) as u64;
    }
    w
}

/// Load imbalance: `max(weights) * k / total`. A perfectly balanced
/// partitioning has imbalance 1.0; the partitioner targets
/// `imbalance <= 1 + epsilon`. Returns 1.0 for an empty graph.
pub fn imbalance(weights: &[u64]) -> f64 {
    let total: u64 = weights.iter().sum();
    if total == 0 || weights.is_empty() {
        return 1.0;
    }
    let max = *weights.iter().max().expect("non-empty") as f64;
    max * weights.len() as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn square() -> CsrGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 3);
        b.add_edge(3, 0, 1);
        b.build()
    }

    #[test]
    fn cut_of_square() {
        let g = square();
        assert_eq!(edge_cut(&g, &[0, 0, 1, 1]), 2); // cuts 1-2 and 3-0
        assert_eq!(edge_cut(&g, &[0, 1, 1, 0]), 6); // cuts 0-1 and 2-3
        assert_eq!(edge_cut(&g, &[0, 0, 0, 0]), 0);
        assert_eq!(edge_cut(&g, &[0, 1, 2, 3]), 8);
    }

    #[test]
    fn weights_and_imbalance() {
        let g = square();
        let w = part_weights(&g, &[0, 0, 1, 1], 2);
        assert_eq!(w, vec![2, 2]);
        assert!((imbalance(&w) - 1.0).abs() < 1e-9);
        let w2 = part_weights(&g, &[0, 0, 0, 1], 2);
        assert!((imbalance(&w2) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn imbalance_empty() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }
}
