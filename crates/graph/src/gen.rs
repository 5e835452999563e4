//! Synthetic graph generators for tests and benchmarks.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Path graph `0 - 1 - ... - (n-1)` with unit weights.
pub fn path(n: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as NodeId, i as NodeId, 1);
    }
    b.build()
}

/// `w x h` grid with 4-neighborhood and unit weights.
pub fn grid(w: usize, h: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(w * h);
    let id = |x: usize, y: usize| (y * w + x) as NodeId;
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(id(x, y), id(x + 1, y), 1);
            }
            if y + 1 < h {
                b.add_edge(id(x, y), id(x, y + 1), 1);
            }
        }
    }
    b.build()
}

/// Two `size`-cliques connected by a single edge of weight `bridge_w`.
/// The optimal bisection cuts exactly the bridge.
pub fn two_cliques(size: usize, bridge_w: u32) -> CsrGraph {
    let mut b = GraphBuilder::new(2 * size);
    for c in 0..2 {
        let base = c * size;
        for i in 0..size {
            for j in i + 1..size {
                b.add_edge((base + i) as NodeId, (base + j) as NodeId, 1);
            }
        }
    }
    b.add_edge(0, size as NodeId, bridge_w);
    b.build()
}

/// Planted-partition graph: `groups` clusters of `per_group` vertices;
/// `intra` random edges inside each cluster and `inter` random edges between
/// clusters, all unit weight. With `intra >> inter` the planted clustering
/// is the (near-)optimal k-way partition — the structure Schism exploits in
/// the Epinions experiment.
pub fn planted_partition(
    groups: usize,
    per_group: usize,
    intra: usize,
    inter: usize,
    seed: u64,
) -> CsrGraph {
    let n = groups * per_group;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for g in 0..groups {
        let base = g * per_group;
        for _ in 0..intra {
            let u = base + rng.gen_range(0..per_group);
            let v = base + rng.gen_range(0..per_group);
            b.add_edge(u as NodeId, v as NodeId, 1);
        }
    }
    for _ in 0..inter {
        let gu = rng.gen_range(0..groups);
        let gv = (gu + rng.gen_range(1..groups.max(2))) % groups;
        let u = gu * per_group + rng.gen_range(0..per_group);
        let v = gv * per_group + rng.gen_range(0..per_group);
        b.add_edge(u as NodeId, v as NodeId, 1);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_shapes() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(grid(3, 4).num_edges(), 3 * 4 * 2 - 3 - 4);
        let tc = two_cliques(4, 7);
        assert_eq!(tc.num_edges(), 2 * 6 + 1);
        tc.validate().unwrap();
    }

    #[test]
    fn planted_partition_is_clustered() {
        let g = planted_partition(4, 50, 300, 10, 1);
        g.validate().unwrap();
        assert_eq!(g.num_vertices(), 200);
        // Heavily intra-connected: at most the 10 inter-cluster draws
        // leave a cluster, everything else stays inside one.
        let crossing = (0..200)
            .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u)))
            .filter(|&(v, u)| v < u && v / 50 != u / 50)
            .count();
        assert!(crossing <= 10, "{crossing} inter-cluster edges");
        assert!(g.num_edges() > 20 * crossing.max(1));
    }
}
