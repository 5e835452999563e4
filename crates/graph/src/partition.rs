//! The multilevel k-way partitioning driver — one driver for every
//! `Incidence`: plain graphs (edge cut) and hypergraphs ((λ−1)
//! connectivity, then cut nets).
//!
//! Pipeline (Karypis–Kumar multilevel scheme, the algorithm family METIS
//! implements), one **V** of which is `vcycle`:
//!
//! 1. **Coarsen** — randomized first-choice clustering — until the
//!    structure is small (or stops shrinking), capping coarse vertex
//!    weights so balance stays achievable.
//! 2. **Initial partition** of the coarsest level by recursive bisection
//!    (greedy graph growing + FM) — or, when the V starts from labels, the
//!    labels themselves, which label-respecting coarsening has projected
//!    exactly onto every level.
//! 3. **Uncoarsen**: project the partition one level up and run greedy
//!    k-way boundary refinement (with a balance-enforcement pre-pass).
//!
//! A cold run is one seeded V plus the implementation's polish schedule
//! (`Incidence::COLD_VCYCLES`, `Incidence::CUT_NET_STAGE`); a warm run
//! is two labeled Vs plus the same final stage.
//!
//! Every phase is parallelized over a [`schism_par::Pool`] sized by
//! [`PartitionerConfig::threads`]: coarsening rates partners over vertex
//! chunks, contraction builds the coarse structure over chunks, refinement
//! scans the boundary over vertex chunks, initial bisection runs its seeded
//! attempts concurrently, and the `ncuts` independent runs execute side by
//! side (the pool budget splits between the two levels). Every component
//! is deterministic for a fixed seed **independent of the thread count** —
//! labels and cost are bit-identical for `threads ∈ {1, 2, 4, ...}` — so
//! parallelism is purely a wall-clock knob.

use crate::coarsen::{contract, first_choice, CoarseLevel};
use crate::incidence::Incidence;
use crate::initial::recursive_bisection;
use crate::metrics::part_weights;
use crate::refine::{self, kway_greedy_refine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use schism_par::Pool;

/// Tuning knobs for [`partition`]. `Default` gives METIS-like settings with
/// a 5% balance tolerance.
#[derive(Clone, Debug)]
pub struct PartitionerConfig {
    /// Number of partitions (`k >= 1`).
    pub k: u32,
    /// Allowed load imbalance: every partition weight must stay below
    /// `(1 + epsilon) * total / k`.
    pub epsilon: f64,
    /// RNG seed; the partitioner is fully deterministic given a seed,
    /// whatever `threads` is.
    pub seed: u64,
    /// Full independent partitioning runs; the best cut wins (METIS's
    /// `ncuts`). Multilevel partitioning has run-to-run variance on hub-
    /// heavy graphs; two runs cut the tail risk dramatically.
    pub ncuts: usize,
    /// Worker threads for all parallel phases. `0` = auto: the
    /// `SCHISM_THREADS` environment variable if set, otherwise all
    /// hardware threads (see [`schism_par::resolve_threads`]). The output
    /// is identical for every value; this only trades wall-clock.
    pub threads: usize,
}

impl Default for PartitionerConfig {
    fn default() -> Self {
        Self {
            k: 2,
            epsilon: 0.05,
            seed: 0,
            ncuts: 2,
            threads: 0,
        }
    }
}

impl PartitionerConfig {
    /// Convenience constructor for `k` partitions with default tuning.
    pub fn with_k(k: u32) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }
}

/// The cold descent stops coarsening once at most this many vertices remain.
pub(crate) fn cold_target(k: u32) -> usize {
    (24 * k as usize).max(128)
}

/// The result of [`partition`].
#[derive(Clone, Debug)]
pub struct Partitioning {
    /// `assignment[v]` is the partition of vertex `v`, in `[0, k)`.
    pub assignment: Vec<u32>,
    /// The minimized objective: total weight of cut edges for a graph, the
    /// (λ−1) connectivity cost ([`crate::connectivity_cost`]) for a
    /// hypergraph.
    pub edge_cut: u64,
    /// Vertex weight per partition.
    pub part_weights: Vec<u64>,
    /// Number of partitions requested.
    pub k: u32,
}

impl Partitioning {
    /// Load imbalance (`max * k / total`); 1.0 is perfect.
    pub fn imbalance(&self) -> f64 {
        crate::metrics::imbalance(&self.part_weights)
    }
}

/// Partitions `g` — a [`crate::CsrGraph`] or a [`crate::HyperGraph`] — into
/// `cfg.k` balanced parts minimizing its cost: edge cut for a graph, the
/// (λ−1) connectivity cost for a hypergraph (stored in the result's
/// `edge_cut` field either way).
///
/// Runs `cfg.ncuts` independent multilevel passes — concurrently when the
/// thread budget allows — and returns the best (lowest cost, then lowest
/// imbalance, then earliest run). Deterministic for a fixed
/// `(structure, config)` pair regardless of `cfg.threads`.
pub fn partition<G: Incidence>(g: &G, cfg: &PartitionerConfig) -> Partitioning {
    let runs = cfg.ncuts.max(1);
    let pool = Pool::new(schism_par::resolve_threads(cfg.threads));
    // Split the budget: independent runs outside, phase parallelism inside.
    let (outer, inner) = pool.split(runs);

    let results: Vec<Partitioning> = outer.scope_chunks(runs, 1, |r| {
        let i = r.start;
        let run_cfg = PartitionerConfig {
            seed: cfg
                .seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ cfg.seed,
            ncuts: 1,
            ..cfg.clone()
        };
        partition_once(g, &run_cfg, &inner)
    });

    // `min_by_key` keeps the earliest of equal runs.
    results
        .into_iter()
        .min_by_key(|p| (p.edge_cut, p.imbalance().to_bits()))
        .expect("at least one run")
}

/// Refines a partitioning starting from `initial` instead of running the
/// full multilevel pipeline — the warm-start entry point used by
/// incremental repartitioning (`schism-migrate`).
///
/// This is a V-cycle in the ParMETIS adaptive-repartitioning mold: the
/// structure is coarsened *label-respecting* (merged vertices never
/// straddle the seed partitioning, so `initial` projects exactly onto
/// every level), the seed is rebalanced and refined on the
/// coarsest level — where whole co-access clusters are single vertices and
/// moving one is a cheap, often positive-gain move — and refinement runs
/// again at each uncoarsening level. Plain fine-grained refinement cannot
/// do this: evicting one member of a clique is always negative-gain, so a
/// drifted workload would leave the seed stuck in its old shape.
///
/// Labels `>= k` are wrapped. Vertices keep their partition unless a
/// balance or cost-improving move evicts them, which is what bounds data
/// movement when the workload changed only incrementally. Parallelized
/// over `cfg.threads` like the cold path, with the same determinism
/// contract.
pub fn partition_warm<G: Incidence>(
    g: &G,
    initial: &[u32],
    cfg: &PartitionerConfig,
) -> Partitioning {
    assert!(cfg.k >= 1, "k must be at least 1");
    assert_eq!(
        initial.len(),
        g.num_vertices(),
        "initial assignment must cover every vertex"
    );
    let k = cfg.k;
    let labels: Vec<u32> = initial.iter().map(|&p| p % k).collect();
    if k == 1 || g.num_vertices() == 0 {
        return finish(g, labels, k);
    }
    let pool = Pool::new(schism_par::resolve_threads(cfg.threads));
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x57A2_7ED0);
    // Two V-cycles: the first rebalances the drifted seed at cluster
    // granularity; the second re-coarsens along the *new* labels, letting
    // clusters the first round had to split re-merge and move as a unit
    // (METIS runs repeated V-cycles for the same reason).
    let labels = polish(g, labels, 2, cfg, &mut rng, &pool);
    finish(g, labels, k)
}

fn partition_once<G: Incidence>(g: &G, cfg: &PartitionerConfig, pool: &Pool) -> Partitioning {
    assert!(cfg.k >= 1, "k must be at least 1");
    assert!(cfg.epsilon >= 0.0, "epsilon must be non-negative");
    let n = g.num_vertices();
    let k = cfg.k;

    if k == 1 || n == 0 {
        return finish(g, vec![0u32; n], k);
    }
    if (k as usize) >= n {
        // One vertex per partition (extra partitions stay empty).
        return finish(g, (0..n as u32).collect(), k);
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let assignment = vcycle(g, None, cfg, false, &mut rng, pool);
    // Re-coarsening within the labels just found lets whole co-access
    // clusters change side as single vertices — where flat boundary moves
    // alone would leave the cold partition in a worse local minimum.
    let assignment = polish(g, assignment, G::COLD_VCYCLES, cfg, &mut rng, pool);
    finish(g, assignment, k)
}

/// `vcycles` label-respecting V-cycles, then — for implementations with a
/// cut-net objective — the final stage under the metric that is the point
/// (§6.1), the weight of nets left spanning more than one part: one
/// cut-net-primary V-cycle so whole clusters can switch side for a cut-net
/// win, then a flat polish to convergence.
fn polish<G: Incidence>(
    g: &G,
    mut labels: Vec<u32>,
    vcycles: usize,
    cfg: &PartitionerConfig,
    rng: &mut StdRng,
    pool: &Pool,
) -> Vec<u32> {
    for _ in 0..vcycles {
        labels = vcycle(g, Some(labels), cfg, false, rng, pool);
    }
    if G::CUT_NET_STAGE {
        labels = vcycle(g, Some(labels), cfg, true, rng, pool);
        let max_part = max_part_weight(g.total_vertex_weight(), cfg.k, cfg.epsilon);
        kway_greedy_refine(g, &mut labels, cfg.k, max_part, true, pool);
    }
    labels
}

/// One multilevel V: coarsen, settle the coarsest level, refine back up.
///
/// Without `labels` this is the cold descent: coarsen down to the
/// configured target and seed the coarsest level by recursive bisection.
/// With `labels` it is the warm V-cycle: coarsening never crosses a label
/// boundary, so the labels are the coarsest level's assignment, and there
/// is no vertex-count target — coarsening runs until label-respecting
/// merging stalls, i.e. until every connected intra-label cluster is
/// (close to) a single vertex or at its weight cap. That is the granularity
/// at which rebalancing a drifted seed is cheap — whole clusters move
/// without cutting their interior.
fn vcycle<G: Incidence>(
    g: &G,
    mut labels: Option<Vec<u32>>,
    cfg: &PartitionerConfig,
    cut_primary: bool,
    rng: &mut StdRng,
    pool: &Pool,
) -> Vec<u32> {
    let k = cfg.k;
    let max_part = max_part_weight(g.total_vertex_weight(), k, cfg.epsilon);
    let target = match labels {
        Some(_) => k as usize,
        None => cold_target(k),
    };

    // --- Coarsening ---
    // The finest-so-far level is always borrowed — `g` itself before any
    // contraction, the last level's structure after — so the chain holds
    // each level exactly once (at 1e8 accesses the input alone is hundreds
    // of MiB).
    let mut levels: Vec<CoarseLevel<G>> = Vec::new();
    loop {
        let current = levels.last().map_or(g, |l| &l.graph);
        if current.num_vertices() <= target {
            break;
        }
        let n = current.num_vertices();
        let limit = current.cluster_cap(k, max_part);
        let grouping = first_choice(current, labels.as_deref(), limit, rng, pool);
        // Stop if the level stops shrinking meaningfully (< 2% reduction).
        if ((n - grouping.groups) as f64) < 0.02 * n as f64 {
            break;
        }
        let level = contract(current, grouping, pool);
        if let Some(fine) = &mut labels {
            // All members of a group share a label by construction.
            let mut coarse = vec![0u32; level.graph.num_vertices()];
            for (v, &cv) in level.map.iter().enumerate() {
                coarse[cv as usize] = fine[v];
            }
            *fine = coarse;
        }
        levels.push(level);
        // Depth cap. The 2% floor alone would allow ≈370 levels from 370k
        // vertices down to a 192-vertex target, every one held in `levels`
        // until uncoarsening and paying a coarsening step, a contraction and
        // a refinement. Past 64 the current level is settled as it is.
        if levels.len() > 64 {
            break;
        }
    }
    let coarsest = levels.last().map_or(g, |l| &l.graph);

    // --- Coarsest level: seed (cold) or inherit the labels (warm) ---
    let mut assignment = labels.unwrap_or_else(|| {
        let seed_graph = coarsest.seed_graph();
        recursive_bisection(&seed_graph, k, cfg.epsilon, rng, pool)
    });
    let settle = |level: &G, assignment: &mut Vec<u32>| {
        refine::settle(level, assignment, k, max_part, cut_primary, pool)
    };
    settle(coarsest, &mut assignment);

    // --- Uncoarsening with refinement ---
    for (idx, level) in levels.iter().enumerate().rev() {
        assignment = level
            .map
            .iter()
            .map(|&cv| assignment[cv as usize])
            .collect();
        // The fine side of level i is the coarse side of level i-1.
        let fine = if idx == 0 { g } else { &levels[idx - 1].graph };
        settle(fine, &mut assignment);
    }
    assignment
}

/// The balance cap: `(1 + epsilon) * total / k`, rounded up. There is no
/// heaviest-vertex floor — a vertex heavier than the cap makes its part
/// overweight, and balance enforcement gives up on it after its bounded
/// sweeps.
pub(crate) fn max_part_weight(total: u64, k: u32, epsilon: f64) -> u64 {
    (((total as f64) * (1.0 + epsilon)) / k as f64).ceil() as u64
}

fn finish<G: Incidence>(g: &G, assignment: Vec<u32>, k: u32) -> Partitioning {
    Partitioning {
        edge_cut: g.cost(&assignment),
        part_weights: part_weights(g, &assignment, k),
        assignment,
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn k1_is_trivial() {
        let g = gen::grid(5, 5);
        let p = partition(&g, &PartitionerConfig::with_k(1));
        assert_eq!(p.edge_cut, 0);
        assert!(p.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_graph() {
        let g = crate::builder::GraphBuilder::new(0).build();
        let p = partition(&g, &PartitionerConfig::with_k(4));
        assert!(p.assignment.is_empty());
        assert_eq!(p.part_weights, vec![0, 0, 0, 0]);
    }

    #[test]
    fn k_exceeds_n() {
        let g = gen::path(3);
        let p = partition(&g, &PartitionerConfig::with_k(8));
        assert_eq!(p.assignment, vec![0, 1, 2]);
    }

    #[test]
    fn two_cliques_optimal() {
        let g = gen::two_cliques(32, 1);
        let p = partition(
            &g,
            &PartitionerConfig {
                k: 2,
                seed: 11,
                ..Default::default()
            },
        );
        assert_eq!(p.edge_cut, 1, "must cut only the bridge");
        assert_eq!(p.part_weights, vec![32, 32]);
    }

    #[test]
    fn planted_partition_recovered() {
        // 4 clusters of 200 vertices; intra-density dominates. A good
        // partitioner finds a cut close to the planted one.
        let g = gen::planted_partition(4, 200, 2000, 120, 5);
        let p = partition(
            &g,
            &PartitionerConfig {
                k: 4,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(p.imbalance() <= 1.05 + 1e-9, "imbalance {}", p.imbalance());
        // The planted cut weight is at most the number of inter edges (120
        // draws, some duplicates). Allow slack but reject grossly bad cuts:
        // a random 4-way cut would cost ~3/4 of all ~2120 edges.
        assert!(p.edge_cut <= 150, "cut too large: {}", p.edge_cut);
    }

    #[test]
    fn grid_scaling_cut_is_reasonable() {
        let g = gen::grid(32, 32);
        let p = partition(
            &g,
            &PartitionerConfig {
                k: 4,
                seed: 1,
                ..Default::default()
            },
        );
        // Ideal 4-way cut of a 32x32 grid is 64 (two straight cuts);
        // multilevel should come close.
        assert!(
            p.edge_cut <= 110,
            "cut {} too far from optimal 64",
            p.edge_cut
        );
        assert!(p.imbalance() <= 1.05 + 1e-9);
    }

    #[test]
    fn determinism() {
        let g = gen::planted_partition(3, 100, 700, 60, 9);
        let cfg = PartitionerConfig {
            k: 3,
            seed: 42,
            ..Default::default()
        };
        let p1 = partition(&g, &cfg);
        let p2 = partition(&g, &cfg);
        assert_eq!(p1.assignment, p2.assignment);
        assert_eq!(p1.edge_cut, p2.edge_cut);
    }

    #[test]
    fn identical_across_thread_counts() {
        // The headline contract: labels and cut are bit-identical for
        // threads 1, 2, and 4, cold and warm.
        let g = gen::planted_partition(3, 120, 900, 80, 13);
        let run = |threads: usize| {
            partition(
                &g,
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
            assert_eq!(p.edge_cut, base.edge_cut, "threads {t} changed the cut");
        }
        let warm = |threads: usize| {
            partition_warm(
                &g,
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
        // Feed the planted cut itself: refinement must keep it (or improve
        // it), not scramble labels.
        let g = gen::two_cliques(32, 1);
        let initial: Vec<u32> = (0..64).map(|v| (v >= 32) as u32).collect();
        let p = partition_warm(&g, &initial, &PartitionerConfig::with_k(2));
        assert_eq!(p.edge_cut, 1);
        assert_eq!(p.assignment, initial, "optimal warm start must be stable");
    }

    #[test]
    fn warm_start_repairs_imbalance() {
        // Everything on partition 0: balance enforcement must spread it
        // under the documented cap `ceil((1 + eps) * total / k)`.
        let g = gen::grid(8, 8);
        let initial = vec![0u32; 64];
        let p = partition_warm(&g, &initial, &PartitionerConfig::with_k(4));
        let cap = ((g.total_vertex_weight() as f64) * 1.05 / 4.0).ceil() as u64;
        for (i, &w) in p.part_weights.iter().enumerate() {
            assert!(w <= cap, "part {i} overweight: {w} > {cap}");
        }
        assert!(p.assignment.iter().any(|&a| a != 0));
    }

    #[test]
    fn warm_start_wraps_out_of_range_labels() {
        let g = gen::path(6);
        let initial = vec![7u32, 8, 9, 10, 11, 12];
        let p = partition_warm(&g, &initial, &PartitionerConfig::with_k(2));
        assert!(p.assignment.iter().all(|&a| a < 2));
    }

    #[test]
    fn coarse_levels_keep_their_mass_under_data_size_weights() {
        // 64 path vertices of weight 2^30 (byte-sized weights): half
        // a part's capacity is ~2^34, so without the u32 clamp on pair
        // weights the third level would build 2^32-weight vertices, which a
        // u32 vertex weight cannot hold — the level would lose mass and
        // balance would be enforced against the wrong total.
        let mut b = crate::builder::GraphBuilder::new(64);
        for i in 0..63u32 {
            b.add_edge(i, i + 1, 1);
        }
        for i in 0..64u32 {
            b.set_vertex_weight(i, 1 << 30);
        }
        let g = b.build();
        let total = g.total_vertex_weight();
        assert_eq!(total, 64 << 30);

        // The driver's coarsening loop, level by level.
        let pool = Pool::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let max_part = max_part_weight(total, 2, 0.05);
        let mut current = g.clone();
        for _ in 0..8 {
            let limit = current.cluster_cap(2, max_part);
            let grouping = first_choice(&current, None, limit, &mut rng, &pool);
            current = contract(&current, grouping, &pool).graph;
            assert_eq!(current.total_vertex_weight(), total, "a level lost mass");
        }
        assert!(
            current.num_vertices() <= 32,
            "pairs up to u32::MAX must still form"
        );

        let p = partition(&g, &PartitionerConfig::with_k(2));
        assert_eq!(p.part_weights.iter().sum::<u64>(), total);
        let cap = max_part_weight(total, 2, 0.05);
        assert!(p.part_weights.iter().all(|&w| w <= cap), "{p:?}");
    }

    #[test]
    fn respects_balance_on_weighted_graph() {
        // Vertex weights vary; balance must still hold.
        let mut b = crate::builder::GraphBuilder::new(100);
        for i in 0..99u32 {
            b.add_edge(i, i + 1, 1);
        }
        for i in 0..100u32 {
            b.set_vertex_weight(i, 1 + (i % 7));
        }
        let g = b.build();
        let p = partition(
            &g,
            &PartitionerConfig {
                k: 5,
                seed: 2,
                epsilon: 0.08,
                ..Default::default()
            },
        );
        let cap = ((g.total_vertex_weight() as f64) * 1.08 / 5.0).ceil() as u64;
        for (i, &w) in p.part_weights.iter().enumerate() {
            assert!(w <= cap + 7, "part {i} overweight: {w} > {cap}");
        }
    }
}
