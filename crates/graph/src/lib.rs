//! # schism-graph
//!
//! A from-scratch multilevel k-way balanced min-cut partitioner — the
//! substrate the Schism paper obtains from METIS (Karypis & Kumar) — for
//! the two co-access representations the advisor builds: a [`CsrGraph`]
//! (one clique per transaction, edge-cut objective) and a [`HyperGraph`]
//! (one net per transaction in dual-CSR form, (λ−1) connectivity objective
//! with a cut-net final stage).
//!
//! The partitioner follows the classic multilevel recipe: randomized
//! first-choice clustering (the hMETIS / PaToH coarsener) for both
//! representations, recursive-bisection initial partitioning
//! (greedy graph growing + Fiduccia–Mattheyses refinement), and greedy
//! k-way boundary refinement during uncoarsening, optionally repeated as
//! label-respecting V-cycles. It is deterministic for a fixed seed and
//! enforces a configurable balance constraint
//! `max_part <= (1 + epsilon) * total / k`.
//!
//! ## One driver, two incidence implementations
//!
//! A clique edge is a 2-pin net, so there is **one** driver:
//! [`partition()`] and [`partition_warm`] accept either representation and
//! are statically dispatched through a crate-private incidence trait that
//! both implement. The protocols exist once; an implementation supplies
//! only what depends on the representation:
//!
//! | | shared (written once) | graph | hypergraph |
//! |---|---|---|---|
//! | schedule ([`partition`](mod@partition)) | `ncuts` fan-out + best-of, cold descent, warm start, label-respecting V-cycle, level projection, balance cap, result | no extra stages | 2 more cold V-cycles, then a cut-net-primary V-cycle + flat polish |
//! | coarsening step ([`coarsen`]) | one coarsening step, two scorers, two caps: first-choice clustering — one seed draw + shuffle; every vertex rates its best candidate once, in parallel, by `(score, tie(seed, {v,u}))` among those of its label light enough to join it; then, in shuffle order, joins its target's cluster, taken or not, within the cap; the 2 % shrink floor and 64-level cap | score = edge weight, per adjacency entry; clusters ≤ half a part | score = heavy pins, `w·256/(|e|−1)` over shared nets ≤ 64 pins; clusters ≤ a twentieth of a part |
//! | contraction ([`coarsen`]) | coarse ids in first-member order, checked coarse weights, the level struct | merged adjacency, stitched in coarse-id order | remapped nets through a [`HyperEdgeBuffer`] per chunk, merged identical nets |
//! | coarsest seed ([`initial`]) | recursive bisection | on the level itself | on its clique expansion |
//! | refinement ([`refine`]) | parallel frozen scan of the active set (first pass: every vertex; later passes: whoever a move reported, plus whoever only the part weights held back) → `(Reverse(gain), v)` sort → sequential live re-validation; admissibility, take rule, tie to the lighter part | pull = edge weight into each part; nothing to remember; a move reports the neighbours | pull = weight of nets already spanning each part (nets ≤ 512 pins), plus the cut-net tie-break, read off a per-level tally Λ of pins per net and part; a move recounts its nets' rows and reports their pins |
//! | balance ([`refine::enforce_balance`]) | 4 sweeps, cheapest damage first, destination re-chosen live; on the way up a level it shares one tally with refinement | same pull | same pull |
//! | reported cost | [`Partitioning::edge_cut`] | [`edge_cut()`] | [`connectivity_cost`] |
//!
//! All phases run data-parallel over a [`schism_par::Pool`] sized by
//! [`PartitionerConfig::threads`] (default: `SCHISM_THREADS` or all
//! hardware threads), with a hard determinism contract: partition labels
//! and cost are **bit-identical for every thread count** — clustering
//! rates in parallel and joins sequentially,
//! contraction stitches chunk-built structure in a canonical order, and
//! refinement scans the boundary in parallel but serializes only the
//! conflict set of candidate moves. What refinement skips — vertices no
//! move touched since they last came out unmovable under any part weights
//! — it skips exactly: the result is the one a full rescan gives.
//!
//! ```
//! use schism_graph::{gen, partition, HyperGraphBuilder, PartitionerConfig};
//!
//! let g = gen::two_cliques(16, 1);
//! let p = partition(&g, &PartitionerConfig::with_k(2));
//! assert_eq!(p.edge_cut, 1); // only the bridge edge is cut
//!
//! // The same entry point partitions a hypergraph.
//! let mut b = HyperGraphBuilder::new(6);
//! b.add_net(&[0, 1, 2], 5);
//! b.add_net(&[3, 4, 5], 5);
//! b.add_net(&[2, 3], 1);
//! let p = partition(&b.build(), &PartitionerConfig::with_k(2));
//! assert_eq!(p.edge_cut, 1); // only the 2-pin bridge net is cut
//! ```

pub mod builder;
pub mod coarsen;
pub mod csr;
pub mod gen;
mod hpartition;
pub mod hypergraph;
mod incidence;
pub mod initial;
pub mod metrics;
pub mod partition;
pub mod refine;

pub use builder::{EdgeBuffer, GraphBuilder};
pub use csr::{CsrGraph, NodeId};
pub use hpartition::connectivity_cost;
pub use hypergraph::{HyperEdgeBuffer, HyperGraph, HyperGraphBuilder};
pub use metrics::{edge_cut, imbalance, part_weights};
pub use partition::{partition, partition_warm, PartitionerConfig, Partitioning};
