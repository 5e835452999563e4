//! C4.5-style decision tree (the algorithm behind Weka's J48, which Schism
//! uses for its explanation phase, §5.2).
//!
//! - every attribute is an ordered `i64`: binary splits `value <= threshold`
//! - split criterion: gain ratio
//! - stopping: purity, `min_split`, `min_leaf`, `max_depth`
//! - pruning: pessimistic error-based subtree replacement (see
//!   [`crate::prune`]), controlled by a confidence factor

use crate::dataset::Dataset;
use crate::entropy::{entropy, split_entropy};

/// Training knobs. Defaults mirror C4.5/J48 defaults; Schism cranks
/// `min_leaf` up ("aggressive pruning ... to eliminate rules with little
/// support", §4.3).
#[derive(Clone, Debug)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum rows on each side of a split / in a leaf.
    pub min_leaf: u32,
    /// Minimum rows required to attempt any split.
    pub min_split: u32,
    /// Confidence factor for pessimistic pruning (C4.5 default 0.25);
    /// smaller prunes harder. `>= 1.0` disables pruning.
    pub prune_cf: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self {
            max_depth: 30,
            min_leaf: 2,
            min_split: 4,
            prune_cf: 0.25,
        }
    }
}

/// Per-node training statistics, kept for pruning and rule support.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeStats {
    /// Training rows that reached the node.
    pub n: u32,
    /// Majority class among them.
    pub majority: u32,
    /// Training rows not of the majority class.
    pub errors: u32,
}

/// Decision tree node.
#[derive(Clone, Debug)]
pub enum Node {
    Leaf {
        stats: NodeStats,
    },
    /// Binary split: `value <= threshold` goes left.
    Num {
        stats: NodeStats,
        attr: usize,
        threshold: i64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    pub fn stats(&self) -> NodeStats {
        match self {
            Node::Leaf { stats } | Node::Num { stats, .. } => *stats,
        }
    }
}

/// A trained decision tree.
#[derive(Clone, Debug)]
pub struct DecisionTree {
    pub(crate) root: Node,
    num_attrs: usize,
}

impl DecisionTree {
    /// Trains on the whole dataset.
    pub fn train(ds: &Dataset, cfg: &TreeConfig) -> Self {
        let rows: Vec<u32> = (0..ds.len() as u32).collect();
        Self::train_on(ds, rows, cfg)
    }

    /// Trains on a subset of rows (used by cross-validation).
    pub fn train_on(ds: &Dataset, mut rows: Vec<u32>, cfg: &TreeConfig) -> Self {
        let mut root = if rows.is_empty() {
            Node::Leaf {
                stats: NodeStats {
                    n: 0,
                    majority: 0,
                    errors: 0,
                },
            }
        } else {
            build(ds, &mut rows, cfg.max_depth, cfg)
        };
        if cfg.prune_cf < 1.0 {
            crate::prune::prune(&mut root, cfg.prune_cf);
        }
        Self {
            root,
            num_attrs: ds.num_attrs(),
        }
    }

    /// Predicts the class of a row given as one value per attribute.
    pub fn predict(&self, row: &[i64]) -> u32 {
        assert_eq!(row.len(), self.num_attrs, "row arity mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { stats } => return stats.majority,
                Node::Num {
                    attr,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*attr] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Fraction of `rows` the tree classifies correctly.
    pub fn accuracy_on(&self, ds: &Dataset, rows: &[u32]) -> f64 {
        if rows.is_empty() {
            return 1.0;
        }
        let mut buf = vec![0i64; ds.num_attrs()];
        let correct = rows
            .iter()
            .filter(|&&r| {
                for (a, slot) in buf.iter_mut().enumerate() {
                    *slot = ds.value(a, r as usize);
                }
                self.predict(&buf) == ds.label(r as usize)
            })
            .count();
        correct as f64 / rows.len() as f64
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Num { left, right, .. } => walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }

    /// Depth (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Num { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }

    /// Root node (read-only), for rule extraction.
    pub fn root(&self) -> &Node {
        &self.root
    }
}

fn stats_of(counts: &[u32]) -> NodeStats {
    let n: u32 = counts.iter().sum();
    let (majority, maj_n) = counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, &m)| (c as u32, m))
        .unwrap_or((0, 0));
    NodeStats {
        n,
        majority,
        errors: n - maj_n,
    }
}

struct BestSplit {
    attr: usize,
    gain_ratio: f64,
    threshold: i64,
}

fn build(ds: &Dataset, rows: &mut [u32], depth_left: usize, cfg: &TreeConfig) -> Node {
    let counts = ds.class_counts(rows);
    let stats = stats_of(&counts);
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || stats.n < cfg.min_split || depth_left == 0 {
        return Node::Leaf { stats };
    }

    let best = find_best_split(ds, rows, &counts, cfg);
    let best = match best {
        Some(b) if b.gain_ratio > 1e-10 => b,
        _ => return Node::Leaf { stats },
    };

    // Partition rows in place: `<= threshold` first.
    let mid = partition_in_place(rows, |r| ds.value(best.attr, r as usize) <= best.threshold);
    if mid == 0 || mid == rows.len() {
        return Node::Leaf { stats };
    }
    let (l, r) = rows.split_at_mut(mid);
    let left = build(ds, l, depth_left - 1, cfg);
    let right = build(ds, r, depth_left - 1, cfg);
    Node::Num {
        stats,
        attr: best.attr,
        threshold: best.threshold,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn find_best_split(
    ds: &Dataset,
    rows: &[u32],
    parent_counts: &[u32],
    cfg: &TreeConfig,
) -> Option<BestSplit> {
    let mut best: Option<BestSplit> = None;
    let nc = ds.num_classes() as usize;
    for attr in 0..ds.num_attrs() {
        if let Some(c) = best_numeric_split(ds, rows, parent_counts, attr, nc, cfg) {
            match &best {
                Some(b) if b.gain_ratio >= c.gain_ratio => {}
                _ => best = Some(c),
            }
        }
    }
    best
}

fn best_numeric_split(
    ds: &Dataset,
    rows: &[u32],
    parent_counts: &[u32],
    attr: usize,
    nc: usize,
    cfg: &TreeConfig,
) -> Option<BestSplit> {
    // Sort (value, label) and scan boundaries between distinct values.
    let mut pairs: Vec<(i64, u32)> = rows
        .iter()
        .map(|&r| (ds.value(attr, r as usize), ds.label(r as usize)))
        .collect();
    pairs.sort_unstable_by_key(|&(v, _)| v);
    let n = pairs.len();
    // `info_gain` and `gain_ratio` taken apart so that what does not depend
    // on the threshold is computed once: the parent entropy, and the gain
    // the ratio divides. Same operations on the same operands, so every
    // float matches theirs to the bit.
    let parent_entropy = entropy(parent_counts);
    let mut left = vec![0u32; nc];
    let mut right = vec![0u32; nc];
    // Candidate thresholds with (gain, gain_ratio). Gain ratio alone favors
    // degenerate peel-one-row splits (the split-info denominator collapses),
    // so — like C4.5 — only candidates with at-least-average gain compete on
    // gain ratio.
    let mut candidates: Vec<(f64, f64, i64)> = Vec::new();
    for i in 0..n - 1 {
        left[pairs[i].1 as usize] += 1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue; // not a boundary
        }
        let left_n = (i + 1) as u32;
        let right_n = (n - i - 1) as u32;
        if left_n < cfg.min_leaf || right_n < cfg.min_leaf {
            continue;
        }
        for (r, (&p, &l)) in right.iter_mut().zip(parent_counts.iter().zip(&left)) {
            *r = p - l;
        }
        let gain = parent_entropy - split_entropy(&[&left, &right]);
        if gain > 1e-10 {
            let split_info = entropy(&[left_n, right_n]);
            let gr = if split_info <= f64::EPSILON {
                0.0
            } else {
                gain / split_info
            };
            candidates.push((gain, gr, pairs[i].0));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let avg_gain: f64 =
        candidates.iter().map(|&(g, _, _)| g).sum::<f64>() / candidates.len() as f64;
    candidates
        .into_iter()
        .filter(|&(g, _, _)| g + 1e-12 >= avg_gain)
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(_, gr, threshold)| BestSplit {
            attr,
            gain_ratio: gr,
            threshold,
        })
}

/// Stable-ish in-place partition; returns the number of rows satisfying the
/// predicate (moved to the front).
fn partition_in_place(rows: &mut [u32], pred: impl Fn(u32) -> bool) -> usize {
    let mut i = 0usize;
    for j in 0..rows.len() {
        if pred(rows[j]) {
            rows.swap(i, j);
            i += 1;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::entropy::{gain_ratio, info_gain};
    use proptest::prelude::*;

    /// The paper's TPC-C stock example: label = partition, split on s_w_id.
    fn warehouse_dataset() -> Dataset {
        let mut b = DatasetBuilder::new().numeric("s_i_id").numeric("s_w_id");
        for i in 0..50 {
            b.row(&[i, 1], 0);
            b.row(&[i, 2], 1);
        }
        b.build()
    }

    #[test]
    fn learns_warehouse_rule() {
        let ds = warehouse_dataset();
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert_eq!(tree.predict(&[7, 1]), 0);
        assert_eq!(tree.predict(&[7, 2]), 1);
        assert_eq!(tree.num_leaves(), 2, "one split suffices");
        // The split must be on s_w_id (attr 1), not the uninformative item id.
        match tree.root() {
            Node::Num {
                attr, threshold, ..
            } => {
                assert_eq!(*attr, 1);
                assert_eq!(*threshold, 1); // s_w_id <= 1 -> partition 0
            }
            other => panic!("expected numeric split, got {other:?}"),
        }
        assert_eq!(tree.accuracy_on(&ds, &(0..100).collect::<Vec<_>>()), 1.0);
    }

    #[test]
    fn pure_dataset_is_single_leaf() {
        let mut b = DatasetBuilder::new().numeric("x");
        for i in 0..10 {
            b.row(&[i], 3);
        }
        let ds = b.build();
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.predict(&[99]), 3);
    }

    #[test]
    fn min_leaf_blocks_tiny_splits() {
        // One stray row of class 1 among 20 of class 0: with min_leaf 5 no
        // leaf smaller than 5 rows exists, so the stray row can never be
        // isolated — every prediction is the majority class.
        let mut b = DatasetBuilder::new().numeric("x");
        for i in 0..20 {
            b.row(&[i], 0);
        }
        b.row(&[100], 1);
        let ds = b.build();
        let cfg = TreeConfig {
            min_leaf: 5,
            prune_cf: 1.0,
            ..Default::default()
        };
        let tree = DecisionTree::train(&ds, &cfg);
        assert_eq!(tree.predict(&[100]), 0, "stray row must not get a rule");
        assert_eq!(tree.predict(&[0]), 0);
        // Any leaves that do exist carry >= min_leaf support.
        let rules = crate::rules::extract_rules(&tree);
        assert!(rules.iter().all(|r| r.support >= 5), "{rules:?}");
    }

    #[test]
    fn conjunction_needs_two_levels() {
        // label = (x >= 5 AND y >= 5): one split cannot express it.
        let mut b = DatasetBuilder::new().numeric("x").numeric("y");
        for x in 0..10 {
            for y in 0..10 {
                b.row(&[x, y], u32::from(x >= 5 && y >= 5));
            }
        }
        let ds = b.build();
        let cfg = TreeConfig {
            min_leaf: 1,
            min_split: 2,
            prune_cf: 1.0,
            ..Default::default()
        };
        let tree = DecisionTree::train(&ds, &cfg);
        assert!(tree.depth() >= 3, "conjunction requires nested splits");
        for (x, y) in [(0, 0), (0, 9), (9, 0), (9, 9), (4, 9), (5, 5)] {
            let want = u32::from(x >= 5 && y >= 5);
            assert_eq!(tree.predict(&[x, y]), want, "({x},{y})");
        }
    }

    /// The split search as the formulas state it: `info_gain` and
    /// `gain_ratio` evaluated from scratch at every boundary.
    fn reference_numeric_split(
        pairs: &[(i64, u32)],
        parent: &[u32],
        min_leaf: u32,
    ) -> Option<(i64, f64)> {
        let n = pairs.len();
        let mut candidates = Vec::new();
        for i in 0..n - 1 {
            if pairs[i].0 == pairs[i + 1].0 || ((i + 1).min(n - i - 1) as u32) < min_leaf {
                continue;
            }
            let mut left = vec![0u32; parent.len()];
            let mut right = vec![0u32; parent.len()];
            for (j, &(_, l)) in pairs.iter().enumerate() {
                let side = if j <= i { &mut left } else { &mut right };
                side[l as usize] += 1;
            }
            let gain = info_gain(parent, &[&left, &right]);
            if gain > 1e-10 {
                let ratio = gain_ratio(parent, &[&left, &right]);
                candidates.push((gain, ratio, pairs[i].0));
            }
        }
        let avg = candidates.iter().map(|c| c.0).sum::<f64>() / candidates.len() as f64;
        candidates
            .into_iter()
            .filter(|c| c.0 + 1e-12 >= avg)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(_, ratio, threshold)| (threshold, ratio))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Hoisting the parent entropy and deriving the ratio from the gain
        /// already computed changes no float: same threshold, same gain
        /// ratio to the bit, on wide-range and heavily tied values alike.
        #[test]
        fn numeric_split_matches_reference_formulas(
            rows in prop::collection::vec((0..40i64, 0..5u32), 2..120),
            spread in 1..1_000i64,
            min_leaf in 1..6u32,
        ) {
            let mut b = DatasetBuilder::new().numeric("x");
            for &(v, label) in &rows {
                b.row(&[v * spread], label);
            }
            let ds = b.build();
            let all: Vec<u32> = (0..ds.len() as u32).collect();
            let parent = ds.class_counts(&all);
            let cfg = TreeConfig { min_leaf, ..Default::default() };
            let got = best_numeric_split(&ds, &all, &parent, 0, parent.len(), &cfg)
                .map(|s| (s.threshold, s.gain_ratio.to_bits()));
            let mut pairs: Vec<(i64, u32)> = rows.iter().map(|&(v, l)| (v * spread, l)).collect();
            pairs.sort_by_key(|&(v, _)| v);
            let want = reference_numeric_split(&pairs, &parent, min_leaf)
                .map(|(threshold, ratio)| (threshold, ratio.to_bits()));
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn majority_tie_prefers_lower_class() {
        let stats = NodeStats {
            n: 7,
            majority: 1,
            errors: 4,
        };
        assert_eq!(stats_of(&[0, 3, 3, 1]), stats);
        // Two rows no threshold separates: one leaf, of the lower class.
        let mut b = DatasetBuilder::new().numeric("x");
        b.row(&[1], 1);
        b.row(&[1], 0);
        let tree = DecisionTree::train(&b.build(), &TreeConfig::default());
        assert_eq!((tree.num_leaves(), tree.predict(&[1])), (1, 0));
    }

    #[test]
    fn empty_dataset_gives_default_leaf() {
        let ds = DatasetBuilder::new().numeric("x").build();
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert_eq!(tree.predict(&[5]), 0);
    }
}
