//! C4.5-style decision tree (the algorithm behind Weka's J48, which Schism
//! uses for its explanation phase, §5.2).
//!
//! - every attribute is an ordered `i64`: binary splits `value <= threshold`
//! - split criterion: gain ratio, in C4.5's count form (see
//!   [`crate::entropy`]): `c·log2 c` is read from the dataset's table, so a
//!   candidate threshold costs additions only
//! - stopping: purity, `min_split`, `min_leaf`, `max_depth`
//! - pruning: pessimistic error-based subtree replacement (see
//!   [`crate::prune`]), controlled by a confidence factor
//!
//! J48 sorts a node's rows by each attribute at every node. Here
//! [`DecisionTree::train_on`] sorts them once per tree, into one list per
//! attribute (SLIQ's attribute lists); a split marks each row left or
//! right and partitions every list stably into its two halves, so each
//! child's lists come out sorted. Only boundaries between distinct values
//! are candidates, and the counts there do not depend on the order of
//! rows within a tie, so the tree is the one per-node sorting grows (the
//! tests keep that builder as the reference).

use crate::dataset::Dataset;
use crate::entropy::{children_entropy, count_entropy};
use std::ops::Range;

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
        Self::train_on(ds, &rows, cfg)
    }

    /// Trains on a subset of rows (used by cross-validation).
    ///
    /// Sorts `rows` once per attribute; every split below partitions those
    /// lists instead of sorting again.
    pub fn train_on(ds: &Dataset, rows: &[u32], cfg: &TreeConfig) -> Self {
        let mut root = if rows.is_empty() {
            Node::Leaf {
                stats: NodeStats {
                    n: 0,
                    majority: 0,
                    errors: 0,
                },
            }
        } else {
            let lists = (0..ds.num_attrs())
                .map(|a| {
                    let mut list: Vec<Entry> = rows
                        .iter()
                        .map(|&row| Entry {
                            value: ds.value(a, row as usize),
                            row,
                            label: ds.label(row as usize),
                        })
                        .collect();
                    list.sort_unstable_by_key(|e| e.value);
                    list
                })
                .collect();
            let mut builder = Builder {
                cfg,
                f: ds.xlog2x_table(),
                lists,
                goes_left: vec![false; ds.len()],
                spill: Vec::with_capacity(rows.len()),
            };
            builder.build(0..rows.len(), ds.class_counts(rows), cfg.max_depth)
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

/// One row in an attribute's sorted list: the attribute's value, the row,
/// and its label, so a scan reads neither the column nor the labels.
#[derive(Clone, Copy)]
struct Entry {
    value: i64,
    row: u32,
    label: u32,
}

/// The best threshold of one attribute at one node.
struct BestSplit {
    gain_ratio: f64,
    threshold: i64,
    /// Rows at or below `threshold`: a prefix of the attribute's list.
    left_n: usize,
}

/// Grows one tree over attribute lists sorted once, at the root.
struct Builder<'a> {
    cfg: &'a TreeConfig,
    /// `c·log2 c` by count.
    f: &'a [f64],
    /// `lists[a]`: the tree's rows sorted by attribute `a`. A node owns the
    /// same index range of every list, each sorted within it.
    lists: Vec<Vec<Entry>>,
    /// Per dataset row: whether it goes left at the split being applied.
    goes_left: Vec<bool>,
    /// A list's right half while that list is partitioned.
    spill: Vec<Entry>,
}

impl Builder<'_> {
    fn build(&mut self, range: Range<usize>, counts: Vec<u32>, depth_left: usize) -> Node {
        let stats = stats_of(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || stats.n < self.cfg.min_split || depth_left == 0 {
            return Node::Leaf { stats };
        }

        let parent = count_entropy(&counts, |c| self.f[c as usize]);
        let mut best: Option<(usize, BestSplit)> = None;
        for (attr, list) in self.lists.iter().enumerate() {
            let seg = &list[range.clone()];
            if let Some(c) = best_numeric_split(seg, &counts, parent, self.f, self.cfg.min_leaf) {
                match &best {
                    Some((_, b)) if b.gain_ratio >= c.gain_ratio => {}
                    _ => best = Some((attr, c)),
                }
            }
        }
        let (attr, best) = match best {
            Some((a, b)) if b.gain_ratio > 1e-10 => (a, b),
            _ => return Node::Leaf { stats },
        };

        // The chosen list is split already: its prefix goes left. Flag its
        // rows, then split every other list stably by the flags.
        let mid = range.start + best.left_n;
        let mut left_counts = vec![0u32; counts.len()];
        let mut right_counts = counts.clone();
        for (i, e) in self.lists[attr][range.clone()].iter().enumerate() {
            let left = i < best.left_n;
            self.goes_left[e.row as usize] = left;
            if left {
                left_counts[e.label as usize] += 1;
                right_counts[e.label as usize] -= 1;
            }
        }
        for a in (0..self.lists.len()).filter(|&a| a != attr) {
            let seg = &mut self.lists[a][range.clone()];
            self.spill.clear();
            let mut kept = 0;
            for i in 0..seg.len() {
                let e = seg[i];
                if self.goes_left[e.row as usize] {
                    seg[kept] = e;
                    kept += 1;
                } else {
                    self.spill.push(e);
                }
            }
            seg[kept..].copy_from_slice(&self.spill);
        }
        let left = self.build(range.start..mid, left_counts, depth_left - 1);
        let right = self.build(mid..range.end, right_counts, depth_left - 1);
        Node::Num {
            stats,
            attr,
            threshold: best.threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

/// The best threshold of one attribute over a node's rows, `seg` sorted by
/// value. `parent` is the node's count-form entropy of `parent_counts`.
/// Only boundaries between distinct values are candidates, so the order of
/// rows within a tie changes nothing.
fn best_numeric_split(
    seg: &[Entry],
    parent_counts: &[u32],
    parent: f64,
    f: &[f64],
    min_leaf: u32,
) -> Option<BestSplit> {
    let f = |c: u32| f[c as usize];
    let n = seg.len();
    let nf = n as f64;
    let mut left = vec![0u32; parent_counts.len()];
    let mut right = vec![0u32; parent_counts.len()];
    // Candidate thresholds with (gain, gain_ratio, left_n). Gain ratio alone
    // favors degenerate peel-one-row splits (the split-info denominator
    // collapses), so — like C4.5 — only candidates with at-least-average
    // gain compete on gain ratio. The floats are `info_gain` and
    // `gain_ratio`'s: the same operations on the same operands.
    let mut candidates: Vec<(f64, f64, usize)> = Vec::new();
    for i in 0..n.saturating_sub(1) {
        left[seg[i].label as usize] += 1;
        if seg[i].value == seg[i + 1].value {
            continue; // not a boundary
        }
        let left_n = (i + 1) as u32;
        let right_n = (n - i - 1) as u32;
        if left_n < min_leaf || right_n < min_leaf {
            continue;
        }
        for (r, (&p, &l)) in right.iter_mut().zip(parent_counts.iter().zip(&left)) {
            *r = p - l;
        }
        let gain = (parent - children_entropy(&[&left, &right], f)) / nf;
        if gain > 1e-10 {
            let split_info = count_entropy(&[left_n, right_n], f) / nf;
            let gr = if split_info <= f64::EPSILON {
                0.0
            } else {
                gain / split_info
            };
            candidates.push((gain, gr, i + 1));
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
        .map(|(_, gain_ratio, left_n)| BestSplit {
            gain_ratio,
            threshold: seg[left_n - 1].value,
            left_n,
        })
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
    /// `gain_ratio` evaluated from scratch at every boundary of `pairs`,
    /// sorted by value.
    fn reference_numeric_split(
        pairs: &[(i64, u32)],
        parent: &[u32],
        min_leaf: u32,
    ) -> Option<(i64, f64)> {
        let n = pairs.len();
        let mut left = vec![0u32; parent.len()];
        let mut candidates = Vec::new();
        for i in 0..n.saturating_sub(1) {
            left[pairs[i].1 as usize] += 1;
            if pairs[i].0 == pairs[i + 1].0 || ((i + 1).min(n - i - 1) as u32) < min_leaf {
                continue;
            }
            let right: Vec<u32> = parent.iter().zip(&left).map(|(&p, &l)| p - l).collect();
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

    /// The tree as C4.5 grows it: every node sorts its rows by each
    /// attribute afresh and takes the split `reference_numeric_split`
    /// picks; the first attribute wins a tie.
    fn reference_build(
        ds: &Dataset,
        rows: &mut [u32],
        depth_left: usize,
        cfg: &TreeConfig,
    ) -> Node {
        let counts = ds.class_counts(rows);
        let stats = stats_of(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || stats.n < cfg.min_split || depth_left == 0 {
            return Node::Leaf { stats };
        }
        let mut best: Option<(usize, i64, f64)> = None;
        for attr in 0..ds.num_attrs() {
            let mut pairs: Vec<(i64, u32)> = rows
                .iter()
                .map(|&r| (ds.value(attr, r as usize), ds.label(r as usize)))
                .collect();
            pairs.sort_by_key(|&(v, _)| v);
            if let Some((threshold, ratio)) = reference_numeric_split(&pairs, &counts, cfg.min_leaf)
            {
                match best {
                    Some((_, _, b)) if b >= ratio => {}
                    _ => best = Some((attr, threshold, ratio)),
                }
            }
        }
        let Some((attr, threshold, _)) = best.filter(|b| b.2 > 1e-10) else {
            return Node::Leaf { stats };
        };
        rows.sort_by_key(|&r| ds.value(attr, r as usize) > threshold);
        let mid = rows.partition_point(|&r| ds.value(attr, r as usize) <= threshold);
        let (l, r) = rows.split_at_mut(mid);
        Node::Num {
            stats,
            attr,
            threshold,
            left: Box::new(reference_build(ds, l, depth_left - 1, cfg)),
            right: Box::new(reference_build(ds, r, depth_left - 1, cfg)),
        }
    }

    /// One tuple: four attribute values, a label, and a weight.
    type Tuple = ((i64, i64, i64, i64), u32, u32);

    /// The first `attrs` values of each tuple, the row repeated `weight`
    /// times as `explain_table` weights tuples by access count (a weight of
    /// 33 or more counts once: most tuples are rarely accessed).
    fn weighted_dataset(tuples: &[Tuple], attrs: usize) -> Dataset {
        let mut b = ["a", "b", "c", "d"][..attrs]
            .iter()
            .fold(DatasetBuilder::new(), |b, name| b.numeric(name));
        for &((a, bb, c, d), label, weight) in tuples {
            let weight = if weight > 32 { 1 } else { weight };
            for _ in 0..weight {
                b.row(&[a, bb, c, d][..attrs], label);
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The count-form scan over a presorted list computes what the
        /// formulas state: same threshold, same gain ratio to the bit, on
        /// wide-range and heavily tied values alike.
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
            let mut seg: Vec<Entry> = all
                .iter()
                .map(|&row| Entry { value: ds.value(0, row as usize), row, label: ds.label(row as usize) })
                .collect();
            seg.sort_by_key(|e| e.value);
            let f = ds.xlog2x_table();
            let parent_h = count_entropy(&parent, |c| f[c as usize]);
            let got = best_numeric_split(&seg, &parent, parent_h, f, min_leaf)
                .map(|s| (s.threshold, s.gain_ratio.to_bits()));
            let mut pairs: Vec<(i64, u32)> = rows.iter().map(|&(v, l)| (v * spread, l)).collect();
            pairs.sort_by_key(|&(v, _)| v);
            let want = reference_numeric_split(&pairs, &parent, min_leaf)
                .map(|(threshold, ratio)| (threshold, ratio.to_bits()));
            prop_assert_eq!(got, want);
        }

        /// Sorting once and partitioning the lists grows the tree that
        /// sorting at every node grows, pruned or not, on the whole dataset
        /// and on the row subsets cross-validation trains on.
        #[test]
        fn presorted_tree_matches_per_node_sort(
            tuples in prop::collection::vec(
                ((0..6i64, 0..6i64, 0..3i64, 0..40i64), 0..5u32, 1..65u32),
                1..48,
            ),
            attrs in 1..=4usize,
            min_leaf in 1..8u32,
            max_depth in 1..12usize,
            prune in 0..2u32,
            held in 0..6u32,
        ) {
            let ds = weighted_dataset(&tuples, attrs);
            let cfg = TreeConfig {
                max_depth,
                min_leaf,
                min_split: min_leaf * 2,
                prune_cf: if prune == 1 { 0.25 } else { 1.0 },
            };
            // `held == 5` trains on every row; otherwise one fold of five is
            // left out, as `cross_validate` leaves it out.
            let rows: Vec<u32> = (0..ds.len() as u32).filter(|r| r % 5 != held).collect();
            let got = DecisionTree::train_on(&ds, &rows, &cfg);
            let mut want = if rows.is_empty() {
                Node::Leaf { stats: stats_of(&[]) }
            } else {
                reference_build(&ds, &mut rows.clone(), cfg.max_depth, &cfg)
            };
            if prune == 1 {
                crate::prune::prune(&mut want, cfg.prune_cf);
            }
            prop_assert_eq!(format!("{:?}", got.root()), format!("{:?}", want));
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
