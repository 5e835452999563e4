//! Rule extraction: flattens a decision tree into the predicate rules the
//! paper shows, e.g. `s_w_id <= 1 -> partition 1 (pred. error 1.49%)`.

use crate::tree::{DecisionTree, Node};

/// One condition on one attribute: `lo <= value <= hi`. The bounds are
/// inclusive; unconstrained ends use `i64::MIN` / `i64::MAX`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cond {
    pub attr: usize,
    pub lo: i64,
    pub hi: i64,
}

impl Cond {
    /// Whether `row` satisfies the condition.
    pub fn matches(&self, row: &[i64]) -> bool {
        (self.lo..=self.hi).contains(&row[self.attr])
    }
}

/// A classification rule: a conjunction of conditions implying a label.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    pub conds: Vec<Cond>,
    pub label: u32,
    /// Training rows that reached the leaf.
    pub support: u32,
    /// Fraction of those rows the leaf misclassifies (the paper's
    /// "pred. error").
    pub error_rate: f64,
}

impl Rule {
    /// Whether `row` satisfies every condition.
    pub fn matches(&self, row: &[i64]) -> bool {
        self.conds.iter().all(|c| c.matches(row))
    }

    /// Renders like the paper: `s_w_id <= 1: partition 0 (err 1.5%)`.
    pub fn render(&self, attr_names: &[&str]) -> String {
        let mut parts: Vec<String> = Vec::new();
        for &Cond { attr, lo, hi } in &self.conds {
            let name = attr_names[attr];
            match (lo == i64::MIN, hi == i64::MAX) {
                (true, true) => {}
                (true, false) => parts.push(format!("{name} <= {hi}")),
                (false, true) => parts.push(format!("{name} >= {lo}")),
                (false, false) => parts.push(format!("{lo} <= {name} <= {hi}")),
            }
        }
        let lhs = if parts.is_empty() {
            "<empty>".to_owned()
        } else {
            parts.join(" AND ")
        };
        format!(
            "{lhs}: label {} (support {}, pred. error {:.2}%)",
            self.label,
            self.support,
            self.error_rate * 100.0
        )
    }
}

/// Extracts one rule per leaf. Conditions accumulated along a path are
/// merged into a single inclusive range per attribute.
pub fn extract_rules(tree: &DecisionTree) -> Vec<Rule> {
    let mut rules = Vec::new();
    let mut path: Vec<Cond> = Vec::new();
    walk(tree.root(), &mut path, &mut rules);
    rules
}

fn walk(node: &Node, path: &mut Vec<Cond>, out: &mut Vec<Rule>) {
    match node {
        Node::Leaf { stats } => {
            let conds = merge_conditions(path);
            let error_rate = if stats.n == 0 {
                0.0
            } else {
                stats.errors as f64 / stats.n as f64
            };
            out.push(Rule {
                conds,
                label: stats.majority,
                support: stats.n,
                error_rate,
            });
        }
        Node::Num {
            attr,
            threshold,
            left,
            right,
            ..
        } => {
            path.push(Cond {
                attr: *attr,
                lo: i64::MIN,
                hi: *threshold,
            });
            walk(left, path, out);
            path.pop();
            let lo = threshold.saturating_add(1);
            path.push(Cond {
                attr: *attr,
                lo,
                hi: i64::MAX,
            });
            walk(right, path, out);
            path.pop();
        }
    }
}

/// Intersects the ranges on each attribute, in first-seen attribute order.
fn merge_conditions(path: &[Cond]) -> Vec<Cond> {
    let mut out: Vec<Cond> = Vec::new();
    for &c in path {
        match out.iter_mut().find(|e| e.attr == c.attr) {
            Some(e) => {
                e.lo = e.lo.max(c.lo);
                e.hi = e.hi.min(c.hi);
            }
            None => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::tree::TreeConfig;

    #[test]
    fn warehouse_rules_match_paper_shape() {
        // TPC-C stock: s_w_id in {1, 2}, partition = s_w_id - 1.
        let mut b = DatasetBuilder::new().numeric("s_i_id").numeric("s_w_id");
        for i in 0..50 {
            b.row(&[i, 1], 0);
            b.row(&[i, 2], 1);
        }
        let ds = b.build();
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        let rules = extract_rules(&tree);
        assert_eq!(rules.len(), 2);
        let names = ["s_i_id", "s_w_id"];
        let rendered: Vec<String> = rules.iter().map(|r| r.render(&names)).collect();
        assert!(
            rendered[0].starts_with("s_w_id <= 1: label 0"),
            "got {rendered:?}"
        );
        assert!(
            rendered[1].starts_with("s_w_id >= 2: label 1"),
            "got {rendered:?}"
        );
        // Rules behave like the tree.
        for row in [[10, 1], [10, 2]] {
            let by_tree = tree.predict(&row);
            let by_rule = rules
                .iter()
                .find(|r| r.matches(&row))
                .expect("covered")
                .label;
            assert_eq!(by_tree, by_rule);
        }
    }

    #[test]
    fn nested_ranges_merge() {
        // Three classes split at 10 and 20 -> middle rule must be a closed
        // range 11..=20.
        let mut b = DatasetBuilder::new().numeric("x");
        for i in 0..30 {
            b.row(
                &[i],
                if i <= 10 {
                    0
                } else if i <= 20 {
                    1
                } else {
                    2
                },
            );
        }
        let ds = b.build();
        let tree = DecisionTree::train(
            &ds,
            &TreeConfig {
                min_leaf: 1,
                min_split: 2,
                ..Default::default()
            },
        );
        let rules = extract_rules(&tree);
        assert_eq!(rules.len(), 3);
        let middle = rules.iter().find(|r| r.label == 1).expect("class 1 rule");
        assert_eq!(middle.conds.len(), 1, "ranges must merge into one cond");
        assert_eq!((middle.conds[0].lo, middle.conds[0].hi), (11, 20));
    }

    #[test]
    fn single_leaf_yields_empty_rule() {
        let mut b = DatasetBuilder::new().numeric("x");
        for i in 0..5 {
            b.row(&[i], 0);
        }
        let ds = b.build();
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        let rules = extract_rules(&tree);
        assert_eq!(rules.len(), 1);
        assert!(rules[0].conds.is_empty());
        assert!(rules[0].render(&["x"]).starts_with("<empty>: label 0"));
        assert!(rules[0].matches(&[42]));
    }

    #[test]
    fn rules_partition_the_space() {
        // Every row matches exactly one rule (trees induce a partition).
        let mut b = DatasetBuilder::new().numeric("x").numeric("y");
        for x in 0..10 {
            for y in 0..10 {
                b.row(&[x, y], u32::from(x + y >= 10));
            }
        }
        let ds = b.build();
        let tree = DecisionTree::train(
            &ds,
            &TreeConfig {
                min_leaf: 1,
                min_split: 2,
                prune_cf: 1.0,
                ..Default::default()
            },
        );
        let rules = extract_rules(&tree);
        for x in 0..10i64 {
            for y in 0..10i64 {
                let hits = rules.iter().filter(|r| r.matches(&[x, y])).count();
                assert_eq!(hits, 1, "row ({x},{y}) matched {hits} rules");
            }
        }
    }
}
