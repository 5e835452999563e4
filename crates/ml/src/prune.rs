//! Pessimistic error-based pruning (C4.5 subtree replacement).
//!
//! C4.5 treats the training error of each leaf as a binomial sample and
//! replaces a subtree by a leaf whenever the leaf's *upper confidence bound*
//! on errors is no worse than the sum over the subtree's leaves. The
//! confidence factor (default 0.25) sets the one-sided confidence level —
//! lower CF means a larger z, more pessimism about deep structure, harder
//! pruning. Schism prunes aggressively to drop "rules with little support"
//! (§4.3).

use crate::tree::Node;

/// Prunes `node` in place with confidence factor `cf`.
pub fn prune(node: &mut Node, cf: f64) {
    let z = z_for_cf(cf);
    prune_rec(node, z);
}

fn prune_rec(node: &mut Node, z: f64) -> f64 {
    let stats = node.stats();
    match node {
        Node::Leaf { .. } => upper_error(stats.n, stats.errors, z),
        Node::Num { left, right, .. } => {
            let subtree_errors = prune_rec(left, z) + prune_rec(right, z);
            let as_leaf = upper_error(stats.n, stats.errors, z);
            // C4.5 replaces when the collapsed leaf is no worse (plus a
            // small slack in favour of the simpler model).
            if as_leaf <= subtree_errors + 0.1 {
                *node = Node::Leaf { stats };
                as_leaf
            } else {
                subtree_errors
            }
        }
    }
}

/// Upper confidence bound on the *count* of errors among `n` samples with
/// `e` observed errors, at one-sided confidence `z` (Wilson score interval,
/// the standard approximation of C4.5's binomial limit).
pub fn upper_error(n: u32, e: u32, z: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    let f = e as f64 / n;
    let z2 = z * z;
    let ub =
        (f + z2 / (2.0 * n) + z * (f / n - f * f / n + z2 / (4.0 * n * n)).sqrt()) / (1.0 + z2 / n);
    ub * n
}

/// One-sided standard-normal quantile `z = Φ⁻¹(1 - cf)` via the
/// Beasley–Springer–Moro / Acklam rational approximation (max error ~1e-9,
/// far below what pruning needs).
pub fn z_for_cf(cf: f64) -> f64 {
    let p = (1.0 - cf).clamp(1e-9, 1.0 - 1e-9);
    inverse_normal_cdf(p)
}

fn inverse_normal_cdf(p: f64) -> f64 {
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::tree::{DecisionTree, TreeConfig};

    #[test]
    fn z_values_match_tables() {
        assert!((z_for_cf(0.25) - 0.6745).abs() < 1e-3);
        assert!((z_for_cf(0.05) - 1.6449).abs() < 1e-3);
        assert!((z_for_cf(0.5)).abs() < 1e-6);
    }

    #[test]
    fn upper_error_grows_with_pessimism() {
        let e1 = upper_error(100, 10, z_for_cf(0.25));
        let e2 = upper_error(100, 10, z_for_cf(0.05));
        assert!(e2 > e1, "smaller cf must be more pessimistic");
        assert!(e1 > 10.0, "upper bound exceeds observed errors");
        assert_eq!(upper_error(0, 0, 0.69), 0.0);
    }

    use crate::tree::{Node, NodeStats};

    fn leaf(n: u32, majority: u32, errors: u32) -> Node {
        Node::Leaf {
            stats: NodeStats {
                n,
                majority,
                errors,
            },
        }
    }

    #[test]
    fn useless_split_is_collapsed() {
        // Both children predict the same class and carry errors: the split
        // buys nothing, so pessimistic pruning must collapse it.
        let mut node = Node::Num {
            stats: NodeStats {
                n: 20,
                majority: 0,
                errors: 5,
            },
            attr: 0,
            threshold: 10,
            left: Box::new(leaf(10, 0, 3)),
            right: Box::new(leaf(10, 0, 2)),
        };
        prune(&mut node, 0.25);
        match node {
            Node::Leaf { stats } => assert_eq!(
                stats,
                NodeStats {
                    n: 20,
                    majority: 0,
                    errors: 5
                }
            ),
            other => panic!("expected collapse, got {other:?}"),
        }
    }

    #[test]
    fn informative_split_is_kept() {
        // Perfect separation: collapsing would cost 10 errors.
        let mut node = Node::Num {
            stats: NodeStats {
                n: 20,
                majority: 0,
                errors: 10,
            },
            attr: 0,
            threshold: 10,
            left: Box::new(leaf(10, 0, 0)),
            right: Box::new(leaf(10, 1, 0)),
        };
        prune(&mut node, 0.25);
        assert!(
            matches!(node, Node::Num { .. }),
            "useful split must survive"
        );
    }

    #[test]
    fn lower_cf_prunes_harder() {
        // A marginal split: small error reduction from a deep subtree.
        // With a lenient CF it survives; with an aggressive (small) CF the
        // pessimism penalty for the small leaves outweighs the gain.
        let build = || Node::Num {
            stats: NodeStats {
                n: 40,
                majority: 0,
                errors: 6,
            },
            attr: 0,
            threshold: 5,
            left: Box::new(leaf(36, 0, 4)),
            right: Box::new(leaf(4, 1, 1)),
        };
        let mut lenient = build();
        prune(&mut lenient, 0.9);
        assert!(
            matches!(lenient, Node::Num { .. }),
            "cf=0.9 should keep the split"
        );
        let mut aggressive = build();
        prune(&mut aggressive, 0.01);
        assert!(
            matches!(aggressive, Node::Leaf { .. }),
            "cf=0.01 should collapse the marginal split"
        );
    }

    #[test]
    fn pruning_recurses_bottom_up() {
        // Inner useless split under a useful root: inner collapses, root
        // survives.
        let inner = Node::Num {
            stats: NodeStats {
                n: 10,
                majority: 1,
                errors: 2,
            },
            attr: 0,
            threshold: 15,
            left: Box::new(leaf(5, 1, 1)),
            right: Box::new(leaf(5, 1, 1)),
        };
        let mut root = Node::Num {
            stats: NodeStats {
                n: 20,
                majority: 0,
                errors: 10,
            },
            attr: 0,
            threshold: 9,
            left: Box::new(leaf(10, 0, 0)),
            right: Box::new(inner),
        };
        prune(&mut root, 0.25);
        match &root {
            Node::Num { right, .. } => {
                assert!(
                    matches!(**right, Node::Leaf { .. }),
                    "inner split must collapse"
                );
            }
            other => panic!("root must survive, got {other:?}"),
        }
    }

    #[test]
    fn pure_tree_unchanged_by_pruning() {
        let mut b = DatasetBuilder::new().numeric("x");
        for i in 0..20 {
            b.row(&[i], u32::from(i >= 10));
        }
        let ds = b.build();
        let tree = DecisionTree::train(&ds, &TreeConfig::default());
        assert_eq!(tree.num_leaves(), 2);
        assert_eq!(tree.predict(&[3]), 0);
        assert_eq!(tree.predict(&[15]), 1);
    }
}
