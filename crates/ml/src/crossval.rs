//! Stratified k-fold cross-validation.
//!
//! The explanation phase uses cross-validation "to avoid over-fitting"
//! (§4.3): an explanation whose cross-validated accuracy is far below its
//! training accuracy memorized the training tuples instead of finding a
//! generalizable predicate.

use crate::dataset::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use schism_par::Pool;

/// Folds of [`cross_validate`].
const CV_FOLDS: usize = 5;

/// Splits row indices into [`CV_FOLDS`] folds, stratified so each fold has
/// roughly the same class mix (shuffle within class, deal round-robin).
fn stratified_folds(labels: &[u32], seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_classes = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut per_class: Vec<Vec<u32>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        per_class[l as usize].push(i as u32);
    }
    let mut folds: Vec<Vec<u32>> = vec![Vec::new(); CV_FOLDS];
    let mut next = 0usize;
    for class_rows in &mut per_class {
        class_rows.shuffle(&mut rng);
        for &r in class_rows.iter() {
            folds[next].push(r);
            next = (next + 1) % CV_FOLDS;
        }
    }
    folds
}

/// Result of [`cross_validate`].
#[derive(Clone, Debug)]
pub struct CvResult {
    /// Mean held-out accuracy across folds.
    pub accuracy: f64,
    /// Accuracy of [`CvResult::tree`] on the data it was trained on (the
    /// optimistic number the paper prints as 1 - pred.error).
    pub training_accuracy: f64,
    /// The tree trained on all of the data — the classifier the accuracies
    /// describe, equal to [`DecisionTree::train`] on the same arguments.
    pub tree: DecisionTree,
}

/// `CV_FOLDS`-fold cross-validation of a decision tree configuration.
///
/// The full-data tree and the fold trees are independent tasks
/// on `pool`. Each is a pure function of `(ds, cfg, seed)` and the fold
/// accuracies are summed in fold order, so the result is bit-identical for
/// every pool size.
pub fn cross_validate(ds: &Dataset, cfg: &TreeConfig, seed: u64, pool: &Pool) -> CvResult {
    let all: Vec<u32> = (0..ds.len() as u32).collect();
    // Too few rows to cross-validate: no folds, training accuracy only.
    let folds = if ds.len() < CV_FOLDS {
        Vec::new()
    } else {
        stratified_folds(ds.labels(), seed)
    };
    // Task 0 trains and scores on everything; task `held + 1` trains on all
    // folds but `held` and scores on it (an empty fold scores nothing).
    let mut scored = pool
        .scope_chunks(folds.len() + 1, 1, |task| {
            let Some(held) = task.start.checked_sub(1) else {
                let tree = DecisionTree::train(ds, cfg);
                let accuracy = tree.accuracy_on(ds, &all);
                return Some((tree, accuracy));
            };
            if folds[held].is_empty() {
                return None;
            }
            let train_rows: Vec<u32> = folds
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != held)
                .flat_map(|(_, f)| f.iter().copied())
                .collect();
            let tree = DecisionTree::train_on(ds, &train_rows, cfg);
            let accuracy = tree.accuracy_on(ds, &folds[held]);
            Some((tree, accuracy))
        })
        .into_iter();
    let (tree, training_accuracy) = scored
        .next()
        .flatten()
        .expect("task 0 always trains the full-data tree");
    let (acc_sum, folds_used) = scored
        .flatten()
        .fold((0.0, 0usize), |(sum, n), (_, accuracy)| {
            (sum + accuracy, n + 1)
        });
    CvResult {
        accuracy: if folds_used == 0 {
            training_accuracy
        } else {
            acc_sum / folds_used as f64
        },
        training_accuracy,
        tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    #[test]
    fn folds_are_stratified_and_disjoint() {
        let labels: Vec<u32> = (0..100).map(|i| u32::from(i % 4 == 0)).collect(); // 25/75
        let folds = stratified_folds(&labels, 7);
        assert_eq!(folds.len(), 5);
        let mut seen = std::collections::HashSet::new();
        for f in &folds {
            assert_eq!(f.len(), 20);
            let minority = f.iter().filter(|&&r| labels[r as usize] == 1).count();
            assert_eq!(minority, 5, "fold lost stratification");
            for &r in f {
                assert!(seen.insert(r), "row {r} appears twice");
            }
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn learnable_concept_scores_high() {
        let mut b = DatasetBuilder::new().numeric("x").numeric("noise");
        for i in 0..200i64 {
            b.row(&[i, (i * 7919) % 13], u32::from(i >= 100));
        }
        let ds = b.build();
        let cv = cross_validate(&ds, &TreeConfig::default(), 1, &Pool::new(1));
        assert!(cv.accuracy > 0.95, "cv accuracy {}", cv.accuracy);
        assert!(cv.training_accuracy >= cv.accuracy - 1e-9);
    }

    #[test]
    fn random_labels_score_low() {
        // Labels decorrelated from the attribute: cv accuracy ~ chance (0.5),
        // flagging an overfit explanation. splitmix64-style mixing avoids
        // the learnable run structure a plain LCG would leave behind.
        fn mix(i: i64) -> u64 {
            let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h
        }
        let mut b = DatasetBuilder::new().numeric("x");
        for i in 0..200i64 {
            b.row(&[i], (mix(i) & 1) as u32);
        }
        let ds = b.build();
        // Unlimited depth so the unpruned tree can fully memorize the noise
        // (random labels degenerate into deep peel-off chains).
        let cfg = TreeConfig {
            prune_cf: 1.0,
            min_leaf: 1,
            min_split: 2,
            max_depth: 1024,
        };
        let cv = cross_validate(&ds, &cfg, 2, &Pool::new(1));
        assert!(
            cv.accuracy < 0.7,
            "random labels should not generalize: {}",
            cv.accuracy
        );
        assert!(
            cv.training_accuracy > 0.9,
            "unpruned tree should memorize training data: {}",
            cv.training_accuracy
        );
    }

    /// Noisy two-attribute data: enough structure for a real tree, enough
    /// noise that fold accuracies differ from one another.
    fn noisy_dataset(rows: i64) -> Dataset {
        let mut b = DatasetBuilder::new().numeric("x").numeric("y");
        for i in 0..rows {
            let noise = (i * 7919) % 13;
            b.row(&[i, noise], ((i / 40 + i64::from(noise == 0)) % 3) as u32);
        }
        b.build()
    }

    /// What `cross_validate` returns as the full-data tree must be the tree
    /// `DecisionTree::train` builds, scored on its own training data.
    fn assert_full_data_tree(ds: &Dataset, cfg: &TreeConfig, cv: &CvResult) {
        let direct = DecisionTree::train(ds, cfg);
        assert_eq!(
            format!("{:?}", cv.tree.root()),
            format!("{:?}", direct.root())
        );
        let all: Vec<u32> = (0..ds.len() as u32).collect();
        assert_eq!(cv.training_accuracy, direct.accuracy_on(ds, &all));
    }

    #[test]
    fn tiny_dataset_falls_back() {
        let mut b = DatasetBuilder::new().numeric("x");
        b.row(&[1], 0);
        b.row(&[2], 1);
        let ds = b.build();
        let cfg = TreeConfig::default();
        let cv = cross_validate(&ds, &cfg, 3, &Pool::new(2));
        assert_eq!(cv.accuracy, cv.training_accuracy, "no folds to hold out");
        assert_full_data_tree(&ds, &cfg, &cv);
    }

    #[test]
    fn returned_tree_is_the_full_data_tree() {
        let ds = noisy_dataset(300);
        let cfg = TreeConfig::default();
        let cv = cross_validate(&ds, &cfg, 3, &Pool::new(2));
        assert!(cv.tree.num_leaves() > 1, "sanity: a real tree");
        assert_full_data_tree(&ds, &cfg, &cv);
    }

    #[test]
    fn identical_across_pool_sizes() {
        let ds = noisy_dataset(400);
        let run = |threads: usize| {
            let cv = cross_validate(&ds, &TreeConfig::default(), 9, &Pool::new(threads));
            (
                cv.accuracy.to_bits(),
                cv.training_accuracy.to_bits(),
                format!("{:?}", cv.tree.root()),
            )
        };
        let base = run(1);
        assert!(f64::from_bits(base.0) < 1.0, "sanity: folds disagree");
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), base, "pool size {threads}");
        }
    }
}
