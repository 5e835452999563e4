//! Correlation-based feature selection (CFS, Hall 1999) — the attribute
//! selection step Schism borrows from Weka (§5.2): "the candidate attributes
//! are fed into Weka's correlation-based feature selection to select a set
//! of attributes that are correlated with the partition label."
//!
//! Merit of a subset S of k features:
//!
//! ```text
//! merit(S) = k * mean(su(f, label)) / sqrt(k + k (k-1) * mean(su(f, f')))
//! ```
//!
//! where `su` is symmetric uncertainty. Greedy forward selection adds the
//! feature that maximizes merit until no addition improves it.

use crate::dataset::Dataset;
use crate::discretize;
use crate::entropy::symmetric_uncertainty;

/// Bins per attribute when discretizing.
const BINS: usize = 16;

/// Precomputed discrete view of a dataset for correlation estimates.
struct DiscreteView {
    /// codes[attr][row]
    codes: Vec<Vec<u32>>,
    arity: Vec<usize>,
    labels: Vec<u32>,
    num_classes: usize,
}

impl DiscreteView {
    fn new(ds: &Dataset, bins: usize) -> Self {
        let (codes, arity) = (0..ds.num_attrs())
            .map(|a| {
                let (c, d) = discretize::codes(ds.column(a), bins);
                (c, d.num_bins())
            })
            .unzip();
        Self {
            codes,
            arity,
            labels: ds.labels().to_vec(),
            num_classes: ds.num_classes() as usize,
        }
    }

    fn su_with_label(&self, a: usize) -> f64 {
        let mut joint = vec![vec![0u32; self.num_classes]; self.arity[a]];
        for (row, &l) in self.labels.iter().enumerate() {
            joint[self.codes[a][row] as usize][l as usize] += 1;
        }
        symmetric_uncertainty(&joint)
    }

    fn su_between(&self, a: usize, b: usize) -> f64 {
        let mut joint = vec![vec![0u32; self.arity[b]]; self.arity[a]];
        for row in 0..self.labels.len() {
            joint[self.codes[a][row] as usize][self.codes[b][row] as usize] += 1;
        }
        symmetric_uncertainty(&joint)
    }
}

/// Result of CFS selection.
#[derive(Clone, Debug)]
pub struct CfsResult {
    /// Selected attribute indices, in selection order.
    pub selected: Vec<usize>,
    /// Symmetric uncertainty of every attribute with the label.
    pub label_correlation: Vec<f64>,
}

/// Runs greedy-forward CFS. Returns an empty selection when no attribute
/// carries any information about the label.
pub fn cfs_select(ds: &Dataset) -> CfsResult {
    let n = ds.num_attrs();
    if n == 0 || ds.is_empty() {
        return CfsResult {
            selected: Vec::new(),
            label_correlation: vec![0.0; n],
        };
    }
    let view = DiscreteView::new(ds, BINS);
    let rcf: Vec<f64> = (0..n).map(|a| view.su_with_label(a)).collect();

    // Pairwise SU cache, filled lazily.
    let mut rff = vec![vec![f64::NAN; n]; n];
    let pair = |a: usize, b: usize, view: &DiscreteView, rff: &mut Vec<Vec<f64>>| -> f64 {
        let (x, y) = if a < b { (a, b) } else { (b, a) };
        if rff[x][y].is_nan() {
            rff[x][y] = view.su_between(x, y);
        }
        rff[x][y]
    };

    let merit_of = |sel: &[usize], rff: &mut Vec<Vec<f64>>, view: &DiscreteView| -> f64 {
        let k = sel.len() as f64;
        if sel.is_empty() {
            return 0.0;
        }
        let mean_rcf: f64 = sel.iter().map(|&a| rcf[a]).sum::<f64>() / k;
        let mut sum_rff = 0.0;
        for i in 0..sel.len() {
            for j in i + 1..sel.len() {
                sum_rff += pair(sel[i], sel[j], view, rff);
            }
        }
        let pairs = k * (k - 1.0) / 2.0;
        let mean_rff = if pairs > 0.0 { sum_rff / pairs } else { 0.0 };
        let denom = (k + k * (k - 1.0) * mean_rff).sqrt();
        if denom <= f64::EPSILON {
            0.0
        } else {
            k * mean_rcf / denom
        }
    };

    let mut selected: Vec<usize> = Vec::new();
    let mut best_merit = 0.0f64;
    loop {
        let mut best_add: Option<(usize, f64)> = None;
        for (a, &rcf_a) in rcf.iter().enumerate().take(n) {
            if selected.contains(&a) || rcf_a <= f64::EPSILON {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(a);
            let m = merit_of(&trial, &mut rff, &view);
            match best_add {
                Some((_, bm)) if bm >= m => {}
                _ => best_add = Some((a, m)),
            }
        }
        match best_add {
            Some((a, m)) if m > best_merit + 1e-12 => {
                selected.push(a);
                best_merit = m;
            }
            _ => break,
        }
    }
    CfsResult {
        selected,
        label_correlation: rcf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    /// The paper's running example: for TPC-C stock, CFS keeps `s_w_id` and
    /// discards `s_i_id` (§5.2).
    #[test]
    fn selects_warehouse_drops_item() {
        let mut b = DatasetBuilder::new().numeric("s_i_id").numeric("s_w_id");
        for i in 0..200i64 {
            let w = i % 4;
            b.row(&[i, w], w as u32); // label == warehouse, item id is noise
        }
        let ds = b.build();
        let r = cfs_select(&ds);
        assert_eq!(r.selected, vec![1], "should select only s_w_id: {r:?}");
        assert!(r.label_correlation[1] > 0.9);
        assert!(r.label_correlation[0] < 0.3);
    }

    #[test]
    fn constant_attribute_selects_nothing() {
        // A constant column has exactly zero mutual information with any
        // label; CFS must return an empty selection rather than inventing
        // structure.
        let mut b = DatasetBuilder::new().numeric("constant");
        for i in 0..100i64 {
            b.row(&[7], u32::from(i % 2 == 0));
        }
        let ds = b.build();
        let r = cfs_select(&ds);
        assert!(r.selected.is_empty(), "selected {:?}", r.selected);
        assert_eq!(r.label_correlation, vec![0.0]);
    }

    #[test]
    fn random_attribute_has_weak_correlation() {
        // Pseudorandom attribute vs independent labels: sample correlation
        // is nonzero (finite sample) but must stay small.
        let mut b = DatasetBuilder::new().numeric("junk");
        for i in 0..1000i64 {
            b.row(&[(i * 48271) % 31], u32::from((i * 2654435761) % 2 == 0));
        }
        let ds = b.build();
        let r = cfs_select(&ds);
        assert!(
            r.label_correlation[0] < 0.1,
            "correlation {}",
            r.label_correlation[0]
        );
    }

    #[test]
    fn complementary_attributes_both_selected() {
        // label = (x_high, y_high) 4-class; each attribute alone gives one
        // bit; together they determine the label.
        let mut b = DatasetBuilder::new()
            .numeric("x")
            .numeric("y")
            .numeric("noise");
        for i in 0..400i64 {
            let x = i % 20;
            let y = (i / 20) % 20;
            let label = (u32::from(x >= 10) << 1) | u32::from(y >= 10);
            b.row(&[x, y, (i * 37) % 11], label);
        }
        let ds = b.build();
        let r = cfs_select(&ds);
        let mut sel = r.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1], "should select x and y: {r:?}");
    }

    #[test]
    fn empty_dataset_is_safe() {
        let ds = DatasetBuilder::new().numeric("x").build();
        let r = cfs_select(&ds);
        assert!(r.selected.is_empty());
    }
}
