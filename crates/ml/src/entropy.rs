//! Information-theoretic split criteria (entropy, information gain, gain
//! ratio) shared by the decision tree and CFS feature selection.
//!
//! [`entropy`] (used by CFS) takes probabilities. The split criterion is in
//! the *count form* of C4.5 and Weka's J48 (`EntropyBasedSplitCrit.lnFunc`,
//! there in natural logs): with `f(c) = c·log2 c`, a histogram of
//! `n` rows has `n·H = f(n) − Σ_cells f(c)` (`count_entropy`), a split's
//! children together have `n·H = Σ_side f(n_side) − Σ_cells f(c)`
//! (`children_entropy`), and gain and split information are their
//! differences over `n`. Every term is a count's `f`, so the tree reads `f`
//! from a table built once per dataset and a candidate threshold costs
//! additions only. [`info_gain`] and [`gain_ratio`] state the formulas with
//! `f` computed directly; the tree's scan is tested against them to the bit.

/// `c·log2 c`, zero at zero: the one logarithm the count form takes.
pub(crate) fn xlog2x(c: u32) -> f64 {
    if c == 0 {
        return 0.0;
    }
    let c = c as f64;
    c * c.log2()
}

/// Shannon entropy (bits) of a class histogram.
pub fn entropy(counts: &[u32]) -> f64 {
    let total: u64 = counts.iter().map(|&c| c as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let tot = total as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / tot;
            h -= p * p.log2();
        }
    }
    h
}

/// `n·H(counts)` in count form, `f(n) − Σ f(c)`, with `n = Σ counts`.
pub(crate) fn count_entropy(counts: &[u32], f: impl Fn(u32) -> f64) -> f64 {
    let mut cells = 0.0;
    for &c in counts {
        cells += f(c);
    }
    f(counts.iter().sum()) - cells
}

/// `n·H(children)` of a split in count form, `Σ_side f(n_side) − Σ_cells
/// f(c)`: the row-weighted sum of the children's entropies, times `n`.
pub(crate) fn children_entropy(parts: &[&[u32]], f: impl Fn(u32) -> f64) -> f64 {
    let mut sides = 0.0;
    let mut cells = 0.0;
    for part in parts {
        sides += f(part.iter().sum());
        for &c in *part {
            cells += f(c);
        }
    }
    sides - cells
}

/// Information gain (bits per row) of a split relative to the parent
/// histogram.
pub fn info_gain(parent: &[u32], parts: &[&[u32]]) -> f64 {
    let n: u32 = parent.iter().sum();
    if n == 0 {
        return 0.0;
    }
    (count_entropy(parent, xlog2x) - children_entropy(parts, xlog2x)) / n as f64
}

/// Split information: entropy of the partition *sizes* (C4.5's denominator
/// that penalizes high-arity splits).
pub fn split_info(parts: &[&[u32]]) -> f64 {
    let sizes: Vec<u32> = parts.iter().map(|p| p.iter().sum::<u32>()).collect();
    let n: u32 = sizes.iter().sum();
    if n == 0 {
        return 0.0;
    }
    count_entropy(&sizes, xlog2x) / n as f64
}

/// C4.5 gain ratio: `info_gain / split_info`, zero when the split is
/// degenerate (all rows in one branch).
pub fn gain_ratio(parent: &[u32], parts: &[&[u32]]) -> f64 {
    let si = split_info(parts);
    if si <= f64::EPSILON {
        return 0.0;
    }
    info_gain(parent, parts) / si
}

/// Symmetric uncertainty between two discrete variables given their joint
/// histogram `joint[x][y]`: `2 * MI(X;Y) / (H(X) + H(Y))` in `[0, 1]`.
/// Used by CFS (correlation-based feature selection).
pub fn symmetric_uncertainty(joint: &[Vec<u32>]) -> f64 {
    let x_counts: Vec<u32> = joint.iter().map(|row| row.iter().sum()).collect();
    let ny = joint.first().map_or(0, |r| r.len());
    let mut y_counts = vec![0u32; ny];
    for row in joint {
        for (y, &c) in row.iter().enumerate() {
            y_counts[y] += c;
        }
    }
    let hx = entropy(&x_counts);
    let hy = entropy(&y_counts);
    if hx + hy <= f64::EPSILON {
        return 0.0;
    }
    // H(X, Y) from the flattened joint.
    let flat: Vec<u32> = joint.iter().flatten().copied().collect();
    let hxy = entropy(&flat);
    let mi = hx + hy - hxy;
    (2.0 * mi / (hx + hy)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn entropy_basics() {
        assert!((entropy(&[5, 5]) - 1.0).abs() < EPS);
        assert!(entropy(&[10, 0]).abs() < EPS);
        assert!(entropy(&[]).abs() < EPS);
        assert!((entropy(&[1, 1, 1, 1]) - 2.0).abs() < EPS);
    }

    /// The count form is the probability form rearranged: `n·H` of a
    /// histogram and of a split's children match `entropy` up to rounding.
    #[test]
    fn count_form_matches_probability_form() {
        for counts in [&[5u32, 5][..], &[1, 2, 3, 4], &[7, 0, 1], &[12_000, 3]] {
            let n: u32 = counts.iter().sum();
            let h = count_entropy(counts, xlog2x) / n as f64;
            assert!((h - entropy(counts)).abs() < EPS, "{counts:?}");
        }
        let (left, right) = ([3u32, 1], [2u32, 6]);
        let weighted = (4.0 * entropy(&left) + 8.0 * entropy(&right)) / 12.0;
        let h = children_entropy(&[&left, &right], xlog2x) / 12.0;
        assert!((h - weighted).abs() < EPS);
    }

    #[test]
    fn perfect_split_has_full_gain() {
        let parent = [4, 4];
        let left = [4, 0];
        let right = [0, 4];
        assert!((info_gain(&parent, &[&left, &right]) - 1.0).abs() < EPS);
        assert!((gain_ratio(&parent, &[&left, &right]) - 1.0).abs() < EPS);
    }

    #[test]
    fn useless_split_has_zero_gain() {
        let parent = [4, 4];
        let left = [2, 2];
        let right = [2, 2];
        assert!(info_gain(&parent, &[&left, &right]).abs() < EPS);
    }

    #[test]
    fn degenerate_split_gain_ratio_is_zero() {
        let parent = [4, 4];
        let left = [4, 4];
        let right = [0, 0];
        assert_eq!(gain_ratio(&parent, &[&left, &right]), 0.0);
    }

    #[test]
    fn split_info_penalizes_arity() {
        // Two equal halves: split_info = 1 bit. Four quarters: 2 bits.
        let h = [2, 2];
        let q = [1, 1];
        assert!((split_info(&[&h, &h]) - 1.0).abs() < EPS);
        assert!((split_info(&[&q, &q, &q, &q]) - 2.0).abs() < EPS);
    }

    #[test]
    fn su_of_identical_variables_is_one() {
        // X == Y on a 2x2 diagonal joint.
        let joint = vec![vec![5, 0], vec![0, 5]];
        assert!((symmetric_uncertainty(&joint) - 1.0).abs() < EPS);
    }

    #[test]
    fn su_of_independent_variables_is_zero() {
        let joint = vec![vec![4, 4], vec![4, 4]];
        assert!(symmetric_uncertainty(&joint).abs() < 1e-6);
    }

    #[test]
    fn su_constant_variable_is_zero() {
        let joint = vec![vec![3, 7]];
        assert_eq!(symmetric_uncertainty(&joint), 0.0);
    }
}
