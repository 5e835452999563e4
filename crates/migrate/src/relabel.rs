//! The partition-relabeling problem.
//!
//! Partition ids coming out of a graph partitioner are arbitrary: two runs
//! that produce the *same* cut can name the parts differently, and a naive
//! diff would then migrate every tuple. Before diffing an old and a new
//! assignment we therefore choose the id permutation that maximizes
//! overlap — equivalently, minimizes the number of tuples whose primary
//! partition changes.
//!
//! This is an assignment problem on the k×k overlap matrix
//! `M[new][old] = |{tuples with new primary `new` and old primary `old`}|`,
//! solved exactly with the Hungarian algorithm (O(k³), trivial at
//! k ≤ 256). As belt and braces the identity mapping is kept whenever it
//! moves no more tuples than the matching — so relabeling can never be
//! worse than doing nothing, which the umbrella crate's property test
//! pins down.

use schism_router::PartitionSet;
use schism_workload::TupleId;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Result of relabeling a new assignment against an old one.
#[derive(Clone, Debug)]
pub struct Relabeling {
    /// `mapping[p]` is the old-world id that new partition `p` takes.
    /// Always a permutation of `0..k`.
    pub mapping: Vec<u32>,
    /// Tuples present in both assignments whose primary partition differs
    /// *after* relabeling (the data that actually has to move).
    pub moved: u64,
    /// Same count under the identity mapping (what a naive diff would
    /// migrate).
    pub identity_moved: u64,
    /// Tuples present in both assignments.
    pub common: u64,
}

impl Relabeling {
    /// Fraction of common tuples that must move after relabeling.
    pub fn moved_fraction(&self) -> f64 {
        if self.common == 0 {
            0.0
        } else {
            self.moved as f64 / self.common as f64
        }
    }
}

/// Computes the best relabeling of `new` onto `prev`'s partition ids.
pub fn relabel(
    prev: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
    new: &HashMap<TupleId, PartitionSet, impl BuildHasher>,
    k: u32,
) -> Relabeling {
    assert!(k >= 1);
    let k = k as usize;
    let mut overlap = vec![vec![0u64; k]; k];
    let mut common = 0u64;
    for (t, new_ps) in new {
        let (Some(np), Some(op)) = (new_ps.first(), prev.get(t).and_then(PartitionSet::first))
        else {
            continue;
        };
        if (np as usize) < k && (op as usize) < k {
            overlap[np as usize][op as usize] += 1;
            common += 1;
        }
    }

    let mapping = hungarian_max(&overlap);
    let matched: u64 = (0..k).map(|p| overlap[p][mapping[p] as usize]).sum();
    let identity_kept: u64 = (0..k).map(|p| overlap[p][p]).sum();

    // Never relabel into something worse than doing nothing.
    let (mapping, kept) = if identity_kept >= matched {
        ((0..k as u32).collect(), identity_kept)
    } else {
        (mapping, matched)
    };

    Relabeling {
        mapping,
        moved: common - kept,
        identity_moved: common - identity_kept,
        common,
    }
}

/// Applies a relabeling in place: every partition id in every set is
/// renamed through `mapping`.
pub fn apply_relabel(
    assignment: &mut HashMap<TupleId, PartitionSet, impl BuildHasher>,
    mapping: &[u32],
) {
    if mapping.iter().enumerate().all(|(i, &m)| i as u32 == m) {
        return;
    }
    for ps in assignment.values_mut() {
        let renamed: PartitionSet = ps
            .iter()
            .map(|p| mapping.get(p as usize).copied().unwrap_or(p))
            .collect();
        *ps = renamed;
    }
}

/// Exact maximum-weight perfect matching on a square matrix via the
/// Hungarian algorithm (potentials formulation). Returns `mapping` with
/// `mapping[row] = col`.
fn hungarian_max(weights: &[Vec<u64>]) -> Vec<u32> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let max_w = weights
        .iter()
        .flat_map(|r| r.iter().copied())
        .max()
        .unwrap_or(0) as i64;
    // Minimization on cost = max_w - weight.
    let cost = |r: usize, c: usize| -> i64 { max_w - weights[r][c] as i64 };

    const INF: i64 = i64::MAX / 4;
    // 1-indexed potentials/links, the classic formulation.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[col] = row matched to col
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    let mut mapping = vec![0u32; n];
    for j in 1..=n {
        if p[j] > 0 {
            mapping[p[j] - 1] = (j - 1) as u32;
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(pairs: &[(u64, u32)]) -> HashMap<TupleId, PartitionSet> {
        pairs
            .iter()
            .map(|&(r, p)| (TupleId::new(0, r), PartitionSet::single(p)))
            .collect()
    }

    #[test]
    fn pure_permutation_moves_nothing() {
        // New labels are old labels cycled by one: relabeling must undo it.
        let prev = asg(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)]);
        let new = asg(&[(0, 1), (1, 1), (2, 2), (3, 2), (4, 0), (5, 0)]);
        let r = relabel(&prev, &new, 3);
        assert_eq!(r.moved, 0, "mapping {:?}", r.mapping);
        assert_eq!(r.identity_moved, 6);
        assert_eq!(r.mapping, vec![2, 0, 1]);
        let mut relabeled = new;
        apply_relabel(&mut relabeled, &r.mapping);
        assert_eq!(relabeled, prev);
    }

    #[test]
    fn identity_when_labels_already_agree() {
        let prev = asg(&[(0, 0), (1, 1), (2, 1)]);
        let new = asg(&[(0, 0), (1, 1), (2, 0)]);
        let r = relabel(&prev, &new, 2);
        assert_eq!(r.mapping, [0, 1]);
        assert_eq!(r.moved, 1);
        assert_eq!(r.moved, r.identity_moved);
    }

    #[test]
    fn never_worse_than_identity() {
        // Pathological overlap where a bad matching could regress: the
        // guarantee is moved <= identity_moved always.
        let prev = asg(&[(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]);
        let new = asg(&[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]);
        let r = relabel(&prev, &new, 3);
        assert!(r.moved <= r.identity_moved);
    }

    #[test]
    fn hungarian_beats_greedy_trap() {
        // Greedy (take the global max first) picks (0,0)=10 then is forced
        // into 1+1; optimal is 9+9+2 via the off-diagonal.
        let w = vec![vec![10, 9, 0], vec![9, 1, 0], vec![0, 0, 2]];
        let m = hungarian_max(&w);
        let total: u64 = (0..3).map(|i| w[i][m[i] as usize]).sum();
        assert_eq!(total, 20, "mapping {m:?}");
    }

    #[test]
    fn disjoint_tuple_sets_are_a_noop() {
        let prev = asg(&[(0, 0), (1, 1)]);
        let new = asg(&[(10, 1), (11, 0)]);
        let r = relabel(&prev, &new, 2);
        assert_eq!(r.common, 0);
        assert_eq!(r.moved, 0);
        assert_eq!(r.moved_fraction(), 0.0);
    }

    #[test]
    fn replicated_tuples_relabel_their_whole_set() {
        let mut new: HashMap<TupleId, PartitionSet> = HashMap::new();
        new.insert(TupleId::new(0, 0), [0u32, 1].into_iter().collect());
        apply_relabel(&mut new, &[1, 0]);
        let ps = new[&TupleId::new(0, 0)];
        assert_eq!(ps.iter().collect::<Vec<_>>(), vec![0, 1], "set renamed");
    }
}
