//! Migration cost model: predicts how long a copy batch takes from how
//! many rows and payload bytes it moves — and, run the other way, how big
//! a batch fits a latency budget.
//!
//! The model is deliberately linear,
//!
//! ```text
//! batch_us  =  batch_fixed_us  +  row_us · rows  +  byte_us · bytes
//! ```
//!
//! because that is the shape the executor's work actually has: a per-batch
//! overhead (verify pass setup, the flip, commit records), a per-row cost
//! (index updates, checksums, record framing), and a per-byte cost (the
//! payload itself). The coefficients are **not** guessed: the
//! `live_migration` bench's `--calibrate` mode times every executed batch
//! against a real backend ([`schism-store`'s `LogStore`]) and fits the
//! model to the measurements with [`MigrationCostModel::fit`]; the fitted
//! rates are recorded in `crates/bench/BENCH_store.json` and mapped back
//! onto planner budgets via
//! [`PlanConfig::for_target_batch_duration`](crate::PlanConfig::for_target_batch_duration).
//! The calibration loop is documented end to end in `docs/ARCHITECTURE.md`.
//!
//! [`schism-store`'s `LogStore`]: https://docs.rs/schism-store
//!
//! Fitting detail: on real workloads rows and bytes are nearly collinear
//! (most rows share one payload size), which makes the full 3-parameter
//! least-squares system singular. [`fit`](MigrationCostModel::fit) detects
//! this and falls back through simpler feature sets (`fixed+bytes`,
//! `fixed+rows`, `bytes`, mean) until one is well-conditioned and
//! non-negative — a calibrated model never predicts negative time.

/// One timed batch execution: what moved and how long it took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostSample {
    /// Row copies the batch wrote.
    pub rows: u64,
    /// Payload bytes the batch wrote.
    pub bytes: u64,
    /// Measured wall-clock for copy + verify + flip, in microseconds.
    pub wall_us: f64,
}

/// Linear batch-duration model; see the [module docs](self) for the
/// calibration loop that produces one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationCostModel {
    /// Per-batch overhead in microseconds.
    pub batch_fixed_us: f64,
    /// Cost per copied row in microseconds.
    pub row_us: f64,
    /// Cost per copied payload byte in microseconds.
    pub byte_us: f64,
}

impl MigrationCostModel {
    /// Predicted duration of one batch copying `rows` rows / `bytes`
    /// payload bytes, in microseconds.
    pub fn predict_batch_us(&self, rows: u64, bytes: u64) -> f64 {
        self.batch_fixed_us + self.row_us * rows as f64 + self.byte_us * bytes as f64
    }

    /// Predicted duration of a whole plan given its per-batch
    /// `(rows, bytes)` shape, in microseconds.
    pub fn predict_plan_us(&self, batches: impl IntoIterator<Item = (u64, u64)>) -> f64 {
        batches
            .into_iter()
            .map(|(r, b)| self.predict_batch_us(r, b))
            .sum()
    }

    /// Steady-state copy rate in rows/sec for rows of `row_bytes` payload
    /// (ignores the per-batch constant; `0` if the model is degenerate).
    pub fn rows_per_sec(&self, row_bytes: u32) -> f64 {
        let per_row = self.row_us + self.byte_us * f64::from(row_bytes);
        if per_row > 0.0 {
            1e6 / per_row
        } else {
            0.0
        }
    }

    /// Least-squares fit over timed batches. Falls back through smaller
    /// feature sets when the full system is singular (rows ∝ bytes is the
    /// common case) or would need a negative coefficient. Returns `None`
    /// only for an empty sample set.
    pub fn fit(samples: &[CostSample]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        // Feature selectors: (use_intercept, use_rows, use_bytes).
        const CANDIDATES: [(bool, bool, bool); 5] = [
            (true, true, true),
            (true, false, true),
            (true, true, false),
            (false, false, true),
            (true, false, false),
        ];
        for &(c0, c_rows, c_bytes) in &CANDIDATES {
            if let Some(m) = fit_subset(samples, c0, c_rows, c_bytes) {
                return Some(m);
            }
        }
        // Unreachable in practice: the mean fit only fails on NaN input.
        None
    }

    /// Worst over/under-prediction factor across `samples`:
    /// `max(pred/meas, meas/pred)` maximized over batches (1.0 = perfect).
    /// The bench's acceptance gate — "planned durations within 2× of
    /// measured" — is `max_ratio <= 2.0`.
    pub fn max_ratio(&self, samples: &[CostSample]) -> f64 {
        samples
            .iter()
            .map(|s| {
                let pred = self.predict_batch_us(s.rows, s.bytes).max(1e-9);
                let meas = s.wall_us.max(1e-9);
                (pred / meas).max(meas / pred)
            })
            .fold(1.0, f64::max)
    }
}

/// Solves the normal equations for the chosen feature subset; `None` if
/// the system is ill-conditioned or any coefficient comes out negative.
fn fit_subset(
    samples: &[CostSample],
    c0: bool,
    c_rows: bool,
    c_bytes: bool,
) -> Option<MigrationCostModel> {
    let feats = |s: &CostSample| {
        let mut x = Vec::with_capacity(3);
        if c0 {
            x.push(1.0);
        }
        if c_rows {
            x.push(s.rows as f64);
        }
        if c_bytes {
            x.push(s.bytes as f64);
        }
        x
    };
    let n = feats(&samples[0]).len();
    // Accumulate XᵀX and Xᵀy.
    let mut a = vec![vec![0.0f64; n]; n];
    let mut b = vec![0.0f64; n];
    for s in samples {
        let x = feats(s);
        for i in 0..n {
            for j in 0..n {
                a[i][j] += x[i] * x[j];
            }
            b[i] += x[i] * s.wall_us;
        }
    }
    let coef = solve(&mut a, &mut b)?;
    if coef.iter().any(|&c| !c.is_finite() || c < 0.0) {
        return None;
    }
    let mut it = coef.into_iter();
    let batch_fixed_us = if c0 { it.next().unwrap() } else { 0.0 };
    let row_us = if c_rows { it.next().unwrap() } else { 0.0 };
    let byte_us = if c_bytes { it.next().unwrap() } else { 0.0 };
    Some(MigrationCostModel {
        batch_fixed_us,
        row_us,
        byte_us,
    })
}

/// Gaussian elimination with partial pivoting on an `n≤3` system; `None`
/// when a pivot is (relatively) zero — the singular/collinear case.
fn solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    let scale = a
        .iter()
        .flat_map(|r| r.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1.0);
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-9 * scale {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            let (upper, lower) = a.split_at_mut(row);
            for (lhs, rhs) in lower[0][col..n].iter_mut().zip(&upper[col][col..n]) {
                *lhs -= f * rhs;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut v = b[col];
        for k in col + 1..n {
            v -= a[col][k] * x[k];
        }
        x[col] = v / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(fixed: f64, row: f64, byte: f64, shapes: &[(u64, u64)]) -> Vec<CostSample> {
        shapes
            .iter()
            .map(|&(rows, bytes)| CostSample {
                rows,
                bytes,
                wall_us: fixed + row * rows as f64 + byte * bytes as f64,
            })
            .collect()
    }

    #[test]
    fn fit_recovers_known_coefficients() {
        // Rows and bytes decorrelated: full 3-param fit is identifiable.
        let samples = synth(
            120.0,
            3.0,
            0.05,
            &[(10, 640), (20, 5_000), (40, 640), (80, 20_000), (5, 64)],
        );
        let m = MigrationCostModel::fit(&samples).unwrap();
        assert!((m.batch_fixed_us - 120.0).abs() < 1e-6, "{m:?}");
        assert!((m.row_us - 3.0).abs() < 1e-6, "{m:?}");
        assert!((m.byte_us - 0.05).abs() < 1e-9, "{m:?}");
        assert!(m.max_ratio(&samples) < 1.0 + 1e-9);
    }

    #[test]
    fn collinear_rows_and_bytes_fall_back_cleanly() {
        // Every row is 64 bytes: bytes = 64·rows, XᵀX is singular for the
        // full model. The fallback must still predict exactly.
        let shapes: Vec<(u64, u64)> = (1..=8).map(|r| (r * 10, r * 640)).collect();
        let samples = synth(200.0, 0.0, 0.5, &shapes);
        let m = MigrationCostModel::fit(&samples).unwrap();
        for s in &samples {
            let pred = m.predict_batch_us(s.rows, s.bytes);
            assert!(
                (pred - s.wall_us).abs() < 1e-6 * s.wall_us.max(1.0),
                "pred {pred} vs {s:?}"
            );
        }
        assert!(m.batch_fixed_us >= 0.0 && m.row_us >= 0.0 && m.byte_us >= 0.0);
    }

    #[test]
    fn constant_samples_fit_the_mean() {
        let samples = vec![
            CostSample {
                rows: 10,
                bytes: 640,
                wall_us: 1_000.0,
            };
            4
        ];
        let m = MigrationCostModel::fit(&samples).unwrap();
        assert!((m.predict_batch_us(10, 640) - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn noisy_fit_stays_within_two_x() {
        // ±30% multiplicative noise (deterministic pattern) on a linear
        // ground truth: the fitted model must stay inside the bench's 2×
        // acceptance band.
        let shapes: Vec<(u64, u64)> = (1..=10).map(|r| (r * 25, r * 25 * 64)).collect();
        let mut samples = synth(500.0, 2.0, 0.1, &shapes);
        for (i, s) in samples.iter_mut().enumerate() {
            let f = if i % 2 == 0 { 1.3 } else { 0.7 };
            s.wall_us *= f;
        }
        let m = MigrationCostModel::fit(&samples).unwrap();
        assert!(
            m.max_ratio(&samples) < 2.0,
            "ratio {}",
            m.max_ratio(&samples)
        );
    }

    #[test]
    fn rates_and_inverse_model_agree() {
        let m = MigrationCostModel {
            batch_fixed_us: 100.0,
            row_us: 4.0,
            byte_us: 0.0625, // 64 B rows → 4 + 4 = 8 us/row
        };
        assert!((m.rows_per_sec(64) - 125_000.0).abs() < 1e-6);
        // 1 000 rows at that rate, plus the per-batch constant.
        let at_rate = 100.0 + 1_000.0 * 1e6 / m.rows_per_sec(64);
        assert!((m.predict_batch_us(1_000, 64_000) - at_rate).abs() < 1e-6);
    }

    #[test]
    fn empty_samples_fit_none() {
        assert!(MigrationCostModel::fit(&[]).is_none());
    }
}
