//! Simulation output: throughput, mean latency, aborts.

use crate::config::Micros;

/// Collected during the measurement window.
#[derive(Clone, Debug, Default)]
pub struct SimStats {
    pub completed: u64,
    pub distributed_completed: u64,
    pub aborts: u64,
    /// Sum of the completed transactions' latencies.
    pub latency_sum: Micros,
}

impl SimStats {
    pub fn record(&mut self, latency: Micros, distributed: bool) {
        self.completed += 1;
        if distributed {
            self.distributed_completed += 1;
        }
        self.latency_sum += latency;
    }
}

/// Final report for one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Transactions per second over the measurement window.
    pub throughput: f64,
    /// Mean latency in milliseconds.
    pub mean_latency_ms: f64,
    pub completed: u64,
    pub aborts: u64,
    pub distributed_fraction: f64,
}

impl SimReport {
    pub fn from_stats(stats: SimStats, window: Micros) -> Self {
        let n = stats.completed;
        let mean = if n == 0 {
            0.0
        } else {
            stats.latency_sum as f64 / n as f64 / 1_000.0
        };
        SimReport {
            throughput: stats.completed as f64 / (window as f64 / 1_000_000.0),
            mean_latency_ms: mean,
            completed: stats.completed,
            aborts: stats.aborts,
            distributed_fraction: if stats.completed == 0 {
                0.0
            } else {
                stats.distributed_completed as f64 / stats.completed as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_math() {
        let mut s = SimStats::default();
        for l in [1_000u64, 2_000, 3_000, 4_000] {
            s.record(l, l >= 3_000);
        }
        s.aborts = 2;
        let r = SimReport::from_stats(s, 2_000_000);
        assert!((r.throughput - 2.0).abs() < 1e-9);
        assert!((r.mean_latency_ms - 2.5).abs() < 1e-9);
        assert!((r.distributed_fraction - 0.5).abs() < 1e-9);
        assert_eq!(r.aborts, 2);
    }

    #[test]
    fn empty_stats_are_safe() {
        let r = SimReport::from_stats(SimStats::default(), 1_000_000);
        assert_eq!(r.throughput, 0.0);
        assert_eq!(r.mean_latency_ms, 0.0);
    }
}
