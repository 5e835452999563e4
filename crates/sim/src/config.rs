//! Simulator configuration and calibration constants.
//!
//! **Table 2 substitution**: the paper runs on 8 MySQL servers (2×Xeon,
//! 2 GB RAM, 7200rpm disk, gigabit Ethernet). We model that testbed as a
//! discrete-event system: a FIFO CPU per server, fixed LAN round-trips,
//! per-statement/commit/prepare service times, and row-level S/X locks held
//! to commit. Constants are calibrated so a single simulated server delivers
//! the paper's order of magnitude (≈10⁴ point reads/s in §3; ≈10² TPC-C
//! tps in §6.3) — the experiments only depend on *ratios*, which the
//! mechanisms (2PC rounds, lock queueing) produce structurally.

/// Simulated time in microseconds.
pub type Micros = u64;

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub num_servers: u32,
    /// Closed-loop clients (no think time), as in Appendix A's 150 clients.
    pub num_clients: u32,
    /// Client<->server and server<->server round-trip time.
    pub rtt: Micros,
    /// CPU time per statement execution.
    pub stmt_cpu: Micros,
    /// CPU time for a single-site commit.
    pub commit_cpu: Micros,
    /// CPU time for a 2PC prepare (includes the log force).
    pub prepare_cpu: Micros,
    /// Waiting longer than this on one lock aborts the transaction
    /// (deadlock breaking); it retries after `retry_backoff`.
    pub lock_timeout: Micros,
    pub retry_backoff: Micros,
    /// Measured interval; statistics ignore everything before `warmup`.
    pub warmup: Micros,
    pub duration: Micros,
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            num_servers: 1,
            num_clients: 150,
            rtt: 300,
            stmt_cpu: 90,
            commit_cpu: 40,
            prepare_cpu: 110,
            lock_timeout: 2_000_000,
            retry_backoff: 10_000,
            warmup: 2_000_000,
            duration: 12_000_000,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// The in-memory point-read configuration of §3 (Figure 1).
    pub fn figure1(num_servers: u32) -> Self {
        Self {
            num_servers,
            ..Self::default()
        }
    }

    /// Disk-era TPC-C configuration for §6.3 (Figure 6): statements are an
    /// order of magnitude more expensive (buffer misses, logging), which
    /// puts a single 16-warehouse server near the paper's ~131 tps. The
    /// lock timeout is long because ordered acquisition already rules out
    /// deadlock cycles — it only breaks pathological convoys.
    pub fn figure6(num_servers: u32, num_clients: u32) -> Self {
        Self {
            num_servers,
            num_clients,
            rtt: 1_200,
            stmt_cpu: 200,
            commit_cpu: 2_000,
            prepare_cpu: 2_500,
            lock_timeout: 10_000_000,
            warmup: 5_000_000,
            duration: 45_000_000,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = SimConfig::default();
        assert!(c.warmup < c.duration);
        assert!(c.stmt_cpu > 0 && c.rtt > 0);
        let f6 = SimConfig::figure6(8, 400);
        assert_eq!(f6.num_servers, 8);
        assert!(f6.commit_cpu > SimConfig::default().commit_cpu);
    }
}
