//! Manual-partitioning baselines — the "best manual partitioning we could
//! devise" column of Figure 4, coded from the paper's descriptions.

use schism_router::{Complexity, PartitionSet, Route, Scheme};
use schism_sql::Statement;
use schism_workload::tpcc::{self, TpccConfig};
use schism_workload::{splitmix64, TupleId, TupleValues};

/// The expert TPC-C strategy (\[21\], §5.2): partition every table by
/// warehouse (warehouses spread evenly over partitions) and replicate the
/// `item` table.
pub struct ManualTpcc {
    cfg: TpccConfig,
    k: u32,
}

impl ManualTpcc {
    pub fn new(cfg: TpccConfig, k: u32) -> Self {
        Self { cfg, k }
    }

    fn partition_of_warehouse(&self, w: u64) -> u32 {
        // Contiguous blocks of warehouses per partition, like a range
        // partitioning on w_id.
        let per = (self.cfg.warehouses as u64).div_ceil(self.k as u64);
        (w / per) as u32
    }
}

impl Scheme for ManualTpcc {
    fn name(&self) -> String {
        format!("manual(tpcc by warehouse) k={}", self.k)
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn complexity(&self) -> Complexity {
        Complexity::Range
    }

    fn locate_tuple(&self, t: TupleId, _db: &dyn TupleValues) -> PartitionSet {
        match tpcc::warehouse_of(&self.cfg, t) {
            Some(w) => PartitionSet::single(self.partition_of_warehouse(w)),
            None => PartitionSet::all(self.k), // item table replicated
        }
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        // The fig4 experiments evaluate via tuple placement; statement
        // routing conservatively broadcasts.
        if stmt.kind.is_write() {
            Route::must(PartitionSet::all(self.k))
        } else {
            Route::any(PartitionSet::all(self.k))
        }
    }
}

/// The MIT students' Epinions strategy (§6.1): "partition item and review
/// via the same hash function, and replicate users and trust on every
/// node."
pub struct ManualEpinions {
    k: u32,
}

impl ManualEpinions {
    pub fn new(k: u32) -> Self {
        Self { k }
    }

    fn item_partition(&self, item: u64) -> u32 {
        (splitmix64(item) % self.k as u64) as u32
    }
}

impl Scheme for ManualEpinions {
    fn name(&self) -> String {
        format!("manual(epinions item-hash) k={}", self.k)
    }

    fn k(&self) -> u32 {
        self.k
    }

    fn complexity(&self) -> Complexity {
        Complexity::Hash
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        use schism_workload::epinions::{T_ITEMS, T_REVIEWS};
        match t.table {
            T_ITEMS => PartitionSet::single(self.item_partition(t.row)),
            T_REVIEWS => match db.value(t, 2) {
                // ri_id column: co-locate the review with its item.
                Some(item) => PartitionSet::single(self.item_partition(item as u64)),
                None => PartitionSet::all(self.k),
            },
            // users and trust replicated everywhere.
            _ => PartitionSet::all(self.k),
        }
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        if stmt.kind.is_write() {
            Route::must(PartitionSet::all(self.k))
        } else {
            Route::any(PartitionSet::all(self.k))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_router::evaluate;
    use schism_workload::epinions::{self, EpinionsConfig};

    #[test]
    fn manual_tpcc_matches_multiwarehouse_fraction() {
        // The manual scheme's distributed fraction equals the fraction of
        // multi-warehouse transactions (~10.7%).
        let cfg = TpccConfig {
            num_txns: 10_000,
            ..TpccConfig::small(4)
        };
        let w = tpcc::generate(&cfg);
        let scheme = ManualTpcc::new(cfg, 4);
        let r = evaluate(&scheme, &w.trace, &*w.db);
        let f = r.distributed_fraction();
        assert!((0.05..=0.16).contains(&f), "manual tpcc fraction {f}");
    }

    #[test]
    fn manual_epinions_in_paper_ballpark() {
        let cfg = EpinionsConfig {
            num_txns: 10_000,
            ..Default::default()
        };
        let w = epinions::generate(&cfg);
        let scheme = ManualEpinions::new(2);
        let r = evaluate(&scheme, &w.trace, &*w.db);
        let f = r.distributed_fraction();
        // Paper: ~6%. Distributed txns = user/trust updates (replica
        // writes) + cross-item review reads by one user.
        assert!((0.02..=0.12).contains(&f), "manual epinions fraction {f}");
    }
}
