//! TPC-E brokerage workload (§6.1, Appendix D.3) — reduced but structurally
//! faithful.
//!
//! **Substitution note**: the full TPC-E kit has 33 tables and elaborate
//! data-generation rules. The paper uses it as "a complex, read-intensive
//! OLTP workload with many tables and many transaction types"; this module
//! keeps exactly that character with 17 tables and all 10 transaction types
//! at their spec mix percentages. The partitioning tension is preserved:
//! customers/accounts/trades/holdings cluster per customer, while market
//! data (securities, companies, last-trade ticks) is shared by everyone and
//! written by trade-result and market-feed — so neither pure customer
//! sharding nor full replication is free.
//!
//! Scale is one number, `customers` (the paper runs 1000); everything else
//! follows from it by the spec ratios: 5 accounts per customer, a broker
//! per 100 customers, a company per 2 and 0.685 securities per customer
//! (685, 500 and 10 at 1000 customers), 4 initial trades and 8
//! holding-summary slots per account, and 10 items per watch list.

use crate::trace::{Trace, Workload};
use crate::tuple::{splitmix_pair, TupleId, TupleValues};
use crate::txn::TxnBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Schema};
use std::sync::Arc;

/// Table ids, in [`schema`] order.
pub const T_CUSTOMER: u16 = 0;
pub const T_ACCOUNT: u16 = 1;
pub const T_BROKER: u16 = 2;
pub const T_COMPANY: u16 = 3;
pub const T_SECURITY: u16 = 4;
pub const T_LAST_TRADE: u16 = 5;
pub const T_TRADE: u16 = 6;
pub const T_TRADE_HISTORY: u16 = 7;
pub const T_SETTLEMENT: u16 = 8;
pub const T_CASH_TX: u16 = 9;
pub const T_HOLDING_SUMMARY: u16 = 10;
pub const T_HOLDING: u16 = 11;
pub const T_WATCH_LIST: u16 = 12;
pub const T_WATCH_ITEM: u16 = 13;
pub const T_EXCHANGE: u16 = 14;
pub const T_SECTOR: u16 = 15;
pub const T_INDUSTRY: u16 = 16;

/// History entries per trade (submitted / completed / settled).
const TH_PER_TRADE: u64 = 3;

// Spec ratios that do not depend on scale.
const ACCOUNTS_PER_CUSTOMER: u64 = 5;
const INIT_TRADES_PER_ACCOUNT: u64 = 4;
/// Holding-summary slots per account.
const HOLDINGS_PER_ACCOUNT: u64 = 8;
const WATCH_ITEMS_PER_LIST: u64 = 10;

/// Generator configuration. Everything else follows from `customers` by
/// the spec ratios.
#[derive(Clone, Debug)]
pub struct TpceConfig {
    pub customers: u64,
    pub num_txns: usize,
    pub seed: u64,
}

impl TpceConfig {
    /// Spec-ratio scale for `customers` (the paper runs 1000).
    pub fn with_customers(customers: u64) -> Self {
        Self {
            customers,
            num_txns: 100_000,
            seed: 0,
        }
    }

    /// Reduced scale for fast tests.
    pub fn small() -> Self {
        Self {
            num_txns: 2_000,
            ..Self::with_customers(100)
        }
    }

    fn accounts(&self) -> u64 {
        self.customers * ACCOUNTS_PER_CUSTOMER
    }

    fn brokers(&self) -> u64 {
        (self.customers / 100).max(1)
    }

    fn companies(&self) -> u64 {
        (self.customers / 2).max(2)
    }

    fn securities(&self) -> u64 {
        (self.customers * 685 / 1000).max(2)
    }

    fn trade_capacity(&self) -> u64 {
        self.accounts() * INIT_TRADES_PER_ACCOUNT + self.num_txns as u64 + 1
    }
}

/// Attribute oracle: formulas everywhere except the trade table, whose
/// account/security assignments are chosen by the generator and therefore
/// materialized.
struct TpceDb {
    cfg: TpceConfig,
    trade_acct: Vec<u32>,
    trade_sec: Vec<u32>,
}

impl TupleValues for TpceDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        let c = &self.cfg;
        let r = t.row;
        let v: i64 = match (t.table, col) {
            (T_CUSTOMER, 0) => r as i64,
            (T_ACCOUNT, 0) => r as i64,
            (T_ACCOUNT, 1) => (r / ACCOUNTS_PER_CUSTOMER) as i64,
            (T_ACCOUNT, 2) => (splitmix_pair(r, 0xB) % c.brokers()) as i64,
            (T_BROKER, 0) => r as i64,
            (T_COMPANY, 0) => r as i64,
            (T_COMPANY, 1) => (r % 102) as i64, // industry
            (T_SECURITY, 0) => r as i64,
            (T_SECURITY, 1) => (r % c.companies()) as i64,
            (T_SECURITY, 2) => (r % 4) as i64, // exchange
            (T_LAST_TRADE, 0) => r as i64,
            (T_TRADE, 0) => r as i64,
            (T_TRADE, 1) => *self.trade_acct.get(r as usize)? as i64,
            (T_TRADE, 2) => *self.trade_sec.get(r as usize)? as i64,
            (T_TRADE_HISTORY, 0) => (r / TH_PER_TRADE) as i64,
            (T_TRADE_HISTORY, 1) => (r % TH_PER_TRADE) as i64,
            (T_SETTLEMENT, 0) | (T_CASH_TX, 0) => r as i64,
            (T_HOLDING_SUMMARY, 0) => (r / HOLDINGS_PER_ACCOUNT) as i64,
            (T_HOLDING_SUMMARY, 1) => (splitmix_pair(r, 0x5) % c.securities()) as i64,
            (T_HOLDING, 0) => r as i64,
            (T_HOLDING, 1) => *self.trade_acct.get(r as usize)? as i64,
            (T_HOLDING, 2) => *self.trade_sec.get(r as usize)? as i64,
            (T_WATCH_LIST, 0) | (T_WATCH_LIST, 1) => r as i64,
            (T_WATCH_ITEM, 0) => (r / WATCH_ITEMS_PER_LIST) as i64,
            (T_WATCH_ITEM, 1) => (splitmix_pair(r, 0x7) % c.securities()) as i64,
            (T_EXCHANGE, 0) => r as i64,
            (T_SECTOR, 0) => r as i64,
            (T_INDUSTRY, 0) => r as i64,
            (T_INDUSTRY, 1) => (r % 12) as i64, // sector
            _ => return None,
        };
        Some(v)
    }

    fn tuple_bytes(&self, table: schism_sql::TableId) -> u32 {
        match table {
            T_CUSTOMER => 280,
            T_ACCOUNT => 80,
            T_TRADE => 140,
            T_SECURITY => 150,
            T_COMPANY => 300,
            _ => 48,
        }
    }
}

/// The 17-table reduced TPC-E schema.
pub fn schema() -> Schema {
    use ColumnType::Int;
    let mut s = Schema::new();
    s.add_table("customer", &[("c_id", Int), ("c_tier", Int)], &["c_id"]);
    s.add_table(
        "customer_account",
        &[("ca_id", Int), ("ca_c_id", Int), ("ca_b_id", Int)],
        &["ca_id"],
    );
    s.add_table("broker", &[("b_id", Int), ("b_num_trades", Int)], &["b_id"]);
    s.add_table("company", &[("co_id", Int), ("co_in_id", Int)], &["co_id"]);
    s.add_table(
        "security",
        &[("s_id", Int), ("s_co_id", Int), ("s_ex_id", Int)],
        &["s_id"],
    );
    s.add_table(
        "last_trade",
        &[("lt_s_id", Int), ("lt_price", Int)],
        &["lt_s_id"],
    );
    s.add_table(
        "trade",
        &[("t_id", Int), ("t_ca_id", Int), ("t_s_id", Int)],
        &["t_id"],
    );
    s.add_table(
        "trade_history",
        &[("th_t_id", Int), ("th_seq", Int)],
        &["th_t_id", "th_seq"],
    );
    s.add_table(
        "settlement",
        &[("se_t_id", Int), ("se_amt", Int)],
        &["se_t_id"],
    );
    s.add_table(
        "cash_transaction",
        &[("ct_t_id", Int), ("ct_amt", Int)],
        &["ct_t_id"],
    );
    s.add_table(
        "holding_summary",
        &[("hs_ca_id", Int), ("hs_s_id", Int), ("hs_qty", Int)],
        &["hs_ca_id", "hs_s_id"],
    );
    s.add_table(
        "holding",
        &[("h_t_id", Int), ("h_ca_id", Int), ("h_s_id", Int)],
        &["h_t_id"],
    );
    s.add_table(
        "watch_list",
        &[("wl_id", Int), ("wl_c_id", Int)],
        &["wl_id"],
    );
    s.add_table(
        "watch_item",
        &[("wi_wl_id", Int), ("wi_s_id", Int)],
        &["wi_wl_id", "wi_s_id"],
    );
    s.add_table("exchange", &[("ex_id", Int)], &["ex_id"]);
    s.add_table("sector", &[("sc_id", Int)], &["sc_id"]);
    s.add_table("industry", &[("in_id", Int), ("in_sc_id", Int)], &["in_id"]);
    s
}

struct Gen {
    cfg: TpceConfig,
    rng: StdRng,
    trade_acct: Vec<u32>,
    trade_sec: Vec<u32>,
    trades_by_account: Vec<Vec<u32>>,
    accounts_by_broker: Vec<Vec<u32>>,
    stats: AttributeStats,
}

impl Gen {
    fn new_trade(&mut self, acct: u64, sec: u64) -> u64 {
        let t = self.trade_acct.len() as u64;
        self.trade_acct.push(acct as u32);
        self.trade_sec.push(sec as u32);
        self.trades_by_account[acct as usize].push(t as u32);
        t
    }

    fn recent_trades(&mut self, acct: u64, n: usize) -> Vec<u64> {
        let list = &self.trades_by_account[acct as usize];
        list.iter().rev().take(n).map(|&t| t as u64).collect()
    }

    fn random_account(&mut self) -> u64 {
        self.rng.gen_range(0..self.cfg.accounts())
    }

    // --- the 10 transaction types ---

    fn trade_order(&mut self, tb: &mut TxnBuilder) {
        let cfg = self.cfg.clone();
        let cust = self.rng.gen_range(0..cfg.customers);
        let acct = cust * ACCOUNTS_PER_CUSTOMER + self.rng.gen_range(0..ACCOUNTS_PER_CUSTOMER);
        let broker = splitmix_pair(acct, 0xB) % cfg.brokers();
        let sec = self.rng.gen_range(0..cfg.securities());
        tb.read(TupleId::new(T_CUSTOMER, cust));
        self.stats.observe_shape(T_CUSTOMER, &[0]);
        tb.read(TupleId::new(T_ACCOUNT, acct));
        self.stats.observe_shape(T_ACCOUNT, &[0]);
        tb.read(TupleId::new(T_BROKER, broker));
        self.stats.observe_shape(T_BROKER, &[0]);
        tb.read(TupleId::new(T_SECURITY, sec));
        self.stats.observe_shape(T_SECURITY, &[0]);
        tb.read(TupleId::new(T_LAST_TRADE, sec));
        self.stats.observe_shape(T_LAST_TRADE, &[0]);
        let t = self.new_trade(acct, sec);
        tb.write(TupleId::new(T_TRADE, t));
        self.stats.observe_shape(T_TRADE, &[0]);
        tb.write(TupleId::new(T_TRADE_HISTORY, t * TH_PER_TRADE));
        self.stats.observe_shape(T_TRADE_HISTORY, &[0, 1]);
        let hs = acct * HOLDINGS_PER_ACCOUNT + sec % HOLDINGS_PER_ACCOUNT;
        tb.write(TupleId::new(T_HOLDING_SUMMARY, hs));
        self.stats.observe_shape(T_HOLDING_SUMMARY, &[0, 1]);
    }

    fn trade_result(&mut self, tb: &mut TxnBuilder) {
        let acct = self.random_account();
        let trades = self.recent_trades(acct, 1);
        let Some(&t) = trades.first() else {
            return self.trade_order(tb);
        };
        let cfg = self.cfg.clone();
        let cust = acct / ACCOUNTS_PER_CUSTOMER;
        let broker = splitmix_pair(acct, 0xB) % cfg.brokers();
        let sec = self.trade_sec[t as usize] as u64;
        tb.read(TupleId::new(T_ACCOUNT, acct));
        self.stats.observe_shape(T_ACCOUNT, &[0]);
        tb.read(TupleId::new(T_CUSTOMER, cust));
        self.stats.observe_shape(T_CUSTOMER, &[0]);
        tb.write(TupleId::new(T_BROKER, broker)); // b_num_trades++
        self.stats.observe_shape(T_BROKER, &[0]);
        tb.write(TupleId::new(T_TRADE, t));
        self.stats.observe_shape(T_TRADE, &[0]);
        tb.write(TupleId::new(T_TRADE_HISTORY, t * TH_PER_TRADE + 1));
        self.stats.observe_shape(T_TRADE_HISTORY, &[0, 1]);
        tb.write(TupleId::new(T_SETTLEMENT, t));
        self.stats.observe_shape(T_SETTLEMENT, &[0]);
        tb.write(TupleId::new(T_CASH_TX, t));
        self.stats.observe_shape(T_CASH_TX, &[0]);
        tb.write(TupleId::new(T_HOLDING, t));
        self.stats.observe_shape(T_HOLDING, &[0]);
        let hs = acct * HOLDINGS_PER_ACCOUNT + sec % HOLDINGS_PER_ACCOUNT;
        tb.write(TupleId::new(T_HOLDING_SUMMARY, hs));
        self.stats.observe_shape(T_HOLDING_SUMMARY, &[0, 1]);
        // The market tick: everyone reads this row, trade-result writes it.
        tb.write(TupleId::new(T_LAST_TRADE, sec));
        self.stats.observe_shape(T_LAST_TRADE, &[0]);
    }

    fn trade_lookup(&mut self, tb: &mut TxnBuilder) {
        let acct = self.random_account();
        tb.read(TupleId::new(T_ACCOUNT, acct));
        self.stats.observe_shape(T_ACCOUNT, &[0]);
        for t in self.recent_trades(acct, 4) {
            tb.read(TupleId::new(T_TRADE, t));
            self.stats.observe_shape(T_TRADE, &[0]);
            tb.read(TupleId::new(T_SETTLEMENT, t));
            self.stats.observe_shape(T_SETTLEMENT, &[0]);
            tb.read(TupleId::new(T_CASH_TX, t));
            self.stats.observe_shape(T_CASH_TX, &[0]);
            let hist: Vec<TupleId> = (0..TH_PER_TRADE)
                .map(|s| TupleId::new(T_TRADE_HISTORY, t * TH_PER_TRADE + s))
                .collect();
            tb.scan(hist);
            self.stats.observe_shape(T_TRADE_HISTORY, &[0]);
        }
    }

    fn trade_status(&mut self, tb: &mut TxnBuilder) {
        let acct = self.random_account();
        tb.read(TupleId::new(T_ACCOUNT, acct));
        self.stats.observe_shape(T_ACCOUNT, &[0]);
        let trades = self.recent_trades(acct, 10);
        let group: Vec<TupleId> = trades.iter().map(|&t| TupleId::new(T_TRADE, t)).collect();
        tb.scan(group);
        self.stats.observe_shape(T_TRADE, &[1]);
        let secs: Vec<TupleId> = trades
            .iter()
            .map(|&t| TupleId::new(T_SECURITY, self.trade_sec[t as usize] as u64))
            .collect();
        tb.scan(secs);
        self.stats.observe_shape(T_SECURITY, &[0]);
    }

    fn customer_position(&mut self, tb: &mut TxnBuilder) {
        let cfg = self.cfg.clone();
        let cust = self.rng.gen_range(0..cfg.customers);
        tb.read(TupleId::new(T_CUSTOMER, cust));
        self.stats.observe_shape(T_CUSTOMER, &[0]);
        for slot in 0..ACCOUNTS_PER_CUSTOMER {
            let acct = cust * ACCOUNTS_PER_CUSTOMER + slot;
            tb.read(TupleId::new(T_ACCOUNT, acct));
            self.stats.observe_shape(T_ACCOUNT, &[1]);
            let hs_rows: Vec<TupleId> = (0..HOLDINGS_PER_ACCOUNT)
                .map(|h| TupleId::new(T_HOLDING_SUMMARY, acct * HOLDINGS_PER_ACCOUNT + h))
                .collect();
            let ticks: Vec<TupleId> = hs_rows
                .iter()
                .map(|hs| TupleId::new(T_LAST_TRADE, splitmix_pair(hs.row, 0x5) % cfg.securities()))
                .collect();
            tb.scan(hs_rows);
            self.stats.observe_shape(T_HOLDING_SUMMARY, &[0]);
            tb.scan(ticks);
            self.stats.observe_shape(T_LAST_TRADE, &[0]);
        }
    }

    fn broker_volume(&mut self, tb: &mut TxnBuilder) {
        let broker = self.rng.gen_range(0..self.cfg.brokers());
        tb.read(TupleId::new(T_BROKER, broker));
        self.stats.observe_shape(T_BROKER, &[0]);
        let accounts: Vec<u64> = self.accounts_by_broker[broker as usize]
            .iter()
            .take(10)
            .map(|&a| a as u64)
            .collect();
        let group: Vec<TupleId> = accounts
            .iter()
            .map(|&a| TupleId::new(T_ACCOUNT, a))
            .collect();
        tb.scan(group);
        self.stats.observe_shape(T_ACCOUNT, &[2]);
        let mut trades = Vec::new();
        for a in accounts {
            if let Some(&t) = self.trades_by_account[a as usize].last() {
                trades.push(TupleId::new(T_TRADE, t as u64));
            }
        }
        tb.scan(trades);
        self.stats.observe_shape(T_TRADE, &[1]);
    }

    fn security_detail(&mut self, tb: &mut TxnBuilder) {
        let cfg = &self.cfg;
        let sec = self.rng.gen_range(0..cfg.securities());
        let co = sec % cfg.companies();
        let industry = co % 102;
        let sector = industry % 12;
        let exchange = sec % 4;
        tb.read(TupleId::new(T_SECURITY, sec));
        self.stats.observe_shape(T_SECURITY, &[0]);
        tb.read(TupleId::new(T_COMPANY, co));
        self.stats.observe_shape(T_COMPANY, &[0]);
        tb.read(TupleId::new(T_INDUSTRY, industry));
        self.stats.observe_shape(T_INDUSTRY, &[0]);
        tb.read(TupleId::new(T_SECTOR, sector));
        self.stats.observe_shape(T_SECTOR, &[0]);
        tb.read(TupleId::new(T_EXCHANGE, exchange));
        self.stats.observe_shape(T_EXCHANGE, &[0]);
        tb.read(TupleId::new(T_LAST_TRADE, sec));
        self.stats.observe_shape(T_LAST_TRADE, &[0]);
    }

    fn market_watch(&mut self, tb: &mut TxnBuilder) {
        let cfg = self.cfg.clone();
        let cust = self.rng.gen_range(0..cfg.customers);
        tb.read(TupleId::new(T_WATCH_LIST, cust));
        self.stats.observe_shape(T_WATCH_LIST, &[1]);
        let items: Vec<TupleId> = (0..WATCH_ITEMS_PER_LIST)
            .map(|i| TupleId::new(T_WATCH_ITEM, cust * WATCH_ITEMS_PER_LIST + i))
            .collect();
        let ticks: Vec<TupleId> = items
            .iter()
            .map(|wi| TupleId::new(T_LAST_TRADE, splitmix_pair(wi.row, 0x7) % cfg.securities()))
            .collect();
        tb.scan(items);
        self.stats.observe_shape(T_WATCH_ITEM, &[0]);
        tb.scan(ticks);
        self.stats.observe_shape(T_LAST_TRADE, &[0]);
    }

    fn market_feed(&mut self, tb: &mut TxnBuilder) {
        // Ticker batch: update a handful of last-trade rows.
        let n = self.rng.gen_range(5..=10);
        for _ in 0..n {
            let sec = self.rng.gen_range(0..self.cfg.securities());
            tb.write(TupleId::new(T_LAST_TRADE, sec));
            self.stats.observe_shape(T_LAST_TRADE, &[0]);
        }
    }

    fn trade_update(&mut self, tb: &mut TxnBuilder) {
        let acct = self.random_account();
        tb.read(TupleId::new(T_ACCOUNT, acct));
        self.stats.observe_shape(T_ACCOUNT, &[0]);
        for t in self.recent_trades(acct, 3) {
            tb.read(TupleId::new(T_TRADE, t));
            self.stats.observe_shape(T_TRADE, &[0]);
            tb.write(TupleId::new(T_SETTLEMENT, t));
            self.stats.observe_shape(T_SETTLEMENT, &[0]);
            tb.write(TupleId::new(T_TRADE_HISTORY, t * TH_PER_TRADE + 2));
            self.stats.observe_shape(T_TRADE_HISTORY, &[0, 1]);
        }
    }
}

/// The spec transaction mix, in percent.
const MIX: [(u32, u8); 10] = [
    (10, 0), // trade_order
    (10, 1), // trade_result
    (8, 2),  // trade_lookup
    (19, 3), // trade_status
    (13, 4), // customer_position
    (5, 5),  // broker_volume
    (14, 6), // security_detail
    (18, 7), // market_watch
    (1, 8),  // market_feed
    (2, 9),  // trade_update
];

/// Generates the workload.
pub fn generate(cfg: &TpceConfig) -> Workload {
    let schema = Arc::new(schema());
    let accounts = cfg.accounts();
    let mut g = Gen {
        cfg: cfg.clone(),
        rng: StdRng::seed_from_u64(cfg.seed),
        trade_acct: Vec::with_capacity(cfg.trade_capacity() as usize),
        trade_sec: Vec::with_capacity(cfg.trade_capacity() as usize),
        trades_by_account: vec![Vec::new(); accounts as usize],
        accounts_by_broker: vec![Vec::new(); cfg.brokers() as usize],
        stats: AttributeStats::default(),
    };
    // Initial trades (deterministic assignment, matching the oracle).
    for acct in 0..accounts {
        for i in 0..INIT_TRADES_PER_ACCOUNT {
            let sec = splitmix_pair(acct * INIT_TRADES_PER_ACCOUNT + i, 0x51) % cfg.securities();
            g.new_trade(acct, sec);
        }
    }
    for acct in 0..accounts {
        let broker = splitmix_pair(acct, 0xB) % cfg.brokers();
        g.accounts_by_broker[broker as usize].push(acct as u32);
    }

    let mut txns = Vec::with_capacity(cfg.num_txns);
    for _ in 0..cfg.num_txns {
        let mut tb = TxnBuilder::new(false);
        let mut roll = g.rng.gen_range(0..100u32);
        let kind = MIX
            .iter()
            .find(|&&(w, _)| {
                if roll < w {
                    true
                } else {
                    roll -= w;
                    false
                }
            })
            .map(|&(_, k)| k)
            .expect("mix sums to 100");
        match kind {
            0 => g.trade_order(&mut tb),
            1 => g.trade_result(&mut tb),
            2 => g.trade_lookup(&mut tb),
            3 => g.trade_status(&mut tb),
            4 => g.customer_position(&mut tb),
            5 => g.broker_volume(&mut tb),
            6 => g.security_detail(&mut tb),
            7 => g.market_watch(&mut tb),
            8 => g.market_feed(&mut tb),
            _ => g.trade_update(&mut tb),
        }
        txns.push(tb.finish());
    }

    let table_rows = vec![
        cfg.customers,
        accounts,
        cfg.brokers(),
        cfg.companies(),
        cfg.securities(),
        cfg.securities(), // last_trade
        cfg.trade_capacity(),
        cfg.trade_capacity() * TH_PER_TRADE,
        cfg.trade_capacity(), // settlement
        cfg.trade_capacity(), // cash_transaction
        accounts * HOLDINGS_PER_ACCOUNT,
        cfg.trade_capacity(), // holding
        cfg.customers,        // watch_list
        cfg.customers * WATCH_ITEMS_PER_LIST,
        4,
        12,
        102,
    ];

    Workload {
        name: "tpce".to_owned(),
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(TpceDb {
            cfg: cfg.clone(),
            trade_acct: g.trade_acct,
            trade_sec: g.trade_sec,
        }),
        table_rows,
        attr_stats: g.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_transaction_types() {
        let w = generate(&TpceConfig::small());
        assert_eq!(w.schema.num_tables(), 17);
        assert_eq!(w.trace.len(), 2_000);
        // Reads and writes both present; some transactions read-only.
        let ro = w
            .trace
            .transactions
            .iter()
            .filter(|t| t.writes.is_empty())
            .count();
        assert!(
            ro > 1_000,
            "read-heavy workload expected, got {ro} read-only"
        );
        let writers = w.trace.len() - ro;
        assert!(writers > 300, "writers {writers}");
    }

    #[test]
    fn oracle_matches_generator_for_trades() {
        let cfg = TpceConfig::small();
        let w = generate(&cfg);
        // Every trade-touching transaction: the oracle's t_ca_id must be an
        // existing account.
        for t in w.trace.transactions.iter().take(200) {
            for tup in t.accessed() {
                if tup.table == T_TRADE {
                    let acct = w.db.value(tup, 1).expect("trade has account");
                    assert!((acct as u64) < cfg.accounts());
                    let sec = w.db.value(tup, 2).expect("trade has security");
                    assert!((sec as u64) < cfg.securities());
                }
            }
        }
    }

    #[test]
    fn market_data_is_shared_customer_data_is_clustered() {
        let cfg = TpceConfig::small();
        let w = generate(&cfg);
        let db_any: &dyn std::any::Any = &w.db; // can't downcast through Arc<dyn TupleValues>
        let _ = db_any;
        // Count distinct customers touching each last_trade row vs each
        // account row, via trace inspection.
        use std::collections::{HashMap, HashSet};
        let mut lt_touchers: HashMap<u64, HashSet<usize>> = HashMap::new();
        let mut acct_touchers: HashMap<u64, HashSet<usize>> = HashMap::new();
        for (i, t) in w.trace.transactions.iter().enumerate() {
            for tup in t.accessed() {
                match tup.table {
                    T_LAST_TRADE => {
                        lt_touchers.entry(tup.row).or_default().insert(i);
                    }
                    T_ACCOUNT => {
                        acct_touchers.entry(tup.row).or_default().insert(i);
                    }
                    _ => {}
                }
            }
        }
        let avg = |m: &HashMap<u64, HashSet<usize>>| {
            m.values().map(|s| s.len()).sum::<usize>() as f64 / m.len().max(1) as f64
        };
        assert!(
            avg(&lt_touchers) > 2.0 * avg(&acct_touchers),
            "market rows should be much hotter than account rows: {} vs {}",
            avg(&lt_touchers),
            avg(&acct_touchers)
        );
    }
}
