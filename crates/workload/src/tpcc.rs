//! TPC-C order-processing workload (§6.1, Appendix D.2).
//!
//! 9 tables, 5 transaction types with the standard mix (new-order 45%,
//! payment 43%, order-status 4%, delivery 4%, stock-level 4%), and the two
//! sources of multi-warehouse transactions the paper leans on: ~1% of
//! new-order lines are supplied by a remote warehouse and 15% of payments
//! are for a remote customer — together ≈10.7% of transactions touch more
//! than one warehouse, which lower-bounds any warehouse-partitioned scheme.
//!
//! Row ids are dense functions of the TPC-C keys, so tuple attribute values
//! are *derived* rather than stored ([`TpccDb`]), and 25M-tuple databases
//! (TPC-C 50W) cost no memory. Order contents (line count, items, remote
//! flags, owning customer) are deterministic hashes of the order row id so
//! the generator and the value oracle always agree.
//!
//! Deliberate simplifications (documented in DESIGN.md): customer selection
//! is by id (no last-name index), the history table keeps one row per
//! customer, and the 1% "bad item" rollback of new-order is omitted.

use crate::trace::{Trace, TraceSource, Workload};
use crate::tuple::{splitmix_pair as mix, TupleId, TupleValues};
use crate::txn::{Transaction, TxnBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Predicate, Schema, Statement, Value};
use std::ops::Range;
use std::sync::Arc;

/// Table ids, in [`schema`] order.
pub const T_WAREHOUSE: u16 = 0;
pub const T_DISTRICT: u16 = 1;
pub const T_CUSTOMER: u16 = 2;
pub const T_HISTORY: u16 = 3;
pub const T_NEW_ORDER: u16 = 4;
pub const T_ORDERS: u16 = 5;
pub const T_ORDER_LINE: u16 = 6;
pub const T_ITEM: u16 = 7;
pub const T_STOCK: u16 = 8;

/// Maximum order lines per order (TPC-C: 5–15).
pub const MAX_LINES: u64 = 15;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TpccConfig {
    pub warehouses: u32,
    pub districts_per_warehouse: u64,
    pub customers_per_district: u64,
    pub items: u64,
    pub init_orders_per_district: u64,
    pub num_txns: usize,
    pub seed: u64,
    pub keep_statements: bool,
}

impl TpccConfig {
    /// Full TPC-C scale for `w` warehouses (10 districts, 3000 customers
    /// per district, 100k items, 3000 initial orders per district).
    pub fn full(w: u32) -> Self {
        Self {
            warehouses: w,
            districts_per_warehouse: 10,
            customers_per_district: 3_000,
            items: 100_000,
            init_orders_per_district: 3_000,
            num_txns: 100_000,
            seed: 0,
            keep_statements: false,
        }
    }

    /// Reduced scale for fast tests.
    pub fn small(w: u32) -> Self {
        Self {
            warehouses: w,
            districts_per_warehouse: 4,
            customers_per_district: 30,
            items: 200,
            init_orders_per_district: 30,
            num_txns: 2_000,
            seed: 0,
            keep_statements: false,
        }
    }

    fn districts(&self) -> u64 {
        self.warehouses as u64 * self.districts_per_warehouse
    }

    /// Row-id capacity per district in the orders table: initial orders plus
    /// headroom for new orders (4x the uniform expectation, which no
    /// district exceeds in practice).
    fn order_capacity(&self) -> u64 {
        let expected_new = (self.num_txns as u64) / self.districts().max(1);
        self.init_orders_per_district + 4 * expected_new + 64
    }
}

/// Derivable order facts shared by the generator and [`TpccDb`].
#[derive(Clone, Copy, Debug)]
pub struct OrderFacts {
    /// Number of order lines (5..=15).
    pub lines: u64,
    /// 0-based customer index within the district.
    pub customer: u64,
}

impl TpccConfig {
    /// Facts derived from an orders-table row id.
    pub fn order_facts(&self, order_row: u64) -> OrderFacts {
        OrderFacts {
            lines: 5 + mix(order_row, 0xA) % (MAX_LINES - 5 + 1),
            customer: mix(order_row, 0xC) % self.customers_per_district,
        }
    }

    /// 0-based item of order line `ol` of `order_row`.
    pub fn line_item(&self, order_row: u64, ol: u64) -> u64 {
        mix(order_row, 0x1000 + ol) % self.items
    }

    /// Whether line `ol` is supplied by a remote warehouse (1% per line, as
    /// in the TPC-C spec), and which warehouse (0-based) supplies it.
    pub fn line_supply(&self, order_row: u64, ol: u64, home_w: u64) -> u64 {
        let w = self.warehouses as u64;
        if w <= 1 || !mix(order_row, 0x2000 + ol).is_multiple_of(100) {
            return home_w;
        }
        (home_w + 1 + mix(order_row, 0x3000 + ol) % (w - 1)) % w
    }
}

/// Formula-backed attribute oracle: inverts the dense row-id layout.
pub struct TpccDb {
    cfg: TpccConfig,
}

impl TupleValues for TpccDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        let c = &self.cfg;
        let dpw = c.districts_per_warehouse;
        let cpd = c.customers_per_district;
        let ocap = c.order_capacity();
        let r = t.row;
        let v: i64 = match (t.table, col) {
            (T_WAREHOUSE, 0) => r as i64 + 1,
            (T_DISTRICT, 0) => (r / dpw) as i64 + 1,
            (T_DISTRICT, 1) => (r % dpw) as i64 + 1,
            (T_CUSTOMER, 0) | (T_HISTORY, 0) => (r / (dpw * cpd)) as i64 + 1,
            (T_CUSTOMER, 1) | (T_HISTORY, 1) => ((r / cpd) % dpw) as i64 + 1,
            (T_CUSTOMER, 2) | (T_HISTORY, 2) => (r % cpd) as i64 + 1,
            (T_NEW_ORDER, 0) | (T_ORDERS, 0) => (r / (dpw * ocap)) as i64 + 1,
            (T_NEW_ORDER, 1) | (T_ORDERS, 1) => ((r / ocap) % dpw) as i64 + 1,
            (T_NEW_ORDER, 2) | (T_ORDERS, 2) => (r % ocap) as i64 + 1,
            (T_ORDERS, 3) => c.order_facts(r).customer as i64 + 1,
            (T_ORDER_LINE, 0) => ((r / MAX_LINES) / (dpw * ocap)) as i64 + 1,
            (T_ORDER_LINE, 1) => (((r / MAX_LINES) / ocap) % dpw) as i64 + 1,
            (T_ORDER_LINE, 2) => ((r / MAX_LINES) % ocap) as i64 + 1,
            (T_ORDER_LINE, 3) => (r % MAX_LINES) as i64 + 1,
            (T_ORDER_LINE, 4) => c.line_item(r / MAX_LINES, r % MAX_LINES) as i64 + 1,
            (T_ITEM, 0) => r as i64 + 1,
            (T_STOCK, 0) => (r / c.items) as i64 + 1,
            (T_STOCK, 1) => (r % c.items) as i64 + 1,
            _ => return None,
        };
        Some(v)
    }

    fn tuple_bytes(&self, table: schism_sql::TableId) -> u32 {
        match table {
            T_WAREHOUSE => 96,
            T_DISTRICT => 112,
            T_CUSTOMER => 680,
            T_HISTORY => 52,
            T_NEW_ORDER => 12,
            T_ORDERS => 36,
            T_ORDER_LINE => 56,
            T_ITEM => 88,
            T_STOCK => 320,
            _ => 64,
        }
    }
}

/// The 9-table TPC-C schema (key columns; payload columns elided).
pub fn schema() -> Schema {
    use ColumnType::Int;
    let mut s = Schema::new();
    s.add_table("warehouse", &[("w_id", Int), ("w_ytd", Int)], &["w_id"]);
    s.add_table(
        "district",
        &[
            ("d_w_id", Int),
            ("d_id", Int),
            ("d_next_o_id", Int),
            ("d_ytd", Int),
        ],
        &["d_w_id", "d_id"],
    );
    s.add_table(
        "customer",
        &[
            ("c_w_id", Int),
            ("c_d_id", Int),
            ("c_id", Int),
            ("c_balance", Int),
        ],
        &["c_w_id", "c_d_id", "c_id"],
    );
    s.add_table(
        "history",
        &[
            ("h_w_id", Int),
            ("h_d_id", Int),
            ("h_c_id", Int),
            ("h_amount", Int),
        ],
        &["h_w_id", "h_d_id", "h_c_id"],
    );
    s.add_table(
        "new_order",
        &[("no_w_id", Int), ("no_d_id", Int), ("no_o_id", Int)],
        &["no_w_id", "no_d_id", "no_o_id"],
    );
    s.add_table(
        "orders",
        &[
            ("o_w_id", Int),
            ("o_d_id", Int),
            ("o_id", Int),
            ("o_c_id", Int),
        ],
        &["o_w_id", "o_d_id", "o_id"],
    );
    s.add_table(
        "order_line",
        &[
            ("ol_w_id", Int),
            ("ol_d_id", Int),
            ("ol_o_id", Int),
            ("ol_number", Int),
            ("ol_i_id", Int),
        ],
        &["ol_w_id", "ol_d_id", "ol_o_id", "ol_number"],
    );
    s.add_table("item", &[("i_id", Int), ("i_price", Int)], &["i_id"]);
    s.add_table(
        "stock",
        &[("s_w_id", Int), ("s_i_id", Int), ("s_quantity", Int)],
        &["s_w_id", "s_i_id"],
    );
    s
}

/// A compact, replayable description of one transaction: everything the
/// random draws and per-district counters decided, with the actual tuple
/// sets left to be derived on demand.
///
/// Scripts are what makes the TPC-C generator streamable: the sequential
/// state (RNG stream, `next_o` / `deliver_cursor` counters) is consumed
/// once up front into a few words per transaction, and the heavyweight
/// read/write/scan sets (a new-order materializes ~35 tuple ids; a
/// stock-level scan several hundred) are reconstructed per chunk by pure
/// functions of `(config, script)`.
#[derive(Clone, Debug)]
enum Script {
    NewOrder {
        w: u64,
        d: u64,
        o: u64,
    },
    Payment {
        w: u64,
        d: u64,
        cw: u64,
        cd: u64,
        cu: u64,
    },
    OrderStatus {
        w: u64,
        d: u64,
        cu: u64,
        o: u64,
    },
    /// `(district, order)` pairs actually delivered (districts with no
    /// undelivered order are skipped at script time).
    Delivery {
        w: u64,
        orders: Vec<(u64, u64)>,
    },
    StockLevel {
        w: u64,
        d: u64,
        hi: u64,
    },
}

/// Draws-only pass: consumes the RNG and the per-district counters exactly
/// like the original monolithic generator did, emitting one [`Script`] per
/// transaction.
struct ScriptGen<'a> {
    cfg: &'a TpccConfig,
    rng: StdRng,
    /// Next order index (0-based) per district.
    next_o: Vec<u64>,
    /// Next order to deliver per district.
    deliver_cursor: Vec<u64>,
    ocap: u64,
}

impl<'a> ScriptGen<'a> {
    fn new(cfg: &'a TpccConfig) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            next_o: vec![cfg.init_orders_per_district; cfg.districts() as usize],
            deliver_cursor: vec![0; cfg.districts() as usize],
            ocap: cfg.order_capacity(),
        }
    }

    fn district_row(&self, w: u64, d: u64) -> u64 {
        w * self.cfg.districts_per_warehouse + d
    }

    fn next(&mut self) -> Script {
        let cfg = self.cfg;
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=44 => {
                let w = self.rng.gen_range(0..cfg.warehouses as u64);
                let d = self.rng.gen_range(0..cfg.districts_per_warehouse);
                let dr = self.district_row(w, d) as usize;
                let o = self.next_o[dr].min(self.ocap - 1);
                self.next_o[dr] = (o + 1).min(self.ocap - 1);
                Script::NewOrder { w, d, o }
            }
            45..=87 => {
                let w = self.rng.gen_range(0..cfg.warehouses as u64);
                let d = self.rng.gen_range(0..cfg.districts_per_warehouse);
                // 15% remote customer (the TPC-C spec's multi-warehouse
                // payment).
                let (cw, cd) = if cfg.warehouses > 1 && self.rng.gen_bool(0.15) {
                    let other = (w + 1 + self.rng.gen_range(0..cfg.warehouses as u64 - 1))
                        % cfg.warehouses as u64;
                    (other, self.rng.gen_range(0..cfg.districts_per_warehouse))
                } else {
                    (w, d)
                };
                let cu = self.rng.gen_range(0..cfg.customers_per_district);
                Script::Payment { w, d, cw, cd, cu }
            }
            88..=91 => {
                let w = self.rng.gen_range(0..cfg.warehouses as u64);
                let d = self.rng.gen_range(0..cfg.districts_per_warehouse);
                let dr = self.district_row(w, d) as usize;
                let cu = self.rng.gen_range(0..cfg.customers_per_district);
                let o = self.rng.gen_range(0..self.next_o[dr]);
                Script::OrderStatus { w, d, cu, o }
            }
            92..=95 => {
                let w = self.rng.gen_range(0..cfg.warehouses as u64);
                let mut orders = Vec::new();
                for d in 0..cfg.districts_per_warehouse {
                    let dr = self.district_row(w, d) as usize;
                    let cursor = self.deliver_cursor[dr];
                    if cursor >= self.next_o[dr] {
                        continue; // no undelivered order in this district
                    }
                    self.deliver_cursor[dr] += 1;
                    orders.push((d, cursor));
                }
                Script::Delivery { w, orders }
            }
            _ => {
                let w = self.rng.gen_range(0..cfg.warehouses as u64);
                let d = self.rng.gen_range(0..cfg.districts_per_warehouse);
                let dr = self.district_row(w, d) as usize;
                Script::StockLevel {
                    w,
                    d,
                    hi: self.next_o[dr],
                }
            }
        }
    }
}

/// Replays a [`Script`] into a transaction — a pure function of
/// `(cfg, script)`, no RNG, no counters. `stats` is `Some` on the batch
/// path (which also retains statements when configured) and `None` on the
/// streaming path.
fn apply_script(
    cfg: &TpccConfig,
    ocap: u64,
    script: &Script,
    tb: &mut TxnBuilder,
    mut stats: Option<&mut AttributeStats>,
) {
    let district_row = |w: u64, d: u64| w * cfg.districts_per_warehouse + d;
    let customer_row =
        |w: u64, d: u64, cu: u64| district_row(w, d) * cfg.customers_per_district + cu;
    let order_row = |w: u64, d: u64, o: u64| district_row(w, d) * ocap + o;

    macro_rules! observe {
        ($table:expr, $cols:expr, $tb:expr, $stmt:expr) => {
            if let Some(s) = stats.as_deref_mut() {
                s.observe_shape($table, $cols);
            }
            $tb.stmt(|| $stmt);
        };
    }

    match *script {
        Script::NewOrder { w, d, o } => {
            let dr = district_row(w, d);
            let or = order_row(w, d, o);
            let facts = cfg.order_facts(or);
            let cu = facts.customer;

            tb.read(TupleId::new(T_WAREHOUSE, w));
            observe!(
                T_WAREHOUSE,
                &[0],
                tb,
                Statement::select(T_WAREHOUSE, eq1(0, w + 1))
            );
            tb.write(TupleId::new(T_DISTRICT, dr));
            observe!(
                T_DISTRICT,
                &[0, 1],
                tb,
                Statement::update(T_DISTRICT, eq2(0, w + 1, 1, d + 1))
            );
            tb.read(TupleId::new(T_CUSTOMER, customer_row(w, d, cu)));
            observe!(
                T_CUSTOMER,
                &[0, 1, 2],
                tb,
                Statement::select(T_CUSTOMER, eq3(0, w + 1, 1, d + 1, 2, cu + 1))
            );
            tb.write(TupleId::new(T_ORDERS, or));
            observe!(
                T_ORDERS,
                &[0, 1, 2],
                tb,
                Statement::insert(
                    T_ORDERS,
                    vec![
                        (0, Value::Int(w as i64 + 1)),
                        (1, Value::Int(d as i64 + 1)),
                        (2, Value::Int(o as i64 + 1)),
                        (3, Value::Int(cu as i64 + 1)),
                    ],
                )
            );
            tb.write(TupleId::new(T_NEW_ORDER, or));
            observe!(
                T_NEW_ORDER,
                &[0, 1, 2],
                tb,
                Statement::insert(
                    T_NEW_ORDER,
                    vec![
                        (0, Value::Int(w as i64 + 1)),
                        (1, Value::Int(d as i64 + 1)),
                        (2, Value::Int(o as i64 + 1)),
                    ],
                )
            );

            for ol in 0..facts.lines {
                let item = cfg.line_item(or, ol);
                let supply_w = cfg.line_supply(or, ol, w);
                tb.read(TupleId::new(T_ITEM, item));
                observe!(
                    T_ITEM,
                    &[0],
                    tb,
                    Statement::select(T_ITEM, eq1(0, item + 1))
                );
                tb.write(TupleId::new(T_STOCK, supply_w * cfg.items + item));
                observe!(
                    T_STOCK,
                    &[0, 1],
                    tb,
                    Statement::update(T_STOCK, eq2(0, supply_w + 1, 1, item + 1))
                );
                tb.write(TupleId::new(T_ORDER_LINE, or * MAX_LINES + ol));
                observe!(
                    T_ORDER_LINE,
                    &[0, 1, 2, 3],
                    tb,
                    Statement::insert(
                        T_ORDER_LINE,
                        vec![
                            (0, Value::Int(w as i64 + 1)),
                            (1, Value::Int(d as i64 + 1)),
                            (2, Value::Int(o as i64 + 1)),
                            (3, Value::Int(ol as i64 + 1)),
                            (4, Value::Int(item as i64 + 1)),
                        ],
                    )
                );
            }
        }
        Script::Payment { w, d, cw, cd, cu } => {
            tb.write(TupleId::new(T_WAREHOUSE, w));
            observe!(
                T_WAREHOUSE,
                &[0],
                tb,
                Statement::update(T_WAREHOUSE, eq1(0, w + 1))
            );
            tb.write(TupleId::new(T_DISTRICT, district_row(w, d)));
            observe!(
                T_DISTRICT,
                &[0, 1],
                tb,
                Statement::update(T_DISTRICT, eq2(0, w + 1, 1, d + 1))
            );
            let crow = customer_row(cw, cd, cu);
            tb.write(TupleId::new(T_CUSTOMER, crow));
            observe!(
                T_CUSTOMER,
                &[0, 1, 2],
                tb,
                Statement::update(T_CUSTOMER, eq3(0, cw + 1, 1, cd + 1, 2, cu + 1))
            );
            tb.write(TupleId::new(T_HISTORY, crow));
            observe!(
                T_HISTORY,
                &[0, 1, 2],
                tb,
                Statement::insert(
                    T_HISTORY,
                    vec![
                        (0, Value::Int(cw as i64 + 1)),
                        (1, Value::Int(cd as i64 + 1)),
                        (2, Value::Int(cu as i64 + 1)),
                    ],
                )
            );
        }
        Script::OrderStatus { w, d, cu, o } => {
            tb.read(TupleId::new(T_CUSTOMER, customer_row(w, d, cu)));
            observe!(
                T_CUSTOMER,
                &[0, 1, 2],
                tb,
                Statement::select(T_CUSTOMER, eq3(0, w + 1, 1, d + 1, 2, cu + 1))
            );
            let or = order_row(w, d, o);
            tb.read(TupleId::new(T_ORDERS, or));
            observe!(
                T_ORDERS,
                &[0, 1, 2],
                tb,
                Statement::select(T_ORDERS, eq3(0, w + 1, 1, d + 1, 2, o + 1))
            );
            let lines = cfg.order_facts(or).lines;
            let group: Vec<TupleId> = (0..lines)
                .map(|ol| TupleId::new(T_ORDER_LINE, or * MAX_LINES + ol))
                .collect();
            tb.scan(group);
            observe!(
                T_ORDER_LINE,
                &[0, 1, 2],
                tb,
                Statement::select(T_ORDER_LINE, eq3(0, w + 1, 1, d + 1, 2, o + 1))
            );
        }
        Script::Delivery { w, ref orders } => {
            for &(d, cursor) in orders {
                let or = order_row(w, d, cursor);
                let facts = cfg.order_facts(or);
                tb.write(TupleId::new(T_NEW_ORDER, or));
                observe!(
                    T_NEW_ORDER,
                    &[0, 1, 2],
                    tb,
                    Statement::delete(T_NEW_ORDER, eq3(0, w + 1, 1, d + 1, 2, cursor + 1))
                );
                tb.write(TupleId::new(T_ORDERS, or));
                observe!(
                    T_ORDERS,
                    &[0, 1, 2],
                    tb,
                    Statement::update(T_ORDERS, eq3(0, w + 1, 1, d + 1, 2, cursor + 1))
                );
                for ol in 0..facts.lines {
                    tb.write(TupleId::new(T_ORDER_LINE, or * MAX_LINES + ol));
                }
                observe!(
                    T_ORDER_LINE,
                    &[0, 1, 2],
                    tb,
                    Statement::update(T_ORDER_LINE, eq3(0, w + 1, 1, d + 1, 2, cursor + 1))
                );
                tb.write(TupleId::new(T_CUSTOMER, customer_row(w, d, facts.customer)));
                observe!(
                    T_CUSTOMER,
                    &[0, 1, 2],
                    tb,
                    Statement::update(T_CUSTOMER, eq3(0, w + 1, 1, d + 1, 2, facts.customer + 1))
                );
            }
        }
        Script::StockLevel { w, d, hi } => {
            let dr = district_row(w, d);
            tb.read(TupleId::new(T_DISTRICT, dr));
            observe!(
                T_DISTRICT,
                &[0, 1],
                tb,
                Statement::select(T_DISTRICT, eq2(0, w + 1, 1, d + 1))
            );
            // Items of the district's last 20 orders and their stock rows —
            // the one large scan statement in TPC-C (a blanket-filter
            // candidate).
            let lo = hi.saturating_sub(20);
            let mut ol_group = Vec::new();
            let mut stock_group = Vec::new();
            for o in lo..hi {
                let or = order_row(w, d, o);
                let facts = cfg.order_facts(or);
                for ol in 0..facts.lines {
                    ol_group.push(TupleId::new(T_ORDER_LINE, or * MAX_LINES + ol));
                    stock_group.push(TupleId::new(T_STOCK, w * cfg.items + cfg.line_item(or, ol)));
                }
            }
            stock_group.sort_unstable();
            stock_group.dedup();
            tb.scan(ol_group);
            observe!(
                T_ORDER_LINE,
                &[0, 1, 2],
                tb,
                Statement::select(
                    T_ORDER_LINE,
                    Predicate::and(vec![
                        eq2(0, w + 1, 1, d + 1),
                        Predicate::Between(2, Value::Int(lo as i64 + 1), Value::Int(hi as i64)),
                    ]),
                )
            );
            tb.scan(stock_group);
            observe!(
                T_STOCK,
                &[0, 1],
                tb,
                Statement::select(T_STOCK, eq1(0, w + 1))
            );
        }
    }
}

fn eq1(c: u16, v: u64) -> Predicate {
    Predicate::Eq(c, Value::Int(v as i64))
}

fn eq2(c1: u16, v1: u64, c2: u16, v2: u64) -> Predicate {
    Predicate::and(vec![eq1(c1, v1), eq1(c2, v2)])
}

fn eq3(c1: u16, v1: u64, c2: u16, v2: u64, c3: u16, v3: u64) -> Predicate {
    Predicate::and(vec![eq1(c1, v1), eq1(c2, v2), eq1(c3, v3)])
}

/// Generates the workload (batch path: the full trace materialized, with
/// attribute statistics and optional statement retention).
pub fn generate(cfg: &TpccConfig) -> Workload {
    assert!(cfg.warehouses >= 1);
    let schema = Arc::new(schema());
    let ocap = cfg.order_capacity();
    let districts = cfg.districts();
    let mut g = ScriptGen::new(cfg);
    let mut stats = AttributeStats::default();

    let mut txns = Vec::with_capacity(cfg.num_txns);
    for _ in 0..cfg.num_txns {
        let script = g.next();
        let mut tb = TxnBuilder::new(cfg.keep_statements);
        apply_script(cfg, ocap, &script, &mut tb, Some(&mut stats));
        txns.push(tb.finish());
    }

    let table_rows = vec![
        cfg.warehouses as u64,
        districts,
        districts * cfg.customers_per_district,
        districts * cfg.customers_per_district, // history: one row per customer
        districts * ocap,
        districts * ocap,
        districts * ocap * MAX_LINES,
        cfg.items,
        cfg.warehouses as u64 * cfg.items,
    ];

    Workload {
        name: format!("tpcc-{}w", cfg.warehouses),
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(TpccDb { cfg: cfg.clone() }),
        table_rows,
        attr_stats: stats,
    }
}

/// Streaming counterpart of [`generate`]: a [`TraceSource`] holding one
/// small `Script` per transaction instead of the materialized tuple sets,
/// and replaying scripts into transactions chunk by chunk.
///
/// Because TPC-C generation is inherently sequential (the RNG stream and
/// the per-district order counters), the scripts are produced by the same
/// draws-only pass the batch generator runs — so for a given config the
/// streamed trace is **identical** to `generate(cfg).trace` (modulo
/// retained statements, which the streaming path never builds). What the
/// source saves is memory and allocation: a script is a few words where a
/// materialized new-order holds ~35 tuple ids and a stock-level scan
/// several hundred.
pub struct TpccSource {
    cfg: TpccConfig,
    ocap: u64,
    scripts: Vec<Script>,
}

/// Builds the streaming source (runs the draws-only script pass).
pub fn stream(cfg: &TpccConfig) -> TpccSource {
    assert!(cfg.warehouses >= 1);
    let mut g = ScriptGen::new(cfg);
    let scripts = (0..cfg.num_txns).map(|_| g.next()).collect();
    TpccSource {
        ocap: cfg.order_capacity(),
        scripts,
        cfg: cfg.clone(),
    }
}

impl TraceSource for TpccSource {
    fn len(&self) -> usize {
        self.scripts.len()
    }

    fn for_chunk(&self, range: Range<usize>, visit: &mut dyn FnMut(usize, &Transaction)) {
        for idx in range {
            let mut tb = TxnBuilder::new(false);
            apply_script(&self.cfg, self.ocap, &self.scripts[idx], &mut tb, None);
            let t = tb.finish();
            visit(idx, &t);
        }
    }
}

/// The warehouse (0-based) a tuple belongs to, or `None` for the shared
/// `item` table. This is the ground truth behind manual partitioning and is
/// used by tests and the fig4 manual baseline.
pub fn warehouse_of(cfg: &TpccConfig, t: TupleId) -> Option<u64> {
    let dpw = cfg.districts_per_warehouse;
    let cpd = cfg.customers_per_district;
    let ocap = cfg.order_capacity();
    match t.table {
        T_WAREHOUSE => Some(t.row),
        T_DISTRICT => Some(t.row / dpw),
        T_CUSTOMER | T_HISTORY => Some(t.row / (dpw * cpd)),
        T_NEW_ORDER | T_ORDERS => Some(t.row / (dpw * ocap)),
        T_ORDER_LINE => Some(t.row / MAX_LINES / (dpw * ocap)),
        T_STOCK => Some(t.row / cfg.items),
        _ => None, // item
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_warehouse_fraction_near_paper() {
        // ~10.7% of transactions touch more than one warehouse (§6.1).
        let cfg = TpccConfig {
            num_txns: 20_000,
            ..TpccConfig::small(4)
        };
        let w = generate(&cfg);
        let mut multi = 0usize;
        for t in &w.trace.transactions {
            let mut ws: Vec<u64> = t
                .accessed()
                .filter_map(|tp| warehouse_of(&cfg, tp))
                .collect();
            ws.sort_unstable();
            ws.dedup();
            if ws.len() > 1 {
                multi += 1;
            }
        }
        let frac = multi as f64 / w.trace.len() as f64;
        assert!(
            (0.06..=0.16).contains(&frac),
            "multi-warehouse fraction {frac:.3} not near 10.7%"
        );
    }

    #[test]
    fn db_formulas_invert_row_ids() {
        let cfg = TpccConfig::small(3);
        let w = generate(&cfg);
        let db = &w.db;
        // stock(w=2, i=5): row = 1*items + 4 for 0-based (w=1,i=4).
        let row = cfg.items + 4;
        assert_eq!(db.value(TupleId::new(T_STOCK, row), 0), Some(2));
        assert_eq!(db.value(TupleId::new(T_STOCK, row), 1), Some(5));
        // customer row roundtrip.
        let crow = (2 * cfg.districts_per_warehouse + 3) * cfg.customers_per_district + 7;
        assert_eq!(db.value(TupleId::new(T_CUSTOMER, crow), 0), Some(3));
        assert_eq!(db.value(TupleId::new(T_CUSTOMER, crow), 1), Some(4));
        assert_eq!(db.value(TupleId::new(T_CUSTOMER, crow), 2), Some(8));
    }

    #[test]
    fn order_line_items_agree_between_oracle_and_generator() {
        let cfg = TpccConfig::small(2);
        let db = TpccDb { cfg: cfg.clone() };
        for or in [0u64, 17, 999] {
            for ol in 0..cfg.order_facts(or).lines {
                let row = or * MAX_LINES + ol;
                let from_db = db.value(TupleId::new(T_ORDER_LINE, row), 4).unwrap();
                assert_eq!(from_db, cfg.line_item(or, ol) as i64 + 1);
            }
        }
    }

    #[test]
    fn transaction_mix_shape() {
        let cfg = TpccConfig {
            num_txns: 10_000,
            ..TpccConfig::small(2)
        };
        let w = generate(&cfg);
        // new_order transactions write order lines; payments write history.
        let with_ol = w
            .trace
            .transactions
            .iter()
            .filter(|t| t.writes.iter().any(|x| x.table == T_ORDER_LINE))
            .count();
        let with_hist = w
            .trace
            .transactions
            .iter()
            .filter(|t| t.writes.iter().any(|x| x.table == T_HISTORY))
            .count();
        let no_frac = with_ol as f64 / 10_000.0;
        let pay_frac = with_hist as f64 / 10_000.0;
        // new_order 45% + delivery 4% carry order_line writes.
        assert!(
            (0.42..=0.56).contains(&no_frac),
            "order-line writers {no_frac}"
        );
        assert!(
            (0.39..=0.48).contains(&pay_frac),
            "payment fraction {pay_frac}"
        );
    }

    #[test]
    fn stock_level_scans_stay_home() {
        let cfg = TpccConfig {
            num_txns: 5_000,
            ..TpccConfig::small(4)
        };
        let w = generate(&cfg);
        for t in &w.trace.transactions {
            for scan in &t.scans {
                let mut ws: Vec<u64> = scan
                    .iter()
                    .filter_map(|&tp| warehouse_of(&cfg, tp))
                    .collect();
                ws.sort_unstable();
                ws.dedup();
                assert!(ws.len() <= 1, "scan crossed warehouses");
            }
        }
    }

    #[test]
    fn frequent_attributes_include_warehouse_ids() {
        let cfg = TpccConfig {
            num_txns: 5_000,
            ..TpccConfig::small(2)
        };
        let w = generate(&cfg);
        // Every stock statement constrains s_w_id and s_i_id.
        let freq = w.attr_stats.frequent_attributes(T_STOCK, 0.9);
        assert!(freq.contains(&0) && freq.contains(&1), "{freq:?}");
        // Every customer statement constrains the full key.
        let freq = w.attr_stats.frequent_attributes(T_CUSTOMER, 0.9);
        assert_eq!(freq.len(), 3);
    }

    #[test]
    fn stream_reproduces_generate_exactly() {
        let cfg = TpccConfig {
            num_txns: 1_500,
            ..TpccConfig::small(3)
        };
        let batch = generate(&cfg);
        let src = stream(&cfg);
        assert_eq!(TraceSource::len(&src), batch.trace.len());
        // Whole-pass equality…
        let streamed = src.materialize();
        for (a, b) in streamed.transactions.iter().zip(&batch.trace.transactions) {
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.writes, b.writes);
            assert_eq!(a.scans, b.scans);
        }
        // …and chunked re-streaming agrees with the whole pass.
        src.for_chunk(700..900, &mut |i, t| {
            assert_eq!(t.reads, batch.trace.transactions[i].reads);
            assert_eq!(t.writes, batch.trace.transactions[i].writes);
            assert_eq!(t.scans, batch.trace.transactions[i].scans);
        });
    }

    #[test]
    fn table_rows_match_scale() {
        let cfg = TpccConfig::full(50);
        // 25M+ tuples at 50 warehouses (Table 1 of the paper).
        let total: u64 = generate(&TpccConfig {
            num_txns: 10,
            ..cfg.clone()
        })
        .table_rows
        .iter()
        .sum();
        assert!(total > 25_000_000, "total {total}");
    }
}
