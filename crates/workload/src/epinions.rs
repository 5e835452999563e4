//! The Epinions.com social-network workload (§6.1, Appendix D.4).
//!
//! Four relations — `users`, `items`, `reviews` (user×item n-to-n), `trust`
//! (user×user n-to-n) — and nine request types Q1–Q9 modelling the site's
//! most common functionality.
//!
//! **Substitution**: the paper uses Paolo Massa's Epinions crawl. We generate
//! a synthetic social graph with *planted communities*: users and items are
//! hashed into `COMMUNITIES` (40) latent clusters, and review/trust edges
//! stay inside their cluster with probability `P_LOCAL` (0.96); both are
//! constants, the config sets only the scale. The clusters are
//! deliberately scattered over the id space (hash, not ranges), so no
//! range or hash scheme can see them — exactly the property that makes
//! the real dataset hard for schema-driven partitioning and lets graph
//! partitioning win.

use crate::dist::Zipfian;
use crate::trace::{Trace, Workload};
use crate::tuple::{fnv1a, TupleId, TupleValues};
use crate::txn::TxnBuilder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use schism_sql::{AttributeStats, ColumnType, Predicate, Schema, Statement, Value};
use std::sync::Arc;

/// Table ids (fixed order of [`schema`]).
pub const T_USERS: u16 = 0;
pub const T_ITEMS: u16 = 1;
pub const T_REVIEWS: u16 = 2;
pub const T_TRUST: u16 = 3;

/// Number of planted communities.
const COMMUNITIES: u32 = 40;
/// Probability that a review/trust edge stays inside its community.
const P_LOCAL: f64 = 0.96;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct EpinionsConfig {
    pub users: u64,
    pub items: u64,
    pub reviews: u64,
    pub trust_edges: u64,
    pub num_txns: usize,
    pub seed: u64,
}

impl Default for EpinionsConfig {
    fn default() -> Self {
        Self {
            users: 2_000,
            items: 4_000,
            reviews: 40_000,
            trust_edges: 20_000,
            num_txns: 10_000,
            seed: 0,
        }
    }
}

/// Query mix (percent), chosen so the baselines land where the paper reports
/// them: writes total 8% (full replication = 8% distributed), and the
/// "reviews of one user" + user/trust updates that defeat the manual
/// item-partitioned scheme total ~5-6%.
const QUERY_MIX: [(Query, u32); 9] = [
    (Query::Q1RatingsFromTrusted, 36),
    (Query::Q2TrustedUsers, 12),
    (Query::Q3ItemAverage, 8),
    (Query::Q4PopularReviewsOfItem, 34),
    (Query::Q5ReviewsByUser, 2),
    (Query::Q6UpdateUser, 2),
    (Query::Q7UpdateItem, 2),
    (Query::Q8UpsertReview, 3),
    (Query::Q9UpdateTrust, 1),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Query {
    Q1RatingsFromTrusted,
    Q2TrustedUsers,
    Q3ItemAverage,
    Q4PopularReviewsOfItem,
    Q5ReviewsByUser,
    Q6UpdateUser,
    Q7UpdateItem,
    Q8UpsertReview,
    Q9UpdateTrust,
}

/// Community of a user id (hash-scattered, invisible to range schemes).
fn user_community(u: u64) -> u32 {
    (fnv1a(&u.to_le_bytes()) % u64::from(COMMUNITIES)) as u32
}

/// Community of an item id.
fn item_community(i: u64) -> u32 {
    (fnv1a(&(i ^ 0x9E3779B97F4A7C15).to_le_bytes()) % u64::from(COMMUNITIES)) as u32
}

/// Materialized edge tables (the n-to-n relations must be stored; everything
/// else is derived from row ids).
pub struct EpinionsDb {
    review_user: Vec<u32>,
    review_item: Vec<u32>,
    trust_src: Vec<u32>,
    trust_dst: Vec<u32>,
}

impl TupleValues for EpinionsDb {
    fn value(&self, t: TupleId, col: schism_sql::ColId) -> Option<i64> {
        let r = t.row as usize;
        match (t.table, col) {
            (T_USERS, 0) => Some(t.row as i64),
            (T_ITEMS, 0) => Some(t.row as i64),
            (T_REVIEWS, 0) => Some(t.row as i64),
            (T_REVIEWS, 1) => self.review_user.get(r).map(|&u| u as i64),
            (T_REVIEWS, 2) => self.review_item.get(r).map(|&i| i as i64),
            (T_TRUST, 0) => Some(t.row as i64),
            (T_TRUST, 1) => self.trust_src.get(r).map(|&u| u as i64),
            (T_TRUST, 2) => self.trust_dst.get(r).map(|&u| u as i64),
            _ => None,
        }
    }

    fn tuple_bytes(&self, table: schism_sql::TableId) -> u32 {
        match table {
            T_USERS => 256,
            T_ITEMS => 512,
            T_REVIEWS => 384,
            T_TRUST => 24,
            _ => 64,
        }
    }
}

/// `users`, `items`, `reviews`, `trust`.
pub fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_table(
        "users",
        &[("u_id", ColumnType::Int), ("name", ColumnType::Str)],
        &["u_id"],
    );
    s.add_table(
        "items",
        &[("i_id", ColumnType::Int), ("title", ColumnType::Str)],
        &["i_id"],
    );
    s.add_table(
        "reviews",
        &[
            ("r_id", ColumnType::Int),
            ("ru_id", ColumnType::Int),
            ("ri_id", ColumnType::Int),
            ("rating", ColumnType::Int),
        ],
        &["r_id"],
    );
    s.add_table(
        "trust",
        &[
            ("t_id", ColumnType::Int),
            ("src_u_id", ColumnType::Int),
            ("dst_u_id", ColumnType::Int),
        ],
        &["t_id"],
    );
    s
}

/// Generates the dataset and trace.
pub fn generate(cfg: &EpinionsConfig) -> Workload {
    assert!(cfg.users > 1 && cfg.items > 1);
    let schema = Arc::new(schema());
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Index users/items by community.
    let mut users_by_comm: Vec<Vec<u32>> = vec![Vec::new(); COMMUNITIES as usize];
    for u in 0..cfg.users {
        users_by_comm[user_community(u) as usize].push(u as u32);
    }
    // Guard against empty communities at tiny scales.
    for comm in users_by_comm.iter_mut() {
        if comm.is_empty() {
            comm.push(0);
        }
    }

    // --- Populate review edges (item popularity is Zipfian). ---
    let item_zipf = Zipfian::new(cfg.items, 0.8);
    let mut review_user = Vec::with_capacity(cfg.reviews as usize);
    let mut review_item = Vec::with_capacity(cfg.reviews as usize);
    let mut reviews_of_item: Vec<Vec<u32>> = vec![Vec::new(); cfg.items as usize];
    let mut reviews_by_user: Vec<Vec<u32>> = vec![Vec::new(); cfg.users as usize];
    for r in 0..cfg.reviews {
        let item = item_zipf.sample(&mut rng);
        let user = if rng.gen_bool(P_LOCAL) {
            let comm = &users_by_comm[item_community(item) as usize];
            comm[rng.gen_range(0..comm.len())] as u64
        } else {
            rng.gen_range(0..cfg.users)
        };
        review_user.push(user as u32);
        review_item.push(item as u32);
        reviews_of_item[item as usize].push(r as u32);
        reviews_by_user[user as usize].push(r as u32);
    }

    // --- Populate trust edges. ---
    let mut trust_src = Vec::with_capacity(cfg.trust_edges as usize);
    let mut trust_dst = Vec::with_capacity(cfg.trust_edges as usize);
    let mut trust_out: Vec<Vec<u32>> = vec![Vec::new(); cfg.users as usize];
    for t in 0..cfg.trust_edges {
        let src = rng.gen_range(0..cfg.users);
        let dst = if rng.gen_bool(P_LOCAL) {
            let comm = &users_by_comm[user_community(src) as usize];
            comm[rng.gen_range(0..comm.len())] as u64
        } else {
            rng.gen_range(0..cfg.users)
        };
        trust_src.push(src as u32);
        trust_dst.push(dst as u32);
        trust_out[src as usize].push(t as u32);
    }

    let db = EpinionsDb {
        review_user,
        review_item,
        trust_src,
        trust_dst,
    };

    // User activity is skewed (a few power users generate most profile
    // updates and trust changes); the permutation scatters the hot ranks
    // over the id space. Without this skew, training writes would not
    // predict test writes and no replication decision could ever be right.
    let mut user_perm: Vec<u32> = (0..cfg.users as u32).collect();
    user_perm.shuffle(&mut rng);
    let user_zipf = Zipfian::new(cfg.users, 0.7);

    // --- Generate the trace. ---
    let mix_total: u32 = QUERY_MIX.iter().map(|&(_, w)| w).sum();
    let mut stats = AttributeStats::default();
    let mut txns = Vec::with_capacity(cfg.num_txns);
    for _ in 0..cfg.num_txns {
        let mut pick = rng.gen_range(0..mix_total);
        let query = QUERY_MIX
            .iter()
            .find(|&&(_, w)| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .map(|&(q, _)| q)
            .expect("mix covers range");
        let txn = gen_query(
            query,
            cfg,
            &db,
            &Pickers {
                item_zipf: &item_zipf,
                user_zipf: &user_zipf,
                user_perm: &user_perm,
                users_by_comm: &users_by_comm,
            },
            &reviews_of_item,
            &reviews_by_user,
            &trust_out,
            &mut rng,
            &mut stats,
        );
        txns.push(txn);
    }

    Workload {
        name: "epinions".to_owned(),
        schema,
        trace: Trace { transactions: txns },
        db: Arc::new(db),
        table_rows: vec![cfg.users, cfg.items, cfg.reviews, cfg.trust_edges],
        attr_stats: stats,
    }
}

const FANOUT_CAP: usize = 20;

/// Key-selection helpers shared by the query generators.
struct Pickers<'a> {
    item_zipf: &'a Zipfian,
    user_zipf: &'a Zipfian,
    user_perm: &'a [u32],
    users_by_comm: &'a [Vec<u32>],
}

impl Pickers<'_> {
    /// An "active" user: Zipf-ranked, scattered over the id space.
    fn active_user(&self, rng: &mut StdRng) -> u64 {
        self.user_perm[self.user_zipf.sample(rng) as usize] as u64
    }

    /// A visitor browsing item `i`: from the item's community (site traffic
    /// is community-local).
    fn user_near_item(&self, i: u64, rng: &mut StdRng) -> u64 {
        let comm = &self.users_by_comm[item_community(i) as usize];
        comm[rng.gen_range(0..comm.len())] as u64
    }
}

#[allow(clippy::too_many_arguments)]
fn gen_query(
    q: Query,
    cfg: &EpinionsConfig,
    db: &EpinionsDb,
    pick: &Pickers<'_>,
    reviews_of_item: &[Vec<u32>],
    reviews_by_user: &[Vec<u32>],
    trust_out: &[Vec<u32>],
    rng: &mut StdRng,
    stats: &mut AttributeStats,
) -> crate::txn::Transaction {
    let item_zipf = pick.item_zipf;
    let mut tb = TxnBuilder::new(false);
    match q {
        Query::Q1RatingsFromTrusted => {
            // Visitor u looks at item i: ratings of i from users u trusts.
            let i = item_zipf.sample(rng);
            let u = pick.user_near_item(i, rng);
            tb.read(TupleId::new(T_USERS, u));
            stats.observe(&Statement::select(T_USERS, eq(0, u)));
            tb.read(TupleId::new(T_ITEMS, i));
            stats.observe(&Statement::select(T_ITEMS, eq(0, i)));
            // Trust list of u.
            let trusted: Vec<u64> = trust_out[u as usize]
                .iter()
                .take(FANOUT_CAP)
                .map(|&t| {
                    tb.read(TupleId::new(T_TRUST, t as u64));
                    db.trust_dst[t as usize] as u64
                })
                .collect();
            stats.observe(&Statement::select(T_TRUST, eq(1, u)));
            // Reviews of i by trusted users.
            let hits: Vec<TupleId> = reviews_of_item[i as usize]
                .iter()
                .filter(|&&r| trusted.contains(&(db.review_user[r as usize] as u64)))
                .take(FANOUT_CAP)
                .map(|&r| TupleId::new(T_REVIEWS, r as u64))
                .collect();
            tb.scan(hits);
            stats.observe(&Statement::select(T_REVIEWS, eq(2, i)));
        }
        Query::Q2TrustedUsers => {
            let u = pick.active_user(rng);
            tb.read(TupleId::new(T_USERS, u));
            stats.observe(&Statement::select(T_USERS, eq(0, u)));
            let mut group = Vec::new();
            for &t in trust_out[u as usize].iter().take(FANOUT_CAP) {
                tb.read(TupleId::new(T_TRUST, t as u64));
                group.push(TupleId::new(T_USERS, db.trust_dst[t as usize] as u64));
            }
            tb.scan(group);
            stats.observe(&Statement::select(T_TRUST, eq(1, u)));
        }
        Query::Q3ItemAverage => {
            let i = item_zipf.sample(rng);
            tb.read(TupleId::new(T_ITEMS, i));
            stats.observe(&Statement::select(T_ITEMS, eq(0, i)));
            let group: Vec<TupleId> = reviews_of_item[i as usize]
                .iter()
                .map(|&r| TupleId::new(T_REVIEWS, r as u64))
                .collect();
            tb.scan(group);
            stats.observe(&Statement::select(T_REVIEWS, eq(2, i)));
        }
        Query::Q4PopularReviewsOfItem => {
            let i = item_zipf.sample(rng);
            tb.read(TupleId::new(T_ITEMS, i));
            stats.observe(&Statement::select(T_ITEMS, eq(0, i)));
            let group: Vec<TupleId> = reviews_of_item[i as usize]
                .iter()
                .take(10)
                .map(|&r| TupleId::new(T_REVIEWS, r as u64))
                .collect();
            tb.scan(group);
            stats.observe(&Statement::select(T_REVIEWS, eq(2, i)));
        }
        Query::Q5ReviewsByUser => {
            let u = pick.active_user(rng);
            tb.read(TupleId::new(T_USERS, u));
            stats.observe(&Statement::select(T_USERS, eq(0, u)));
            let group: Vec<TupleId> = reviews_by_user[u as usize]
                .iter()
                .take(10)
                .map(|&r| TupleId::new(T_REVIEWS, r as u64))
                .collect();
            tb.scan(group);
            stats.observe(&Statement::select(T_REVIEWS, eq(1, u)));
        }
        Query::Q6UpdateUser => {
            let u = pick.active_user(rng);
            tb.write(TupleId::new(T_USERS, u));
            stats.observe(&Statement::update(T_USERS, eq(0, u)));
        }
        Query::Q7UpdateItem => {
            let i = item_zipf.sample(rng);
            tb.write(TupleId::new(T_ITEMS, i));
            stats.observe(&Statement::update(T_ITEMS, eq(0, i)));
        }
        Query::Q8UpsertReview => {
            // Updates follow read popularity: pick a popular item, then one
            // of its reviews (people edit reviews on items they visit).
            let i0 = item_zipf.sample(rng);
            let r = match reviews_of_item[i0 as usize].as_slice() {
                [] => rng.gen_range(0..cfg.reviews),
                rs => rs[rng.gen_range(0..rs.len())] as u64,
            };
            let u = db.review_user[r as usize] as u64;
            let i = db.review_item[r as usize] as u64;
            tb.read(TupleId::new(T_USERS, u));
            tb.read(TupleId::new(T_ITEMS, i));
            tb.write(TupleId::new(T_REVIEWS, r));
            stats.observe(&Statement::select(T_USERS, eq(0, u)));
            stats.observe(&Statement::select(T_ITEMS, eq(0, i)));
            stats.observe(&Statement::update(T_REVIEWS, eq(0, r)));
        }
        Query::Q9UpdateTrust => {
            // Trust changes come from active users; fall back to a uniform
            // edge for users with no out-edges.
            let src_u = pick.active_user(rng);
            let t = match trust_out[src_u as usize].as_slice() {
                [] => rng.gen_range(0..cfg.trust_edges),
                es => es[rng.gen_range(0..es.len())] as u64,
            };
            let src = db.trust_src[t as usize] as u64;
            let dst = db.trust_dst[t as usize] as u64;
            tb.read(TupleId::new(T_USERS, src));
            tb.read(TupleId::new(T_USERS, dst));
            tb.write(TupleId::new(T_TRUST, t));
            stats.observe(&Statement::update(T_TRUST, eq(0, t)));
        }
    }
    tb.finish()
}

fn eq(col: u16, v: u64) -> Predicate {
    Predicate::Eq(col, Value::Int(v as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EpinionsConfig {
        EpinionsConfig {
            users: 200,
            items: 400,
            reviews: 4_000,
            trust_edges: 2_000,
            num_txns: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn edges_are_mostly_intra_community() {
        let cfg = small();
        let w = generate(&cfg);
        let db: &EpinionsDb = &EpinionsDb {
            review_user: (0..cfg.reviews as usize)
                .map(|r| w.db.value(TupleId::new(T_REVIEWS, r as u64), 1).unwrap() as u32)
                .collect(),
            review_item: (0..cfg.reviews as usize)
                .map(|r| w.db.value(TupleId::new(T_REVIEWS, r as u64), 2).unwrap() as u32)
                .collect(),
            trust_src: vec![],
            trust_dst: vec![],
        };
        let local = (0..cfg.reviews as usize)
            .filter(|&r| {
                user_community(db.review_user[r] as u64) == item_community(db.review_item[r] as u64)
            })
            .count();
        let frac = local as f64 / cfg.reviews as f64;
        assert!(frac > 0.8, "only {frac:.2} of reviews are intra-community");
    }

    #[test]
    fn write_fraction_matches_mix() {
        let w = generate(&small());
        let writers = w
            .trace
            .transactions
            .iter()
            .filter(|t| !t.writes.is_empty())
            .count();
        let frac = writers as f64 / w.trace.len() as f64;
        // Mix says 8% writes.
        assert!((0.05..=0.12).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn tuple_values_expose_edges() {
        let w = generate(&small());
        // Every review row exposes user and item ids in range.
        for r in [0u64, 7, 100] {
            let u = w.db.value(TupleId::new(T_REVIEWS, r), 1).unwrap();
            let i = w.db.value(TupleId::new(T_REVIEWS, r), 2).unwrap();
            assert!((0..200).contains(&u));
            assert!((0..400).contains(&i));
        }
    }

    #[test]
    fn communities_are_scattered_not_ranges() {
        // Consecutive user ids should usually be in different communities —
        // that's what defeats range partitioning.
        let same = (0..199u64)
            .filter(|&u| user_community(u) == user_community(u + 1))
            .count();
        assert!(same < 40, "communities look contiguous: {same}/199");
    }

    #[test]
    fn trace_touches_all_tables() {
        let w = generate(&small());
        let mut seen = [false; 4];
        for t in &w.trace.transactions {
            for a in t.accessed() {
                seen[a.table as usize] = true;
            }
        }
        assert_eq!(seen, [true; 4]);
    }
}
