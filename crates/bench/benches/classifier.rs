//! Criterion micro-benchmarks for the explanation-phase classifier
//! (decision tree training, cross-validation, CFS).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use schism_ml::{
    cfs_select, cross_validate, Attribute, Dataset, DatasetBuilder, DecisionTree, TreeConfig,
};
use schism_par::Pool;

fn warehouse_dataset(rows: i64, warehouses: i64) -> schism_ml::Dataset {
    let mut b = DatasetBuilder::new()
        .numeric("s_i_id")
        .numeric("s_w_id")
        .numeric("noise");
    for i in 0..rows {
        let w = i % warehouses;
        b.row(&[i, w, (i * 2654435761) % 97], (w % 8) as u32);
    }
    b.build()
}

/// The shape that carries the explanation phase on full-cardinality TPC-C:
/// the `item` table under a k = 8 placement. ~12k access-weighted rows (10k
/// sampled tuples, one in five read twice), one numeric attribute spanning
/// the whole id range, 9 labels (8 partitions plus the replicate catch-all)
/// that barely depend on the id — so nearly every distinct value is a
/// candidate threshold at every node and pruning gets no early exit.
fn noisy_item_dataset() -> Dataset {
    let mix = |i: u64| {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 17
    };
    let mut ids = Vec::new();
    let mut labels = Vec::new();
    for tuple in 0..10_000u64 {
        let id = (mix(tuple) % 100_000) as i64;
        // One label in ten follows the id range; the rest are noise.
        let label = if mix(tuple ^ 0xABCD) % 10 == 0 {
            (id / 12_500) as u32
        } else {
            (mix(tuple ^ 0x1234) % 8) as u32
        };
        for _ in 0..1 + u64::from(tuple % 5 == 0) {
            ids.push(id);
            labels.push(label);
        }
    }
    let attr = Attribute {
        name: "i_id".to_owned(),
    };
    Dataset::new(vec![attr], vec![ids], labels, 9)
}

/// The shape of `advisor_tpcc`'s `stock` table: two attributes (`s_i_id`,
/// `s_w_id`) over 16 warehouses of 1 000 items, about 7.9 k touched tuples
/// each repeated up to 32 times by access count (about 85 k rows), and 16
/// labels (8 partitions, 7 replication sets, the replicate catch-all).
/// Two warehouses share a partition; hot items carry replication labels.
/// With two attributes every split also partitions the other list.
fn weighted_stock_dataset() -> Dataset {
    let mix = |i: u64| {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h ^ (h >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 17
    };
    let (mut items, mut warehouses, mut labels) = (Vec::new(), Vec::new(), Vec::new());
    for tuple in 0..16_000u64 {
        let h = mix(tuple);
        if h % 100 >= 49 {
            continue; // untouched
        }
        let (item, warehouse) = ((tuple % 1_000) as i64, (tuple / 1_000) as i64);
        let label = match mix(tuple ^ 0x5EED) % 20 {
            0 => 8 + (item % 8) as u32,
            1 => (mix(tuple ^ 0xD1CE) % 8) as u32,
            _ => (warehouse / 2) as u32,
        };
        let weight = 1 + (mix(tuple ^ 0xBEEF) % 1_000).pow(2) / 33_000;
        for _ in 0..weight {
            items.push(item);
            warehouses.push(warehouse);
            labels.push(label);
        }
    }
    let attrs = ["s_i_id", "s_w_id"].map(|name| Attribute {
        name: name.to_owned(),
    });
    Dataset::new(attrs.into(), vec![items, warehouses], labels, 16)
}

/// Leaf-support floor as `schism_core::explain` scales it for a table of
/// `rows` training rows at k = 8.
fn explain_tree_config(rows: usize) -> TreeConfig {
    let min_leaf = (rows / (25 * 8)).max(4) as u32;
    TreeConfig {
        min_leaf,
        min_split: min_leaf * 2,
        ..TreeConfig::default()
    }
}

fn bench_noisy_item(c: &mut Criterion) {
    let ds = noisy_item_dataset();
    let cfg = explain_tree_config(ds.len());
    let mut group = c.benchmark_group("tree/noisy_item");
    group.sample_size(10);
    group.bench_function("train", |b| b.iter(|| DecisionTree::train(&ds, &cfg)));
    for threads in [1usize, 2] {
        let pool = Pool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("cross_validate", threads),
            &pool,
            |b, pool| b.iter(|| cross_validate(&ds, &cfg, 7, pool)),
        );
    }
    group.finish();
}

fn bench_weighted_stock(c: &mut Criterion) {
    let ds = weighted_stock_dataset();
    let cfg = explain_tree_config(ds.len());
    let mut group = c.benchmark_group("tree/weighted_stock");
    group.sample_size(10);
    group.bench_function("train", |b| b.iter(|| DecisionTree::train(&ds, &cfg)));
    let pool = Pool::new(2);
    group.bench_function("cross_validate/2", |b| {
        b.iter(|| cross_validate(&ds, &cfg, 7, &pool))
    });
    group.finish();
}

fn bench_tree_train(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree/train");
    group.sample_size(10);
    for &rows in &[1_000i64, 10_000] {
        let ds = warehouse_dataset(rows, 16);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &ds, |b, ds| {
            b.iter(|| DecisionTree::train(ds, &TreeConfig::default()))
        });
    }
    group.finish();
}

fn bench_cfs(c: &mut Criterion) {
    let ds = warehouse_dataset(5_000, 16);
    c.bench_function("cfs/select", |b| b.iter(|| cfs_select(&ds)));
}

fn bench_predict(c: &mut Criterion) {
    let ds = warehouse_dataset(10_000, 16);
    let tree = DecisionTree::train(&ds, &TreeConfig::default());
    c.bench_function("tree/predict", |b| {
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            tree.predict(&[i % 10_000, i % 16, i % 97])
        })
    });
}

criterion_group!(
    benches,
    bench_tree_train,
    bench_noisy_item,
    bench_weighted_stock,
    bench_cfs,
    bench_predict
);
criterion_main!(benches);
