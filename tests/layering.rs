//! The crate map, pinned: what a deployment links names nothing that
//! exists to model or measure it, nor do its crates' tests, and a manifest lists a dependency only
//! if the crate's own source uses it. Read straight off the
//! `crates/*/Cargo.toml` files, so an edge cannot drift back unnoticed.

use std::fs;
use std::path::{Path, PathBuf};

/// Crates the product links.
const PRODUCT: [&str; 10] = [
    "par", "sql", "graph", "ml", "workload", "router", "store", "core", "serve", "migrate",
];
/// Simulation, measurement and test tooling, plus the umbrella crate.
const NOT_FOR_PRODUCT: [&str; 5] = [
    "schism-sim",
    "schism-bench",
    "schism",
    "criterion",
    "proptest",
];

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/schism has a parent")
        .to_path_buf()
}

/// The package names in the `table` section (`"[dependencies]"`,
/// `"[dev-dependencies]"`) of `crates/<krate>`'s manifest.
fn dependencies(krate: &Path, table: &str) -> Vec<String> {
    let path = krate.join("Cargo.toml");
    let manifest = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    manifest
        .lines()
        .skip_while(|l| l.trim() != table)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.split(['.', '=', ' ']).next().unwrap_or_default())
        .filter(|name| !name.is_empty() && !name.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Every `.rs` file under `dir`, concatenated.
fn source_under(dir: &Path) -> String {
    let mut text = String::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            text.push_str(&source_under(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            text.push_str(&fs::read_to_string(&path).expect("source file"));
        }
    }
    text
}

#[test]
fn product_crates_name_no_simulator_or_test_tooling() {
    for krate in PRODUCT {
        let deps = dependencies(&crates_dir().join(krate), "[dependencies]");
        for banned in NOT_FOR_PRODUCT {
            assert!(
                !deps.iter().any(|d| d == banned),
                "crates/{krate} [dependencies] names {banned}"
            );
        }
        // A product crate's tests check the product, not a model or a
        // measurement of it (`proptest` is test tooling, and is allowed).
        let dev_deps = dependencies(&crates_dir().join(krate), "[dev-dependencies]");
        for banned in ["schism-sim", "schism-bench"] {
            assert!(
                !dev_deps.iter().any(|d| d == banned),
                "crates/{krate} [dev-dependencies] names {banned}"
            );
        }
    }
}

#[test]
fn every_listed_dependency_is_used_by_the_crates_source() {
    let mut seen = 0;
    for entry in fs::read_dir(crates_dir()).expect("crates/") {
        let krate = entry.expect("dir entry").path();
        let source = source_under(&krate.join("src"));
        for dep in dependencies(&krate, "[dependencies]") {
            seen += 1;
            assert!(
                source.contains(&dep.replace('-', "_")),
                "{} lists {dep}, which no file under its src/ mentions",
                krate.display()
            );
        }
    }
    assert!(seen > 40, "parsed only {seen} dependency lines");
}
