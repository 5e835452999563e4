//! Shared experiment infrastructure: manual-partitioning baselines, the
//! paper's reference numbers, and table rendering for the figure binaries.
//!
//! Run the experiments with, e.g.:
//!
//! ```text
//! cargo run --release -p schism-bench --bin fig4_partitioning_quality
//! cargo run --release -p schism-bench --bin fig1_price_of_distribution
//! ```
//!
//! Every binary accepts `--full` to use paper-scale parameters (slower),
//! and exits with status 2 on an argument it does not know
//! ([`reject_unknown_args`]).

pub mod manual;
pub mod table;

/// Returns true when `--full` was passed (paper-scale runs).
pub fn full_scale() -> bool {
    flag("--full")
}

/// Returns true when the bare flag `name` was passed.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Value of `--name value` or `--name=value`, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// Exits with status 2, naming the offenders and `known` on stderr, if the
/// command line holds a `--name` (bare, or as `--name=value`) the bin never
/// asks [`flag`] / [`arg_value`] about. Call it first thing in `main`: a
/// mistyped or stale flag would otherwise run the defaults and overwrite a
/// committed `BENCH_*.json` with them.
pub fn reject_unknown_args(known: &[&str]) {
    let unknown = unknown_args(std::env::args().skip(1), known);
    if !unknown.is_empty() {
        eprintln!("unknown argument(s): {}", unknown.join(" "));
        eprintln!("known: {}", known.join(" "));
        std::process::exit(2);
    }
}

/// The `--name`s among `args` that `known` does not list. Anything not
/// starting with `--` is some flag's value and passes.
fn unknown_args(args: impl Iterator<Item = String>, known: &[&str]) -> Vec<String> {
    args.filter(|a| a.starts_with("--") && !known.contains(&a.split('=').next().unwrap_or(a)))
        .collect()
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. This is a
/// *high-water mark*: it only ever grows, so read it right after the phase
/// being measured and before anything else allocates.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the `VmHWM` high-water mark (writes `5` to
/// `/proc/self/clear_refs`), so a following [`peak_rss_bytes`] reads the
/// peak of *this phase* rather than of the whole process. Returns `false`
/// where the kernel interface is unavailable — callers should then treat
/// the next reading as a whole-process upper bound.
pub fn reset_peak_rss() -> bool {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .write(true)
        .open("/proc/self/clear_refs")
        .and_then(|mut f| f.write_all(b"5"))
        .is_ok()
}

/// Parses `--backend clique|hypergraph` (default `clique`) for the graph
/// benches (`fig4_partitioning_quality`, `fig5_partitioner_scaling`,
/// `table1_graph_sizes`). The serving/store benches reuse the same flag
/// name for `mem|log` via [`backend_kind`]; the two sets of binaries don't
/// overlap.
pub fn graph_backend_arg() -> schism_core::GraphBackend {
    match arg_value("--backend").as_deref() {
        None | Some("clique") => schism_core::GraphBackend::Clique,
        Some("hypergraph") => schism_core::GraphBackend::Hypergraph,
        Some(other) => panic!("--backend takes clique|hypergraph, got {other}"),
    }
}

/// A graph backend's `--backend` name and the cut metric its partitions
/// report, as the graph benches print and record them.
pub fn graph_backend_names(b: schism_core::GraphBackend) -> (&'static str, &'static str) {
    match b {
        schism_core::GraphBackend::Clique => ("clique", "edge-cut"),
        schism_core::GraphBackend::Hypergraph => ("hypergraph", "connectivity(lambda-1)"),
    }
}

/// Parses `--backend mem|log` (default `mem`), panicking with the usage
/// string on an unknown value — bench binaries want loud misconfiguration.
pub fn backend_kind() -> schism_store::BackendKind {
    match arg_value("--backend") {
        Some(v) => v.parse().unwrap_or_else(|e| panic!("{e}")),
        None => schism_store::BackendKind::Mem,
    }
}

/// Opens a fresh store of the requested kind: `Mem` in memory, `Log` in a
/// new uniquely named subdirectory of `dir` (one bench run opens several
/// independent stores; each needs its own segment files).
pub fn open_backend(
    kind: schism_store::BackendKind,
    num_shards: u32,
    dir: &schism_store::tempdir::TempDir,
    run: &str,
) -> Box<dyn schism_store::ShardStore> {
    match kind {
        schism_store::BackendKind::Mem => Box::new(schism_store::MemStore::new(num_shards)),
        schism_store::BackendKind::Log => Box::new(
            schism_store::LogStore::open(dir.path().join(run), num_shards)
                .expect("open LogStore under temp dir"),
        ),
    }
}

/// The thread counts a scaling run measures: 1, 2, 4, ... up to `max`
/// (powers of two), plus `max` itself when it is not one.
pub fn thread_counts(max: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    let mut next = 2;
    while next <= max {
        counts.push(next);
        next *= 2;
    }
    if next / 2 != max {
        counts.push(max);
    }
    counts
}

/// The `"note"` a scaling section records about the host it ran on. On a
/// host with fewer cores than `max_threads` it also prints the warning
/// that belongs under the scaling table.
pub fn host_note(host_cores: usize, max_threads: usize) -> String {
    if host_cores >= max_threads {
        return "speedups measured with dedicated cores per thread".to_string();
    }
    println!(
        "note: host has only {host_cores} core(s); speedups at > {host_cores} threads \
         measure scheduling overhead, not scaling. Re-run on a {max_threads}-core host \
         for the real curve."
    );
    format!(
        "host has {host_cores} core(s) for {max_threads} threads: ratios measure \
         oversubscription overhead, not scaling; re-measure on a >= {max_threads}-core host"
    )
}

/// Where the BENCH file `file` lives: under `crates/bench/` when run from
/// the workspace root, else in the working directory.
pub fn bench_path(file: &str) -> String {
    if std::path::Path::new("crates/bench").is_dir() {
        format!("crates/bench/{file}")
    } else {
        file.to_string()
    }
}

/// Writes the sectioned BENCH file `file` (at [`bench_path`]) — the only
/// writer of a BENCH file: the bench name, this host's core count, then
/// one line per section of `order`. `fresh` holds the sections this run
/// measured; with none, the file is left untouched. Any other section is
/// carried over only if the existing file states this host's core count,
/// so every number in the file was measured on the host its header names;
/// otherwise it is written as `null`, and the run says which it dropped.
pub fn write_sections(file: &str, bench: &str, order: &[&str], fresh: &[(&str, String)]) {
    if fresh.is_empty() {
        return;
    }
    let path = bench_path(file);
    let existing = std::fs::read_to_string(&path).unwrap_or_default();
    let host_cores = schism_par::available_parallelism();
    let (json, dropped) = render_sections(&existing, bench, host_cores, order, fresh);
    if !dropped.is_empty() {
        println!(
            "not carried over from {path}, whose host_cores is not this host's {host_cores}: \
             {} (written as null; re-run to measure them here)",
            dropped.join(", ")
        );
    }
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The text [`write_sections`] writes over `existing`, and the sections it
/// dropped for a different host (a section never measured is `null` too,
/// but not dropped).
fn render_sections<'a>(
    existing: &str,
    bench: &str,
    host_cores: usize,
    order: &[&'a str],
    fresh: &[(&str, String)],
) -> (String, Vec<&'a str>) {
    let same_host = json_num(existing, "host_cores") == Some(host_cores as f64);
    let mut dropped = Vec::new();
    let mut lines = Vec::new();
    for &name in order {
        let measured = fresh.iter().find(|f| f.0 == name).map(|f| f.1.clone());
        let carried = existing_section(existing, name);
        if measured.is_none() && carried.is_some() && !same_host {
            dropped.push(name);
        }
        let section = measured.or(carried.filter(|_| same_host));
        let section = section.unwrap_or_else(|| "null".into());
        lines.push(format!("  \"{name}\": {section}"));
    }
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host_cores\": {host_cores},\n{}\n}}\n",
        lines.join(",\n")
    );
    (json, dropped)
}

/// Pulls one single-line section (e.g. `"scaling"`, `"huge"`, a backend
/// name) out of the text of an existing sectioned BENCH json, so a run
/// that measures only some sections can carry the others over instead of
/// clobbering them. Sections are written one per line as
/// `"name": { ... },` — this is a line parser, not a JSON parser, by
/// design: the bench files are hand-formatted to keep it trivial.
fn existing_section(text: &str, name: &str) -> Option<String> {
    let prefix = format!("\"{name}\": ");
    for line in text.lines() {
        if let Some(rest) = line.trim_start().strip_prefix(&prefix) {
            let rest = rest.trim_end().trim_end_matches(',');
            if rest != "null" {
                return Some(rest.to_string());
            }
        }
    }
    None
}

/// Extracts the numeric value of `"key": <num>` from a one-line JSON
/// fragment (the bench files' section format). Returns `None` when the key
/// is absent or non-numeric.
pub fn json_num(fragment: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = fragment.find(&pat)? + pat.len();
    let rest = &fragment[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Approximate values decoded from the paper's Figure 4 bar chart
/// (camera-ready bitmap; cross-checked against the prose of §6.1 — e.g.
/// TPC-E = 12.1%, Epinions-2 = 4.5% vs manual 6%, Epinions-10 = 6% vs
/// baselines 75.7% / 8%, Random = 50%). `None` = not reported (the paper
/// had no manual partitioning for TPC-E).
#[derive(Clone, Copy, Debug)]
pub struct PaperFig4Row {
    pub workload: &'static str,
    pub schism: f64,
    pub manual: Option<f64>,
    pub replication: f64,
    pub hashing: f64,
    /// The strategy the validation phase selected in the paper.
    pub chosen: &'static str,
}

/// Paper reference values for Figure 4 (percent distributed transactions).
pub const PAPER_FIG4: &[PaperFig4Row] = &[
    PaperFig4Row {
        workload: "ycsb-a",
        schism: 0.0,
        manual: Some(0.0),
        replication: 50.0,
        hashing: 0.0,
        chosen: "hashing",
    },
    PaperFig4Row {
        workload: "ycsb-e",
        schism: 0.25,
        manual: Some(0.16),
        replication: 5.1,
        hashing: 85.5,
        chosen: "range-predicates",
    },
    PaperFig4Row {
        workload: "tpcc-2w",
        schism: 12.1,
        manual: Some(12.1),
        replication: 100.0,
        hashing: 54.6,
        chosen: "range-predicates",
    },
    PaperFig4Row {
        workload: "tpcc-2w-sampled",
        schism: 12.7,
        manual: Some(12.3),
        replication: 100.0,
        hashing: 54.1,
        chosen: "range-predicates",
    },
    PaperFig4Row {
        workload: "tpcc-50w",
        schism: 10.8,
        manual: Some(10.8),
        replication: 100.0,
        hashing: 55.5,
        chosen: "range-predicates",
    },
    PaperFig4Row {
        workload: "tpce",
        schism: 12.1,
        manual: None,
        replication: 44.0,
        hashing: 68.5,
        chosen: "range-predicates",
    },
    PaperFig4Row {
        workload: "epinions-2",
        schism: 4.5,
        manual: Some(6.0),
        replication: 8.0,
        hashing: 62.1,
        chosen: "lookup-table",
    },
    PaperFig4Row {
        workload: "epinions-10",
        schism: 6.1,
        manual: Some(6.5),
        replication: 8.0,
        hashing: 75.7,
        chosen: "lookup-table",
    },
    PaperFig4Row {
        workload: "random",
        schism: 50.0,
        manual: Some(50.0),
        replication: 100.0,
        hashing: 50.0,
        chosen: "hashing",
    },
];

/// Looks up the paper row by workload name.
pub fn paper_row(workload: &str) -> Option<&'static PaperFig4Row> {
    PAPER_FIG4.iter().find(|r| r.workload == workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_num_extracts_section_fields() {
        let frag = "{ \"peak_mib\": 76.5, \"cut\": 1200, \"frac\": -0.5 }";
        assert_eq!(json_num(frag, "peak_mib"), Some(76.5));
        assert_eq!(json_num(frag, "cut"), Some(1200.0));
        assert_eq!(json_num(frag, "frac"), Some(-0.5));
        assert_eq!(json_num(frag, "missing"), None);
    }

    const ORDER: [&str; 3] = ["a", "b", "c"];

    fn section(name: &'static str, x: u32) -> (&'static str, String) {
        (name, format!("{{ \"x\": {x} }}"))
    }

    #[test]
    fn fresh_sections_are_written_in_order() {
        let fresh = [section("c", 3), section("a", 1)];
        let (json, dropped) = render_sections("", "bin", 2, &ORDER, &fresh);
        assert_eq!(
            json,
            "{\n  \"bench\": \"bin\",\n  \"host_cores\": 2,\n  \"a\": { \"x\": 1 },\n  \
             \"b\": null,\n  \"c\": { \"x\": 3 }\n}\n"
        );
        assert!(dropped.is_empty(), "never measured is not dropped");
    }

    #[test]
    fn sections_carry_over_only_from_the_same_host() {
        let (old, _) = render_sections("", "bin", 2, &ORDER, &[section("a", 1), section("b", 2)]);
        let fresh = [section("b", 20)];
        let (same, dropped) = render_sections(&old, "bin", 2, &ORDER, &fresh);
        assert!(same.contains("\"a\": { \"x\": 1 },\n  \"b\": { \"x\": 20 },\n  \"c\": null\n"));
        assert!(dropped.is_empty());
        let (other, dropped) = render_sections(&old, "bin", 4, &ORDER, &fresh);
        assert!(other.contains("\"host_cores\": 4,\n  \"a\": null,\n  \"b\": { \"x\": 20 },"));
        assert_eq!(dropped, ["a"]);
    }

    #[test]
    fn a_run_that_measured_nothing_leaves_the_file_alone() {
        let dir = schism_store::tempdir::TempDir::new("schism-bench-sections").unwrap();
        let path = dir.path().join("BENCH_t.json");
        let file = path.to_str().unwrap();
        write_sections(file, "bin", &ORDER, &[section("a", 1)]);
        let committed = std::fs::read_to_string(&path).unwrap();
        assert!(committed.contains("\"a\": { \"x\": 1 },"));
        write_sections(file, "other", &ORDER, &[]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), committed);
    }

    /// Every committed BENCH file is what [`write_sections`] writes: the
    /// bench, the host its numbers were measured on, then one measured
    /// section per line.
    #[test]
    fn committed_bench_files_state_their_host_and_have_no_null_section() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut files = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            let [first, bench, host, sections @ .., last] = &lines[..] else {
                panic!("{name}: no header");
            };
            assert_eq!((*first, *last), ("{", "}"), "{name}");
            assert!(bench.starts_with("  \"bench\": \""), "{name}: {bench}");
            assert!(json_num(host, "host_cores").is_some(), "{name}: {host}");
            assert!(!sections.is_empty(), "{name}: no section");
            for line in sections {
                let line = line.trim_end_matches(',');
                let value = line.split_once("\": ").map_or("", |kv| kv.1);
                let ok = line.starts_with("  \"") && value.starts_with('{') && value.ends_with('}');
                assert!(ok, "{name}: not one measured section: {line}");
            }
        }
        assert!(files >= 3, "{files} BENCH files in {dir:?}");
    }

    #[test]
    fn unknown_args_names_what_no_flag_reads() {
        let known = ["--full", "--threads", "--backend"];
        let check = |line: &str| unknown_args(line.split_whitespace().map(String::from), &known);
        assert!(check("").is_empty());
        assert!(check("--full --threads 2 --backend=log").is_empty());
        assert!(check("--threads=2 --backend log --full").is_empty());
        // A typo, a stale flag in both forms, a prefix of a known name.
        assert_eq!(check("--thread 2 --full"), ["--thread"]);
        assert_eq!(check("--full --inject-every=4"), ["--inject-every=4"]);
        assert_eq!(check("--inject-every 4 --ful"), ["--inject-every", "--ful"]);
        assert_eq!(
            check("--threadsx=2 --thread=2"),
            ["--threadsx=2", "--thread=2"]
        );
    }

    #[test]
    fn paper_rows_complete() {
        assert_eq!(PAPER_FIG4.len(), 9);
        assert!(paper_row("tpce").is_some());
        assert!(paper_row("tpce").unwrap().manual.is_none());
        assert!(paper_row("nope").is_none());
    }
}
