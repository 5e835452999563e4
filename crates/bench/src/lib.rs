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
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Parses `--backend clique|hypergraph` (default `clique`) for the graph
/// benches (`fig5_partitioner_scaling`, `table1_graph_sizes`). The
/// serving/store benches reuse the same flag name for `mem|log` via
/// [`backend_kind`]; the two sets of binaries don't overlap.
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

/// Writes the sectioned BENCH file `file` (at [`bench_path`]): the bench
/// name, the honest host core count, then one line per section of
/// `order`. `fresh` is the section this run measured; every other section
/// is carried over from the existing file (`null` if it was never
/// measured).
pub fn write_sections(file: &str, bench: &str, order: &[&str], fresh: Option<(&str, String)>) {
    let path = bench_path(file);
    let body = order
        .iter()
        .map(|&name| {
            let section = match &fresh {
                Some((n, s)) if *n == name => Some(s.clone()),
                _ => existing_section(&path, name),
            };
            format!("  \"{name}\": {}", section.unwrap_or_else(|| "null".into()))
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"host_cores\": {},\n{body}\n}}\n",
        schism_par::available_parallelism(),
    );
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Pulls one single-line section (e.g. `"scaling"`, `"huge"`, a backend
/// name) out of an existing sectioned BENCH json at `path`, so a run that
/// measures only one section carries the others over instead of clobbering
/// them. Sections are written one per line as `"name": { ... },` — this is
/// a line parser, not a JSON parser, by design: the bench files are
/// hand-formatted to keep it trivial.
fn existing_section(path: &str, name: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
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
