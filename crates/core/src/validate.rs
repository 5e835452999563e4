//! Final validation (§4.4): compare the fine-grained lookup scheme, the
//! range-predicate explanation, hash partitioning and full replication by
//! the number of distributed transactions on the held-out test trace, and
//! pick the winner — preferring simpler schemes on ties. The tie window
//! (`TIE_ABS`, `TIE_REL`) and the balance limit (`BALANCE_LIMIT`) are
//! named constants: the paper states one rule, not a tunable one.

use schism_router::{evaluate, Complexity, CostReport, Scheme};
use schism_workload::{Trace, TupleValues};

/// One evaluated candidate.
pub struct Candidate {
    pub name: String,
    pub complexity: Complexity,
    pub scheme: Box<dyn Scheme>,
    pub report: CostReport,
}

impl Candidate {
    pub fn fraction(&self) -> f64 {
        self.report.distributed_fraction()
    }
}

/// The validation outcome.
pub struct Validation {
    pub candidates: Vec<Candidate>,
    /// Index of the winner in `candidates`.
    pub winner: usize,
}

impl Validation {
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.winner]
    }
}

/// Absolute tie window, in fraction points.
const TIE_ABS: f64 = 0.01;

/// Relative tie window (a fraction of the best cost). The paper only says
/// schemes with "close to the same number" of distributed transactions tie
/// (§4.4); a relative component makes 49% vs 52% a tie while keeping 0.2%
/// vs 5% a clear win.
const TIE_REL: f64 = 0.15;

/// Candidates whose per-partition transaction load imbalance exceeds this
/// are disqualified (unless every candidate does) — a scheme that "wins" by
/// piling everything onto one partition violates the balanced-partitions
/// requirement the whole paper rests on. It is a generous backstop:
/// key-skew (Zipfian heads) legitimately unbalances *every* scheme, so only
/// gross pathologies should trip it.
const BALANCE_LIMIT: f64 = 4.0;

/// The winner-selection rule: the tie window (`TIE_ABS`, `TIE_REL`) and
/// the balance limit (`BALANCE_LIMIT`). It carries no settings. It stays
/// as [`validate`]'s argument and as `SchismConfig::selection` because the
/// benchmark package (`benchmark/`) calls
/// `validate(candidates, &test, db, cfg.selection)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelectionRules;

/// Evaluates all candidates and selects the winner.
///
/// Winner = minimum distributed fraction among balanced candidates; every
/// candidate within `max(TIE_ABS, TIE_REL * best)` of the minimum is
/// considered tied, and the tie resolves to the lowest [`Complexity`] (then
/// lowest cost, then input order).
pub fn validate(
    schemes: Vec<(String, Box<dyn Scheme>)>,
    test: &Trace,
    db: &dyn TupleValues,
    _rules: SelectionRules,
) -> Validation {
    assert!(!schemes.is_empty(), "need at least one candidate");
    let candidates: Vec<Candidate> = schemes
        .into_iter()
        .map(|(name, scheme)| {
            let report = evaluate(&*scheme, test, db);
            Candidate {
                name,
                complexity: scheme.complexity(),
                scheme,
                report,
            }
        })
        .collect();
    let balanced = |c: &Candidate| c.report.load_imbalance() <= BALANCE_LIMIT;
    let any_balanced = candidates.iter().any(balanced);
    let eligible = |c: &Candidate| !any_balanced || balanced(c);
    let best = candidates
        .iter()
        .filter(|c| eligible(c))
        .map(Candidate::fraction)
        .fold(f64::INFINITY, f64::min);
    let window = best + TIE_ABS.max(TIE_REL * best);
    let winner = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| eligible(c) && c.fraction() <= window)
        .min_by(|(_, a), (_, b)| {
            a.complexity
                .cmp(&b.complexity)
                .then(a.fraction().total_cmp(&b.fraction()))
        })
        .map(|(i, _)| i)
        .expect("non-empty");
    Validation { candidates, winner }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_router::{HashScheme, ReplicationScheme};
    use schism_workload::random::{self, RandomConfig};
    use schism_workload::ycsb::{self, YcsbConfig};

    #[test]
    fn ycsb_a_tie_resolves_to_hash() {
        // Single-tuple transactions: hash and any per-tuple scheme are all
        // at 0% — the validation phase must pick plain hashing (§6.1).
        let w = ycsb::generate(&YcsbConfig {
            records: 500,
            num_txns: 1_000,
            ..YcsbConfig::workload_a()
        });
        let v = validate(
            vec![
                (
                    "replication".into(),
                    Box::new(ReplicationScheme::new(4)) as Box<dyn Scheme>,
                ),
                (
                    "hashing".into(),
                    Box::new(HashScheme::by_row_id(4)) as Box<dyn Scheme>,
                ),
            ],
            &w.trace,
            &*w.db,
            SelectionRules,
        );
        assert_eq!(v.winner().name, "hashing");
        assert_eq!(v.winner().report.distributed_txns, 0);
    }

    #[test]
    fn replication_loses_on_write_heavy() {
        let w = random::generate(&RandomConfig {
            records: 5_000,
            num_txns: 1_000,
            ..Default::default()
        });
        let v = validate(
            vec![
                (
                    "replication".into(),
                    Box::new(ReplicationScheme::new(2)) as Box<dyn Scheme>,
                ),
                (
                    "hashing".into(),
                    Box::new(HashScheme::by_row_id(2)) as Box<dyn Scheme>,
                ),
            ],
            &w.trace,
            &*w.db,
            SelectionRules,
        );
        assert_eq!(v.winner().name, "hashing");
        // Replication = 100% distributed; hashing ~50%.
        let rep = v
            .candidates
            .iter()
            .find(|c| c.name == "replication")
            .unwrap();
        assert!((rep.fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clear_winner_beats_simplicity() {
        // If replication is strictly much better (read-only workload with
        // multi-tuple reads scattered by hash), it must win despite hash
        // being "simpler" in the ordering... note Hash < Replication in
        // complexity, so here the CHEAPER one (replication, 0%) wins.
        let w = ycsb::generate(&YcsbConfig {
            records: 500,
            num_txns: 1_000,
            ..YcsbConfig::workload_e()
        });
        // Workload E: 95% scans (multi-tuple reads), 5% writes.
        let v = validate(
            vec![
                (
                    "hashing".into(),
                    Box::new(HashScheme::by_row_id(4)) as Box<dyn Scheme>,
                ),
                (
                    "replication".into(),
                    Box::new(ReplicationScheme::new(4)) as Box<dyn Scheme>,
                ),
            ],
            &w.trace,
            &*w.db,
            SelectionRules,
        );
        // Hash scatters nearly every scan; replication only pays for the 5%
        // updates.
        assert_eq!(v.winner().name, "replication");
    }
}
