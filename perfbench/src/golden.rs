//! The frozen golden bounds every answer is compared against, and the
//! generator that writes them.
//!
//! File format, one row per line, tab-separated (`#` starts a comment):
//!
//! ```text
//! analyze <program> <wcet_ff> <pwcet_none> <pwcet_srb> <pwcet_rw>
//! sweep   <program> <ways>    <pwcet_none> <pwcet_srb> <pwcet_rw>
//! ```
//!
//! `analyze` rows are at the paper geometry (16 sets × 4 ways × 16 B);
//! `sweep` rows are the points of `GeometryLattice::paper_default()`,
//! widest first.

use std::collections::BTreeMap;
use std::path::Path;

use pwcet_cache::{CacheGeometry, GeometryLattice};
use pwcet_core::{AnalysisConfig, Protection, PwcetAnalyzer, ReuseTier};
use pwcet_progen::Program;
use pwcet_serve::Response;

use crate::timed::Node;
use crate::{Stores, Suite, Tally, PFAIL, TARGET_P};

/// `(wcet_ff or ways, pwcet_none, pwcet_srb, pwcet_rw)`.
type Row = [u64; 4];

pub struct Golden {
    analyze: BTreeMap<String, Row>,
    /// Per program, one row per lattice point, widest first.
    sweep: BTreeMap<String, Vec<Row>>,
}

impl Golden {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
        let mut golden = Golden {
            analyze: BTreeMap::new(),
            sweep: BTreeMap::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || {
                format!(
                    "{}:{}: malformed golden row {line:?}",
                    path.display(),
                    n + 1
                )
            };
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [kind, name, rest @ ..] = fields.as_slice() else {
                return Err(bad());
            };
            let values: Vec<u64> = rest
                .iter()
                .map(|v| v.parse().map_err(|_| bad()))
                .collect::<Result<_, _>>()?;
            let row: Row = values.try_into().map_err(|_| bad())?;
            match *kind {
                "analyze" => {
                    golden.analyze.insert(name.to_string(), row);
                }
                "sweep" => golden.sweep.entry(name.to_string()).or_default().push(row),
                _ => return Err(bad()),
            }
        }
        Ok(golden)
    }

    /// Checks one answer for program `name`: a bound that differs from
    /// the golden row, a wrong tier or program name, and a refusal are
    /// all failures.
    pub fn check(&self, name: &str, tier: ReuseTier, response: &Response) -> Result<(), String> {
        let (got_name, served_from) = match response {
            Response::Analysis { row, .. } => {
                let want = self
                    .analyze
                    .get(name)
                    .ok_or_else(|| format!("{name}: no golden analyze row"))?;
                let got = [
                    row.fault_free_wcet,
                    row.pwcet_none,
                    row.pwcet_srb,
                    row.pwcet_rw,
                ];
                if got != *want {
                    return Err(format!(
                        "{name}: bounds {got:?} differ from golden {want:?}"
                    ));
                }
                (row.name.as_str(), row.served_from)
            }
            Response::GeometrySweep {
                name: got_name,
                served_from,
                rows,
                ..
            } => {
                let want = self
                    .sweep
                    .get(name)
                    .ok_or_else(|| format!("{name}: no golden sweep rows"))?;
                let got: Vec<Row> = rows
                    .iter()
                    .map(|r| [u64::from(r.ways), r.pwcet_none, r.pwcet_srb, r.pwcet_rw])
                    .collect();
                if got != *want {
                    return Err(format!(
                        "{name}: sweep {got:?} differs from golden {want:?}"
                    ));
                }
                (got_name.as_str(), *served_from)
            }
            Response::Error { code, message, .. } => {
                return Err(format!("{name}: refused ({}): {message}", code.label()))
            }
            _ => return Err(format!("{name}: answered with an unexpected response kind")),
        };
        if got_name != name {
            return Err(format!("{name}: answered for program {got_name:?}"));
        }
        if served_from != tier {
            return Err(format!(
                "{name}: served from {served_from}, expected {tier}"
            ));
        }
        Ok(())
    }
}

/// Cold bounds of one program at one geometry, straight from the
/// library with no reuse plane: `(wcet_ff, none, srb, rw)`.
fn cold_row(program: &Program, geometry: CacheGeometry) -> Result<Row, String> {
    let config = AnalysisConfig {
        geometry,
        ..AnalysisConfig::paper_default()
            .with_pfail(PFAIL)
            .map_err(|e| e.to_string())?
    };
    let analysis = PwcetAnalyzer::new(config)
        .analyze(program)
        .map_err(|e| format!("{}: {e}", program.name()))?;
    let at = |p| analysis.estimate(p).pwcet_at(TARGET_P);
    let row = [
        analysis.fault_free_wcet(),
        at(Protection::None),
        at(Protection::SharedReliableBuffer),
        at(Protection::ReliableWay),
    ];
    // The paper's ordering: protection never hurts, faults never help.
    if !(row[0] <= row[3] && row[3] <= row[2] && row[2] <= row[1]) {
        return Err(format!(
            "{} at {geometry}: wcet_ff ≤ rw ≤ srb ≤ none violated by {row:?}",
            program.name()
        ));
    }
    Ok(row)
}

/// Computes every row the workloads request, checks that the cold,
/// memory, disk and derived answers of a served plane all agree with
/// the cold library answers, and writes the file. Returns the row
/// count.
pub fn write(suite: &Suite, stores: &Stores, path: &Path) -> Result<usize, String> {
    let lattice = GeometryLattice::paper_default();
    let paper = AnalysisConfig::paper_default().geometry;
    let mut golden = Golden {
        analyze: BTreeMap::new(),
        sweep: BTreeMap::new(),
    };
    let mut text = String::from(
        "# Golden bounds of the benchmark's requests (pfail = 1e-4, target_p = 1e-15).\n\
         # Regenerate: cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --write-golden\n\
         # analyze <program> <wcet_ff> <pwcet_none> <pwcet_srb> <pwcet_rw>  at 16 sets x 4 ways x 16 B\n\
         # sweep   <program> <ways> <pwcet_none> <pwcet_srb> <pwcet_rw>     at 16 sets x 16 B\n",
    );
    for (name, program) in suite.names.iter().zip(&suite.programs) {
        let row = cold_row(program, paper)?;
        text.push_str(&format!(
            "analyze\t{name}\t{}\t{}\t{}\t{}\n",
            row[0], row[1], row[2], row[3]
        ));
        golden.analyze.insert(name.to_string(), row);
        for geometry in lattice.members() {
            let [_, none, srb, rw] = cold_row(program, geometry)?;
            let ways = geometry.ways();
            text.push_str(&format!("sweep\t{name}\t{ways}\t{none}\t{srb}\t{rw}\n"));
            let point = [u64::from(ways), none, srb, rw];
            golden
                .sweep
                .entry(name.to_string())
                .or_default()
                .push(point);
        }
    }

    // Every served tier must give back the cold library bounds.
    let n = suite.names.len();
    let mut tally = Tally::default();
    let store = stores.fresh_dir();
    let mut served = |node: &mut Node, tier: ReuseTier, sweep: bool| {
        for (i, name) in suite.names.iter().enumerate() {
            let request = if sweep {
                suite.sweep(i)
            } else {
                suite.analyze(i)
            };
            let outcome = node.send(&request);
            tally.record(outcome.and_then(|r| golden.check(name, tier, &r)));
        }
    };
    let mut node = Node::start(Some(&store))?;
    served(&mut node, ReuseTier::Cold, false);
    served(&mut node, ReuseTier::Memory, false);
    node.finish();
    let mut node = Node::start(Some(&store))?;
    served(&mut node, ReuseTier::Disk, false);
    node.finish();
    let mut node = Node::start(Some(&stores.fresh_dir()))?;
    served(&mut node, ReuseTier::Cold, true);
    let derived = node.plane_stats().derived;
    node.finish();
    if tally.failed > 0 {
        return Err(tally.notes.join("; "));
    }
    let want_derived = (n * (lattice.len() - 1)) as u64;
    if derived != want_derived {
        return Err(format!(
            "sweeps derived {derived} points, expected {want_derived}"
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(golden.analyze.len() + golden.sweep.values().map(Vec::len).sum::<usize>())
}
