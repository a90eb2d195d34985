//! End-to-end benchmark of the pWCET analysis service, with a traced
//! in-process replay that splits every request into the layers it
//! crosses. README.md beside this package describes the workloads,
//! metrics and commands.
//!
//! One run: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! The last line of standard output is one JSON object with the
//! verdict and the metrics; a human-readable report goes to standard
//! error. `--write-golden` regenerates the frozen golden bounds.

mod golden;
mod measure;
mod timed;
mod traced;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use pwcet_cache::GeometryLattice;
use pwcet_core::ReuseTier;
use pwcet_progen::Program;
use pwcet_serve::Request;

use crate::golden::Golden;

/// Per-bit fault probability of every request (the paper's default).
pub const PFAIL: f64 = 1e-4;
/// Exceedance probability every pWCET is quoted at.
pub const TARGET_P: f64 = 1e-15;
/// Set-ups per run; `setup_s` is their median, so one slow set-up (a
/// steal burst, first-touch page faults) does not move it.
pub const SETUP_REPEATS: usize = 3;

/// The benchmark's workloads. Each stresses a different reuse tier of
/// the service; README.md gives the reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeat `Analyze` requests against one long-lived server.
    WarmRepeat,
    /// One `SweepGeometry` per program against a fresh server and an
    /// empty store.
    ColdSweep,
    /// `Analyze` requests against a restarted server over a built store.
    RestartRead,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::WarmRepeat,
        Workload::ColdSweep,
        Workload::RestartRead,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::WarmRepeat => "warm_repeat",
            Workload::ColdSweep => "cold_sweep",
            Workload::RestartRead => "restart_read",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The tier every answer of a measured pass must report (for a
    /// sweep: the tier of its first, widest point).
    pub fn tier(self) -> ReuseTier {
        match self {
            Workload::WarmRepeat => ReuseTier::Memory,
            Workload::ColdSweep => ReuseTier::Cold,
            Workload::RestartRead => ReuseTier::Disk,
        }
    }
}

/// The 25 suite programs, in suite order.
pub struct Suite {
    pub names: Vec<&'static str>,
    pub programs: Vec<Program>,
}

impl Suite {
    fn load() -> Self {
        let (names, programs) = pwcet_benchsuite::all()
            .into_iter()
            .map(|b| (b.name, b.program))
            .unzip();
        Self { names, programs }
    }

    pub fn analyze(&self, i: usize) -> Request {
        Request::Analyze {
            program: self.programs[i].clone(),
            pfail: PFAIL,
            target_p: TARGET_P,
            trace: 0,
        }
    }

    pub fn sweep(&self, i: usize) -> Request {
        let lattice = GeometryLattice::paper_default();
        let widest = lattice.widest();
        Request::SweepGeometry {
            program: self.programs[i].clone(),
            sets: widest.sets(),
            block_bytes: widest.block_bytes(),
            way_counts: lattice.way_counts().to_vec(),
            target_p: TARGET_P,
            trace: 0,
        }
    }

    /// The request `workload` sends for program `i` in its passes.
    pub fn request(&self, workload: Workload, i: usize) -> Request {
        match workload {
            Workload::ColdSweep => self.sweep(i),
            Workload::WarmRepeat | Workload::RestartRead => self.analyze(i),
        }
    }
}

/// splitmix64: the seed is the only source of randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request order of pass `pass` under `seed`: a Fisher–Yates
/// permutation of `0..n`. The seed only reorders, so every pass of
/// every seed sends the same multiset of requests.
pub fn pass_order(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Disk-tier stores of one process, under the working directory (the
/// benchmark writes nothing outside its checkout) and removed on drop.
pub struct Stores {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Stores {
    fn new() -> std::io::Result<Self> {
        let root = Path::new(".perfbench_stores").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new, empty store directory.
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("store-{n}"))
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Removes the shared parent only once no other run uses it.
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Request outcomes of one run: every request is checked, and a
/// refusal, transport error, bound that differs from the golden file or
/// wrong tier counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(1, why);
        }
    }

    /// Fails `requests` already-recorded requests at once: a pass whose
    /// tier counters are off did not exercise its layer.
    pub fn fail(&mut self, requests: u64, why: String) {
        self.failed = (self.failed + requests).min(self.attempted);
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

const USAGE: &str = "usage: pwcet-perfbench --workload <warm_repeat|cold_sweep|restart_read> \
--seed <n> --seconds <s> --trace <0|1> [--golden <file>]\n       \
pwcet-perfbench --write-golden [--golden <file>]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: PathBuf,
    write_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        golden: Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.tsv"),
        write_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            args.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--golden" => args.golden = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !args.write_golden && args.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in the arithmetic above and must not pass as a number.
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args, workload: Workload) -> Result<(Tally, Vec<Metric>), String> {
    let suite = Suite::load();
    let golden = Golden::load(&args.golden)?;
    let stores = Stores::new().map_err(|e| format!("cannot create the store root: {e}"))?;
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();

    let run = timed::run(
        workload, &suite, &golden, &stores, args.seed, seconds, args.trace, &mut tally,
    )?;
    run.report(workload, args.seed);
    if !args.trace {
        return Ok((tally, run.end_to_end()));
    }
    // A quarter of the measured time is enough for the replay: its
    // per-layer times are means over thousands of layer calls, and its
    // counts are per pass.
    let traced = traced::run(
        workload,
        &suite,
        &golden,
        &stores,
        args.seed,
        seconds / 4,
        &mut tally,
    )?;
    let metrics = traced.per_layer(&run);
    traced.report(&run);
    Ok((tally, metrics))
}

fn main() -> ExitCode {
    measure::single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.write_golden {
        let written = Stores::new()
            .map_err(|e| format!("cannot create the store root: {e}"))
            .and_then(|stores| golden::write(&Suite::load(), &stores, &args.golden));
        return match written {
            Ok(rows) => {
                eprintln!("wrote {rows} golden rows to {}", args.golden.display());
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("golden generation failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    match run(&args, workload) {
        Ok((tally, metrics)) => {
            for note in &tally.notes {
                eprintln!("FAILED: {note}");
            }
            println!("{}", result_line(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{} aborted: {why}", workload.name());
            ExitCode::FAILURE
        }
    }
}
