//! `pwcet-client` — submit analysis requests to a running `pwcet-serve`.
//!
//! ```text
//! pwcet-client <SERVERS> suite [NAME…]         analyze benchsuite programs (default: all 25)
//! pwcet-client <SERVERS> analyze NAME [-n K]   analyze one benchmark K times (default 1)
//! pwcet-client <SERVERS> program FILE          submit a request frame exported to FILE
//! pwcet-client <SERVERS> export NAME FILE      write NAME's analyze-request frame to FILE
//! pwcet-client <SERVERS> stats [--json]        print the metrics table's counters and gauges
//! pwcet-client <SERVERS> metrics [--json]      print the full metrics table (exact quantiles)
//! pwcet-client <SERVERS> shutdown              ask the server to drain and exit
//! ```
//!
//! `<SERVERS>` is either a single `HOST:PORT` or `--servers a,b,…` — a
//! comma-separated endpoint list the client fails over across: an
//! idempotent request that times out or is refused at the connection
//! level retries on the next endpoint (with jittered exponential
//! backoff), and an `Overloaded` refusal is retried after the server's
//! own `retry_after_ms` hint. `shutdown` never fails over — it would
//! drain a second, healthy server.
//!
//! Analysis rows report the server's `served_from` tier provenance and
//! the client-measured round-trip latency; multi-request commands end
//! with latency percentiles. Every `suite`/`analyze` request carries a
//! client-minted trace ID, echoed back with the server's per-stage
//! timing breakdown. `metrics` dumps the self-describing name→value
//! table in Prometheus text exposition style (or, with `--json`, as the
//! flat one-pair-per-line JSON object the bench tooling uses — with the
//! client's own attempt counters appended as `client_*` rows). `stats`
//! is a view of the same table without the histogram rows, printed as
//! `name: value` lines (or the same `--json` object).

use std::process::ExitCode;
use std::time::Instant;

use pwcet_obs::TraceId;
use pwcet_serve::{FleetClient, Request, Response, RetryStats, StageTiming};

const DEFAULT_PFAIL: f64 = 1e-4;
const DEFAULT_TARGET_P: f64 = 1e-15;

fn usage() -> ! {
    eprintln!(
        "usage: pwcet-client <HOST:PORT | --servers A,B,…> <suite [NAME…] | analyze NAME [-n K] | \
         program FILE | export NAME FILE | stats [--json] | metrics [--json] | shutdown>"
    );
    std::process::exit(2);
}

/// One `trace=… stages: …` line under an analysis row: the server-side
/// breakdown of where the request's time went (durations in
/// microseconds, `×N` marking stages that ran more than once).
fn print_stages(trace: u64, stages: &[StageTiming]) {
    if trace == 0 && stages.is_empty() {
        return;
    }
    let mut parts = String::new();
    for timing in stages {
        use std::fmt::Write as _;
        let _ = write!(parts, " {}={}us", timing.stage.label(), timing.micros);
        if timing.count > 1 {
            let _ = write!(parts, "(\u{d7}{})", timing.count);
        }
    }
    println!("  trace={} stages:{parts}", TraceId(trace));
}

/// Prints a name→value table as flat JSON: one `"key": value` pair per
/// line, no nesting, so line-oriented tools can read it without a JSON
/// parser.
fn print_json(entries: &[(String, u64)]) {
    println!("{{");
    for (index, (name, value)) in entries.iter().enumerate() {
        let comma = if index + 1 == entries.len() { "" } else { "," };
        println!("  \"{name}\": {value}{comma}");
    }
    println!("}}");
}

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("pwcet-client: {message}");
    ExitCode::FAILURE
}

fn print_header() {
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>12}",
        "benchmark", "wcet_ff", "none", "srb", "rw", "tier", "latency_us"
    );
}

fn print_row(row: &pwcet_serve::AnalysisRow, latency_us: u64) {
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>12}",
        row.name,
        row.fault_free_wcet,
        row.pwcet_none,
        row.pwcet_srb,
        row.pwcet_rw,
        row.served_from.label(),
        latency_us,
    );
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let index = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

fn print_percentiles(mut latencies: Vec<u64>) {
    if latencies.is_empty() {
        return;
    }
    latencies.sort_unstable();
    let mean = latencies.iter().sum::<u64>() / latencies.len() as u64;
    println!(
        "latency_us: n={} min={} p50={} p90={} p99={} max={} mean={}",
        latencies.len(),
        latencies[0],
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
        latencies[latencies.len() - 1],
        mean,
    );
}

/// The rows a histogram expands to in the metrics table.
const HISTOGRAM_SUFFIXES: [&str; 7] = ["_count", "_sum", "_mean", "_p50", "_p95", "_p99", "_max"];

/// The metrics table's counters and gauges: every row except the
/// histogram expansions.
fn counter_rows(entries: Vec<(String, u64)>) -> Vec<(String, u64)> {
    entries
        .into_iter()
        .filter(|(name, _)| !HISTOGRAM_SUFFIXES.iter().any(|s| name.ends_with(s)))
        .collect()
}

/// The client's own attempt accounting as `client_*` rows, appended to
/// `--json` tables so a chaos or failover run shows how hard the client
/// had to work alongside what the server saw.
fn attempt_entries(stats: RetryStats) -> Vec<(String, u64)> {
    vec![
        ("client_attempts".to_string(), stats.attempts),
        ("client_retries".to_string(), stats.retries),
        ("client_failovers".to_string(), stats.failovers),
    ]
}

/// Sends one request, prints its rows, and records the round trip.
/// Returns `false` when the server answered with an error.
fn submit(
    client: &mut FleetClient,
    request: &Request,
    latencies: &mut Vec<u64>,
) -> Result<bool, ExitCode> {
    let started = Instant::now();
    let response = client
        .request(request)
        .map_err(|e| fail(format!("request failed: {e}")))?;
    let elapsed = started.elapsed().as_micros() as u64;
    match response {
        Response::Analysis {
            row, trace, stages, ..
        } => {
            latencies.push(elapsed);
            print_row(&row, elapsed);
            print_stages(trace, &stages);
            Ok(true)
        }
        Response::Batch {
            rows,
            trace,
            stages,
            ..
        } => {
            latencies.push(elapsed);
            for row in rows {
                print_row(&row, elapsed);
            }
            print_stages(trace, &stages);
            Ok(true)
        }
        Response::PfailSweep {
            name,
            served_from,
            rows,
            trace,
            stages,
            ..
        } => {
            latencies.push(elapsed);
            for row in rows {
                println!(
                    "{:>12} pfail={:<9e} {:>12} {:>12} {:>12} {:>9} {:>12}",
                    name,
                    row.pfail,
                    row.pwcet_none,
                    row.pwcet_srb,
                    row.pwcet_rw,
                    served_from.label(),
                    elapsed,
                );
            }
            print_stages(trace, &stages);
            Ok(true)
        }
        Response::GeometrySweep {
            name,
            served_from,
            rows,
            trace,
            stages,
            ..
        } => {
            latencies.push(elapsed);
            for row in rows {
                println!(
                    "{:>12} ways={:<4} {:>12} {:>12} {:>12} {:>9} {:>12}",
                    name,
                    row.ways,
                    row.pwcet_none,
                    row.pwcet_srb,
                    row.pwcet_rw,
                    served_from.label(),
                    elapsed,
                );
            }
            print_stages(trace, &stages);
            Ok(true)
        }
        Response::Entry { key, entry } => {
            // Fleet verbs are normally peer-to-peer; answering them here
            // keeps `program` usable with exported fetch frames.
            match entry {
                Some(bytes) => println!("entry {key:016x}: {} bytes", bytes.len()),
                None => println!("entry {key:016x}: miss"),
            }
            Ok(true)
        }
        Response::OfferAck { stored } => {
            println!("offer {}", if stored { "stored" } else { "declined" });
            Ok(true)
        }
        Response::Metrics { entries } => {
            for (name, value) in &entries {
                println!("{name} {value}");
            }
            Ok(true)
        }
        Response::ShutdownStarted => {
            println!("server acknowledged shutdown; draining");
            Ok(true)
        }
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            match retry_after_ms {
                Some(ms) => eprintln!(
                    "pwcet-client: server refused ({code}): {message} (retry after {ms}ms)"
                ),
                None => eprintln!("pwcet-client: server refused ({code}): {message}"),
            }
            Ok(false)
        }
    }
}

fn bench_program(name: &str) -> Result<pwcet_progen::Program, ExitCode> {
    pwcet_benchsuite::by_name(name)
        .map(|b| b.program)
        .ok_or_else(|| {
            fail(format!(
                "unknown benchmark {name:?} (see `suite` for names)"
            ))
        })
}

fn run() -> Result<ExitCode, ExitCode> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--servers a,b,…` replaces the positional address with an explicit
    // failover list; a bare HOST:PORT is the one-endpoint special case.
    let endpoints: Vec<String> = if args.first().map(String::as_str) == Some("--servers") {
        if args.len() < 2 {
            usage();
        }
        let list = args[1].clone();
        args.drain(..2);
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    } else {
        if args.is_empty() {
            usage();
        }
        vec![args.remove(0)]
    };
    if endpoints.is_empty() || args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    let command = command.as_str(); // `args[1..]` are the command operands

    // `export` needs no connection.
    if command == "export" {
        let [name, file] = &args[1..] else { usage() };
        let program = bench_program(name)?;
        let frame = pwcet_serve::protocol::encode_request(&Request::Analyze {
            program,
            pfail: DEFAULT_PFAIL,
            target_p: DEFAULT_TARGET_P,
            trace: 0,
        });
        std::fs::write(file, frame).map_err(|e| fail(format!("cannot write {file}: {e}")))?;
        println!("wrote request frame for {name} to {file}");
        return Ok(ExitCode::SUCCESS);
    }

    // Connections are dialed lazily by the fleet client; a dead first
    // endpoint surfaces as a failover on the first request, not here.
    let mut client = FleetClient::new(endpoints);
    let mut latencies = Vec::new();
    let mut all_ok = true;

    match command {
        "suite" => {
            let names: Vec<String> = if args.len() > 1 {
                args[1..].to_vec()
            } else {
                pwcet_benchsuite::names()
                    .into_iter()
                    .map(String::from)
                    .collect()
            };
            print_header();
            for name in &names {
                let program = bench_program(name)?;
                let request = Request::Analyze {
                    program,
                    pfail: DEFAULT_PFAIL,
                    target_p: DEFAULT_TARGET_P,
                    trace: TraceId::mint().0,
                };
                all_ok &= submit(&mut client, &request, &mut latencies)?;
            }
            print_percentiles(latencies);
        }
        "analyze" => {
            if args.len() < 2 {
                usage();
            }
            let name = &args[1];
            let repeats = match args.get(2).map(String::as_str) {
                Some("-n") => args
                    .get(3)
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| usage()),
                Some(_) => usage(),
                None => 1,
            };
            let program = bench_program(name)?;
            print_header();
            for _ in 0..repeats {
                let request = Request::Analyze {
                    program: program.clone(),
                    pfail: DEFAULT_PFAIL,
                    target_p: DEFAULT_TARGET_P,
                    trace: TraceId::mint().0,
                };
                all_ok &= submit(&mut client, &request, &mut latencies)?;
            }
            print_percentiles(latencies);
        }
        "program" => {
            let [file] = &args[1..] else { usage() };
            let bytes =
                std::fs::read(file).map_err(|e| fail(format!("cannot read {file}: {e}")))?;
            let request = pwcet_serve::protocol::decode_request(&bytes)
                .map_err(|e| fail(format!("{file} is not a valid request frame: {e}")))?;
            print_header();
            all_ok &= submit(&mut client, &request, &mut latencies)?;
        }
        "stats" => {
            let mut entries = counter_rows(
                client
                    .metrics()
                    .map_err(|e| fail(format!("request failed: {e}")))?,
            );
            if args.get(1).map(String::as_str) == Some("--json") {
                entries.extend(attempt_entries(client.retry_stats()));
                print_json(&entries);
            } else {
                for (name, value) in &entries {
                    println!("{name}: {value}");
                }
            }
        }
        "metrics" => {
            let mut entries = client
                .metrics()
                .map_err(|e| fail(format!("request failed: {e}")))?;
            if args.get(1).map(String::as_str) == Some("--json") {
                entries.extend(attempt_entries(client.retry_stats()));
                print_json(&entries);
            } else {
                // Prometheus text exposition: one `name value` sample
                // per line (all instruments are untyped u64 gauges from
                // the scraper's point of view).
                for (name, value) in &entries {
                    println!("{name} {value}");
                }
            }
        }
        "shutdown" => {
            all_ok &= submit(&mut client, &Request::Shutdown, &mut latencies)?;
        }
        _ => usage(),
    }
    let retry = client.retry_stats();
    if retry.retries > 0 || retry.failovers > 0 {
        eprintln!(
            "pwcet-client: attempts={} retries={} failovers={}",
            retry.attempts, retry.retries, retry.failovers
        );
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) | Err(code) => code,
    }
}
