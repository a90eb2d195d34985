//! `pwcet-serve` — run the analysis service until a client asks it to
//! shut down.
//!
//! ```text
//! pwcet-serve [--addr HOST:PORT] [--shards N] [--queue CAP] [--disk DIR] [--pfail P]
//!             [--peers ADDR,ADDR,…] [--self-addr HOST:PORT] [--trace-out FILE]
//! ```
//!
//! `--trace-out` appends every completed stage span as one JSONL line
//! (`{"trace":"…","stage":"ilp_solve","start_us":N,"dur_us":N}`) and,
//! when the server drains, a final `{"record":"final_metrics",…}` line
//! with the full metrics table.
//!
//! `--peers` names the full fleet membership (comma-separated, the same
//! list on every node) and turns on the reuse plane's network tier;
//! `--self-addr` is this node's own entry in that list when it differs
//! from `--addr` (e.g. bound to `0.0.0.0` but advertised by hostname).
//!
//! Prints one `listening` line once the socket is bound (machine-
//! readable; the CI smoke waits for it), serves until a client sends a
//! shutdown request, drains in-flight work, and prints a final summary.

use std::process::ExitCode;

use pwcet_core::AnalysisConfig;
use pwcet_serve::{FleetConfig, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: pwcet-serve [--addr HOST:PORT] [--shards N] [--queue CAP] [--disk DIR] [--pfail P] \
         [--peers ADDR,ADDR,…] [--self-addr HOST:PORT] [--trace-out FILE]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7463".to_string();
    let mut config = ServerConfig::default();
    let mut peers: Vec<String> = Vec::new();
    let mut self_addr: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = value(),
            "--peers" => {
                peers = value()
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(String::from)
                    .collect();
                if peers.is_empty() {
                    eprintln!("pwcet-serve: --peers needs at least one address");
                    return ExitCode::from(2);
                }
            }
            "--self-addr" => self_addr = Some(value()),
            "--shards" => match value().parse() {
                Ok(n) => config.shards = n,
                Err(_) => usage(),
            },
            "--queue" => match value().parse() {
                Ok(n) if n > 0 => config.queue_capacity = n,
                _ => usage(),
            },
            "--disk" => {
                match value() {
                    dir if dir.is_empty() => {
                        eprintln!("pwcet-serve: --disk needs a non-empty directory (unset shell variable?)");
                        return ExitCode::from(2);
                    }
                    dir => config.disk_dir = Some(dir.into()),
                }
            }
            "--trace-out" => match value() {
                file if file.is_empty() => {
                    eprintln!("pwcet-serve: --trace-out needs a non-empty file path");
                    return ExitCode::from(2);
                }
                file => config.trace_out = Some(file.into()),
            },
            "--pfail" => match value().parse() {
                Ok(p) => match AnalysisConfig::paper_default().with_pfail(p) {
                    Ok(analysis) => config.analysis = analysis,
                    Err(e) => {
                        eprintln!("pwcet-serve: bad --pfail: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if !peers.is_empty() {
        let self_addr = self_addr.unwrap_or_else(|| addr.clone());
        config.fleet = Some(FleetConfig::new(self_addr, peers));
    }

    let disk = config
        .disk_dir
        .as_ref()
        .map(|d| d.display().to_string())
        .unwrap_or_else(|| "none".to_string());
    let fleet_peers = config
        .fleet
        .as_ref()
        .map_or(0, |f| f.peers.iter().filter(|p| **p != f.self_addr).count());
    let server = match Server::bind(addr.as_str(), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pwcet-serve: cannot start on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stats = server.stats();
    println!(
        "pwcet-serve listening on {} shards={} queue={} disk={} peers={}",
        server.local_addr(),
        stats.shards,
        stats.queue_capacity,
        disk,
        fleet_peers,
    );

    server.wait_for_shutdown_request();
    println!("pwcet-serve draining…");
    let final_stats = server.shutdown();
    println!(
        "pwcet-serve drained and shut down cleanly: served={} overloads={} protocol_errors={} \
         served_from memory/disk/derived/network/cold = {}/{}/{}/{}/{}",
        final_stats.served,
        final_stats.overloads,
        final_stats.protocol_errors,
        final_stats.served_memory,
        final_stats.served_disk,
        final_stats.served_derived,
        final_stats.served_network,
        final_stats.served_cold,
    );
    ExitCode::SUCCESS
}
