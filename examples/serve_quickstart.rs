//! The analysis service, end to end in one process: spawn a server on an
//! ephemeral port, drive it with a client over real TCP, and watch the
//! reuse-plane tiers answer.
//!
//! 1. a **cold pass** over a few benchmarks — every request builds cold
//!    and write-through persists its context;
//! 2. a **warm pass** of the same requests — answered from the memory
//!    tier, bit-identically;
//! 3. a **pfail sweep** and a **geometry sweep** riding the same warm
//!    contexts;
//! 4. the service's per-tier served counts and the plane's own counters;
//! 5. graceful shutdown (in-flight work drains first).
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use std::time::Instant;

use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::obs::TraceId;
use fault_aware_pwcet::serve::{Client, Request, Response, Server, ServerConfig, StageTiming};

const BENCHMARKS: [&str; 3] = ["bs", "crc", "fir"];
const PFAIL: f64 = 1e-4;
const TARGET_P: f64 = 1e-15;

fn store_dir() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pwcet-serve-quickstart-{}", std::process::id()))
}

fn run_pass(label: &str, client: &mut Client) {
    println!("## {label}");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>8} {:>11}",
        "benchmark", "wcet_ff", "none", "SRB", "RW", "tier", "latency_us"
    );
    for name in BENCHMARKS {
        let bench = benchsuite::by_name(name).expect("benchmark exists");
        let started = Instant::now();
        let response = client
            .analyze(bench.program, PFAIL, TARGET_P)
            .expect("request succeeds");
        let latency = started.elapsed().as_micros();
        match response {
            Response::Analysis { row, .. } => println!(
                "{:>10} {:>12} {:>12} {:>12} {:>12} {:>8} {:>11}",
                row.name,
                row.fault_free_wcet,
                row.pwcet_none,
                row.pwcet_srb,
                row.pwcet_rw,
                row.served_from.label(),
                latency,
            ),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}

/// The server-side stage breakdown echoed under the client's minted
/// trace ID — where the sweep's time actually went.
fn print_stages(trace: u64, stages: &[StageTiming]) {
    let parts: Vec<String> = stages
        .iter()
        .map(|t| format!("{}={}us", t.stage.label(), t.micros))
        .collect();
    println!("{:>10} trace={} {}", "", TraceId(trace), parts.join(" "));
}

fn main() {
    let dir = store_dir();
    let _ = std::fs::remove_dir_all(&dir);

    // An in-process server on an ephemeral port, its reuse plane backed
    // by an on-disk store (a restarted server would answer from it).
    let server = Server::bind("127.0.0.1:0", ServerConfig::default().with_disk_dir(&dir))
        .expect("bind ephemeral port");
    println!(
        "serving on {} ({} shards, queue {})\n",
        server.local_addr(),
        server.stats().shards,
        server.stats().queue_capacity,
    );

    let mut client = Client::connect(server.local_addr()).expect("connect");
    run_pass("cold pass (every context built from scratch)", &mut client);
    println!();
    run_pass("warm pass (same requests, memory tier)", &mut client);

    // Sweeps reuse the same warm contexts: the pfail sweep never
    // re-classifies, the geometry sweep derives narrower way counts from
    // the widest cached sibling.
    println!("\n## sweeps over the warm plane");
    let crc = benchsuite::by_name("crc").expect("crc exists");
    match client
        .request(&Request::SweepPfail {
            program: crc.program.clone(),
            pfails: vec![1e-6, 1e-5, 1e-4, 1e-3],
            target_p: TARGET_P,
            trace: TraceId::mint().0,
        })
        .expect("sweep succeeds")
    {
        Response::PfailSweep {
            name,
            served_from,
            rows,
            micros,
            trace,
            stages,
        } => {
            for row in rows {
                println!(
                    "{:>10} pfail={:<8e} none={:<9} tier={} ({} µs total)",
                    name,
                    row.pfail,
                    row.pwcet_none,
                    served_from.label(),
                    micros
                );
            }
            print_stages(trace, &stages);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    match client
        .request(&Request::SweepGeometry {
            program: crc.program,
            sets: 16,
            block_bytes: 16,
            way_counts: vec![4, 3, 2, 1],
            target_p: TARGET_P,
            trace: TraceId::mint().0,
        })
        .expect("sweep succeeds")
    {
        Response::GeometrySweep {
            name,
            served_from,
            rows,
            micros,
            trace,
            stages,
        } => {
            for row in rows {
                println!(
                    "{:>10} ways={:<2} none={:<9} tier={} ({} µs total)",
                    name,
                    row.ways,
                    row.pwcet_none,
                    served_from.label(),
                    micros
                );
            }
            print_stages(trace, &stages);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    let stats = server.stats();
    let plane = server.reuse_plane().stats();
    println!(
        "\nserved={} | served_from memory/disk/derived/cold = {}/{}/{}/{} | \
         plane: {} memory hits, {} disk writes, {} derived",
        stats.served,
        stats.served_memory,
        stats.served_disk,
        stats.served_derived,
        stats.served_cold,
        plane.memory.hits,
        plane.disk_writes,
        plane.derived,
    );

    let final_stats = server.shutdown();
    println!(
        "server drained and shut down cleanly ({} requests served)",
        final_stats.served
    );
    let _ = std::fs::remove_dir_all(&dir);
}
