//! Service throughput probe: cold vs. warm request latency and
//! concurrent-client scaling against an in-process `pwcet-serve`.
//!
//! Starts a server on an ephemeral port, fires a benchmark subset over
//! real TCP, and records the rows in `BENCH_pipeline.json` (upserted —
//! the criterion pipeline rows are preserved):
//!
//! * `serve_cold_request_us` — mean first-request latency (cold
//!   contexts: full fixpoints + ILP per request);
//! * `serve_warm_request_us` — mean repeat-request latency (memory
//!   tier); the acceptance gate is warm ≥ 2× better than cold (the
//!   floor was 5× before the sparse ILP core made cold requests
//!   ~2.5× cheaper);
//! * `serve_one_client_rps` / `serve_four_client_rps` — warm requests
//!   per second from one sequential client vs. four concurrent ones
//!   (scales with cores; ~flat on a single-core runner);
//! * `fleet_peer_fetch_us` / `fleet_peer_fetch_speedup` — latency of a
//!   second node answering the same programs through the reuse plane's
//!   *network* tier (one `FetchEntry` round trip to the warm node)
//!   instead of recomputing; the gate is a peer fetch ≥ 2× faster than
//!   the local cold recomputation it replaces.
//!
//! ```text
//! cargo run --release -p pwcet-bench --bin serve_bench
//! ```

use std::time::Instant;

use pwcet_bench::bench_json;
use pwcet_core::ReuseTier;
use pwcet_serve::{Client, FleetConfig, Response, Server, ServerConfig};

/// A cross-section of the suite: tiny kernels to multi-KB control code.
const PROGRAMS: [&str; 8] = [
    "bs",
    "crc",
    "fir",
    "fibcall",
    "insertsort",
    "prime",
    "expint",
    "cnt",
];
const PFAIL: f64 = 1e-4;
const TARGET_P: f64 = 1e-15;
const WARM_PASSES: usize = 3;
const SCALING_PASSES: usize = 3;
const CLIENTS: usize = 4;

fn program(name: &str) -> pwcet_progen::Program {
    pwcet_benchsuite::by_name(name)
        .expect("benchmark exists")
        .program
}

/// One request; returns the client-measured latency in microseconds and
/// the tier that answered.
fn timed_analyze_traced(client: &mut Client, name: &str) -> (u64, ReuseTier) {
    let started = Instant::now();
    match client
        .analyze(program(name), PFAIL, TARGET_P)
        .expect("request succeeds")
    {
        Response::Analysis { row, .. } => (started.elapsed().as_micros() as u64, row.served_from),
        other => panic!("unexpected response: {other:?}"),
    }
}

fn timed_analyze(client: &mut Client, name: &str) -> u64 {
    timed_analyze_traced(client, name).0
}

fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

fn main() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let shards = server.stats().shards;

    // Cold pass: every program pays its fixpoints and ILPs.
    let mut client = Client::connect(addr).expect("connect");
    let cold: Vec<u64> = PROGRAMS
        .iter()
        .map(|name| timed_analyze(&mut client, name))
        .collect();

    // Warm passes: same requests, answered from the memory tier.
    let mut warm = Vec::with_capacity(PROGRAMS.len() * WARM_PASSES);
    for _ in 0..WARM_PASSES {
        for name in PROGRAMS {
            warm.push(timed_analyze(&mut client, name));
        }
    }
    let cold_us = mean(&cold);
    let warm_us = mean(&warm);
    let speedup = cold_us / warm_us.max(1.0);

    // Client scaling on the warm server: the same total request count
    // from one sequential client vs. CLIENTS concurrent ones.
    let total_requests = PROGRAMS.len() * SCALING_PASSES * CLIENTS;
    let started = Instant::now();
    for _ in 0..SCALING_PASSES * CLIENTS {
        for name in PROGRAMS {
            timed_analyze(&mut client, name);
        }
    }
    let one_client = started.elapsed();
    drop(client);

    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..SCALING_PASSES {
                    for name in PROGRAMS {
                        timed_analyze(&mut client, name);
                    }
                }
            });
        }
    });
    let four_clients = started.elapsed();

    let one_rps = total_requests as f64 / one_client.as_secs_f64();
    let four_rps = total_requests as f64 / four_clients.as_secs_f64();

    // Fleet mode: a fresh node with this (warm) server as its only peer
    // answers every program through the network tier — one `FetchEntry`
    // round trip replaces the whole cold recomputation.
    let fleet_node = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: Some(FleetConfig::new("127.0.0.1:1", [addr.to_string()])),
            ..ServerConfig::default()
        },
    )
    .expect("bind fleet node");
    let mut fleet_client = Client::connect(fleet_node.local_addr()).expect("connect fleet node");
    let fleet: Vec<u64> = PROGRAMS
        .iter()
        .map(|name| {
            let (us, tier) = timed_analyze_traced(&mut fleet_client, name);
            assert_eq!(
                tier,
                ReuseTier::Network,
                "{name} was not served by the peer"
            );
            us
        })
        .collect();
    drop(fleet_client);
    let fleet_stats = fleet_node.reuse_plane().stats();
    fleet_node.shutdown();
    assert_eq!(fleet_stats.network_hits as usize, PROGRAMS.len());
    assert_eq!(
        fleet_stats.cold_builds, 0,
        "the fleet node must not recompute"
    );
    let fleet_us = mean(&fleet);
    let fleet_speedup = cold_us / fleet_us.max(1.0);

    // Server-side view of the same traffic from the histogram-backed
    // metrics registry: exact quantiles of the shard layer's queue-wait
    // vs. service-time split (client latencies above include the wire).
    let mut metrics_client = Client::connect(addr).expect("connect for metrics");
    let metrics = metrics_client.metrics().expect("metrics");
    let metric = |name: &str| -> u64 {
        metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metrics table is missing {name}"))
    };
    let service_p50 = metric("service_us_p50");
    let service_p99 = metric("service_us_p99");
    let queue_wait_p99 = metric("queue_wait_us_p99");
    drop(metrics_client);

    let stats = server.shutdown();
    assert_eq!(
        stats.served as usize,
        // The metrics scrape is not an analysis request, so it does not
        // move the served counter.
        PROGRAMS.len() * (1 + WARM_PASSES) + 2 * total_requests,
        "every request was served"
    );

    println!(
        "serve_bench: {} programs, {} shards | cold {:.0} µs → warm {:.0} µs ({:.1}×) | \
         1 client {:.0} req/s vs {} clients {:.0} req/s ({:.2}×) | \
         peer fetch {:.0} µs ({:.1}× vs cold) | \
         server-side service p50/p99 {}/{} µs, queue wait p99 {} µs",
        PROGRAMS.len(),
        shards,
        cold_us,
        warm_us,
        speedup,
        one_rps,
        CLIENTS,
        four_rps,
        four_rps / one_rps,
        fleet_us,
        fleet_speedup,
        service_p50,
        service_p99,
        queue_wait_p99,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    bench_json::upsert(
        path,
        &[
            ("serve_programs", format!("{}", PROGRAMS.len())),
            ("serve_shards", format!("{shards}")),
            ("serve_cold_request_us", format!("{cold_us:.0}")),
            ("serve_warm_request_us", format!("{warm_us:.0}")),
            ("serve_warm_speedup", format!("{speedup:.3}")),
            ("serve_one_client_rps", format!("{one_rps:.1}")),
            ("serve_four_client_rps", format!("{four_rps:.1}")),
            ("serve_client_scaling", format!("{:.3}", four_rps / one_rps)),
            ("serve_service_us_p50", format!("{service_p50}")),
            ("serve_service_us_p99", format!("{service_p99}")),
            ("serve_queue_wait_us_p99", format!("{queue_wait_p99}")),
            (
                "serve_obs_note",
                bench_json::json_str(
                    "server-side exact quantiles scraped from the Metrics verb's \
                     histogram-backed registry: the shard layer's queue-wait vs. \
                     service-time split, net of the wire the client rows include",
                ),
            ),
            (
                "serve_note",
                bench_json::json_str(
                    "warm requests skip straight to the reuse plane's memory tier (the ≥2× gate \
                     is algorithmic; the ratio shrank from ~8× when the sparse warm-started ILP \
                     core made cold requests ~2.5× cheaper); client scaling tracks shard count \
                     and cores — ~1 on a single-core runner",
                ),
            ),
            (
                "serve_command",
                bench_json::json_str("cargo run --release -p pwcet-bench --bin serve_bench"),
            ),
            ("fleet_cold_request_us", format!("{cold_us:.0}")),
            ("fleet_peer_fetch_us", format!("{fleet_us:.0}")),
            ("fleet_peer_fetch_speedup", format!("{fleet_speedup:.3}")),
            (
                "fleet_note",
                bench_json::json_str(
                    "a second node with the warm server as its only peer answers every program \
                     from the reuse plane's network tier: one FetchEntry round trip (decode + \
                     CFG validation included) instead of the full fixpoint + ILP recomputation; \
                     the ≥2× gate is algorithmic — the round trip is microseconds, the cold \
                     build milliseconds",
                ),
            ),
        ],
    )
    .expect("workspace root is writable");
    println!("updated {path}");

    // Enforce the acceptance gate here, where the row is produced (and
    // after it is recorded, so a failure still leaves the diagnostic):
    // warm requests skip every fixpoint and ILP, so anything under 2×
    // means the memory tier is not being hit. (The floor was 5× before
    // the sparse warm-started ILP core; cold requests are now ~2.5×
    // cheaper, so the warm/cold ratio legitimately sits near 3-4×.)
    assert!(
        speedup >= 2.0,
        "warm requests must be ≥ 2× faster than cold, measured {speedup:.1}× — \
         is the reuse plane's memory tier being bypassed?"
    );
    assert!(
        fleet_speedup >= 2.0,
        "a peer fetch must be ≥ 2× faster than the cold recomputation it replaces, \
         measured {fleet_speedup:.1}× — is the network tier being bypassed?"
    );
}
