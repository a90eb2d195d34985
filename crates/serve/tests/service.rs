//! End-to-end service tests: tier provenance across clients and
//! restarts, bit-identical warm answers, deterministic backpressure, and
//! draining shutdown.

use std::collections::BTreeMap;
use std::thread;

use pwcet_core::{AnalysisConfig, Protection, PwcetAnalyzer, ReuseTier};
use pwcet_progen::{stmt, Program};
use pwcet_serve::protocol::{ErrorCode, Request, Response};
use pwcet_serve::{AnalysisRow, Client, Server, ServerConfig};

/// The 40 counter and gauge names the retired stats verb answered.
/// Scrapers built against it keep finding every one of them in the
/// metrics table.
const LEGACY_STATS_NAMES: [&str; 40] = [
    "shards",
    "queue_capacity",
    "queued",
    "connections",
    "served",
    "overloads",
    "protocol_errors",
    "served_memory",
    "served_disk",
    "served_derived",
    "served_network",
    "served_cold",
    "memory_hits",
    "memory_misses",
    "disk_hits",
    "disk_writes",
    "disk_corrupt",
    "derived",
    "cold_builds",
    "network_hits",
    "network_misses",
    "network_corrupt",
    "network_offers",
    "peer_fetches_served",
    "peer_offers_stored",
    "peers",
    "peers_unhealthy",
    "ilp_pivots",
    "ilp_dual_pivots",
    "ilp_bb_nodes",
    "ilp_warm_starts",
    "ilp_cold_starts",
    "ilp_trivial_prunes",
    "template_hits",
    "basis_restores",
    "basis_rejects",
    "classify_passes",
    "classify_words_touched",
    "classify_sets_skipped",
    "store_bytes",
];

fn bench(name: &str) -> Program {
    pwcet_benchsuite::by_name(name)
        .expect("benchmark exists")
        .program
}

fn server_with(shards: usize, queue: usize) -> Server {
    let config = ServerConfig {
        shards,
        queue_capacity: queue,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config).expect("ephemeral bind")
}

fn analyze(client: &mut Client, program: Program) -> (AnalysisRow, u64) {
    match client
        .analyze(program, 1e-4, 1e-15)
        .expect("request succeeds")
    {
        Response::Analysis { row, micros, .. } => (row, micros),
        other => panic!("expected an analysis response, got {other:?}"),
    }
}

#[test]
fn second_client_is_served_bit_identically_from_the_memory_tier() {
    let server = server_with(2, 16);

    let mut first = Client::connect(server.local_addr()).expect("connect");
    let (cold_row, _) = analyze(&mut first, bench("crc"));
    assert_eq!(cold_row.served_from, ReuseTier::Cold);

    // A *different* client connection requesting the same program must be
    // answered from the reuse plane's memory tier, bit-identically.
    let mut second = Client::connect(server.local_addr()).expect("connect");
    let (warm_row, _) = analyze(&mut second, bench("crc"));
    assert_eq!(warm_row.served_from, ReuseTier::Memory);
    assert_eq!(
        warm_row,
        AnalysisRow {
            served_from: ReuseTier::Memory,
            ..cold_row.clone()
        }
    );

    // And the rows match a direct in-process analysis exactly.
    let analysis = PwcetAnalyzer::new(AnalysisConfig::paper_default())
        .analyze(&bench("crc"))
        .expect("direct analysis");
    assert_eq!(warm_row.fault_free_wcet, analysis.fault_free_wcet());
    assert_eq!(
        warm_row.pwcet_none,
        analysis.estimate(Protection::None).pwcet_at(1e-15)
    );
    assert_eq!(
        warm_row.pwcet_rw,
        analysis.estimate(Protection::ReliableWay).pwcet_at(1e-15)
    );

    // The cold analysis ran the ILP stage through the plane, so the
    // plane reports solver behavior; the memory-tier duplicate reused
    // its memoized artifacts and added nothing.
    let ilp = server.reuse_plane().ilp_stats();
    assert!(ilp.bb_nodes > 0, "solver counters reach the service");
    assert!(
        ilp.warm_starts > 0,
        "the per-(set, fault) fan-out reuses the factored template basis"
    );
    assert!(ilp.pivots > 0);
    let stats = server.shutdown();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.served_cold, 1);
    assert_eq!(stats.served_memory, 1);
}

#[test]
fn concurrent_duplicates_serialize_on_one_shard() {
    // Two clients race the same program: whatever the interleaving, the
    // shard serializes them — exactly one cold build, the other answered
    // from the memory tier, both bit-identical.
    let server = server_with(4, 16);
    let addr = server.local_addr();
    let rows: Vec<AnalysisRow> = thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    analyze(&mut client, bench("fir")).0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let tiers: Vec<ReuseTier> = rows.iter().map(|r| r.served_from).collect();
    assert!(
        tiers.contains(&ReuseTier::Cold) && tiers.contains(&ReuseTier::Memory),
        "expected one cold and one memory-tier answer, got {tiers:?}"
    );
    assert_eq!(rows[0].pwcet_none, rows[1].pwcet_none);
    assert_eq!(rows[0].fault_free_wcet, rows[1].fault_free_wcet);
    server.shutdown();
}

#[test]
fn restarted_server_answers_from_the_disk_tier() {
    let dir = std::env::temp_dir().join(format!("pwcet-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    }
    .with_disk_dir(&dir);
    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (cold_row, _) = analyze(&mut client, bench("bs"));
    assert_eq!(cold_row.served_from, ReuseTier::Cold);
    drop(client);
    let stats = server.shutdown();
    assert!(
        stats.disk_writes > 0,
        "write-through must persist the context"
    );

    // A brand-new server over the same store answers without a cold
    // build — the disk tier survives the restart.
    let reborn = Server::bind("127.0.0.1:0", config).expect("rebind");
    let mut client = Client::connect(reborn.local_addr()).expect("connect");
    let (warm_row, _) = analyze(&mut client, bench("bs"));
    assert_eq!(warm_row.served_from, ReuseTier::Disk);
    assert_eq!(
        warm_row,
        AnalysisRow {
            served_from: ReuseTier::Disk,
            ..cold_row
        }
    );
    drop(client);
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_and_sweeps_answer_with_provenance() {
    let server = server_with(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let programs = vec![bench("bs"), bench("fibcall"), bench("bs")];
    let response = client
        .request(&Request::Batch {
            programs,
            pfail: 1e-4,
            target_p: 1e-15,
            trace: 0,
        })
        .expect("batch");
    let Response::Batch { rows, .. } = response else {
        panic!("expected a batch response, got {response:?}");
    };
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].name, "bs");
    assert_eq!(rows[1].name, "fibcall");
    // The duplicate inside the batch serializes behind the first copy on
    // its shard and is answered from the memory tier.
    assert_eq!(rows[2].served_from, ReuseTier::Memory);
    assert_eq!(rows[2].pwcet_none, rows[0].pwcet_none);

    // A pfail sweep over an already-analyzed program reuses its context.
    let response = client
        .request(&Request::SweepPfail {
            program: bench("bs"),
            pfails: vec![1e-5, 1e-4, 1e-3],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("sweep");
    let Response::PfailSweep {
        served_from, rows, ..
    } = response
    else {
        panic!("expected a pfail sweep, got {response:?}");
    };
    assert_eq!(served_from, ReuseTier::Memory);
    assert_eq!(rows.len(), 3);
    assert!(
        rows[0].pwcet_none <= rows[2].pwcet_none,
        "pWCET grows with pfail"
    );

    // A geometry sweep derives narrower points from the widest.
    let response = client
        .request(&Request::SweepGeometry {
            program: bench("bs"),
            sets: 16,
            block_bytes: 16,
            way_counts: vec![4, 2, 1],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("geometry sweep");
    let Response::GeometrySweep { rows, .. } = response else {
        panic!("expected a geometry sweep, got {response:?}");
    };
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].ways, 4, "widest first");
    assert!(
        rows[2].pwcet_none >= rows[0].pwcet_none,
        "fewer ways never shrink pWCET"
    );

    let plane_stats = server.reuse_plane().stats();
    assert!(
        plane_stats.derived >= 2,
        "narrow points are derived, not rebuilt"
    );
    server.shutdown();
}

#[test]
fn invalid_requests_are_refused_not_crashed() {
    let server = server_with(1, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A program with no main does not build.
    let bad = Program::new("nomain").with_function("helper", stmt::compute(4));
    let response = client.analyze(bad, 1e-4, 1e-15).expect("transport ok");
    let Response::Error { code, .. } = response else {
        panic!("expected a refusal, got {response:?}");
    };
    assert_eq!(code, ErrorCode::InvalidRequest);

    // Out-of-range probabilities.
    let response = client
        .analyze(bench("bs"), 2.0, 1e-15)
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));
    let response = client
        .analyze(bench("bs"), 1e-4, 0.0)
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));

    // An empty sweep and a non-power-of-two set count.
    let response = client
        .request(&Request::SweepPfail {
            program: bench("bs"),
            pfails: vec![],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));
    let response = client
        .request(&Request::SweepGeometry {
            program: bench("bs"),
            sets: 15,
            block_bytes: 16,
            way_counts: vec![4],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));

    // The connection survived every refusal; a valid request still works.
    let (row, _) = analyze(&mut client, bench("bs"));
    assert_eq!(row.served_from, ReuseTier::Cold);
    server.shutdown();
}

#[test]
fn full_shard_queue_answers_overloaded() {
    // One shard, queue capacity 1, and a burst of six concurrent heavy
    // requests: at most one runs and one queues, so at least one client
    // must be told to back off — and every client gets *some* answer.
    let server = server_with(1, 1);
    let addr = server.local_addr();
    let programs = ["adpcm", "compress", "edn", "ndes", "statemate", "ud"];
    let outcomes: Vec<Response> = thread::scope(|scope| {
        let handles: Vec<_> = programs
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .analyze(bench(name), 1e-4, 1e-15)
                        .expect("transport ok")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let overloaded = outcomes
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                }
            )
        })
        .count();
    let answered = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Analysis { .. }))
        .count();
    assert_eq!(overloaded + answered, programs.len(), "no request vanished");
    assert!(
        overloaded >= 1,
        "a 1-deep queue under a 6-burst must shed load"
    );
    assert!(answered >= 1, "the worker still made progress");

    let stats = server.shutdown();
    assert_eq!(stats.overloads as usize, overloaded);
}

#[test]
fn shutdown_drains_in_flight_work() {
    // Fire a heavy request, wait until the server has demonstrably
    // started on it (its context-cache miss is visible in the stats),
    // then ask for shutdown from another client: the in-flight request
    // must still get its real answer.
    let server = server_with(2, 16);
    let addr = server.local_addr();
    let worker = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .analyze(bench("nsichneu"), 1e-4, 1e-15)
            .expect("transport")
    });

    let mut controller = Client::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = server.stats();
        let memory_misses = server.reuse_plane().stats().memory.misses;
        if memory_misses > 0 || stats.queued > 0 || stats.served > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "request never started"
        );
        thread::sleep(std::time::Duration::from_millis(2));
    }
    controller.shutdown_server().expect("shutdown ack");

    match worker.join().expect("worker finished cleanly") {
        Response::Analysis { row, .. } => assert_eq!(row.name, "nsichneu"),
        other => panic!("in-flight request lost to shutdown: {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.queued, 0, "nothing left behind");
    assert!(stats.served >= 1);
}

#[test]
fn metrics_table_covers_legacy_stats_and_exact_quantiles() {
    let server = server_with(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Two traced requests: one cold, one warm — both feed the latency
    // and queue/service histograms.
    let trace = pwcet_obs::TraceId::mint();
    let response = client
        .analyze_traced(bench("fibcall"), 1e-4, 1e-15, trace.0)
        .expect("traced analyze");
    let Response::Analysis {
        micros,
        trace: echoed,
        stages,
        ..
    } = response
    else {
        panic!("expected an analysis response");
    };
    assert_eq!(echoed, trace.0);
    analyze(&mut client, bench("fibcall"));

    // For a single Analyze, the leaf stages plus queue wait are
    // disjoint slices of the request, so their sum is bounded by the
    // wall-clock latency; `service` is their parent, not a sibling.
    assert!(!stages.is_empty(), "cold analyze must report stages");
    let leaf_sum: u64 = stages
        .iter()
        .filter(|t| t.stage != pwcet_obs::Stage::Service)
        .map(|t| t.micros)
        .sum();
    assert!(
        leaf_sum <= micros,
        "stage sum {leaf_sum}us exceeds latency {micros}us: {stages:?}"
    );
    // The shard layer splits waiting from working.
    assert!(stages
        .iter()
        .any(|t| t.stage == pwcet_obs::Stage::QueueWait));
    assert!(stages.iter().any(|t| t.stage == pwcet_obs::Stage::Service));

    let table = client.metrics().expect("metrics verb");
    let names: BTreeMap<&str, u64> = table.iter().map(|(n, v)| (n.as_str(), *v)).collect();

    // The scrape over the wire carries every legacy stats name too.
    for legacy in LEGACY_STATS_NAMES {
        assert!(
            names.contains_key(legacy),
            "metrics table is missing legacy counter {legacy:?}"
        );
    }
    assert_eq!(names["served"], 2);

    // Histogram-backed instruments expose exact quantile rows, and two
    // requests really landed in them.
    for instrument in ["request_latency_us", "queue_wait_us", "service_us"] {
        for suffix in ["count", "sum", "mean", "p50", "p95", "p99", "max"] {
            assert!(
                names.contains_key(format!("{instrument}_{suffix}").as_str()),
                "missing histogram row {instrument}_{suffix}"
            );
        }
    }
    assert_eq!(names["request_latency_us_count"], 2);
    assert_eq!(names["queue_wait_us_count"], 2);
    assert_eq!(names["service_us_count"], 2);
    assert!(names["request_latency_us_p99"] >= names["request_latency_us_p50"]);
    assert!(names["request_latency_us_max"] >= names["request_latency_us_p99"]);

    server.shutdown();
}

#[test]
fn stats_expose_tier_hit_counts() {
    let server = server_with(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(server.stats().served, 0);
    analyze(&mut client, bench("fibcall"));
    analyze(&mut client, bench("fibcall"));
    let after = server.stats();
    assert_eq!(after.served, 2);
    assert_eq!(after.served_cold, 1);
    assert_eq!(after.served_memory, 1);
    assert!(server.reuse_plane().stats().memory.hits >= 1);
    assert_eq!(after.shards, 2);
    assert_eq!(after.queue_capacity, 8);
    assert!(after.connections >= 1);
    server.shutdown();
}

#[test]
fn metrics_table_keeps_every_legacy_stats_name() {
    let server = server_with(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(
        analyze(&mut client, bench("fibcall")).0.served_from,
        ReuseTier::Cold
    );
    assert_eq!(
        analyze(&mut client, bench("fibcall")).0.served_from,
        ReuseTier::Memory
    );

    let table: BTreeMap<String, u64> = server.metrics_table().into_iter().collect();
    for name in LEGACY_STATS_NAMES {
        assert!(
            table.contains_key(name),
            "metrics table is missing {name:?}"
        );
    }
    // Plane, solver, classifier and template rows come from their
    // owners' typed snapshots, not from a copy that could drift.
    let plane = server.reuse_plane();
    let reuse = plane.stats();
    let ilp = plane.ilp_stats();
    let kernel = plane.kernel_stats();
    let templates = plane.template_registry().counters();
    assert_eq!(table["memory_hits"], reuse.memory.hits);
    assert_eq!(table["cold_builds"], reuse.cold_builds);
    assert_eq!(table["ilp_pivots"], ilp.pivots);
    assert_eq!(table["classify_passes"], kernel.passes);
    assert_eq!(table["template_hits"], templates.template_hits);
    assert_eq!((reuse.memory.hits, reuse.cold_builds), (1, 1));
    assert!(ilp.pivots > 0 && kernel.passes > 0);
    server.shutdown();
}
