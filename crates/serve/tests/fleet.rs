//! Two-node fleet tests: the network tier answers across nodes, offers
//! write back to the key's owner, and a poisoned peer entry degrades to
//! a counted cold rebuild — never a wrong answer.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pwcet_core::ReuseTier;
use pwcet_obs::{Stage, TraceId};
use pwcet_progen::{stmt, Program};
use pwcet_serve::protocol::{self, Request, Response};
use pwcet_serve::{AnalysisRow, Client, FleetConfig, Server, ServerConfig};

fn program() -> Program {
    Program::new("fleet-demo").with_function(
        "main",
        stmt::seq(vec![
            stmt::loop_(40, stmt::compute(16)),
            stmt::if_else(stmt::compute(9), stmt::loop_(12, stmt::compute(5))),
        ]),
    )
}

fn analyze(client: &mut Client, program: Program) -> AnalysisRow {
    match client
        .analyze(program, 1e-4, 1e-15)
        .expect("request succeeds")
    {
        Response::Analysis { row, .. } => row,
        other => panic!("expected an analysis response, got {other:?}"),
    }
}

/// Node B, configured with node A as a peer, answers the duplicate of a
/// program A already analyzed from its *network* tier — same rows, no
/// cold build on B.
#[test]
fn peer_answers_the_duplicate_from_the_network_tier() {
    let node_a = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind A");
    let mut client_a = Client::connect(node_a.local_addr()).expect("connect A");
    let cold_row = analyze(&mut client_a, program());
    assert_eq!(cold_row.served_from, ReuseTier::Cold);

    // B's membership names only A, so A owns every key and every local
    // miss on B is a fetch from A.
    let config_b = ServerConfig {
        fleet: Some(FleetConfig::new(
            "127.0.0.1:1", // placeholder self entry, never dialed
            [node_a.local_addr().to_string()],
        )),
        ..ServerConfig::default()
    };
    let node_b = Server::bind("127.0.0.1:0", config_b).expect("bind B");
    let mut client_b = Client::connect(node_b.local_addr()).expect("connect B");
    let fetched_row = analyze(&mut client_b, program());
    assert_eq!(fetched_row.served_from, ReuseTier::Network);
    assert_eq!(
        fetched_row,
        AnalysisRow {
            served_from: ReuseTier::Network,
            ..cold_row
        }
    );

    // B's table carries the fleet's transport counters: one fetch, from
    // A, answered with the entry.
    let table_b: BTreeMap<String, u64> = node_b.metrics_table().into_iter().collect();
    for name in [
        "fleet_fetch_hits",
        "fleet_fetch_misses",
        "fleet_fetch_errors",
        "fleet_offers_sent",
        "fleet_offers_failed",
        "fleet_offers_dropped",
    ] {
        assert!(table_b.contains_key(name), "node B's table lacks {name:?}");
    }
    assert_eq!(table_b["fleet_fetch_hits"], 1);
    assert_eq!(table_b["fleet_fetch_errors"], 0);

    let plane_b = Arc::clone(node_b.reuse_plane());
    let stats_b = node_b.shutdown();
    assert_eq!(stats_b.served_network, 1);
    assert_eq!(plane_b.stats().network_hits, 1);
    assert_eq!(plane_b.stats().cold_builds, 0, "B must not recompute");
    assert_eq!(stats_b.peers, 1);

    let stats_a = node_a.shutdown();
    assert_eq!(stats_a.peer_fetches_served, 1, "A served B's fetch");
}

/// One client-minted trace ID covers both sides of a peer-fetch hop:
/// the requesting node's ring holds the request's `peer_fetch` (and
/// pipeline) spans under the ID, and the *serving* node's ring holds a
/// `peer_serve` span under the very same ID — the wire carried it
/// across the fleet.
#[test]
fn one_trace_id_spans_both_nodes_of_a_peer_fetch() {
    let node_a = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind A");
    let mut client_a = Client::connect(node_a.local_addr()).expect("connect A");
    let cold_row = analyze(&mut client_a, program());
    assert_eq!(cold_row.served_from, ReuseTier::Cold);

    let config_b = ServerConfig {
        fleet: Some(FleetConfig::new(
            "127.0.0.1:1", // placeholder self entry, never dialed
            [node_a.local_addr().to_string()],
        )),
        ..ServerConfig::default()
    };
    let node_b = Server::bind("127.0.0.1:0", config_b).expect("bind B");
    let mut client_b = Client::connect(node_b.local_addr()).expect("connect B");

    let trace = TraceId::mint();
    let response = client_b
        .analyze_traced(program(), 1e-4, 1e-15, trace.0)
        .expect("traced analyze");
    let Response::Analysis {
        row,
        trace: echoed,
        stages,
        micros,
        ..
    } = response
    else {
        panic!("expected an analysis response");
    };
    assert_eq!(row.served_from, ReuseTier::Network);
    assert_eq!(echoed, trace.0, "the response echoes the minted trace");

    // The breakdown names the hop, and the leaf stages plus queue wait
    // are disjoint slices of the request, so their sum is bounded by
    // the wall-clock latency.
    assert!(
        stages.iter().any(|t| t.stage == Stage::PeerFetch),
        "breakdown must contain the peer fetch: {stages:?}"
    );
    let leaf_sum: u64 = stages
        .iter()
        .filter(|t| t.stage != Stage::Service)
        .map(|t| t.micros)
        .sum();
    assert!(
        leaf_sum <= micros,
        "disjoint stage sum {leaf_sum}us exceeds request latency {micros}us"
    );

    // Requesting side: pipeline spans under the minted trace.
    let ring_b = node_b.tracer().ring_snapshot();
    assert!(
        ring_b
            .iter()
            .any(|s| s.trace == trace && s.stage == Stage::PeerFetch),
        "B's ring must hold the peer_fetch span under the trace"
    );
    // Serving side: the same ID, carried in the FetchEntry frame.
    let ring_a = node_a.tracer().ring_snapshot();
    assert!(
        ring_a
            .iter()
            .any(|s| s.trace == trace && s.stage == Stage::PeerServe),
        "A's ring must hold a peer_serve span under the same trace"
    );

    node_b.shutdown();
    node_a.shutdown();
}

/// After a cold build, the owning peer receives the entry via the async
/// write-back offer and serves it from its own staged store.
#[test]
fn cold_build_offers_the_entry_back_to_the_owner() {
    // B is the owner (standalone); A runs the cold build and offers.
    let node_b = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind B");
    let config_a = ServerConfig {
        fleet: Some(FleetConfig::new(
            "127.0.0.1:1", // placeholder self entry, never dialed
            [node_b.local_addr().to_string()],
        )),
        ..ServerConfig::default()
    };
    let node_a = Server::bind("127.0.0.1:0", config_a).expect("bind A");

    let mut client_a = Client::connect(node_a.local_addr()).expect("connect A");
    let cold_row = analyze(&mut client_a, program());
    assert_eq!(cold_row.served_from, ReuseTier::Cold);

    // The offer travels on A's worker thread; poll B until it lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client_b = Client::connect(node_b.local_addr()).expect("connect B");
    loop {
        let stats = node_b.stats();
        if stats.peer_offers_stored >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "offer never reached the owner: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // B now answers the same program without a cold build, from the
    // entry the fleet pushed to it.
    let offered_row = analyze(&mut client_b, program());
    assert_eq!(offered_row.served_from, ReuseTier::Network);
    assert_eq!(
        offered_row,
        AnalysisRow {
            served_from: ReuseTier::Network,
            ..cold_row
        }
    );
    let plane_b = Arc::clone(node_b.reuse_plane());
    let stats_b = node_b.shutdown();
    assert_eq!(stats_b.peer_offers_stored, 1);
    assert_eq!(plane_b.stats().cold_builds, 0);
    node_a.shutdown();
}

/// A peer that answers fetches with garbage costs the requester time,
/// never correctness: the entry fails validation, is counted as corrupt,
/// and the request degrades to a counted cold rebuild with the same
/// rows a standalone node computes.
#[test]
fn poisoned_peer_entry_degrades_to_a_counted_cold_build() {
    // A fake peer speaking raw PWCQ: every fetch is answered with bytes
    // that are not a valid PWCX entry.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let fake_addr = listener.local_addr().expect("local addr");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poison_stop = std::sync::Arc::clone(&stop);
    let poison = std::thread::spawn(move || {
        while !poison_stop.load(std::sync::atomic::Ordering::Relaxed) {
            let Ok((mut stream, _)) = listener.accept() else {
                break;
            };
            while let Ok(Some(payload)) = protocol::read_frame(&mut stream) {
                let Ok(request) = protocol::decode_request_payload(&payload) else {
                    break;
                };
                let response = match request {
                    Request::FetchEntry { key, .. } => Response::Entry {
                        key,
                        entry: Some(b"definitely not a PWCX entry".to_vec()),
                    },
                    _ => Response::OfferAck { stored: false },
                };
                if protocol::write_frame(&mut stream, &protocol::encode_response(&response))
                    .is_err()
                {
                    break;
                }
                let _ = stream.flush();
            }
        }
    });

    let config = ServerConfig {
        fleet: Some(FleetConfig::new(
            "127.0.0.1:1", // placeholder self entry, never dialed
            [fake_addr.to_string()],
        )),
        ..ServerConfig::default()
    };
    let node = Server::bind("127.0.0.1:0", config).expect("bind node");
    let mut client = Client::connect(node.local_addr()).expect("connect");
    let row = analyze(&mut client, program());
    assert_eq!(row.served_from, ReuseTier::Cold, "poison must not serve");

    // Same numbers a standalone node computes for this program.
    let standalone = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind ref");
    let mut reference = Client::connect(standalone.local_addr()).expect("connect ref");
    let reference_row = analyze(&mut reference, program());
    assert_eq!(
        row,
        AnalysisRow {
            served_from: ReuseTier::Cold,
            ..reference_row
        }
    );
    standalone.shutdown();

    let stats = node.reuse_plane().stats();
    node.shutdown();
    assert_eq!(stats.cold_builds, 1);
    assert!(
        stats.network_corrupt >= 1,
        "corrupt fetch must be counted: {stats:?}"
    );
    assert_eq!(stats.network_hits, 0);
    // Unblock the fake peer's accept loop and join it.
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    drop(std::net::TcpStream::connect(fake_addr));
    poison.join().expect("fake peer thread");
}
