//! Fleet peer-fetch speedup gate.
//!
//! A node joining a fleet must answer a program some peer already
//! analyzed from its *network* tier: one `FetchEntry` round trip (TCP on
//! loopback, entry decode, CFG validation) instead of rerunning the
//! fixpoints and the per-(set, fault) ILP fan-out. The advantage is
//! algorithmic — microseconds of wire and decode versus milliseconds of
//! analysis — so, like the ILP and classification gates, it is enforced
//! on every runner regardless of core count, with the floor well below
//! the measured speedup so scheduler noise cannot flake it.
//!
//! `#[ignore]`d by default (wall-clock measurement); the main CI runs it
//! explicitly as the `fleet` smoke and the nightly job picks it up via
//! `--include-ignored`.

use std::time::Instant;

use pwcet_core::ReuseTier;
use pwcet_serve::{Client, FleetConfig, Response, Server, ServerConfig};

/// Deliberately the suite's heavier programs: the peer-fetch advantage
/// is the skipped fixpoint + ILP fan-out, so the gate measures where
/// that work dominates the fixed per-request pipeline cost (compile,
/// key, estimate math) both paths share. On the tiniest kernels the
/// shared cost compresses the ratio toward 1× no matter how fast the
/// fetch is.
const PROGRAMS: [&str; 4] = ["nsichneu", "statemate", "adpcm", "ndes"];
/// Enforced on all runners; the measured speedup is far above this.
const ENFORCED_FLEET_SPEEDUP: f64 = 2.0;

fn analyze(client: &mut Client, name: &str) -> (u64, ReuseTier) {
    let program = pwcet_benchsuite::by_name(name)
        .expect("benchmark exists")
        .program;
    let started = Instant::now();
    match client
        .analyze(program, 1e-4, 1e-15)
        .expect("request succeeds")
    {
        Response::Analysis { row, .. } => (started.elapsed().as_micros() as u64, row.served_from),
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
#[ignore = "wall-clock comparison; run by the CI fleet smoke and the nightly --include-ignored step"]
fn peer_fetch_meets_the_gate_on_all_runners() {
    // Single pass: a program builds cold only once per server.
    // Warm node: pays every cold build once.
    let warm_node = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind warm node");
    let mut warm_client = Client::connect(warm_node.local_addr()).expect("connect warm node");
    let mut cold_us = 0u64;
    for name in PROGRAMS {
        let (us, tier) = analyze(&mut warm_client, name);
        assert_eq!(tier, ReuseTier::Cold, "{name} should be a cold build");
        cold_us += us;
    }

    // Fleet node: the warm node is its only peer, so every request is
    // one FetchEntry round trip away from warm.
    let fleet_node = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: Some(FleetConfig::new(
                "127.0.0.1:1", // placeholder self entry, never dialed
                [warm_node.local_addr().to_string()],
            )),
            ..ServerConfig::default()
        },
    )
    .expect("bind fleet node");
    let mut fleet_client = Client::connect(fleet_node.local_addr()).expect("connect fleet node");
    let mut fetch_us = 0u64;
    for name in PROGRAMS {
        let (us, tier) = analyze(&mut fleet_client, name);
        assert_eq!(
            tier,
            ReuseTier::Network,
            "{name} must be served by the peer"
        );
        fetch_us += us;
    }
    drop(fleet_client);
    let fleet_stats = fleet_node.reuse_plane().stats();
    fleet_node.shutdown();
    assert_eq!(fleet_stats.cold_builds, 0, "the fleet node recomputed");
    warm_node.shutdown();

    let speedup = cold_us as f64 / (fetch_us as f64).max(1.0);
    println!(
        "{} programs: cold {cold_us} µs vs peer fetch {fetch_us} µs = {speedup:.2}x",
        PROGRAMS.len()
    );
    assert!(
        speedup >= ENFORCED_FLEET_SPEEDUP,
        "the peer-fetch speedup is algorithmic and must reach \
         {ENFORCED_FLEET_SPEEDUP}x on any runner (measured {speedup:.2}x)"
    );
}
