//! `pwcet-serve` — the sharded analysis service front-end.
//!
//! A WCET tool at design stage is queried *interactively*: the same
//! programs are re-analyzed under varying fault models, geometries, and
//! protection levels, and turnaround time decides whether the tool gets
//! used at all. A one-shot CLI pays the cold fixpoints on every
//! invocation; this crate keeps one long-lived process warm instead:
//!
//! * a **wire protocol** ([`protocol`]) — length-prefixed, versioned,
//!   checksummed `PWCQ` frames carrying analysis, batch, sweep,
//!   metrics, and shutdown requests, with paranoid decoding that
//!   degrades every corruption class to a clean error response;
//! * a **sharded work queue** ([`shard`]) — requests hash by program
//!   content fingerprint onto single-worker shards with bounded queues
//!   and explicit overload responses, so duplicate work serializes (one
//!   cold fixpoint warms every queued duplicate) while distinct programs
//!   proceed concurrently;
//! * a **server** ([`server`]) over `std::net::TcpListener` — no async
//!   runtime, the thread model is hand-rolled the way `pwcet-par`
//!   hand-rolls parallelism — with all shards behind one shared
//!   [`ReusePlane`](pwcet_core::ReusePlane) (write-through persistence:
//!   a restarted server answers from the disk tier) and graceful,
//!   draining shutdown;
//! * a **client** ([`client`] and the `pwcet-client` binary) to submit
//!   the benchmark suite or exported request files and report per-request
//!   tier provenance (`served_from`) and latency percentiles, with every
//!   phase of a request bounded by [`ClientConfig`] deadlines;
//! * a **fleet layer** ([`peer`]) — a consistent-hash [`PeerRing`] over
//!   the configured membership makes every context key's entry fetchable
//!   from its owner node (`FetchEntry`/`OfferEntry` verbs), so a fleet
//!   of servers shares one warm store with no shared filesystem; the
//!   reuse plane consumes it as its *network* tier between the derived
//!   tier and a cold build.
//!
//! # Example
//!
//! ```
//! use pwcet_serve::{Client, Request, Response, Server, ServerConfig};
//! use pwcet_progen::{stmt, Program};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let program = Program::new("demo").with_function("main", stmt::loop_(10, stmt::compute(8)));
//! let first = client.analyze(program.clone(), 1e-4, 1e-15);
//! let second = client.analyze(program, 1e-4, 1e-15);
//! if let (Ok(Response::Analysis { row: a, .. }), Ok(Response::Analysis { row: b, .. })) =
//!     (first, second)
//! {
//!     assert_eq!(a.pwcet_none, b.pwcet_none); // bit-identical, served warm
//! }
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
mod compile_memo;
pub mod peer;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{Client, ClientConfig, FleetClient, RetryPolicy, RetryStats};
pub use peer::{FleetConfig, PeerFleet, PeerRing};
pub use protocol::{
    AnalysisRow, ErrorCode, GeometryRow, PfailRow, Request, Response, ServedFrom, StageTiming,
    WireError,
};
pub use server::{Server, ServerConfig, ServiceStats, FRAME_DEADLINE};
pub use shard::{ShardPool, SubmitError};
