//! Blocking client for the analysis service, plus the resilient
//! multi-endpoint [`FleetClient`] built on top of it.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pwcet_core::frame::FrameError;
use pwcet_progen::Program;

use crate::protocol::{self, ErrorCode, Request, Response, WireError};
use crate::server::FRAME_DEADLINE;

/// Socket deadlines of a [`Client`]. Every phase of a request — connect,
/// write, read — is bounded, so a hung or unreachable server surfaces as
/// [`WireError::Timeout`] instead of blocking the caller forever. The
/// defaults mirror the server's own [`FRAME_DEADLINE`], so neither side
/// outwaits the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection (per resolved address).
    pub connect_timeout: Duration,
    /// Bound on any single read while waiting for a response frame.
    pub read_timeout: Duration,
    /// Bound on any single write of a request frame.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self::with_deadline(FRAME_DEADLINE)
    }
}

impl ClientConfig {
    /// One deadline for all three phases — the common case; the peer
    /// layer uses a short one so a dead node costs milliseconds, not the
    /// full frame deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            connect_timeout: deadline,
            read_timeout: deadline,
            write_timeout: deadline,
        }
    }
}

/// Maps a socket error to [`WireError::Timeout`] when it is a deadline
/// expiry (`WouldBlock` on Unix `SO_RCVTIMEO`/`SO_SNDTIMEO`, `TimedOut`
/// elsewhere), to [`WireError::Io`] otherwise.
fn classify_io(e: io::Error) -> WireError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => WireError::Timeout,
        _ => WireError::Io(e),
    }
}

fn classify_wire(e: WireError) -> WireError {
    match e {
        WireError::Io(io) => classify_io(io),
        other => other,
    }
}

/// One connection to a `pwcet-serve` instance. Requests are synchronous:
/// one frame out, one frame back.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server with the [default
    /// deadlines](ClientConfig::default).
    ///
    /// # Errors
    ///
    /// Propagates the socket error (a timeout surfaces as
    /// `TimedOut`/`WouldBlock`).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit deadlines. Tries every resolved address
    /// with the configured connect timeout and returns the last error
    /// when none accepts.
    ///
    /// # Errors
    ///
    /// Propagates the socket error.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Self> {
        let mut last_err = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(config.read_timeout))?;
                    stream.set_write_timeout(Some(config.write_timeout))?;
                    return Ok(Self { stream });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Sends one request and blocks for its response, bounded by the
    /// configured deadlines.
    ///
    /// # Errors
    ///
    /// [`WireError::Timeout`] when the server does not answer (or accept
    /// the request) within the deadline, [`WireError::Io`] when the
    /// connection fails (including the server closing it after a
    /// protocol error), [`WireError::Protocol`] when the response frame
    /// itself is corrupt.
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        protocol::write_frame(&mut self.stream, &protocol::encode_request(request))
            .map_err(classify_io)?;
        match protocol::read_frame(&mut self.stream).map_err(classify_wire)? {
            Some(payload) => Ok(protocol::decode_response_payload(&payload)?),
            None => Err(WireError::Protocol(FrameError::Truncated)),
        }
    }

    /// Analyzes one program under the server's configuration, untraced.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request).
    pub fn analyze(
        &mut self,
        program: Program,
        pfail: f64,
        target_p: f64,
    ) -> Result<Response, WireError> {
        self.analyze_traced(program, pfail, target_p, 0)
    }

    /// Analyzes one program under a client-minted trace ID (0 =
    /// untraced): the server's response echoes the ID alongside its
    /// per-stage timing breakdown, and every span the request causes —
    /// locally and on fleet peers it fetches from — is recorded under
    /// it.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request).
    pub fn analyze_traced(
        &mut self,
        program: Program,
        pfail: f64,
        target_p: f64,
        trace: u64,
    ) -> Result<Response, WireError> {
        self.request(&Request::Analyze {
            program,
            pfail,
            target_p,
            trace,
        })
    }

    /// Fetches the serialized reuse-plane entry for `key` from this node
    /// (the fleet's network-tier verb), propagating the requester's
    /// trace ID (0 = untraced) so the serving node's `peer_serve` span
    /// lands under the same trace. `Ok(None)` is an authoritative miss.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request); also [`WireError::Protocol`]
    /// when the server answers something other than an entry for `key`.
    pub fn fetch_entry(&mut self, key: u64, trace: u64) -> Result<Option<Vec<u8>>, WireError> {
        match self.request(&Request::FetchEntry { key, trace })? {
            Response::Entry { key: echoed, entry } if echoed == key => Ok(entry),
            _ => Err(WireError::Protocol(FrameError::Malformed(
                "expected an entry response for the requested key",
            ))),
        }
    }

    /// Offers a serialized entry to this node (the key's ring owner).
    /// Returns whether the node stored it.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request); also [`WireError::Protocol`]
    /// when the server answers something other than an offer ack.
    pub fn offer_entry(&mut self, key: u64, entry: &[u8]) -> Result<bool, WireError> {
        match self.request(&Request::OfferEntry {
            key,
            entry: entry.to_vec(),
        })? {
            Response::OfferAck { stored } => Ok(stored),
            _ => Err(WireError::Protocol(FrameError::Malformed(
                "expected an offer acknowledgement",
            ))),
        }
    }

    /// Fetches the full self-describing metrics table: every counter
    /// and gauge by its stable name, histograms expanded to exact
    /// `_count/_sum/_mean/_p50/_p95/_p99/_max` rows.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request); also
    /// [`WireError::Protocol`] when the server answers something other
    /// than a metrics table.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>, WireError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { entries } => Ok(entries),
            _ => Err(WireError::Protocol(FrameError::Malformed(
                "expected a metrics response",
            ))),
        }
    }

    /// Asks the server to drain and exit. The connection is closed by
    /// the server after the acknowledgement.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request).
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Shutdown)? {
            Response::ShutdownStarted => Ok(()),
            _ => Err(WireError::Protocol(FrameError::Malformed(
                "expected a shutdown acknowledgement",
            ))),
        }
    }
}

/// Retry tuning for a [`FleetClient`]: how many total attempts a request
/// gets and how the backoff between them grows. Backoff doubles per
/// attempt from `base_backoff` up to `max_backoff`, jittered
/// deterministically from `seed` (splitmix64 — no global RNG state, so
/// two clients built with the same seed sleep the same schedule).
///
/// An `Overloaded` refusal that carries the server's `retry_after_ms`
/// hint overrides the computed backoff (still capped at `max_backoff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per idempotent request (1 = no retries).
    pub max_attempts: u32,
    /// First backoff step; doubles per subsequent attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling, also applied to server `retry_after_ms` hints.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x7077_6371, // "pwcq"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — every request gets one attempt.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }
}

/// The splitmix64 output mixer, used for backoff jitter. Local copy so
/// the client carries no dependency on the chaos crate.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Attempt accounting for one [`FleetClient`] (monotonic over its
/// lifetime, across all requests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Request attempts sent (first tries included).
    pub attempts: u64,
    /// Attempts beyond the first (retries after overload, wire damage,
    /// or transport failure).
    pub retries: u64,
    /// Retries that moved to a different endpoint.
    pub failovers: u64,
}

/// A resilient front over one *or more* `pwcet-serve` endpoints.
///
/// Idempotent requests (everything except [`Request::Shutdown`] — the
/// service's analysis verbs are pure functions of their request) are
/// retried under the [`RetryPolicy`]:
///
/// * **Transport failure** (connect refusal, timeout, reset): the client
///   fails over to the next endpoint in the list and retries there.
/// * **`Overloaded` refusal**: the client honors the server's
///   `retry_after_ms` hint (capped at the policy's `max_backoff`) and
///   retries the *same* endpoint — that is where the queue it is waiting
///   on drains, and where the reuse plane is warm.
/// * **`ShuttingDown` refusal**: treated like a transport failure — the
///   endpoint is going away, try the next one.
/// * **`Malformed` refusal**: the client framed the request bytes
///   itself, so a decode refusal means the frame was damaged in flight;
///   the connection is dropped and the request retried fresh.
///
/// `Shutdown` is never retried or failed over (it would drain a second,
/// healthy server). Non-retryable refusals (`InvalidRequest`,
/// `Analysis`) return immediately — repeating them cannot help.
pub struct FleetClient {
    endpoints: Vec<String>,
    config: ClientConfig,
    policy: RetryPolicy,
    current: usize,
    conn: Option<Client>,
    stats: RetryStats,
    jitter_calls: u64,
}

impl std::fmt::Debug for FleetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetClient")
            .field("endpoints", &self.endpoints)
            .field("current", &self.current)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FleetClient {
    /// A fleet client over `endpoints` with default deadlines and retry
    /// policy. Connections are dialed lazily on the first request.
    ///
    /// # Panics
    ///
    /// Panics when `endpoints` is empty — there is nothing to dial.
    pub fn new(endpoints: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Self::with(endpoints, ClientConfig::default(), RetryPolicy::default())
    }

    /// A fleet client with explicit deadlines and retry policy.
    ///
    /// # Panics
    ///
    /// Panics when `endpoints` is empty.
    pub fn with(
        endpoints: impl IntoIterator<Item = impl Into<String>>,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Self {
        let endpoints: Vec<String> = endpoints.into_iter().map(Into::into).collect();
        assert!(!endpoints.is_empty(), "a fleet client needs an endpoint");
        Self {
            endpoints,
            config,
            policy,
            current: 0,
            conn: None,
            stats: RetryStats::default(),
            jitter_calls: 0,
        }
    }

    /// The endpoint the next attempt will use.
    pub fn current_endpoint(&self) -> &str {
        &self.endpoints[self.current]
    }

    /// Attempt accounting since construction.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Everything except shutdown is safe to repeat: the analysis verbs
    /// are pure functions of the request, metrics reads are snapshots, and re-offering an entry the fleet already stored is a
    /// no-op by content key.
    fn is_idempotent(request: &Request) -> bool {
        !matches!(request, Request::Shutdown)
    }

    /// Exponential backoff for the gap *before* attempt `attempt + 1`,
    /// jittered into `[base/2, base]` so a thundering herd of retrying
    /// clients decorrelates. A server `retry_after_ms` hint replaces the
    /// computed delay (both are capped at the policy ceiling).
    fn backoff_delay(&mut self, attempt: u32, hint: Option<Duration>) -> Duration {
        if let Some(hint) = hint {
            return hint.min(self.policy.max_backoff);
        }
        let doubled = self
            .policy
            .base_backoff
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
            .min(self.policy.max_backoff);
        self.jitter_calls += 1;
        let roll = mix64(self.policy.seed.wrapping_add(self.jitter_calls));
        let nanos = doubled.as_nanos().min(u128::from(u64::MAX)) as u64;
        Duration::from_nanos(nanos / 2 + roll % (nanos / 2 + 1))
    }

    fn sleep_before_retry(&mut self, attempt: u32, hint: Option<Duration>) {
        let delay = self.backoff_delay(attempt, hint);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Rotates to the next endpoint after a transport-level failure.
    fn fail_over(&mut self) {
        self.conn = None;
        if self.endpoints.len() > 1 {
            self.current = (self.current + 1) % self.endpoints.len();
            self.stats.failovers += 1;
        }
    }

    /// One attempt on the current endpoint, dialing if needed. Any
    /// failure invalidates the cached connection.
    fn try_once(&mut self, request: &Request) -> Result<Response, WireError> {
        if self.conn.is_none() {
            let client = Client::connect_with(self.endpoints[self.current].as_str(), self.config)
                .map_err(WireError::Io)?;
            self.conn = Some(client);
        }
        let client = self.conn.as_mut().expect("connection just established");
        let result = client.request(request);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Sends one request with retry and failover per the policy; see the
    /// [type docs](Self) for the per-outcome handling.
    ///
    /// # Errors
    ///
    /// The last attempt's [`WireError`] when every attempt failed
    /// transport. Server *refusals* are `Ok(Response::Error { .. })`,
    /// returned once retries are exhausted (or immediately when the code
    /// is not retryable).
    pub fn request(&mut self, request: &Request) -> Result<Response, WireError> {
        let attempts = if Self::is_idempotent(request) {
            self.policy.max_attempts.max(1)
        } else {
            1
        };
        let mut outcome = Err(WireError::Timeout);
        for attempt in 0..attempts {
            self.stats.attempts += 1;
            if attempt > 0 {
                self.stats.retries += 1;
            }
            outcome = self.try_once(request);
            let last = attempt + 1 == attempts;
            match &outcome {
                Ok(Response::Error {
                    code: ErrorCode::Overloaded,
                    retry_after_ms,
                    ..
                }) if !last => {
                    let hint = retry_after_ms.map(Duration::from_millis);
                    self.sleep_before_retry(attempt, hint);
                }
                Ok(Response::Error {
                    code: ErrorCode::Malformed,
                    ..
                }) if !last => {
                    self.conn = None;
                    self.sleep_before_retry(attempt, None);
                }
                Ok(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    ..
                }) if !last => {
                    self.fail_over();
                    self.sleep_before_retry(attempt, None);
                }
                Ok(_) => return outcome,
                Err(_) if !last => {
                    self.fail_over();
                    self.sleep_before_retry(attempt, None);
                }
                Err(_) => {}
            }
        }
        outcome
    }

    /// Analyzes one program, traced (0 = untraced), with retry/failover.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request).
    pub fn analyze_traced(
        &mut self,
        program: Program,
        pfail: f64,
        target_p: f64,
        trace: u64,
    ) -> Result<Response, WireError> {
        self.request(&Request::Analyze {
            program,
            pfail,
            target_p,
            trace,
        })
    }

    /// Fetches the full metrics table with retry/failover.
    ///
    /// # Errors
    ///
    /// As for [`request`](Self::request); also [`WireError::Protocol`]
    /// when the server answers something other than a metrics table.
    pub fn metrics(&mut self) -> Result<Vec<(String, u64)>, WireError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { entries } => Ok(entries),
            _ => Err(WireError::Protocol(FrameError::Malformed(
                "expected a metrics response",
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let mut a = FleetClient::with(
            ["127.0.0.1:1"],
            ClientConfig::default(),
            RetryPolicy::default(),
        );
        let mut b = FleetClient::with(
            ["127.0.0.1:1"],
            ClientConfig::default(),
            RetryPolicy::default(),
        );
        for attempt in 0..8 {
            let da = a.backoff_delay(attempt, None);
            let db = b.backoff_delay(attempt, None);
            assert_eq!(da, db, "same seed, same schedule");
            assert!(da <= RetryPolicy::default().max_backoff);
        }
        let mut c = FleetClient::with(
            ["127.0.0.1:1"],
            ClientConfig::default(),
            RetryPolicy {
                seed: 99,
                ..RetryPolicy::default()
            },
        );
        let diverged = (0..8).any(|i| a.backoff_delay(i, None) != c.backoff_delay(i, None));
        assert!(diverged, "different seeds should jitter differently");
    }

    #[test]
    fn server_hint_overrides_backoff_but_respects_ceiling() {
        let mut client = FleetClient::with(
            ["127.0.0.1:1"],
            ClientConfig::default(),
            RetryPolicy::default(),
        );
        assert_eq!(
            client.backoff_delay(0, Some(Duration::from_millis(120))),
            Duration::from_millis(120)
        );
        assert_eq!(
            client.backoff_delay(0, Some(Duration::from_secs(3600))),
            RetryPolicy::default().max_backoff
        );
    }

    #[test]
    fn shutdown_is_not_idempotent() {
        assert!(!FleetClient::is_idempotent(&Request::Shutdown));
        assert!(FleetClient::is_idempotent(&Request::Metrics));
    }

    #[test]
    fn failover_rotates_endpoints() {
        let mut client = FleetClient::new(["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"]);
        assert_eq!(client.current_endpoint(), "127.0.0.1:1");
        client.fail_over();
        assert_eq!(client.current_endpoint(), "127.0.0.1:2");
        client.fail_over();
        client.fail_over();
        assert_eq!(client.current_endpoint(), "127.0.0.1:1");
        assert_eq!(client.retry_stats().failovers, 3);
    }

    #[test]
    fn single_endpoint_failover_stays_put_and_is_not_counted() {
        let mut client = FleetClient::new(["127.0.0.1:1"]);
        client.fail_over();
        assert_eq!(client.current_endpoint(), "127.0.0.1:1");
        assert_eq!(client.retry_stats().failovers, 0);
    }
}
