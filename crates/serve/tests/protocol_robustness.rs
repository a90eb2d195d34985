//! Protocol-robustness suite: every corruption class fired at a **live**
//! server must yield a clean error response or a connection close —
//! never a panic, a hang, or a poisoned server.
//!
//! Mirrors the corruption taxonomy of `crates/core/tests/reuse_plane.rs`
//! (the disk-tier frames of the same codec, `pwcet_core::frame`): truncation,
//! bad magic, version skew, checksum mismatch, oversized length prefix,
//! and mid-frame disconnect. After each abuse the server must still
//! answer a well-formed request on a fresh connection and shut down
//! gracefully at the end.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pwcet_serve::protocol::{
    self, ErrorCode, Request, Response, HEADER_LEN, MAGIC, MAX_PAYLOAD_BYTES, VERSION,
};
use pwcet_serve::{Client, Server, ServerConfig};

/// Generous guard so a regression shows up as a test failure, not a CI
/// timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn test_server() -> Server {
    let config = ServerConfig {
        shards: 2,
        queue_capacity: 8,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config).expect("ephemeral bind")
}

fn raw_connection(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    stream
}

/// Reads one response frame, if the server sends one before closing.
fn read_response(stream: &mut TcpStream) -> Option<Response> {
    match protocol::read_frame(stream) {
        Ok(Some(payload)) => Some(protocol::decode_response_payload(&payload).expect("response")),
        _ => None,
    }
}

fn expect_malformed_error(stream: &mut TcpStream, what: &str) {
    match read_response(stream) {
        Some(Response::Error { code, message, .. }) => {
            assert_eq!(code, ErrorCode::Malformed, "{what}: {message}");
        }
        other => panic!("{what}: expected a malformed-error response, got {other:?}"),
    }
    // The server closes after a protocol error: the next read is EOF.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap_or(0), 0, "{what}");
}

/// A valid header with attacker-chosen fields.
fn header(magic: [u8; 4], version: u32, len: u64, checksum: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The server answers a fresh well-formed request — the acid test that
/// earlier abuse poisoned nothing.
fn assert_still_serving(server: &Server) {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let table = client.metrics().expect("metrics after abuse");
    assert!(table
        .iter()
        .any(|(name, value)| name == "shards" && *value > 0));
}

#[test]
fn corruption_classes_degrade_cleanly() {
    let server = test_server();

    // --- bad magic -------------------------------------------------------
    {
        let mut stream = raw_connection(&server);
        stream
            .write_all(&header(*b"NOPE", VERSION, 4, 0))
            .expect("write");
        stream.write_all(&[0u8; 4]).expect("write");
        expect_malformed_error(&mut stream, "bad magic");
    }
    assert_still_serving(&server);

    // --- wrong version (a future one, and the retired previous one) ------
    // The frame is otherwise well-formed, so only the version gate can
    // refuse it.
    for version in [VERSION + 7, VERSION - 1] {
        let mut frame = protocol::encode_request(&Request::Metrics);
        frame[4..8].copy_from_slice(&version.to_le_bytes());
        let mut stream = raw_connection(&server);
        stream.write_all(&frame).expect("write");
        expect_malformed_error(&mut stream, &format!("wrong version {version}"));
        assert_still_serving(&server);
    }

    // --- oversized length prefix ----------------------------------------
    {
        let mut stream = raw_connection(&server);
        stream
            .write_all(&header(MAGIC, VERSION, MAX_PAYLOAD_BYTES + 1, 0))
            .expect("write");
        // No payload follows; the server must refuse from the header
        // alone instead of trying to allocate or read 16 MiB + 1.
        expect_malformed_error(&mut stream, "oversized length prefix");
    }
    assert_still_serving(&server);

    // --- checksum mismatch (payload bit flip) ----------------------------
    {
        let mut frame = protocol::encode_request(&Request::Metrics);
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        let mut stream = raw_connection(&server);
        stream.write_all(&frame).expect("write");
        expect_malformed_error(&mut stream, "checksum mismatch");
    }
    assert_still_serving(&server);

    // --- garbage payload (valid frame, unknown request tag) --------------
    // 0xEE was never a tag; 5 is the retired stats verb.
    for payload in [&[0xEEu8, 1, 2, 3][..], &[5u8][..]] {
        let sum = pwcet_core::fnv1a_checksum(payload);
        let mut stream = raw_connection(&server);
        stream
            .write_all(&header(MAGIC, VERSION, payload.len() as u64, sum))
            .expect("write");
        stream.write_all(payload).expect("write");
        expect_malformed_error(&mut stream, &format!("unknown tag {}", payload[0]));
        assert_still_serving(&server);
    }

    // --- truncated frame: header promises more than ever arrives ---------
    {
        let mut stream = raw_connection(&server);
        stream
            .write_all(&header(MAGIC, VERSION, 100, 0))
            .expect("write");
        stream.write_all(&[1u8; 10]).expect("write");
        // Close while the server still expects 90 bytes.
        drop(stream);
    }
    assert_still_serving(&server);

    // --- mid-header disconnect -------------------------------------------
    {
        let mut stream = raw_connection(&server);
        stream.write_all(&MAGIC[..2]).expect("write");
        drop(stream);
    }
    assert_still_serving(&server);

    // --- mid-frame disconnect of a previously valid stream ---------------
    {
        let frame = protocol::encode_request(&Request::Metrics);
        let mut stream = raw_connection(&server);
        // One complete request…
        stream.write_all(&frame).expect("write");
        assert!(matches!(
            read_response(&mut stream),
            Some(Response::Metrics { .. })
        ));
        // …then half a second one, then vanish.
        stream.write_all(&frame[..frame.len() / 2]).expect("write");
        drop(stream);
    }
    assert_still_serving(&server);

    // The abused server still drains and shuts down cleanly, counting
    // the protocol errors it answered.
    let stats = server.shutdown();
    assert!(
        stats.protocol_errors >= 5,
        "expected ≥ 5 counted protocol errors, got {}",
        stats.protocol_errors
    );
}

#[test]
fn half_frame_then_silence_does_not_pin_the_connection_forever() {
    // A client that starts a frame and stalls is cut off by the frame
    // deadline; shutdown is never blocked on it. We cannot wait out the
    // 30 s deadline in a unit test, but we can assert that shutdown with
    // a stalled half-frame connection completes promptly (the polled
    // reader aborts started frames once the server is draining).
    let server = test_server();
    let mut stream = raw_connection(&server);
    stream.write_all(&MAGIC).expect("write");
    stream.write_all(&VERSION.to_le_bytes()).expect("write");

    let started = std::time::Instant::now();
    let stats = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown must not wait for the stalled frame"
    );
    assert_eq!(stats.queued, 0);
    drop(stream);
}
