//! Liveness under misbehaving endpoints: a slow-loris client cannot pin
//! a connection thread past the frame deadline, and a client facing an
//! unresponsive server gets a timeout error instead of hanging.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use pwcet_serve::protocol::Request;
use pwcet_serve::{Client, ClientConfig, Server, ServerConfig, WireError};

/// A drip-feeding connection — one header byte per poll interval, so
/// every server-side `read` succeeds with `Ok(1)` — must still be cut
/// off close to the frame deadline. Before the fix the deadline was only
/// checked when a poll *timed out*, which a dripper never lets happen.
#[test]
fn drip_fed_half_frame_is_cut_off_near_the_deadline() {
    let deadline = Duration::from_millis(400);
    let config = ServerConfig {
        poll: Duration::from_millis(10),
        frame_deadline: deadline,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("ephemeral bind");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    // Valid-looking frame start ("PWCQ"…), fed one byte at a time and
    // never completing the 24-byte header within the deadline.
    let header_start = *b"PWCQ";

    let started = Instant::now();
    let hard_stop = started + 10 * deadline;
    let mut dripped = 0usize;
    let cut_after = loop {
        assert!(
            Instant::now() < hard_stop,
            "server never cut the drip-fed connection (dripped {dripped} bytes)"
        );
        let byte = [header_start[dripped % header_start.len()]];
        if stream.write_all(&byte).is_err() {
            break started.elapsed();
        }
        dripped += 1;
        // Detect the server-side close promptly: a successful 0-byte
        // read is EOF; an error response frame also counts as the cut.
        let mut sink = [0u8; 256];
        match stream.read(&mut sink) {
            Ok(0) => break started.elapsed(),
            Ok(_) => break started.elapsed(),
            Err(_) => {} // poll timeout — keep dripping
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        cut_after <= 2 * deadline,
        "drip-fed connection survived {cut_after:?} (deadline {deadline:?})"
    );
    assert!(
        cut_after >= deadline / 2,
        "connection cut suspiciously early at {cut_after:?} (deadline {deadline:?})"
    );
    server.shutdown();
}

/// A server that accepts and then never answers must surface as
/// [`WireError::Timeout`] within the configured deadline, not hang the
/// client forever.
#[test]
fn client_request_against_a_silent_server_times_out() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr");
    let accept = std::thread::spawn(move || {
        // Hold the accepted connection open, read nothing, answer
        // nothing, until the client gives up and the socket drops.
        let (stream, _) = listener.accept().expect("accept");
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut sink = [0u8; 1024];
        while let Ok(n) = stream.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
    });

    let deadline = Duration::from_millis(250);
    let mut client =
        Client::connect_with(addr, ClientConfig::with_deadline(deadline)).expect("connect");
    let started = Instant::now();
    let result = client.request(&Request::Metrics);
    let elapsed = started.elapsed();
    assert!(
        matches!(result, Err(WireError::Timeout)),
        "expected a timeout error, got {result:?}"
    );
    assert!(
        elapsed < 10 * deadline,
        "timeout took {elapsed:?} with a {deadline:?} deadline"
    );
    drop(client);
    accept.join().expect("accept thread");
}

/// The timeout also applies to connecting: an address that does not
/// answer the handshake fails within the connect deadline. (An
/// unroutable TEST-NET address never SYN-ACKs; if some middlebox answers
/// it anyway the assertion still holds — any outcome within the bound
/// passes, a hang fails.)
#[test]
fn connect_respects_its_deadline() {
    let deadline = Duration::from_millis(300);
    let started = Instant::now();
    let result = Client::connect_with("192.0.2.1:7463", ClientConfig::with_deadline(deadline));
    let elapsed = started.elapsed();
    assert!(
        elapsed < 5 * deadline,
        "connect attempt took {elapsed:?} with a {deadline:?} deadline"
    );
    drop(result);
}
