//! Mutation fuzzing of `PWCQ` payloads, the wire-side twin of the `PWCX`
//! codec's `resealed_mutations_fail_or_decode_canonically`.
//!
//! One request and one response of every variant — the peer frames
//! (`FetchEntry`, `OfferEntry`, `Entry`, `OfferAck`) included — are
//! encoded; every truncation and every byte XOR 0x01, 0x80 or 0xff of
//! each payload is re-sealed under a valid header, so the mutation
//! reaches the structural decoder, and decoded. No decode may panic or
//! make an allocation larger than a fixed multiple of its frame. Each
//! must refuse the bytes with a `FrameError`, or yield a message that
//! re-encodes to the mutated frame byte for byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use pwcet_core::frame::FrameError;
use pwcet_core::ReuseTier;
use pwcet_obs::Stage;
use pwcet_progen::{stmt, Program};
use pwcet_serve::protocol::{self, HEADER_LEN, PWCQ};
use pwcet_serve::{AnalysisRow, ErrorCode, GeometryRow, PfailRow, Request, Response, StageTiming};

/// The largest single allocation a decode may make, per byte of its
/// frame. Every decoded element takes at least one payload byte and
/// occupies a few dozen bytes in memory, so a guarded decoder stays
/// below (these frames reach about 2.4); a length taken from the bytes
/// unguarded asks for up to 2^64.
const ALLOCATION_PER_FRAME_BYTE: usize = 64;

thread_local! {
    /// The largest allocation this thread asked for since it was reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct Recording;

fn record(size: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `record` only reads the requested size and
// never allocates (the thread-local is const-initialized and has no
// destructor).
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees for `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

fn program() -> Program {
    Program::new("fuzz")
        .with_function(
            "main",
            stmt::seq([
                stmt::compute(8),
                stmt::loop_(40, stmt::if_else(stmt::compute(4), stmt::call("leaf"))),
            ]),
        )
        .with_function("leaf", stmt::compute(12))
}

fn requests() -> Vec<Request> {
    vec![
        Request::Analyze {
            program: program(),
            pfail: 1e-4,
            target_p: 1e-15,
            trace: 0x1234_5678_9abc_def0,
        },
        Request::Batch {
            programs: vec![program(), Program::new("empty")],
            pfail: 1e-5,
            target_p: 1e-12,
            trace: 7,
        },
        Request::SweepPfail {
            program: program(),
            pfails: vec![1e-6, 1e-3],
            target_p: 1e-15,
            trace: 3,
        },
        Request::SweepGeometry {
            program: program(),
            sets: 16,
            block_bytes: 16,
            way_counts: vec![4, 2],
            target_p: 1e-15,
            trace: 4,
        },
        Request::Shutdown,
        Request::FetchEntry {
            key: 0xdead_beef_cafe_f00d,
            trace: 99,
        },
        Request::OfferEntry {
            key: 42,
            entry: b"PWCX\x05\x00\x00\x00entry".to_vec(),
        },
        Request::Metrics,
    ]
}

fn responses() -> Vec<Response> {
    let row = AnalysisRow {
        name: "crc".into(),
        fault_free_wcet: 1000,
        pwcet_none: 2000,
        pwcet_srb: 1500,
        pwcet_rw: 1100,
        served_from: ReuseTier::Memory,
    };
    let stages = vec![
        StageTiming {
            stage: Stage::QueueWait,
            micros: 12,
            count: 1,
        },
        StageTiming {
            stage: Stage::Convolve,
            micros: 9,
            count: 3,
        },
    ];
    vec![
        Response::Analysis {
            row: row.clone(),
            micros: 412,
            trace: 0xfeed_beef,
            stages: stages.clone(),
        },
        Response::Batch {
            rows: vec![row.clone(), row],
            micros: 999,
            trace: 0,
            stages: stages.clone(),
        },
        Response::PfailSweep {
            name: "crc".into(),
            served_from: ReuseTier::Disk,
            rows: vec![PfailRow {
                pfail: 1e-4,
                pwcet_none: 2000,
                pwcet_srb: 1500,
                pwcet_rw: 1100,
            }],
            micros: 10,
            trace: 3,
            stages: stages.clone(),
        },
        Response::GeometrySweep {
            name: "crc".into(),
            served_from: ReuseTier::Derived,
            rows: vec![GeometryRow {
                ways: 4,
                pwcet_none: 2000,
                pwcet_srb: 1500,
                pwcet_rw: 1100,
            }],
            micros: 10,
            trace: 4,
            stages,
        },
        Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
            retry_after_ms: Some(320),
        },
        Response::ShutdownStarted,
        Response::Entry {
            key: 0x0123_4567_89ab_cdef,
            entry: Some(vec![1, 2, 3, 4]),
        },
        Response::OfferAck { stored: true },
        Response::Metrics {
            entries: vec![("served".to_string(), 100), ("shards".to_string(), 2)],
        },
    ]
}

/// How the mutations of one message's frame were answered.
#[derive(Debug, Default)]
struct Outcomes {
    refused: usize,
    canonical: usize,
}

/// Decodes every resealed mutation of `frame`'s payload and checks each
/// answer.
fn fuzz<M: Debug>(
    frame: &[u8],
    decode: fn(&[u8]) -> Result<M, FrameError>,
    encode: fn(&M) -> Vec<u8>,
    outcomes: &mut Outcomes,
) {
    let payload = &frame[HEADER_LEN..];
    let mut check = |label: &str, mutated: &[u8]| {
        let sealed = PWCQ.seal(mutated);
        LARGEST.with(|largest| largest.set(0));
        let decoded = std::panic::catch_unwind(|| decode(&sealed))
            .unwrap_or_else(|_| panic!("{label}: the decoder panicked"));
        let largest = LARGEST.with(Cell::get);
        assert!(
            largest <= ALLOCATION_PER_FRAME_BYTE * sealed.len(),
            "{label}: a {}-byte frame allocated {largest} bytes at once",
            sealed.len()
        );
        match decoded {
            Err(_) => outcomes.refused += 1,
            Ok(message) => {
                assert_eq!(
                    encode(&message),
                    sealed,
                    "{label}: {message:?} must re-encode to its own bytes"
                );
                outcomes.canonical += 1;
            }
        }
    };
    check("unmutated", payload);
    for len in 0..payload.len() {
        check(&format!("truncated to {len}"), &payload[..len]);
    }
    let mut mutated = payload.to_vec();
    for pos in 0..payload.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            mutated[pos] ^= mask;
            check(&format!("byte {pos} ^ {mask:#04x}"), &mutated);
            mutated[pos] ^= mask;
        }
    }
}

#[test]
fn resealed_mutations_fail_or_decode_canonically() {
    let mut outcomes = Outcomes::default();
    let requests = requests();
    for request in &requests {
        let frame = protocol::encode_request(request);
        fuzz(
            &frame,
            protocol::decode_request,
            protocol::encode_request,
            &mut outcomes,
        );
    }
    let responses = responses();
    for response in &responses {
        let frame = protocol::encode_response(response);
        fuzz(
            &frame,
            protocol::decode_response,
            protocol::encode_response,
            &mut outcomes,
        );
    }
    let messages = requests.len() + responses.len();
    assert!(
        outcomes.canonical > messages,
        "some flips (scalars, tags) decode to another valid message: {outcomes:?}"
    );
    assert!(outcomes.refused > 0, "{outcomes:?}");
}
