//! Property: `decode(encode(m)) == m` for every request and response
//! variant of the `PWCQ` protocol, over randomly generated programs,
//! sweeps, rows, and metrics tables — the wire format loses nothing and
//! invents nothing.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::BoxedStrategy;

use pwcet_core::ReuseTier;
use pwcet_obs::Stage;
use pwcet_progen::{stmt, Program, Stmt};
use pwcet_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, AnalysisRow, GeometryRow,
    PfailRow, Request, Response, ServedFrom, StageTiming,
};
use pwcet_serve::ErrorCode;

fn name_strategy() -> BoxedStrategy<String> {
    vec(0usize..26, 1..10)
        .prop_map(|letters| {
            letters
                .into_iter()
                .map(|l| (b'a' + l as u8) as char)
                .collect()
        })
        .boxed()
}

fn stmt_strategy(depth: u32) -> BoxedStrategy<Stmt> {
    if depth == 0 {
        prop_oneof![
            (1u32..200).prop_map(stmt::compute),
            name_strategy().prop_map(stmt::call),
        ]
        .boxed()
    } else {
        prop_oneof![
            (1u32..200).prop_map(stmt::compute),
            name_strategy().prop_map(stmt::call),
            (1u32..50, stmt_strategy(depth - 1)).prop_map(|(bound, body)| stmt::loop_(bound, body)),
            (stmt_strategy(depth - 1), stmt_strategy(depth - 1))
                .prop_map(|(a, b)| stmt::if_else(a, b)),
            vec(stmt_strategy(depth - 1), 0..4).prop_map(stmt::seq),
        ]
        .boxed()
    }
}

fn program_strategy() -> BoxedStrategy<Program> {
    (
        name_strategy(),
        vec((name_strategy(), stmt_strategy(3)), 1..4),
    )
        .prop_map(|(name, functions)| {
            let mut program = Program::new(name);
            for (fn_name, body) in functions {
                program = program.with_function(fn_name, body);
            }
            program
        })
        .boxed()
}

/// Finite, non-NaN probabilities (NaN breaks `==`, and the protocol
/// round-trips bit patterns, not semantics).
fn probability_strategy() -> BoxedStrategy<f64> {
    (1u64..=1_000_000)
        .prop_map(|n| n as f64 / 1_000_000.0)
        .boxed()
}

fn tier_strategy() -> BoxedStrategy<ServedFrom> {
    prop_oneof![
        Just(ReuseTier::Memory),
        Just(ReuseTier::Disk),
        Just(ReuseTier::Derived),
        Just(ReuseTier::Network),
        Just(ReuseTier::Cold),
    ]
    .boxed()
}

fn error_code_strategy() -> BoxedStrategy<ErrorCode> {
    prop_oneof![
        Just(ErrorCode::Malformed),
        Just(ErrorCode::InvalidRequest),
        Just(ErrorCode::Overloaded),
        Just(ErrorCode::Analysis),
        Just(ErrorCode::ShuttingDown),
    ]
    .boxed()
}

fn request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        (
            program_strategy(),
            probability_strategy(),
            probability_strategy(),
            any::<u64>()
        )
            .prop_map(|(program, pfail, target_p, trace)| Request::Analyze {
                program,
                pfail,
                target_p,
                trace,
            }),
        (
            vec(program_strategy(), 0..4),
            probability_strategy(),
            probability_strategy(),
            any::<u64>()
        )
            .prop_map(|(programs, pfail, target_p, trace)| Request::Batch {
                programs,
                pfail,
                target_p,
                trace,
            }),
        (
            program_strategy(),
            vec(probability_strategy(), 0..6),
            probability_strategy(),
            any::<u64>()
        )
            .prop_map(|(program, pfails, target_p, trace)| Request::SweepPfail {
                program,
                pfails,
                target_p,
                trace,
            }),
        (
            program_strategy(),
            (0u32..12).prop_map(|s| 1 << s),
            (2u32..10).prop_map(|b| 1 << b),
            vec(1u32..64, 0..5),
            probability_strategy(),
            any::<u64>()
        )
            .prop_map(
                |(program, sets, block_bytes, way_counts, target_p, trace)| {
                    Request::SweepGeometry {
                        program,
                        sets,
                        block_bytes,
                        way_counts,
                        target_p,
                        trace,
                    }
                }
            ),
        (any::<u64>(), any::<u64>()).prop_map(|(key, trace)| Request::FetchEntry { key, trace }),
        (any::<u64>(), vec(any::<u8>(), 0..512))
            .prop_map(|(key, entry)| Request::OfferEntry { key, entry }),
        Just(Request::Shutdown),
        Just(Request::Metrics),
    ]
    .boxed()
}

fn stage_strategy() -> BoxedStrategy<Stage> {
    prop_oneof![
        Just(Stage::CfgExpand),
        Just(Stage::Classify),
        Just(Stage::IlpSolve),
        Just(Stage::Convolve),
        Just(Stage::CodecDecode),
        Just(Stage::PeerFetch),
        Just(Stage::QueueWait),
        Just(Stage::Service),
        Just(Stage::PeerServe),
    ]
    .boxed()
}

fn stages_strategy() -> BoxedStrategy<Vec<StageTiming>> {
    vec(
        (stage_strategy(), any::<u64>(), any::<u32>()).prop_map(|(stage, micros, count)| {
            StageTiming {
                stage,
                micros,
                count,
            }
        }),
        0..6,
    )
    .boxed()
}

fn analysis_row_strategy() -> BoxedStrategy<AnalysisRow> {
    (
        name_strategy(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        tier_strategy(),
    )
        .prop_map(
            |(name, fault_free_wcet, pwcet_none, pwcet_srb, pwcet_rw, served_from)| AnalysisRow {
                name,
                fault_free_wcet,
                pwcet_none,
                pwcet_srb,
                pwcet_rw,
                served_from,
            },
        )
        .boxed()
}

fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            analysis_row_strategy(),
            any::<u64>(),
            any::<u64>(),
            stages_strategy()
        )
            .prop_map(|(row, micros, trace, stages)| Response::Analysis {
                row,
                micros,
                trace,
                stages,
            }),
        (
            vec(analysis_row_strategy(), 0..5),
            any::<u64>(),
            any::<u64>(),
            stages_strategy()
        )
            .prop_map(|(rows, micros, trace, stages)| Response::Batch {
                rows,
                micros,
                trace,
                stages,
            }),
        (
            name_strategy(),
            tier_strategy(),
            vec(
                (
                    probability_strategy(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>()
                )
                    .prop_map(|(pfail, pwcet_none, pwcet_srb, pwcet_rw)| {
                        PfailRow {
                            pfail,
                            pwcet_none,
                            pwcet_srb,
                            pwcet_rw,
                        }
                    }),
                0..6
            ),
            any::<u64>(),
            any::<u64>(),
            stages_strategy()
        )
            .prop_map(|(name, served_from, rows, micros, trace, stages)| {
                Response::PfailSweep {
                    name,
                    served_from,
                    rows,
                    micros,
                    trace,
                    stages,
                }
            }),
        (
            name_strategy(),
            tier_strategy(),
            vec(
                (1u32..64, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                    |(ways, pwcet_none, pwcet_srb, pwcet_rw)| GeometryRow {
                        ways,
                        pwcet_none,
                        pwcet_srb,
                        pwcet_rw,
                    }
                ),
                0..6
            ),
            any::<u64>(),
            any::<u64>(),
            stages_strategy()
        )
            .prop_map(|(name, served_from, rows, micros, trace, stages)| {
                Response::GeometrySweep {
                    name,
                    served_from,
                    rows,
                    micros,
                    trace,
                    stages,
                }
            }),
        vec((name_strategy(), any::<u64>()), 0..12)
            .prop_map(|entries| Response::Metrics { entries }),
        (any::<u64>(), proptest::option::of(vec(any::<u8>(), 0..512)))
            .prop_map(|(key, entry)| Response::Entry { key, entry }),
        any::<bool>().prop_map(|stored| Response::OfferAck { stored }),
        (
            error_code_strategy(),
            name_strategy(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(code, message, retry_after_ms)| Response::Error {
                code,
                message,
                retry_after_ms,
            }),
        Just(Response::ShutdownStarted),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn requests_round_trip(request in request_strategy()) {
        let bytes = encode_request(&request);
        prop_assert_eq!(decode_request(&bytes).unwrap(), request);
    }

    #[test]
    fn responses_round_trip(response in response_strategy()) {
        let bytes = encode_response(&response);
        prop_assert_eq!(decode_response(&bytes).unwrap(), response);
    }

    #[test]
    fn frames_declare_their_exact_length(request in request_strategy()) {
        let bytes = encode_request(&request);
        let declared = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        prop_assert_eq!(declared as usize, bytes.len() - pwcet_serve::protocol::HEADER_LEN);
    }
}
