//! `pwcet-obs`: the workspace's hand-rolled telemetry plane.
//!
//! Offline by construction — `std` and atomics only, no `tracing` /
//! `prometheus` / `tokio` — matching the rest of the workspace's
//! no-external-runtime discipline. Two halves:
//!
//! - [`span`]: RAII stage spans under client-minted, wire-propagated
//!   trace IDs, collected in a bounded ring with an optional JSONL
//!   sink. A request is explainable end to end: client → server shard
//!   (queue wait / service) → pipeline stages → fleet peer hop, all
//!   under one [`TraceId`].
//! - [`metrics`]: named atomic counters and log-bucketed latency
//!   histograms with lock-free recording and exact-from-buckets
//!   quantiles, rendered as a self-describing name→value table so new
//!   instruments never require protocol changes.

pub mod metrics;
pub mod span;

pub use metrics::{
    bucket_bounds, bucket_index, Counter, Histogram, HistogramSnapshot, MetricValue, Registry,
    RegistrySnapshot, NUM_BUCKETS, SUB_BITS,
};
pub use span::{
    current_trace, stage_span, trace_scope, SpanRecord, Stage, StageSpan, TraceId, Tracer,
    DEFAULT_RING_CAPACITY,
};
