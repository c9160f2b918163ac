//! `pqgram-perf`: the store benchmark — four workloads against a
//! `SegmentedIndexStore`, end-to-end metrics with bounds, per-layer
//! metrics, an outside-in trace. See `README.md` for the glossary and the
//! reasoning; `BENCHMARK.json` at the repository root declares the
//! command.
//!
//! ```text
//! perf --workload <name> --seed <u64> [--seconds <s>] [--trace [0|1]] [--smoke]
//!      [--out-dir <dir>] [--work-dir <dir>] [--commit <id>]
//! perf compare <dirA> <dirB>
//! perf glossary | benchmark-json
//! ```
//!
//! The last line of standard output of a run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric on an untraced run, every per-layer metric on a traced one.
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod cli;
pub mod compare;
pub mod corpus;
pub mod counting_vfs;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod trace;
pub mod workloads;
