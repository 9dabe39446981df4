//! # reshape-perfbase — the performance-trajectory recorder
//!
//! The ROADMAP's scale-and-speed arc demands that every perf PR prove
//! itself against a recorded baseline. This crate is that proof machinery:
//!
//! * [`suites`] — deterministic, seeded benchmark suites covering the
//!   stack's hot paths: block-cyclic index math, schedule planning and
//!   pricing, pack/unpack, mpisim messaging and spawn/split, the
//!   `SchedulerCore` decision, WAL append/recover (micro), and redistribution
//!   end-to-end on mpisim, spawn latency, cluster-simulator sweeps, and
//!   the node-loss recovery round trip (macro);
//! * [`stats`] — warmup + median/MAD summaries with outlier rejection, so
//!   one preempted CI sample cannot flap the gate;
//! * [`report`] — the schema-versioned `BENCH_<area>.json` trajectory file
//!   (environment fingerprint + per-metric robust statistics), written at
//!   the repo root and **committed**, so speedups and regressions are
//!   visible across PRs;
//! * [`compare`] — the regression gate: diff a fresh run against the
//!   committed baselines with per-metric noise thresholds, print the
//!   delta table, exit nonzero on significant slowdowns;
//! * [`runner`] — the measurement loop plus a process-global sink
//!   (`PERFBASE_OUT=<dir>`) that lets every bench binary contribute its
//!   headline numbers to the same trajectory format instead of printing
//!   into the void.
//!
//! The driver lives in `reshape-bench` as `bin/perfbase`:
//!
//! ```text
//! cargo run --release -p reshape-bench --bin perfbase -- run --quick       # record BENCH_*.json
//! cargo run --release -p reshape-bench --bin perfbase -- compare --quick   # gate against baselines
//! ```
//!
//! Virtual-time metrics (the simulators are deterministic) are held to a
//! 2% drift; wall-clock metrics get generous thresholds because committed
//! baselines travel across machines. `PERFBASE_HANDICAP=metric=2.0`
//! artificially slows a metric at record time — the hook CI and the tests
//! use to prove the gate trips.

pub mod compare;
pub mod report;
pub mod runner;
pub mod stats;
pub mod suites;

pub use compare::{compare, render_table, CompareReport, MetricDelta, Verdict};
pub use report::{repo_root, BenchReport, EnvFingerprint, MetricKind, MetricRecord, SCHEMA_VERSION};
pub use runner::{flush_sink_env, flush_sink_to, sink_metric, Recorder};
pub use stats::{mad, median, summarize, Summary};
pub use suites::{run_area, SuiteOpts, AREAS};
