//! The benchmark suites behind `bench perfbase`: one module per area, each
//! producing one `BENCH_<area>.json` report.
//!
//! Micro areas measure library hot paths under wall clock (block-cyclic
//! index math, schedule planning and pricing, pack/unpack, WAL
//! append/recover, mpisim messaging and communicator management, the
//! `SchedulerCore` decision); macro
//! areas run end-to-end scenarios whose headline numbers are *virtual*
//! seconds on the deterministic simulators (redistribution on mpisim, spawn
//! latency, cluster-simulator sweeps, recovery round trip) — those repeat
//! bit-exactly, so the regression gate can hold them to a 2% drift.

mod blockcyclic;
mod clustersim;
mod des;
mod federation;
mod fedtrace;
mod mpisim;
mod partition;
mod redist;
mod scheduler;
mod spawn;
mod wal;

use crate::report::{BenchReport, EnvFingerprint};
use crate::runner::Recorder;

/// Suite configuration shared by every area.
#[derive(Clone, Copy, Debug)]
pub struct SuiteOpts {
    /// CI-sized inputs (the committed baselines are recorded quick).
    pub quick: bool,
    /// Seed for the deterministic workload generators.
    pub seed: u64,
    /// Warmup iterations for wall-clock metrics.
    pub warmup: usize,
    /// Samples per metric.
    pub samples: usize,
}

impl Default for SuiteOpts {
    fn default() -> Self {
        SuiteOpts {
            quick: true,
            seed: 42,
            warmup: 2,
            samples: 7,
        }
    }
}

/// Every area, in run order.
pub const AREAS: [&str; 11] = [
    "blockcyclic",
    "redist",
    "mpisim",
    "core",
    "wal",
    "spawn",
    "clustersim",
    "des",
    "federation",
    "federation-partition",
    "federation-trace",
];

/// Run one area's suite.
///
/// # Panics
///
/// Panics on an unknown area (the driver validates names first).
pub fn run_area(area: &str, opts: SuiteOpts) -> BenchReport {
    let env = EnvFingerprint::capture(opts.seed, opts.quick);
    let mut rec = Recorder::new(area, env, opts.warmup, opts.samples);
    match area {
        "blockcyclic" => blockcyclic::run(&mut rec, opts),
        "redist" => redist::run(&mut rec, opts),
        "mpisim" => mpisim::run(&mut rec, opts),
        "core" => scheduler::run(&mut rec, opts),
        "wal" => wal::run(&mut rec, opts),
        "spawn" => spawn::run(&mut rec, opts),
        "clustersim" => clustersim::run(&mut rec, opts),
        "des" => des::run(&mut rec, opts),
        "federation" => federation::run(&mut rec, opts),
        "federation-partition" => partition::run(&mut rec, opts),
        "federation-trace" => fedtrace::run(&mut rec, opts),
        other => panic!("unknown perfbase area `{other}` (areas: {AREAS:?})"),
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole quick suite runs, every area yields metrics, and each
    /// area's rows are exactly the rows of its committed `BENCH_<area>.json`
    /// baseline — a row a suite adds or renames would otherwise never be
    /// compared. One test, smallest sizes — this is the smoke that keeps the
    /// suites compiling against the crates they measure.
    #[test]
    fn quick_suites_produce_metrics() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let opts = SuiteOpts {
            quick: true,
            seed: 7,
            warmup: 0,
            samples: 2,
        };
        for area in AREAS {
            let report = run_area(area, opts);
            assert_eq!(report.area, area);
            assert!(
                !report.metrics.is_empty(),
                "area {area} produced no metrics"
            );
            for (name, m) in &report.metrics {
                assert!(
                    m.summary.median.is_finite() && m.summary.median >= 0.0,
                    "{area}/{name}: median {:?}",
                    m.summary
                );
            }
            let baseline = BenchReport::load(&root.join(BenchReport::file_name(area)))
                .unwrap_or_else(|e| panic!("area {area}: no committed baseline: {e}"));
            assert!(
                report.metrics.keys().eq(baseline.metrics.keys()),
                "area {area}: suite rows {:?} != baseline rows {:?}",
                report.metrics.keys().collect::<Vec<_>>(),
                baseline.metrics.keys().collect::<Vec<_>>()
            );
        }
    }
}
