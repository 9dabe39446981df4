//! Area `core`: the `SchedulerCore` decision layer on its own, without a
//! simulator around it. `resize_point` is the call every running resizable
//! job makes once per iteration (profiler update plus the Remap Scheduler's
//! expand/shrink decision); submit + finish is one short job's whole life
//! under the backfill policy. Both are wall nanoseconds per operation.

use reshape_core::{JobSpec, ProcessorConfig, QueuePolicy, SchedulerCore, TopologyPref};

use crate::runner::Recorder;
use crate::suites::SuiteOpts;

pub fn run(rec: &mut Recorder, opts: SuiteOpts) {
    // One LU job alone on 64 processors, checking in at `points` resize
    // points from a fresh core each sample: the profiler scans the job's
    // iteration history at every point, so the per-op cost depends on how
    // long the job has run and a shared core would drift with the sample
    // count.
    let points: u64 = if opts.quick { 1_000 } else { 10_000 };
    rec.wall_per_op("resize_point_ns_per_op", points, || {
        let mut core = SchedulerCore::new(64, QueuePolicy::Fcfs);
        let spec = JobSpec::new(
            "LU",
            TopologyPref::Grid {
                problem_size: 12000,
            },
            ProcessorConfig::new(1, 2),
            1_000_000,
        );
        let (job, _) = core.submit(spec, 0.0);
        for i in 1..=points {
            std::hint::black_box(core.resize_point(job, 100.0, 0.0, i as f64));
        }
    });

    let ops: u64 = if opts.quick { 10_000 } else { 100_000 };
    let mut core = SchedulerCore::new(64, QueuePolicy::Backfill);
    let mut t = 0.0;
    rec.wall_per_op("submit_finish_ns_per_op", ops, || {
        for _ in 0..ops {
            t += 1.0;
            let spec = JobSpec::new(
                "J",
                TopologyPref::Grid { problem_size: 8000 },
                ProcessorConfig::new(2, 2),
                10,
            );
            let (id, _) = core.submit(spec, t);
            std::hint::black_box(core.on_finished(id, t + 0.5));
        }
    });
}
