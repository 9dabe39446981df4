//! Area `des`: the discrete-event core. The event-queue micro tracks raw
//! push/pop throughput (the `O(log n)` heap every simulated transition
//! pays), and the macro metric is the scale sweep — thousands of nodes and
//! tens of thousands of jobs through `run_scale` in one process. Virtual
//! results (makespan, utilization, event count) are bit-deterministic for
//! a fixed seed, so the gate holds them to the 2%/0.1% drift bands; the
//! wall metrics are what the 10k-node CI smoke budget rests on. The
//! `scale_contended_*` rows rerun the sweep above capacity so the
//! scheduler queue fills and its handling is what they measure.

use reshape_clustersim::{run_scale, EventQueue, ScaleConfig, ScaleReport};

use crate::report::MetricKind;
use crate::runner::Recorder;
use crate::suites::SuiteOpts;

pub fn run(rec: &mut Recorder, opts: SuiteOpts) {
    // Event-queue churn: interleaved pushes and pops at a steady queue
    // depth, the access pattern of a live simulation (not sorted drain).
    let churn = if opts.quick { 20_000u64 } else { 200_000u64 };
    rec.wall_per_op("queue_churn_ns_per_op", churn * 2, || {
        let mut q = EventQueue::new();
        let mut clock = 0.0f64;
        for i in 0..churn {
            // A cheap seeded spread keeps the heap realistically unsorted.
            let jitter = (i.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64 / 1e4;
            q.push(clock + 1.0 + jitter, i);
            if i >= 64 {
                let (t, _) = q.pop().expect("queue holds events");
                clock = t;
            }
        }
        while let Some((_, p)) = q.pop() {
            std::hint::black_box(p);
        }
    });

    // The scale sweep: nodes and jobs far beyond the paper's 36–50-slot
    // experiments, single process, no per-rank threads.
    let cfg = if opts.quick {
        ScaleConfig::new(500, 5_000)
    } else {
        ScaleConfig::new(2_000, 50_000)
    }
    .with_seed(opts.seed);

    let (report, wall) = sweep(rec, "scale_makespan_virtual_s", &cfg);
    rec.single("scale_wall_s", "s", MetricKind::Wall, wall);
    rec.single(
        "scale_events",
        "ops",
        MetricKind::Count,
        report.events_processed as f64,
    );
    rec.single(
        "scale_events_per_sec",
        "ops/s",
        MetricKind::Wall,
        report.events_processed as f64 / wall.max(1e-9),
    );
    rec.higher_is_better("scale_events_per_sec");
    rec.single(
        "scale_utilization",
        "ratio",
        MetricKind::Virtual,
        report.utilization,
    );
    rec.higher_is_better("scale_utilization");
    rec.single(
        "scale_jobs_finished",
        "ops",
        MetricKind::Count,
        report.jobs_finished as f64,
    );
    rec.single(
        "scale_resizes",
        "ops",
        MetricKind::Count,
        (report.expansions + report.shrinks) as f64,
    );

    // The same sweep offered 1.5x the cluster's capacity, half the jobs
    // resizable: the queue fills thousands deep and the shrink-for-queued
    // rule fires, so these rows price `SchedulerCore` queue handling.
    let mut cfg = if opts.quick {
        ScaleConfig::new(500, 5_000)
    } else {
        ScaleConfig::new(2_000, 50_000)
    }
    .with_seed(opts.seed);
    cfg.target_utilization = 1.5;
    cfg.resizable_percent = 50;

    let (report, wall) = sweep(rec, "scale_contended_makespan_virtual_s", &cfg);
    rec.single(
        "scale_contended_peak_queue_depth",
        "jobs",
        MetricKind::Count,
        report.peak_queue_depth as f64,
    );
    rec.single(
        "scale_contended_events_per_sec",
        "ops/s",
        MetricKind::Wall,
        report.events_processed as f64 / wall.max(1e-9),
    );
    rec.higher_is_better("scale_contended_events_per_sec");
}

/// Record `cfg`'s virtual makespan under `name`, one `run_scale` per
/// sample; returns the last sample's report and the median wall time.
fn sweep(rec: &mut Recorder, name: &str, cfg: &ScaleConfig) -> (ScaleReport, f64) {
    let mut walls = Vec::new();
    let mut reports = Vec::new();
    rec.value(name, "s", MetricKind::Virtual, || {
        let report = run_scale(cfg);
        walls.push(report.wall_seconds);
        let makespan = report.makespan;
        reports.push(report);
        makespan
    });
    let report = reports.pop().expect("at least one sample ran");
    (report, crate::stats::median(&walls))
}
