//! End-to-end benchmark of the ReSHAPE stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Four seeded workloads drive the framework through its public entry
//! points (see `WHY.md` beside this package for why each exists and which
//! layer metric should move which end-to-end metric):
//!
//! * `paper-mix` — the paper's application mix through `ClusterSim::run`;
//! * `scale-saturated` — `run_scale` with arrivals above capacity;
//! * `resize-cycle` — a block-cyclic matrix grown and shrunk on mpisim;
//! * `federation-churn` — a multi-tenant stream through the federation.
//!
//! With `--trace 0` the run measures with tracing off and prints the
//! end-to-end metrics; with `--trace 1` it first re-runs itself untraced in
//! a child process (tracing state is process-global), then runs traced and
//! prints the per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! the environment record, the output checks and each of the workload's own
//! metrics by name and unit.

mod env;
mod fedchurn;
mod out;
mod papermix;
mod resize;
mod scale;
mod spans;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use out::{Metric, Outcome};
use spans::Spans;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "paper-mix",
    "scale-saturated",
    "resize-cycle",
    "federation-churn",
];

/// Every per-layer metric a traced run prints, whichever workload runs: a
/// layer the workload does not exercise reports 0 (the prediction for it
/// is "no change").
const PER_LAYER: [(&str, &str); 27] = [
    ("clustersim.events", "count"),
    ("clustersim.ns_per_event", "ns"),
    ("core.peak_queue_depth", "count"),
    ("core.resizes", "count"),
    ("core.sched_events_dropped", "count"),
    ("core.trace_unaccounted_jobs", "count"),
    ("perfmodel.bytes_redistributed", "bytes"),
    ("mpisim.spawn_merge_s", "s"),
    ("mpisim.spawn_virtual_s", "s"),
    ("redist.plan_s", "s"),
    ("redist.exec_s.expand", "s"),
    ("redist.exec_s.shrink", "s"),
    ("redist.rank_skew_s", "s"),
    ("redist.bytes", "bytes"),
    ("redist.messages", "count"),
    ("redist.gb_per_s", "GB/s"),
    ("blockcyclic.fill_s", "s"),
    ("federation.transitions", "count"),
    ("federation.ns_per_event.p50", "ns"),
    ("federation.ns_per_event.tail", "ns"),
    ("federation.leases_granted", "count"),
    ("federation.leases_reclaimed", "count"),
    ("federation.router_queued", "count"),
    ("federation.shed", "count"),
    ("federation.recover_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(args: &Args, spans: &Arc<Spans>) -> Outcome {
    match args.workload.as_str() {
        "paper-mix" => papermix::run(args.seed, args.seconds, spans),
        "scale-saturated" => scale::run(args.seed, args.seconds, spans),
        "resize-cycle" => resize::run(args.seed, args.seconds, spans),
        "federation-churn" => fedchurn::run(args.seed, args.seconds, spans),
        _ => unreachable!("workload validated in parse_args"),
    }
}

/// Run the same workload untraced in a child process and return its
/// `items_per_s`: the denominator of `telemetry.overhead_ratio`. A child
/// keeps the measured run out of the process whose tracing is on.
fn untraced_items_per_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let child = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    if !child.status.success() {
        return Err(format!("untraced run failed ({}):\n{stdout}", child.status));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(out::ITEMS_LINE))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("untraced run printed no {:?} line", out::ITEMS_LINE))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let t_start = Instant::now();

    let mut untraced = None;
    if args.trace {
        match untraced_items_per_s(&args) {
            Ok(v) => untraced = Some(v),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                return ExitCode::from(1);
            }
        }
        // Turn on the program's own telemetry and causal trace, so the
        // counters the layers already keep can be read back.
        reshape_telemetry::set_mode(reshape_telemetry::Mode::Json);
        reshape_telemetry::trace::set_enabled(true);
    }
    let spans = Arc::new(Spans::new(args.trace));
    let mut outcome = run_workload(&args, &spans);

    println!(
        "env {}",
        env::record(&args.workload, args.seed, &outcome.env)
    );
    for c in &outcome.checks {
        println!("{c}");
    }
    for m in &outcome.report {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let units = reshape_perfbase::summarize(&outcome.walls);
    println!("metric unit_wall_median_s {} s", units.median);
    println!("metric unit_wall_mad_s {} s", units.mad);
    println!("metric units {} count", units.samples);
    println!("{} {} 1/s", out::ITEMS_LINE, outcome.items_per_s());

    let metrics: Vec<Metric> = if args.trace {
        let untraced = untraced.expect("traced runs measure the untraced rate first");
        outcome.drain_program_spans();
        outcome.layer("telemetry.overhead_ratio", untraced / outcome.items_per_s());
        outcome.layer("telemetry.spans", outcome.program_spans as f64);
        match spans.write(&args.workload, args.seed) {
            Ok(path) => println!(
                "{} benchmark spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("e2ebench: writing the trace: {e}");
                return ExitCode::from(1);
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.layers.get(name).copied().unwrap_or(0.0);
                println!("layer {name} {value} {unit}");
                Metric::new(name, value, unit)
            })
            .collect()
    } else {
        outcome.end_to_end()
    };
    eprintln!(
        "e2ebench: {} seed {} done in {:.1} s",
        args.workload,
        args.seed,
        t_start.elapsed().as_secs_f64()
    );
    println!("{}", out::result_json(&outcome, &metrics));
    ExitCode::SUCCESS
}
