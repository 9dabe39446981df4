//! `perfbase` — record and gate the repo's performance trajectory.
//!
//! ```text
//! perfbase run     [--quick] [--areas a,b] [--out DIR] [--seed N] [--samples N] [--warmup N]
//! perfbase compare [--quick] [--areas a,b] [--baseline DIR] [--seed N]
//! perfbase list
//! ```
//!
//! `run` executes the seeded benchmark suites and writes one
//! `BENCH_<area>.json` per area (default: the repo root, where the
//! baselines are committed). `compare` re-runs the suites, diffs against
//! the committed baselines with per-metric noise thresholds, prints the
//! regression table, and exits 1 when a significant slowdown survives the
//! MAD overlap check — the CI soft gate. A baseline recorded under the
//! other profile (quick vs full) is refused with exit 1 before any suite
//! runs.

use std::path::PathBuf;
use std::process::ExitCode;

use reshape_perfbase::{
    compare, render_table, run_area, BenchReport, CompareReport, SuiteOpts, AREAS,
};

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbase <run|compare|list> [--quick] [--areas a,b,...] [--out DIR] \
         [--baseline DIR] [--seed N] [--samples N] [--warmup N]\n\
         areas: {}",
        AREAS.join(", ")
    );
    ExitCode::from(2)
}

fn selected_areas(args: &[String]) -> Result<Vec<&'static str>, String> {
    let Some(spec) = opt_value(args, "--areas") else {
        return Ok(AREAS.to_vec());
    };
    let mut out = Vec::new();
    for want in spec.split(',').filter(|s| !s.is_empty()) {
        match AREAS.iter().find(|a| **a == want) {
            Some(a) => out.push(*a),
            None => return Err(format!("unknown area `{want}` (known: {})", AREAS.join(", "))),
        }
    }
    if out.is_empty() {
        return Err("--areas selected nothing".into());
    }
    Ok(out)
}

fn suite_opts(args: &[String]) -> SuiteOpts {
    let mut opts = SuiteOpts { quick: flag(args, "--quick"), ..SuiteOpts::default() };
    if let Some(seed) = opt_value(args, "--seed").and_then(|s| s.parse().ok()) {
        opts.seed = seed;
    }
    if let Some(n) = opt_value(args, "--samples").and_then(|s| s.parse().ok()) {
        opts.samples = n;
    }
    if let Some(n) = opt_value(args, "--warmup").and_then(|s| s.parse().ok()) {
        opts.warmup = n;
    }
    opts
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let areas = match selected_areas(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbase: {e}");
            return ExitCode::from(2);
        }
    };
    match cmd {
        "list" => {
            for a in AREAS {
                println!("{a}");
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let opts = suite_opts(&args);
            let out_dir = opt_value(&args, "--out").map(PathBuf::from).or_else(reshape_perfbase::repo_root);
            let Some(out_dir) = out_dir else {
                eprintln!("perfbase: cannot locate the repo root — pass --out DIR");
                return ExitCode::FAILURE;
            };
            if let Err(e) = std::fs::create_dir_all(&out_dir) {
                eprintln!("perfbase: cannot create {}: {e}", out_dir.display());
                return ExitCode::FAILURE;
            }
            for area in areas {
                eprintln!("perfbase: running area `{area}` ({})", profile_name(opts.quick));
                let report = run_area(area, opts);
                match report.write(&out_dir) {
                    Ok(path) => println!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("perfbase: cannot write {area}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "compare" => {
            let opts = suite_opts(&args);
            let base_dir = opt_value(&args, "--baseline").map(PathBuf::from).or_else(reshape_perfbase::repo_root);
            let Some(base_dir) = base_dir else {
                eprintln!("perfbase: cannot locate the repo root — pass --baseline DIR");
                return ExitCode::FAILURE;
            };
            let mut combined = CompareReport::default();
            let mut baselines = Vec::new();
            for area in areas {
                let base_path = base_dir.join(BenchReport::file_name(area));
                match BenchReport::load(&base_path) {
                    Ok(b) => baselines.push(b),
                    Err(e) => combined
                        .notes
                        .push(format!("area {area}: no usable baseline ({e}) — skipped")),
                }
            }
            // Quick and full profiles run different input sizes; refuse
            // before running anything rather than print false verdicts.
            let profile = profile_name(opts.quick);
            if let Some(b) = baselines.iter().find(|b| b.env.profile != profile) {
                eprintln!(
                    "perfbase: profile mismatch — baseline {} was recorded with profile `{}`, \
                     this run uses `{profile}`; rerun with the matching profile \
                     (--quick for quick baselines)",
                    BenchReport::file_name(&b.area),
                    b.env.profile
                );
                return ExitCode::FAILURE;
            }
            for baseline in baselines {
                eprintln!("perfbase: comparing area `{}` ({profile})", baseline.area);
                let current = run_area(&baseline.area, opts);
                combined.extend(compare(&baseline, &current));
            }
            print!("{}", render_table(&combined));
            if combined.has_regressions() {
                eprintln!("perfbase: FAIL — {} significant regression(s)", combined.regressions().count());
                ExitCode::FAILURE
            } else {
                eprintln!("perfbase: OK — no significant regressions");
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}

fn profile_name(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}
