//! Recorded snapshots of [`run_scale`] runs whose scheduler queue fills.
//!
//! `des_equivalence.rs` pins `ClusterSim::run`; this suite pins the scale
//! path at offered loads above capacity, where `SchedulerCore` holds
//! hundreds to thousands of queued jobs and the shrink-for-queued rule
//! fires. Each run is reduced to an FNV-1a digest of its virtual
//! [`ScaleReport`] fields (makespan and utilization bits, outcome counts,
//! resizes, peak queue depth, pruned records, events), committed at
//! `tests/snapshots/scale_results.txt`. The wall-clock fields are left out.
//!
//! To re-record after an *intentional* behaviour change:
//!
//! ```text
//! RESHAPE_BLESS=1 cargo test -p reshape-clustersim --test scale_snapshots
//! ```
//!
//! and commit the rewritten snapshot file (the bless run fails the suite
//! on purpose so a stale green is impossible).

use std::collections::BTreeMap;

use reshape_clustersim::{run_scale, ScaleConfig, ScaleReport, TieBreak};

const SNAPSHOT_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/snapshots/scale_results.txt"
);

/// FNV-1a over the report's virtual fields.
fn digest(r: &ScaleReport) -> String {
    let text = format!(
        "{:016x} {:016x} {} {} {} {} {} {} {} {}",
        r.makespan.to_bits(),
        r.utilization.to_bits(),
        r.jobs_finished,
        r.jobs_failed,
        r.jobs_cancelled,
        r.expansions,
        r.shrinks,
        r.peak_queue_depth,
        r.records_pruned,
        r.events_processed,
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn recorded() -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(SNAPSHOT_PATH)
        .unwrap_or_else(|e| panic!("cannot read {SNAPSHOT_PATH}: {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hash) = l.rsplit_once(' ').expect("snapshot line: <label> <digest>");
            (label.to_string(), hash.to_string())
        })
        .collect()
}

/// Every pinned config, in snapshot-file order: nodes {32, 64, 128} ×
/// offered load {1.5, 3.0} × {1,000, 2,000} jobs in FIFO order, plus four
/// 1,500-job streams under a seeded tie-break. Half the jobs are resizable.
fn pinned_configs() -> Vec<(String, ScaleConfig)> {
    let mut cfgs = Vec::new();
    let mut push = |nodes: usize, jobs: u64, target: f64, tie: TieBreak| {
        let mut cfg = ScaleConfig::new(nodes, jobs).with_tie_break(tie);
        cfg.target_utilization = target;
        cfg.resizable_percent = 50;
        let tie_label = match tie {
            TieBreak::Fifo => "fifo".to_string(),
            TieBreak::Seeded(s) => format!("tie{s}"),
        };
        cfgs.push((format!("n{nodes}-j{jobs}-t{target:.1}-{tie_label}"), cfg));
    };
    for nodes in [32, 64, 128] {
        for target in [1.5, 3.0] {
            for jobs in [1_000, 2_000] {
                push(nodes, jobs, target, TieBreak::Fifo);
            }
        }
    }
    for nodes in [64, 128] {
        for target in [1.5, 3.0] {
            push(nodes, 1_500, target, TieBreak::Seeded(7));
        }
    }
    cfgs
}

#[test]
fn scale_matches_recorded_snapshots() {
    let runs: Vec<(String, ScaleReport)> = pinned_configs()
        .into_iter()
        .map(|(label, cfg)| (label, run_scale(&cfg)))
        .collect();
    if std::env::var("RESHAPE_BLESS").is_ok() {
        let mut out = String::from(
            "# FNV-1a digests of virtual ScaleReport fields; re-record with\n\
             # RESHAPE_BLESS=1 cargo test -p reshape-clustersim --test scale_snapshots\n",
        );
        for (label, r) in &runs {
            out.push_str(&format!("{label} {}\n", digest(r)));
        }
        std::fs::write(SNAPSHOT_PATH, out).expect("write snapshot file");
        panic!("snapshots re-recorded at {SNAPSHOT_PATH}; inspect the diff and commit");
    }

    // The pins only guard queue handling if the queue actually fills and
    // the shrink-for-queued rule fires somewhere.
    let deepest = runs.iter().map(|(_, r)| r.peak_queue_depth).max().unwrap_or(0);
    let shrinks: u64 = runs.iter().map(|(_, r)| r.shrinks).sum();
    assert!(deepest >= 1_000, "pinned runs must queue deeply, peak {deepest}");
    assert!(shrinks > 0, "pinned runs must shrink for queued jobs");

    let want = recorded();
    assert_eq!(want.len(), runs.len(), "snapshot count mismatch");
    let mut diverged = Vec::new();
    for (label, r) in &runs {
        let got = digest(r);
        match want.get(label) {
            Some(w) if *w == got => {}
            Some(w) => diverged.push(format!("{label}: recorded {w}, got {got}")),
            None => diverged.push(format!("{label}: missing from snapshot file")),
        }
    }
    assert!(
        diverged.is_empty(),
        "{} runs diverged from recorded snapshots:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
