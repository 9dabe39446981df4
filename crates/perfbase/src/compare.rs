//! Diff a fresh benchmark run against the committed `BENCH_*.json`
//! baselines: the regression gate.
//!
//! A metric counts as a **significant regression** when the bad-direction
//! drift exceeds *both* filters:
//!
//! 1. the relative noise threshold (per-metric override, else the
//!    [`MetricKind`](crate::report::MetricKind) default), and
//! 2. the statistical spread: the medians must be separated by more than
//!    the sum of the two scaled MADs (a crude but robust two-sample test —
//!    deterministic metrics have MAD 0, so any relative drift is real).
//!
//! Improvements are reported too (they should be re-baselined), but never
//! fail the gate.

use serde::{Deserialize, Serialize};

use crate::report::BenchReport;

/// How one metric moved between the baseline and the current run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Verdict {
    /// Within noise.
    Unchanged,
    /// Significant move in the good direction.
    Improved,
    /// Significant move in the bad direction — fails the gate.
    Regressed,
    /// Present only in the baseline or only in the current run.
    Missing,
    New,
}

/// One row of the comparison table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricDelta {
    pub area: String,
    pub metric: String,
    pub unit: String,
    pub baseline: f64,
    pub current: f64,
    /// Signed relative change of the median, positive = grew.
    pub rel_change: f64,
    /// Threshold the change was judged against.
    pub noise: f64,
    pub verdict: Verdict,
}

/// Comparison of one or more areas.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CompareReport {
    pub deltas: Vec<MetricDelta>,
    /// Human-readable notes (fingerprint mismatches, skipped areas).
    pub notes: Vec<String>,
}

impl CompareReport {
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.verdict == Verdict::Regressed)
    }

    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Exit code for the driver: 0 clean, 1 when any metric regressed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.has_regressions())
    }

    /// Fold another area's comparison into this one.
    pub fn extend(&mut self, other: CompareReport) {
        self.deltas.extend(other.deltas);
        self.notes.extend(other.notes);
    }
}

/// Compare one area's current report against its baseline.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> CompareReport {
    let mut out = CompareReport::default();
    assert_eq!(
        baseline.area, current.area,
        "comparing different areas ({} vs {})",
        baseline.area, current.area
    );
    if baseline.env.host != current.env.host || baseline.env.cpus != current.env.cpus {
        out.notes.push(format!(
            "area {}: baseline recorded on {} ({} cpus), current on {} ({} cpus) — \
             wall metrics compared with generous thresholds",
            baseline.area, baseline.env.host, baseline.env.cpus, current.env.host,
            current.env.cpus
        ));
    }
    if baseline.env.profile != current.env.profile {
        // Quick and full runs use different input sizes, so every delta
        // would be a false verdict: report the mismatch and nothing else.
        out.notes.push(format!(
            "area {}: baseline profile `{}` vs current `{}` — medians are not comparable; \
             re-record the baseline with the matching profile",
            baseline.area, baseline.env.profile, current.env.profile
        ));
        return out;
    }
    for (name, base) in &baseline.metrics {
        let Some(cur) = current.metrics.get(name) else {
            out.deltas.push(MetricDelta {
                area: baseline.area.clone(),
                metric: name.clone(),
                unit: base.unit.clone(),
                baseline: base.summary.median,
                current: f64::NAN,
                rel_change: 0.0,
                noise: base.noise(),
                verdict: Verdict::Missing,
            });
            continue;
        };
        let b = base.summary.median;
        let c = cur.summary.median;
        let rel = if b.abs() > 0.0 { (c - b) / b.abs() } else if c == 0.0 { 0.0 } else { f64::INFINITY };
        let noise = base.noise().max(cur.noise());
        // Bad direction: median grew for lower-is-better metrics, shrank
        // otherwise. `spread` separates real drift from sampling noise.
        let bad = if base.lower_is_better { rel } else { -rel };
        let spread = base.summary.mad + cur.summary.mad;
        let significant = bad.abs() > noise && (c - b).abs() > spread;
        let verdict = if !significant {
            Verdict::Unchanged
        } else if bad > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
        out.deltas.push(MetricDelta {
            area: baseline.area.clone(),
            metric: name.clone(),
            unit: base.unit.clone(),
            baseline: b,
            current: c,
            rel_change: rel,
            noise,
            verdict,
        });
    }
    for (name, cur) in &current.metrics {
        if !baseline.metrics.contains_key(name) {
            out.deltas.push(MetricDelta {
                area: current.area.clone(),
                metric: name.clone(),
                unit: cur.unit.clone(),
                baseline: f64::NAN,
                current: cur.summary.median,
                rel_change: 0.0,
                noise: cur.noise(),
                verdict: Verdict::New,
            });
        }
    }
    out
}

/// Render the comparison as an aligned text table, regressions last so they
/// sit next to the exit status in CI logs.
pub fn render_table(report: &CompareReport) -> String {
    let mut rows: Vec<&MetricDelta> = report.deltas.iter().collect();
    rows.sort_by_key(|d| {
        (
            match d.verdict {
                Verdict::Unchanged => 0,
                Verdict::New => 1,
                Verdict::Missing => 2,
                Verdict::Improved => 3,
                Verdict::Regressed => 4,
            },
            d.area.clone(),
            d.metric.clone(),
        )
    });
    let header = ["area", "metric", "baseline", "current", "change", "noise", "verdict"];
    let fmt_val = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e6) {
            format!("{v:.3e}")
        } else {
            format!("{v:.4}")
        }
    };
    let mut cells: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
    for d in rows {
        cells.push(vec![
            d.area.clone(),
            format!("{} ({})", d.metric, d.unit),
            fmt_val(d.baseline),
            fmt_val(d.current),
            format!("{:+.1}%", d.rel_change * 100.0),
            format!("{:.0}%", d.noise * 100.0),
            format!("{:?}", d.verdict).to_lowercase(),
        ]);
    }
    let widths: Vec<usize> = (0..header.len())
        .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for note in &report.notes {
        out.push_str("note: ");
        out.push_str(note);
        out.push('\n');
    }
    for (i, row) in cells.iter().enumerate() {
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:<w$}", w = widths[c]));
        }
        out.push('\n');
        if i == 0 {
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (header.len() - 1)));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{EnvFingerprint, MetricKind, MetricRecord};
    use crate::stats::summarize;

    fn report_with(area: &str, metrics: &[(&str, MetricKind, &[f64])]) -> BenchReport {
        let mut r = BenchReport::new(area, EnvFingerprint::default());
        for (name, kind, samples) in metrics {
            r.metrics.insert(
                name.to_string(),
                MetricRecord {
                    unit: "s".into(),
                    kind: *kind,
                    lower_is_better: true,
                    noise: None,
                    summary: summarize(samples),
                },
            );
        }
        r
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let a = report_with(
            "redist",
            &[
                ("pack", MetricKind::Virtual, &[1.0, 1.0, 1.0]),
                ("wall", MetricKind::Wall, &[0.5, 0.55, 0.52]),
            ],
        );
        let c = compare(&a, &a.clone());
        assert!(!c.has_regressions(), "{c:?}");
        assert_eq!(c.exit_code(), 0);
        assert!(c.deltas.iter().all(|d| d.verdict == Verdict::Unchanged));
    }

    #[test]
    fn artificially_slowed_metric_trips_the_gate() {
        // The acceptance drill: slow one deterministic metric by 2x and the
        // compare must exit nonzero, naming the metric.
        let base = report_with("redist", &[("pack", MetricKind::Virtual, &[1.0, 1.0, 1.0])]);
        let mut cur = base.clone();
        let m = cur.metrics.get_mut("pack").unwrap();
        m.summary.median *= 2.0;
        m.summary.min *= 2.0;
        m.summary.max *= 2.0;
        let c = compare(&base, &cur);
        assert!(c.has_regressions());
        assert_eq!(c.exit_code(), 1);
        let reg: Vec<_> = c.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].metric, "pack");
        assert!((reg[0].rel_change - 1.0).abs() < 1e-12);
        assert!(render_table(&c).contains("regressed"));
    }

    #[test]
    fn wall_jitter_within_noise_is_unchanged() {
        // 20% wall drift sits inside the 35% wall threshold.
        let base = report_with("wal", &[("append", MetricKind::Wall, &[1.0, 1.01, 0.99])]);
        let cur = report_with("wal", &[("append", MetricKind::Wall, &[1.2, 1.21, 1.19])]);
        let c = compare(&base, &cur);
        assert!(!c.has_regressions(), "{:?}", c.deltas);
    }

    #[test]
    fn improvement_is_reported_but_passes() {
        let base = report_with("spawn", &[("latency", MetricKind::Virtual, &[2.0, 2.0])]);
        let cur = report_with("spawn", &[("latency", MetricKind::Virtual, &[1.0, 1.0])]);
        let c = compare(&base, &cur);
        assert_eq!(c.exit_code(), 0);
        assert_eq!(c.deltas[0].verdict, Verdict::Improved);
    }

    #[test]
    fn noisy_overlap_does_not_regress() {
        // Medians 10% apart but MADs overlap the gap: not significant even
        // for a virtual metric (nondeterminism surfaced as spread).
        let base = report_with("x", &[("m", MetricKind::Virtual, &[1.0, 0.8, 1.2])]);
        let cur = report_with("x", &[("m", MetricKind::Virtual, &[1.1, 0.9, 1.3])]);
        let c = compare(&base, &cur);
        assert_eq!(c.deltas[0].verdict, Verdict::Unchanged, "{:?}", c.deltas);
    }

    #[test]
    fn missing_and_new_metrics_are_flagged_not_fatal() {
        let base = report_with("a", &[("gone", MetricKind::Count, &[5.0])]);
        let cur = report_with("a", &[("fresh", MetricKind::Count, &[7.0])]);
        let c = compare(&base, &cur);
        assert_eq!(c.exit_code(), 0);
        let verdicts: Vec<Verdict> = c.deltas.iter().map(|d| d.verdict).collect();
        assert!(verdicts.contains(&Verdict::Missing));
        assert!(verdicts.contains(&Verdict::New));
    }

    #[test]
    fn profile_mismatch_is_noted() {
        let base = report_with("a", &[("m", MetricKind::Wall, &[1.0])]);
        let mut cur = base.clone();
        cur.env.profile = "full".into();
        cur.metrics.get_mut("m").unwrap().summary.median = 10.0;
        let c = compare(&base, &cur);
        assert!(c.notes.iter().any(|n| n.contains("profile")), "{:?}", c.notes);
        assert!(c.deltas.is_empty(), "{:?}", c.deltas);
        assert!(!c.has_regressions());
    }
}
