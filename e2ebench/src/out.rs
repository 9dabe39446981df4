//! What a workload run hands back, and the result line the benchmark
//! prints last.

use std::collections::BTreeMap;
use std::fmt;

/// Prefix of the stdout line carrying the run's `items_per_s`; a traced
/// run reads it back from its untraced child.
pub const ITEMS_LINE: &str = "metric items_per_s";

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Whether a failed check means the program's output is wrong, or only
/// that a counter the program reports about itself disagrees with the
/// authoritative outcome (a known defect, reported with its size).
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    Output,
    Accounting,
}

pub struct Check {
    pub name: String,
    pub kind: CheckKind,
    pub passed: bool,
    pub detail: String,
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.passed { "PASS" } else { "FAIL" };
        let kind = match self.kind {
            CheckKind::Output => "output",
            CheckKind::Accounting => "accounting",
        };
        write!(f, "check {} {verdict} [{kind}] {}", self.name, self.detail)
    }
}

/// One workload run: set-up samples, the measured entry calls, the checks
/// on their outputs, and the metrics derived from them.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each measured unit of work: an entry call, or one
    /// cycle of resize steps on `resize-cycle`.
    pub walls: Vec<f64>,
    /// Items completed by the measured work: terminal jobs, or resize
    /// steps.
    pub items: u64,
    /// Items attempted, and how many of them failed a check or did not
    /// reach a good terminal state.
    pub attempted: u64,
    pub failed: u64,
    /// Virtual seconds of one entry call (bit-exact for a seed).
    pub virtual_s: f64,
    pub checks: Vec<Check>,
    /// The workload's own end-to-end metrics, printed by name and unit.
    pub report: Vec<Metric>,
    /// Per-layer metrics of a traced run, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload facts for the environment record.
    pub env: Vec<(&'static str, String)>,
    /// Spans the program's own causal trace recorded (traced runs only).
    pub program_spans: u64,
}

impl Outcome {
    pub fn check(&mut self, name: &str, kind: CheckKind, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.into(),
            kind,
            passed,
            detail,
        });
    }

    pub fn report(&mut self, name: &str, value: f64, unit: &str) {
        self.report.push(Metric::new(name, value, unit));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Count and drop the spans the program's trace has buffered, so a
    /// long traced run does not hold them all.
    pub fn drain_program_spans(&mut self) {
        self.program_spans += reshape_telemetry::trace::drain_spans().len() as u64;
    }

    /// Items per wall second: items per unit of work over the median wall
    /// time of a unit, so one unit slowed by a noisy neighbour does not
    /// move it.
    pub fn items_per_s(&self) -> f64 {
        self.items as f64 / self.walls.len() as f64 / reshape_perfbase::median(&self.walls)
    }

    /// `correct` is false only when a program output is wrong; accounting
    /// checks are printed but do not gate it.
    pub fn correct(&self) -> bool {
        self.checks
            .iter()
            .all(|c| c.passed || c.kind == CheckKind::Accounting)
    }

    /// The end-to-end metrics of `BENCHMARK.json`.
    pub fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", reshape_perfbase::median(&self.setup_s), "s"),
            Metric::new("items_per_s", self.items_per_s(), "1/s"),
            Metric::new("virtual_s", self.virtual_s, "s"),
        ]
    }
}

/// Whether to make another measured entry call: always a first one, then
/// only while one more call of the last call's length fits in `seconds`.
pub fn another_call(started: std::time::Instant, walls: &[f64], seconds: f64) -> bool {
    walls
        .last()
        .is_none_or(|last| started.elapsed().as_secs_f64() + last <= seconds)
}

/// The value at the highest percentile that leaves at least ten samples
/// beyond it, with that percentile; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    (n >= 11).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// The result object, on one line.
pub fn result_json(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        body.join(", ")
    )
}
