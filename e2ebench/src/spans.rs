//! The benchmark's own spans: one around each call it makes into a layer,
//! kept in memory and written out when the run ends. Timestamps are wall
//! seconds since the recorder was made.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use reshape_telemetry::SpanRecord;

pub struct Spans {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    recs: Mutex<Vec<SpanRecord>>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Wall seconds since the recorder was made.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Reserve a span id, for a parent recorded after its children.
    fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under `id` (from [`Spans::reserve`]). A no-op
    /// when tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        trace: u64,
        parent: u64,
        name: &str,
        track: &str,
        start: f64,
        end: f64,
    ) {
        if !self.on {
            return;
        }
        self.recs
            .lock()
            .expect("span buffer lock")
            .push(SpanRecord {
                trace,
                id,
                parent,
                name: name.into(),
                cat: "bench".into(),
                track: track.into(),
                start,
                end,
            });
    }

    /// Record a finished span and return its id (0 when tracing is off).
    pub fn record(
        &self,
        trace: u64,
        parent: u64,
        name: &str,
        track: &str,
        start: f64,
        end: f64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.reserve();
        self.record_as(id, trace, parent, name, track, start, end);
        id
    }

    pub fn len(&self) -> usize {
        self.recs.lock().expect("span buffer lock").len()
    }

    /// Write the spans as a Chrome trace-event file under this package's
    /// `traces/` directory and return its path.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{seed}.json"));
        let recs = self.recs.lock().expect("span buffer lock");
        std::fs::write(&path, reshape_telemetry::trace::chrome_trace_json(&recs))?;
        Ok(path)
    }
}
