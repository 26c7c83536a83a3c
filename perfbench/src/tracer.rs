//! Spans from the benchmark's own files.
//!
//! The traced run wraps every public call it makes in a span. Spans nest
//! on one thread (the client), so a guard stack is enough: each closed
//! span adds its duration to its parent's child time, and its self time
//! is its duration minus that. Aggregates are kept per span name in
//! memory; the first [`Tracer::new`]`(export_ops)` ops are also recorded
//! through a `feam-obs` [`Recorder`] and written as the repository's
//! JSONL trace format when the run ends, where `feam obs report` renders
//! them. Every span of one op shares that op's trace id.

use feam_obs::{MemorySink, Recorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-name aggregate over the traced ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Bytes the call worked on, where the caller reports them.
    pub bytes: u64,
    /// Time covered by child spans.
    pub child_ns: u64,
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    bytes: u64,
    obs: Option<feam_obs::Span>,
}

#[derive(Default)]
struct State {
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, Layer>,
    export_left: usize,
    exporting: bool,
}

/// The span recorder. A disabled tracer records nothing and costs one
/// branch per span.
pub struct Tracer {
    enabled: bool,
    state: RefCell<State>,
    rec: Recorder,
    sink: Option<Arc<MemorySink>>,
}

/// Closes its span on drop.
pub struct Guard<'t> {
    tracer: Option<&'t Tracer>,
}

impl Tracer {
    /// A tracer exporting the spans of the first `export_ops` root spans.
    pub fn new(export_ops: usize) -> Self {
        let (rec, sink) = Recorder::memory();
        Tracer {
            enabled: true,
            state: RefCell::new(State {
                export_left: export_ops,
                ..State::default()
            }),
            rec,
            sink: Some(sink),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            state: RefCell::new(State::default()),
            rec: Recorder::disabled(),
            sink: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name`; it closes when the guard drops. A span
    /// opened with no span open is a root: one op.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_bytes(name, 0)
    }

    /// [`span`](Self::span) that also counts `bytes` worked on.
    pub fn span_bytes(&self, name: &'static str, bytes: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard { tracer: None };
        }
        let mut st = self.state.borrow_mut();
        if st.stack.is_empty() {
            st.exporting = st.export_left > 0;
            st.export_left = st.export_left.saturating_sub(1);
        }
        let obs = st.exporting.then(|| self.rec.span(name));
        st.stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
            bytes,
            obs,
        });
        Guard { tracer: Some(self) }
    }

    /// The aggregate for `name` (zero when never seen).
    pub fn layer(&self, name: &str) -> Layer {
        self.state
            .borrow()
            .layers
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Write the exported spans as JSONL to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(sink) = &self.sink else {
            return Ok(());
        };
        let mut out = String::new();
        for ev in sink.events() {
            out.push_str(&serde_json::to_string(&ev.to_json()).expect("event serializes"));
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let mut st = tracer.state.borrow_mut();
        let frame = st.stack.pop().expect("guards drop in open order");
        let dur = frame.start.elapsed().as_nanos() as u64;
        // Close the exported span after timing it, outside the measured
        // interval.
        drop(frame.obs);
        if let Some(parent) = st.stack.last_mut() {
            parent.child_ns += dur;
        }
        let layer = st.layers.entry(frame.name).or_default();
        layer.calls += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(frame.child_ns);
        layer.child_ns += frame.child_ns;
        layer.bytes += frame.bytes;
    }
}
