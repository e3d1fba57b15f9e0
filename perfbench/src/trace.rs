//! Spans for the traced run, recorded from the benchmark's own code around
//! its calls into each layer (the program itself carries no benchmark
//! instrumentation).
//!
//! Spans stay in memory and are written once, as JSON, when the run ends.

use md_core::device::{DeviceError, DeviceRun, MdDevice, RunOptions};
use md_core::params::SimConfig;
use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// One timed interval: `parent` indexes the enclosing span, and every span
/// of one operation shares its `op` id.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// A shared, cheaply cloned span recorder. Spans nest: a span begun while
/// another is open becomes its child.
#[derive(Clone)]
pub struct Tracer(Rc<RefCell<Recorder>>);

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        })))
    }

    /// Start a new operation: spans begun from now on carry a fresh op id.
    pub fn next_op(&self) {
        self.0.borrow_mut().op += 1;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&self, name: impl Into<String>) -> usize {
        let mut r = self.0.borrow_mut();
        let now = r.epoch.elapsed().as_secs_f64();
        let id = r.spans.len();
        let span = Span {
            name: name.into(),
            start_s: now,
            end_s: f64::NAN,
            parent: r.open.last().copied(),
            op: r.op,
        };
        r.spans.push(span);
        r.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open span).
    pub fn end(&self, id: usize) {
        let mut r = self.0.borrow_mut();
        let now = r.epoch.elapsed().as_secs_f64();
        assert_eq!(r.open.pop(), Some(id), "spans must close innermost first");
        r.spans[id].end_s = now;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<T>(&self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn span(&self, id: usize) -> Span {
        self.0.borrow().spans[id].clone()
    }

    /// Total duration and count of the descendants of span `id` named
    /// `name`.
    pub fn descendant_time(&self, id: usize, name: &str) -> (f64, u64) {
        let r = self.0.borrow();
        let is_under = |mut s: usize| loop {
            match r.spans[s].parent {
                Some(p) if p == id => return true,
                Some(p) => s = p,
                None => return false,
            }
        };
        r.spans
            .iter()
            .enumerate()
            .skip(id + 1)
            .filter(|(i, s)| s.name == name && is_under(*i))
            .fold((0.0, 0), |(t, n), (_, s)| (t + s.dur_s(), n + 1))
    }

    pub fn len(&self) -> usize {
        self.0.borrow().spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let r = self.0.borrow();
        let mut out = String::from("{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n");
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}, \"op\": {}}}{}\n",
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_s,
                s.end_s,
                s.op,
                if i + 1 == r.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// An [`MdDevice`] that records a `device.run` span around every run of
/// the device it wraps. Passing it to the supervisor or into a cluster
/// measures device time from outside those layers.
pub struct TimedDevice {
    inner: Box<dyn MdDevice>,
    tracer: Tracer,
}

impl TimedDevice {
    pub fn new(inner: Box<dyn MdDevice>, tracer: &Tracer) -> Self {
        Self {
            inner,
            tracer: tracer.clone(),
        }
    }
}

impl MdDevice for TimedDevice {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn peak_ops_per_second(&self) -> f64 {
        self.inner.peak_ops_per_second()
    }

    fn resalt(&mut self, salt: u64) {
        self.inner.resalt(salt);
    }

    fn run(&mut self, sim: &SimConfig, opts: RunOptions<'_>) -> Result<DeviceRun, DeviceError> {
        let id = self.tracer.begin("device.run");
        let out = self.inner.run(sim, opts);
        self.tracer.end(id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let t = Tracer::new();
        t.next_op();
        let op = t.begin("op");
        t.scope("device.run", || {
            t.scope("inner", || ());
        });
        t.scope("device.run", || ());
        t.end(op);
        let (total, count) = t.descendant_time(op, "device.run");
        assert_eq!(count, 2);
        assert!(total <= t.span(op).dur_s());
        assert_eq!(t.span(op + 2).parent, Some(op + 1));
        assert_eq!(t.span(op + 2).op, 1);
    }
}
