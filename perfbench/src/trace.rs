//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! public library call (spans inside the library are out of scope). They
//! stay in memory until [`take`] hands them to the report, and cost one
//! thread-local flag test per call when tracing is off.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: the layer it entered, what it called, and the span
/// that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Library layer the call enters, e.g. `bd-btree`, or `bench` for the
    /// benchmark's own operation brackets.
    pub layer: &'static str,
    /// The call, e.g. `Database::lookup`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorded list.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub run: u32,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        run: 0,
        open: Vec::new(),
        spans: Vec::new(),
    });
}

/// Turn recording on or off for the calls that follow.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f` with recording off, restoring the previous state after.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = enabled();
    set_enabled(false);
    let out = f();
    set_enabled(was);
    out
}

/// Tag the spans that follow with repetition `run`.
pub fn set_run(run: u32) {
    REC.with(|r| r.borrow_mut().run = run);
}

/// Remove and return every recorded span.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Run `f` inside a span named `name` on `layer` (a plain call when
/// tracing is off).
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let span = Span {
            layer,
            name,
            parent: r.open.last().copied(),
            run: r.run,
            start_ns,
            end_ns: start_ns,
        };
        r.spans.push(span);
        let id = r.spans.len() - 1;
        r.open.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        r.spans[id].end_ns = end_ns;
        r.open.pop();
    });
    out
}

/// Calls and self time of one `(layer, call)` pair or one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans counted.
    pub calls: u64,
    /// Total duration of those spans, in ns.
    pub total_ns: u64,
    /// Total duration minus the time their child spans cover, in ns.
    pub self_ns: u64,
}

/// Self time per `(layer, call)`. Spans nest strictly on one thread, so
/// the children of a span cover the sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<(&'static str, &'static str), SelfTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let e = out.entry((s.layer, s.name)).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(*child);
    }
    out
}

/// Durations in ns of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        span("bench", "outer", || {
            span("bd-btree", "inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            span("bd-btree", "inner", || ());
        });
        set_enabled(false);
        span("bench", "untraced", || ());
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let t = self_times(&spans);
        let outer = t[&("bench", "outer")];
        let inner = t[&("bd-btree", "inner")];
        assert_eq!(inner.calls, 2);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }
}
