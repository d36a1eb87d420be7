//! The benchmark's own span recorder. Spans wrap the benchmark's calls into
//! the program's public functions; nothing is recorded inside the program.
//! Spans stay in memory and are written out as Chrome trace events when the
//! run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    pub name: String,
    /// Frame or request the span worked on; spans of one request share it.
    pub item: u64,
    pub start: Duration,
    pub dur: Duration,
    pub thread: String,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans when enabled; a disabled tracer only runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` for `item`.
    pub fn time<R>(&self, name: &str, item: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        // Ids only label spans; no other data is published through them.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            item,
            start: start - self.origin,
            dur,
            thread: std::thread::current().name().unwrap_or("main").to_owned(),
        };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }

    /// Durations of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .collect()
    }

    /// Span names in first-recorded order.
    pub fn names(&self) -> Vec<String> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut names: Vec<String> = Vec::new();
        for span in spans.iter() {
            if !names.contains(&span.name) {
                names.push(span.name.clone());
            }
        }
        names
    }

    /// Chrome trace-event JSON of every recorded span.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"item\":{}}}}}",
                s.name,
                s.thread,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.id,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.item
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", 0, || 5), 5);
        assert!(t.names().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        t.time("outer", 1, || t.time("inner", 1, || ()));
        let spans = t.spans.lock().unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.dur >= inner.dur);
    }
}
