//! In-memory span recording: name, start, end, parent and thread of
//! every call the traced run makes into a layer, written out once at the
//! end so recording never touches the file system mid-run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Shared time base and span-id source for every thread of one run.
pub struct Clock {
    t0: Instant,
    next_id: AtomicU64,
}

impl Clock {
    pub fn new() -> Clock {
        Clock { t0: Instant::now(), next_id: AtomicU64::new(1) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Worker threads of a pool phase; 0 for an ordinary span.
    pub jobs: u32,
}

/// One thread's recorder. Spans nest by call structure; a worker's
/// outermost spans hang under the pool span that spawned the worker.
pub struct Tracer<'c> {
    clock: &'c Clock,
    thread: u32,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, u64>,
}

impl<'c> Tracer<'c> {
    pub fn new(clock: &'c Clock, thread: u32, parent: u64) -> Tracer<'c> {
        Tracer { clock, thread, stack: vec![parent], spans: Vec::new(), counters: BTreeMap::new() }
    }

    /// The innermost open span (the parent of the next one).
    pub fn current(&self) -> u64 {
        *self.stack.last().expect("tracer stack holds its root parent")
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_jobs(name, 0, f)
    }

    /// A span whose children run on `jobs` worker threads.
    pub fn span_jobs<T>(
        &mut self,
        name: &'static str,
        jobs: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.clock.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        let start_ns = self.clock.now_ns();
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.clock.now_ns();
        self.spans.push(Span { id, parent, name, thread: self.thread, start_ns, end_ns, jobs });
        r
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Folds a finished worker's spans and counters into this tracer.
    pub fn absorb(&mut self, other: Tracer<'_>) {
        self.spans.extend(other.spans);
        for (k, v) in other.counters {
            self.count(k, v);
        }
    }
}

/// JSON string literal for names and messages (ASCII control bytes are
/// escaped; nothing here carries other non-printing text).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The whole run as one JSON document: spans, counters, and the
/// per-operation verdicts.
pub fn to_json(t: &Tracer<'_>, attempted: u64, failures: &[String]) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"jobs\":{}}}",
            s.id,
            s.parent,
            json_str(s.name),
            s.thread,
            s.start_ns,
            s.end_ns,
            s.jobs
        );
    }
    out.push_str("],\"counters\":{");
    for (i, (k, v)) in t.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{v}", json_str(k));
    }
    let _ = write!(out, "}},\"attempted\":{attempted},\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_str(f));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_caller() {
        let clock = Clock::new();
        let mut t = Tracer::new(&clock, 0, 0);
        t.span("outer", |t| {
            t.span("inner", |t| t.count("n", 2));
            t.count("n", 1);
        });
        let outer = t.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = t.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.counters["n"], 3);
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
