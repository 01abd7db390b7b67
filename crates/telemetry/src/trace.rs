//! The span/tracing layer: RAII [`SpanGuard`]s and point [`event`]s feed
//! per-thread buffers that flush into a bounded global collector; the
//! collected [`Record`]s render as a per-day phase tree ([`render_tree`])
//! or a machine-readable JSONL log ([`render_jsonl`]).
//!
//! Guards *always* measure — [`SpanGuard::finish`] returns the elapsed
//! [`Duration`] whether or not telemetry is enabled, so the public stats
//! structs in `kizzle-cluster`/`kizzle-core` stay populated as views over
//! the same clock reads — but records are only buffered when the global
//! flag was set at span entry.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-thread buffers flush into the global collector once they hold this
/// many records (and always on depth-0 span close and thread exit).
const FLUSH_EVERY: usize = 64;

/// The global collector stops accepting records past this many, bumping
/// `kizzle_trace_dropped_total` instead — a runaway trace must not turn
/// into unbounded memory growth inside the pipeline.
const COLLECTOR_CAP: usize = 1 << 20;

/// One span or event, as flushed to the global collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A closed span: `start_us`/`dur_us` are microseconds relative to the
    /// process-global trace epoch (first telemetry use).
    Span {
        /// Static span name, e.g. `day.cluster`.
        name: &'static str,
        /// Arbitrary dense id of the recording thread.
        thread: u64,
        /// Nesting depth at entry (0 = top level on that thread).
        depth: u32,
        /// Span start, µs since the trace epoch.
        start_us: u64,
        /// Span duration, µs.
        dur_us: u64,
    },
    /// A point event with a free-form message.
    Event {
        /// Static event name, e.g. `engine.resume.note`.
        name: &'static str,
        /// Arbitrary dense id of the recording thread.
        thread: u64,
        /// Nesting depth at emission.
        depth: u32,
        /// Emission time, µs since the trace epoch.
        at_us: u64,
        /// Free-form message (JSON-escaped on export).
        message: String,
    },
}

impl Record {
    /// The span or event name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Record::Span { name, .. } | Record::Event { name, .. } => name,
        }
    }

    /// The recording thread's id.
    #[must_use]
    pub fn thread(&self) -> u64 {
        match self {
            Record::Span { thread, .. } | Record::Event { thread, .. } => *thread,
        }
    }

    /// Nesting depth at entry/emission.
    #[must_use]
    pub fn depth(&self) -> u32 {
        match self {
            Record::Span { depth, .. } | Record::Event { depth, .. } => *depth,
        }
    }

    /// Start (spans) or emission (events) time, µs since the trace epoch.
    #[must_use]
    pub fn at_us(&self) -> u64 {
        match self {
            Record::Span { start_us, .. } => *start_us,
            Record::Event { at_us, .. } => *at_us,
        }
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

#[derive(Default)]
struct Collector {
    records: Mutex<Vec<Record>>,
}

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(Collector::default)
}

struct ThreadBuffer {
    id: u64,
    records: Vec<Record>,
}

impl ThreadBuffer {
    fn new() -> Self {
        ThreadBuffer {
            id: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            records: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.records.is_empty() {
            return;
        }
        if let Some(recorder) = crate::recorder() {
            for record in &self.records {
                recorder.record(record);
            }
        }
        let mut global = collector().records.lock().expect("trace collector lock");
        let room = COLLECTOR_CAP.saturating_sub(global.len());
        let take = room.min(self.records.len());
        let dropped = self.records.len() - take;
        global.extend(self.records.drain(..take));
        drop(global);
        self.records.clear();
        if dropped > 0 {
            crate::counter("kizzle_trace_dropped_total").add(dropped as u64);
        }
    }
}

impl Drop for ThreadBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUFFER: RefCell<ThreadBuffer> = RefCell::new(ThreadBuffer::new());
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn push(record: Record, at_depth_zero: bool) {
    BUFFER.with(|buffer| {
        // `borrow_mut` can only contend with itself via a re-entrant
        // Recorder that emits events; skip the record rather than panic.
        if let Ok(mut buffer) = buffer.try_borrow_mut() {
            buffer.records.push(record);
            if at_depth_zero || buffer.records.len() >= FLUSH_EVERY {
                buffer.flush();
            }
        }
    });
}

fn thread_id() -> u64 {
    BUFFER.with(|buffer| match buffer.try_borrow() {
        Ok(buffer) => buffer.id,
        Err(_) => u64::MAX,
    })
}

/// An open span. Created by [`enter`](SpanGuard::enter) (usually through
/// the [`span!`](crate::span) macro); the span closes — and, when telemetry
/// was enabled at entry, records — on [`finish`](SpanGuard::finish) or
/// drop, whichever comes first.
#[derive(Debug)]
#[must_use = "a span closes when the guard drops; bind it with `let _guard = …`"]
pub struct SpanGuard {
    name: &'static str,
    start: Instant,
    start_us: u64,
    depth: u32,
    /// Whether telemetry was enabled when the span opened; sampled once so
    /// an enable/disable mid-span cannot half-record.
    record: bool,
    closed: bool,
}

impl SpanGuard {
    /// Open a span. Always captures the clock; records only if telemetry
    /// is enabled right now.
    pub fn enter(name: &'static str) -> Self {
        let record = crate::enabled();
        let (start_us, depth) = if record {
            let depth = DEPTH.with(|d| {
                let depth = d.get();
                d.set(depth + 1);
                depth
            });
            (now_us(), depth)
        } else {
            (0, 0)
        };
        SpanGuard {
            name,
            start: Instant::now(),
            start_us,
            depth,
            record,
            closed: false,
        }
    }

    /// Close the span and return its measured duration. Idempotent with
    /// drop: the record (if any) is emitted exactly once.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let elapsed = self.start.elapsed();
        if !self.closed {
            self.closed = true;
            if self.record {
                DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
                push(
                    Record::Span {
                        name: self.name,
                        thread: thread_id(),
                        depth: self.depth,
                        start_us: self.start_us,
                        dur_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                    },
                    self.depth == 0,
                );
            }
        }
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Record an already-measured span duration under `name`.
///
/// For measurements that cannot be an RAII guard: durations that exclude
/// a nested phase (the cluster map phase encloses the partition phase but
/// does not count it) or are accumulated across a loop (per-day
/// winnow/siggen totals). Recorded at the current thread's depth, as a
/// span that *ends* now.
pub fn record_span(name: &'static str, duration: Duration) {
    if !crate::enabled() {
        return;
    }
    let dur_us = u64::try_from(duration.as_micros()).unwrap_or(u64::MAX);
    let depth = DEPTH.with(Cell::get);
    push(
        Record::Span {
            name,
            thread: thread_id(),
            depth,
            start_us: now_us().saturating_sub(dur_us),
            dur_us,
        },
        depth == 0,
    );
}

/// Emit a point event with a free-form message (e.g. a snapshot resume
/// fallback note). No-op when telemetry is disabled.
pub fn event(name: &'static str, message: impl Into<String>) {
    if !crate::enabled() {
        return;
    }
    let depth = DEPTH.with(Cell::get);
    push(
        Record::Event {
            name,
            thread: thread_id(),
            depth,
            at_us: now_us(),
            message: message.into(),
        },
        depth == 0,
    );
}

/// Flush the calling thread's buffer and take every record collected so
/// far, in flush order. The collector is left empty.
///
/// Only the calling thread's buffer can be force-flushed; other threads
/// flush at their next depth-0 span close, every 64 records, and on
/// thread exit — so drain after joining workers to see everything.
pub fn drain() -> Vec<Record> {
    BUFFER.with(|buffer| {
        if let Ok(mut buffer) = buffer.try_borrow_mut() {
            buffer.flush();
        }
    });
    std::mem::take(&mut *collector().records.lock().expect("trace collector lock"))
}

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render records as JSONL, one object per line:
///
/// ```text
/// {"type":"span","name":"day.cluster","thread":0,"depth":1,"start_us":12,"dur_us":3400}
/// {"type":"event","name":"engine.resume.note","thread":0,"depth":1,"at_us":9,"message":"…"}
/// ```
#[must_use]
pub fn render_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for record in records {
        match record {
            Record::Span {
                name,
                thread,
                depth,
                start_us,
                dur_us,
            } => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"span\",\"name\":\"{name}\",\"thread\":{thread},\
                     \"depth\":{depth},\"start_us\":{start_us},\"dur_us\":{dur_us}}}"
                );
            }
            Record::Event {
                name,
                thread,
                depth,
                at_us,
                message,
            } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"event\",\"name\":\"{name}\",\"thread\":{thread},\
                     \"depth\":{depth},\"at_us\":{at_us},\"message\":\""
                );
                escape_json(message, &mut out);
                out.push_str("\"}\n");
            }
        }
    }
    out
}

/// Render records as an indented phase tree, ordered by start time within
/// each thread — the human-readable view `daily_pipeline` prints to stderr:
///
/// ```text
/// thread 0
///   day.seal 41.2ms
///     day.cluster 32.9ms
///     day.winnow 2.1ms
/// ```
#[must_use]
pub fn render_tree(records: &[Record]) -> String {
    let mut threads: Vec<u64> = records.iter().map(Record::thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut out = String::new();
    for thread in threads {
        let mut rows: Vec<&Record> = records.iter().filter(|r| r.thread() == thread).collect();
        rows.sort_by_key(|r| r.at_us());
        let _ = writeln!(out, "thread {thread}");
        for record in rows {
            for _ in 0..=record.depth() {
                out.push_str("  ");
            }
            match record {
                Record::Span { name, dur_us, .. } => {
                    let _ = writeln!(out, "{name} {}", format_us(*dur_us));
                }
                Record::Event { name, message, .. } => {
                    let _ = writeln!(out, "* {name}: {message}");
                }
            }
        }
    }
    out
}

fn format_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}\u{b5}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests flip the process-global enable flag, so they share one
    // lock to avoid interleaving (the unit-test binary runs them in
    // threads).
    static GATE: Mutex<()> = Mutex::new(());

    fn with_telemetry<R>(f: impl FnOnce() -> R) -> R {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        let _ = drain();
        let out = f();
        crate::set_enabled(false);
        out
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let records = with_telemetry(|| {
            let outer = SpanGuard::enter("test.outer");
            {
                let _inner = SpanGuard::enter("test.inner");
            }
            outer.finish();
            drain()
        });
        let find = |name: &str| {
            records
                .iter()
                .find(|r| r.name() == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .clone()
        };
        // Inner closes first, so it precedes outer in flush order.
        assert_eq!(find("test.inner").depth(), 1);
        assert_eq!(find("test.outer").depth(), 0);
    }

    #[test]
    fn disabled_spans_measure_but_do_not_record() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(false);
        let _ = drain();
        let guard = SpanGuard::enter("test.disabled");
        std::thread::sleep(Duration::from_millis(1));
        let elapsed = guard.finish();
        assert!(elapsed >= Duration::from_millis(1));
        assert!(drain().is_empty());
    }

    #[test]
    fn finish_then_drop_records_once() {
        let records = with_telemetry(|| {
            let guard = SpanGuard::enter("test.once");
            let _ = guard.finish();
            drain()
        });
        assert_eq!(
            records.iter().filter(|r| r.name() == "test.once").count(),
            1
        );
    }

    #[test]
    fn events_carry_messages_and_jsonl_escapes() {
        let records = with_telemetry(|| {
            event("test.event", "line1\nline2 \"quoted\"");
            drain()
        });
        let jsonl = render_jsonl(&records);
        assert!(jsonl.contains("\"type\":\"event\""));
        assert!(jsonl.contains("line1\\nline2 \\\"quoted\\\""));
    }

    #[test]
    fn cross_thread_records_arrive_after_join() {
        let records = with_telemetry(|| {
            std::thread::spawn(|| {
                let _span = SpanGuard::enter("test.worker");
            })
            .join()
            .expect("worker thread");
            drain()
        });
        assert!(records.iter().any(|r| r.name() == "test.worker"));
    }

    #[test]
    fn record_span_emits_explicit_duration() {
        let records = with_telemetry(|| {
            record_span("test.explicit", Duration::from_micros(1500));
            drain()
        });
        let rec = records
            .iter()
            .find(|r| r.name() == "test.explicit")
            .expect("explicit span");
        match rec {
            Record::Span { dur_us, .. } => assert_eq!(*dur_us, 1500),
            Record::Event { .. } => panic!("expected a span"),
        }
    }

    #[test]
    fn tree_renders_nested_spans() {
        let records = with_telemetry(|| {
            let outer = SpanGuard::enter("test.tree.outer");
            {
                let _inner = SpanGuard::enter("test.tree.inner");
                std::thread::sleep(Duration::from_micros(100));
            }
            outer.finish();
            drain()
        });
        let tree = render_tree(&records);
        assert!(tree.contains("test.tree.outer"));
        assert!(tree.contains("    test.tree.inner"));
    }
}
