//! Per-thread trace-event rings and Chrome trace-format export.
//!
//! Every thread that completes a [`crate::Span`] while telemetry is
//! enabled gets its own fixed-capacity ring (no cross-thread
//! contention on the hot path beyond one uncontended mutex); when a
//! ring fills, the **oldest** events are dropped and counted.
//! [`chrome_trace_json`] flattens the rings into the Chrome
//! trace-event JSON format loadable in `chrome://tracing` or Perfetto.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::json_string;

/// Events kept per thread; beyond this the oldest are dropped.
pub const RING_CAPACITY: usize = 65_536;

/// One completed span, timestamped relative to the [`crate::enable`]
/// epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Start time, nanoseconds since the enable epoch.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Thread id (per-thread ring registration order, from 1).
    pub tid: u64,
}

#[derive(Debug)]
struct Ring {
    tid: u64,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL_RING: Arc<Mutex<Ring>> = register_ring();
}

fn register_ring() -> Arc<Mutex<Ring>> {
    let mut rings = RINGS.lock().expect("ring list not poisoned");
    let ring = Arc::new(Mutex::new(Ring {
        tid: rings.len() as u64 + 1,
        events: VecDeque::with_capacity(RING_CAPACITY.min(1024)),
        dropped: 0,
    }));
    rings.push(Arc::clone(&ring));
    ring
}

/// Appends one event to the calling thread's ring (no-op while
/// telemetry is disabled).
pub(crate) fn record(name: &'static str, start: Instant, dur: Duration) {
    if !crate::enabled() {
        return;
    }
    let ts_ns = start
        .duration_since(crate::epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
    LOCAL_RING.with(|ring| {
        let mut ring = ring.lock().expect("ring not poisoned");
        if ring.events.len() == RING_CAPACITY {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        let tid = ring.tid;
        ring.events.push_back(TraceEvent {
            name,
            ts_ns,
            dur_ns,
            tid,
        });
    });
}

/// Total events dropped to ring overflow across all threads so far.
pub fn dropped_events() -> u64 {
    RINGS
        .lock()
        .expect("ring list not poisoned")
        .iter()
        .map(|ring| ring.lock().expect("ring not poisoned").dropped)
        .sum()
}

/// A snapshot of every ring as Chrome trace-event JSON
/// (`{"traceEvents": [...]}`, complete-event `ph: "X"`, timestamps in
/// microseconds). Within each thread events are sorted by start time
/// (longer spans first on ties, so parents precede their children);
/// `ts` is therefore monotone non-decreasing per `tid`.
pub fn chrome_trace_json() -> String {
    let rings: Vec<Arc<Mutex<Ring>>> = RINGS
        .lock()
        .expect("ring list not poisoned")
        .iter()
        .map(Arc::clone)
        .collect();
    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    for ring in rings {
        let mut events: Vec<TraceEvent> = {
            let ring = ring.lock().expect("ring not poisoned");
            ring.events.iter().copied().collect()
        };
        // Nested spans land in drop order (child first); restore
        // start order, parents before children on shared starts.
        events.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        for e in events {
            let sep = if first { "\n" } else { ",\n" };
            first = false;
            out.push_str(&format!(
                "{sep}  {{\"name\": {}, \"cat\": \"usta\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}}}",
                json_string(e.name),
                e.ts_ns as f64 / 1000.0,
                e.dur_ns as f64 / 1000.0,
                e.tid,
            ));
        }
    }
    out.push_str(if first { "]}\n" } else { "\n]}\n" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests flip the process-wide enable switch; all assertions
    // are therefore structural and scoped to rings this test creates
    // (each spawned thread gets a fresh ring), never exact global
    // counts.

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        crate::enable();
        let before = dropped_events();
        std::thread::spawn(|| {
            let start = Instant::now();
            for _ in 0..RING_CAPACITY + 10 {
                record("overflow", start, Duration::from_nanos(1));
            }
        })
        .join()
        .expect("recorder thread");
        assert!(dropped_events() >= before + 10);
    }

    #[test]
    fn export_is_valid_json_with_monotone_ts_per_tid() {
        crate::enable();
        std::thread::spawn(|| {
            let t0 = Instant::now();
            record("a", t0, Duration::from_micros(5));
            record("b", t0 + Duration::from_micros(2), Duration::from_micros(1));
            // Nested span dropped before its parent: same start, the
            // longer (outer) one must sort first.
            record(
                "inner",
                t0 + Duration::from_micros(10),
                Duration::from_micros(1),
            );
            record(
                "outer",
                t0 + Duration::from_micros(10),
                Duration::from_micros(9),
            );
        })
        .join()
        .expect("recorder thread");
        let text = chrome_trace_json();
        let value = crate::json::parse(&text).expect("valid JSON");
        let events = value.as_object().expect("object")["traceEvents"]
            .as_array()
            .expect("array");
        assert!(!events.is_empty());
        let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
        for e in events {
            let e = e.as_object().expect("event object");
            assert_eq!(e["ph"].as_str(), Some("X"));
            assert_eq!(e["cat"].as_str(), Some("usta"));
            let tid = e["tid"].as_f64().expect("tid") as u64;
            let ts = e["ts"].as_f64().expect("ts");
            if let Some(&prev) = last_ts.get(&tid) {
                assert!(ts >= prev, "ts regressed on tid {tid}: {prev} -> {ts}");
            }
            last_ts.insert(tid, ts);
        }
    }
}
