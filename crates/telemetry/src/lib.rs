//! # usta-telemetry — metrics, spans, and trace-event export
//!
//! A zero-dependency observability layer for the sim and fleet stack:
//!
//! * [`Registry`] — named counters, gauges, and fixed-bin duration
//!   histograms (the same saturating sketch shape `usta-fleet` uses
//!   for its aggregation), all merge-order independent;
//! * [`Span`] — a lightweight RAII timer that records into a
//!   histogram and emits one trace event on drop;
//! * [`trace`] — a per-thread trace-event ring buffer exporting
//!   Chrome `chrome://tracing` JSON (also loadable in Perfetto);
//! * [`flight`] — the flight recorder: a bounded per-run ring of
//!   structured per-window [`DecisionEvent`]s (band, predicted vs.
//!   actual skin temperature, arbiter budget, per-domain caps) with a
//!   deterministic JSON export;
//! * [`json`] — a minimal validating JSON parser used by the test
//!   suite to check the exporters' output.
//!
//! ## Deterministic counters vs wall-clock timings
//!
//! The contract every instrumented layer follows: **counters count
//! deterministic work** (simulation steps, governor decisions, arbiter
//! invocations) and are bit-identical for a given configuration at any
//! thread count — they join the golden surface and CI asserts their
//! equality across `--threads`. **Histograms and gauges carry
//! wall-clock quantities** and are reported but never compared.
//!
//! ## The disabled path is a no-op
//!
//! Telemetry is off until [`enable`] is called (once, by a CLI).
//! Hot loops check [`Sink::active`] once per run and keep their timing
//! state in an `Option` — when disabled there are no atomics, no
//! `Instant::now` calls, and no registry traffic. The fleet benchmark
//! (`fleetbench/`) times this disabled path, and its
//! `telemetry.overhead_frac` reports what turning observation on costs
//! a sweep. When enabled, the sim step loop reads the clock only on
//! sampled steps and flushes its laps into the `sim.phase.*` histograms
//! once per run.
//!
//! ```
//! use usta_telemetry::{Registry, Sink};
//!
//! // Hot path: resolve the sink and the handles once, time a sample of
//! // the iterations locally, flush once.
//! let registry = Registry::new(); // or Sink::active() for the global one
//! let lap = registry.histogram_with("demo.lap", 0.0, 1e-5, 1000);
//! let mut laps = Vec::new();
//! for i in 0..100u64 {
//!     if i % 10 == 0 {
//!         let start = std::time::Instant::now();
//!         std::hint::black_box(i * i);
//!         laps.push(start.elapsed());
//!     }
//! }
//! laps.iter().for_each(|&d| lap.record(d));
//! registry.counter("demo.steps").add(100);
//! assert_eq!(registry.counters(), vec![("demo.steps", 100)]);
//! assert_eq!(lap.snapshot().count, 10);
//! assert!(Sink::active().is_none() || usta_telemetry::enabled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use flight::{DecisionEvent, FlightRecorder};
pub use registry::{Counter, DurationHistogram, Gauge, HistogramSnapshot, Registry};
pub use span::Span;
pub use trace::TraceEvent;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns the global sink on (idempotent). Trace-event timestamps count
/// from the first call.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    GLOBAL.get_or_init(Registry::new);
    ENABLED.store(true, Ordering::Release);
}

/// Whether [`enable`] has been called.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// The process-wide registry (created on first use; empty and inert
/// until [`enable`]).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// The instant trace timestamps count from.
pub(crate) fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// The static switch in front of the global registry.
///
/// Instrumented code resolves the sink **once per run** and branches on
/// the resulting `Option` — the disabled path is a single relaxed
/// atomic load followed by `None` everywhere.
#[derive(Debug, Clone, Copy)]
pub struct Sink;

impl Sink {
    /// The global registry when telemetry is enabled, `None` otherwise.
    #[inline]
    pub fn active() -> Option<&'static Registry> {
        if enabled() {
            Some(global())
        } else {
            None
        }
    }
}
