//! The flight recorder: a bounded ring of per-window [`DecisionEvent`]s.
//!
//! Where [`crate::trace`] answers *how long* things took (wall-clock,
//! never compared), the flight recorder answers *why the governor did
//! what it did*: one structured event per governor period carrying the
//! band in force, the predicted vs. actual skin temperature, the
//! predictor residual, the arbiter's watt budget, and every domain's
//! utilization / frequency / cap / chosen level. Events are plain
//! `Copy` data over fixed-size per-domain arrays, so recording touches
//! no atomics, and a reused ring stops allocating once it has held a
//! run's windows; the ring itself is owned by one run (the sim runner
//! takes `Option<&mut FlightRecorder>` — the disabled path is a single
//! `Option` check per step, mirroring the [`crate::Sink::active`]
//! convention). A run builds only the windows its ring keeps
//! ([`FlightRecorder::skip`]).
//!
//! A recording is a **deterministic** function of the run that produced
//! it: no timestamps, no thread identity. The fleet layer leans on that
//! to dump bit-identical `flight-*.json` files at any `--threads`.

use crate::json::{write_json_number, write_json_string, write_u64};

/// Per-domain array capacity. Matches the workspace's
/// `MAX_FREQ_DOMAINS` (up to four CPU clusters plus the GPU and
/// display domains — prime-flagship and sd8s-gen3 genuinely reach
/// five); `usta-telemetry` sits below `usta-soc`, so the bound is
/// restated here and checked by the recording call sites.
pub const MAX_DOMAINS: usize = 6;

/// [`DecisionEvent::band`] value for runs with no banding governor.
pub const BAND_NONE: u8 = u8::MAX;

/// Default ring capacity for triage recordings: the last ~51 simulated
/// seconds at the 100 ms governor period.
pub const DEFAULT_WINDOWS: usize = 512;

/// Human-readable band name for a [`DecisionEvent::band`] code.
///
/// Codes 0–3 follow the paper's banding order (unrestricted → pinned
/// to minimum); anything else — notably [`BAND_NONE`] — reads as
/// `"none"` (a baseline run with no banding in force).
pub fn band_name(code: u8) -> &'static str {
    match code {
        0 => "unrestricted",
        1 => "one-below-max",
        2 => "two-below-max",
        3 => "minimum",
        _ => "none",
    }
}

/// One governor window's decision provenance. All temperatures are °C;
/// fields that do not apply to the window (no prediction yet, arbiter
/// not engaged) hold NaN and export as JSON `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionEvent {
    /// Window index (the run's governor-period step number).
    pub window: u64,
    /// Simulated time at the window's start, seconds.
    pub t_s: f64,
    /// Banding cap in force (0–3, see [`band_name`]; [`BAND_NONE`]
    /// when no banding governor ran).
    pub band: u8,
    /// True skin temperature this window.
    pub skin_c: f64,
    /// The standing skin prediction (NaN before the first prediction
    /// or on baseline runs).
    pub predicted_skin_c: f64,
    /// Predictor residual at the last prediction instant: previous
    /// prediction minus the actual skin temperature it aimed at (NaN
    /// until two predictions have run).
    pub residual_c: f64,
    /// The arbiter's watt budget for the band (NaN when the arbiter
    /// was not engaged — CPU-only devices or baseline runs).
    pub budget_w: f64,
    /// Watts the arbiter's emitted caps are predicted to draw (NaN
    /// when not engaged).
    pub allocated_w: f64,
    /// Frequency domains actually present (≤ [`MAX_DOMAINS`]).
    pub domains: u8,
    /// Per-cluster die nodes present (≤ `domains`).
    pub dies: u8,
    /// Average utilization per domain, 0–1.
    pub util: [f64; MAX_DOMAINS],
    /// Frequency per domain, kHz (display domains carry brightness
    /// permille here, like the step traces).
    pub freq_khz: [f64; MAX_DOMAINS],
    /// The thermal cap (highest allowed OPP index) per domain this
    /// window — USTA's cap vector, or the unrestricted maximum on
    /// baseline runs.
    pub cap: [u16; MAX_DOMAINS],
    /// The OPP level actually chosen per domain (post-clamp).
    pub level: [u16; MAX_DOMAINS],
    /// Each domain's top OPP index (caps below this are active).
    pub max_level: [u16; MAX_DOMAINS],
    /// Die temperature per die node, °C.
    pub die_c: [f64; MAX_DOMAINS],
}

impl DecisionEvent {
    /// A blank event for `domains` domains: band `none`, caps at zero,
    /// every optional field NaN.
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero or exceeds [`MAX_DOMAINS`].
    pub fn new(window: u64, t_s: f64, domains: usize) -> DecisionEvent {
        assert!(
            domains > 0 && domains <= MAX_DOMAINS,
            "domain count {domains} outside 1..={MAX_DOMAINS}"
        );
        DecisionEvent {
            window,
            t_s,
            band: BAND_NONE,
            skin_c: f64::NAN,
            predicted_skin_c: f64::NAN,
            residual_c: f64::NAN,
            budget_w: f64::NAN,
            allocated_w: f64::NAN,
            domains: domains as u8,
            dies: 0,
            util: [0.0; MAX_DOMAINS],
            freq_khz: [0.0; MAX_DOMAINS],
            cap: [0; MAX_DOMAINS],
            level: [0; MAX_DOMAINS],
            max_level: [0; MAX_DOMAINS],
            die_c: [f64::NAN; MAX_DOMAINS],
        }
    }

    /// Domains where the cap actually bound this window: the chosen
    /// level sits *at* a cap that is below the domain's maximum.
    pub fn binding_domains(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.domains as usize)
            .filter(|&d| self.level[d] == self.cap[d] && self.cap[d] < self.max_level[d])
    }

    /// Whether any domain's cap bound this window.
    pub fn caps_bound(&self) -> bool {
        self.binding_domains().next().is_some()
    }

    /// Appends the event to `out` as one deterministic JSON object
    /// (floats in shortest round-trip form, NaN as `null`, arrays
    /// truncated to the real domain/die counts).
    pub fn write_json(&self, out: &mut String) {
        let n = self.domains as usize;
        out.push_str("{\"w\": ");
        write_u64(out, self.window);
        out.push_str(", \"t_s\": ");
        write_json_number(out, self.t_s);
        out.push_str(", \"band\": ");
        write_json_string(out, band_name(self.band));
        // Each key comes with its separators, as one literal.
        for (key, value) in [
            (", \"skin_c\": ", self.skin_c),
            (", \"predicted_skin_c\": ", self.predicted_skin_c),
            (", \"residual_c\": ", self.residual_c),
            (", \"budget_w\": ", self.budget_w),
            (", \"allocated_w\": ", self.allocated_w),
        ] {
            out.push_str(key);
            write_json_number(out, value);
        }
        for (key, values) in [
            (", \"util\": [", &self.util[..n]),
            (", \"freq_khz\": [", &self.freq_khz[..n]),
        ] {
            write_array(out, key, values, |out, &v| write_json_number(out, v));
        }
        for (key, values) in [
            (", \"cap\": [", &self.cap),
            (", \"level\": [", &self.level),
            (", \"max_level\": [", &self.max_level),
        ] {
            write_array(out, key, &values[..n], |out, &v| {
                write_u64(out, u64::from(v))
            });
        }
        write_array(
            out,
            ", \"die_c\": [",
            &self.die_c[..self.dies as usize],
            |out, &v| write_json_number(out, v),
        );
        out.push('}');
    }
}

/// A serialized four-domain event's size with its separator, rounded
/// up (flagship-octa smoke events average 442 bytes, at most 451): the
/// per-event pre-size hint for buffers passed to
/// [`FlightRecorder::write_events_json`].
pub const EVENT_JSON_BYTES: usize = 460;

/// Appends `opening` (`, "key": [`), the values and `]` to `out`.
fn write_array<T>(
    out: &mut String,
    opening: &str,
    values: &[T],
    mut write_value: impl FnMut(&mut String, &T),
) {
    out.push_str(opening);
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_value(out, value);
    }
    out.push(']');
}

/// A bounded drop-oldest ring of [`DecisionEvent`]s.
///
/// The storage grows to what the ring holds, never past `capacity`, and
/// [`FlightRecorder::clear`] keeps it: a ring reused across runs
/// allocates only until it first holds a full run's windows (or
/// `capacity` of them), and a large `capacity` costs nothing a run does
/// not fill.
///
/// A run that knows its length up front need not build the events the
/// ring would overwrite: [`FlightRecorder::skip`] counts them as
/// recorded and dropped, and the run records only the last `capacity`
/// windows. `recorded()`, `len()`, `events()` and the JSON are then the
/// same as if every window had been recorded.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    events: Vec<DecisionEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    recorded: u64,
    capacity: usize,
}

impl FlightRecorder {
    /// An empty ring keeping the newest `capacity` events. Allocates
    /// nothing until the first event.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> FlightRecorder {
        assert!(capacity > 0, "flight recorder needs capacity");
        FlightRecorder {
            events: Vec::new(),
            head: 0,
            recorded: 0,
            capacity,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (kept + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events dropped to ring overflow (always the oldest).
    pub fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Appends one event, overwriting the oldest at capacity. Storage
    /// grows by doubling, capped at the capacity; once a reused ring
    /// has held this many events, recording no longer allocates.
    pub fn record(&mut self, event: DecisionEvent) {
        if self.events.len() < self.capacity {
            if self.events.len() == self.events.capacity() {
                let grow = self.events.len().max(8);
                self.events
                    .reserve_exact(grow.min(self.capacity - self.events.len()));
            }
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Counts `n` windows as recorded and dropped without building
    /// them, and drops the events held now, which those windows
    /// overwrite.
    ///
    /// A run of `total` windows calls `skip(total - capacity)` (when
    /// positive) and then records its last `capacity` windows: every
    /// skipped window would have been overwritten, so the ring ends
    /// exactly as if all `total` had been recorded. Reading it before
    /// `capacity` events follow a skip shows fewer events than that.
    pub fn skip(&mut self, n: u64) {
        if n > 0 {
            self.events.clear();
            self.head = 0;
            self.recorded += n;
        }
    }

    /// Empties the ring for reuse, keeping its allocation.
    pub fn clear(&mut self) {
        self.events.clear();
        self.head = 0;
        self.recorded = 0;
    }

    /// The kept events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &DecisionEvent> {
        self.events[self.head..]
            .iter()
            .chain(self.events[..self.head].iter())
    }

    /// The kept events as a deterministic JSON array (one event object
    /// per line, oldest first).
    pub fn events_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * EVENT_JSON_BYTES + 8);
        self.write_events_json(&mut out);
        out
    }

    /// Appends [`FlightRecorder::events_json`]'s array to `out`.
    pub fn write_events_json(&self, out: &mut String) {
        out.push('[');
        for (i, event) in self.events().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            event.write_json(out);
        }
        out.push_str(if self.events.is_empty() { "]" } else { "\n  ]" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(window: u64) -> DecisionEvent {
        let mut e = DecisionEvent::new(window, window as f64 * 0.1, 2);
        e.skin_c = 30.0 + window as f64;
        e.cap[0] = 3;
        e.level[0] = 3;
        e.max_level[0] = 5;
        e.max_level[1] = 5;
        e.dies = 1;
        e.die_c[0] = 45.0;
        e
    }

    #[test]
    fn ring_at_capacity_keeps_the_newest_events() {
        let mut rec = FlightRecorder::new(4);
        for w in 0..10 {
            rec.record(event(w));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.dropped(), 6);
        let windows: Vec<u64> = rec.events().map(|e| e.window).collect();
        assert_eq!(windows, vec![6, 7, 8, 9], "oldest events are dropped");
    }

    #[test]
    fn ring_below_capacity_drops_nothing() {
        let mut rec = FlightRecorder::new(8);
        for w in 0..3 {
            rec.record(event(w));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 0);
        let windows: Vec<u64> = rec.events().map(|e| e.window).collect();
        assert_eq!(windows, vec![0, 1, 2]);
    }

    #[test]
    fn clear_keeps_the_allocation_and_resets_counts() {
        let mut rec = FlightRecorder::new(2);
        for w in 0..5 {
            rec.record(event(w));
        }
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.recorded(), 0);
        rec.record(event(7));
        assert_eq!(rec.events().next().unwrap().window, 7);
    }

    #[test]
    fn skipping_the_overwritten_windows_matches_recording_them_all() {
        for (total, capacity) in [(10u64, 4usize), (4, 4), (3, 8), (1800, 64)] {
            let mut eager = FlightRecorder::new(capacity);
            (0..total).for_each(|w| eager.record(event(w)));
            let mut lazy = FlightRecorder::new(capacity);
            // Leftovers from an earlier run are dropped with the skip.
            lazy.record(event(99));
            lazy.clear();
            let skipped = total.saturating_sub(capacity as u64);
            lazy.skip(skipped);
            (skipped..total).for_each(|w| lazy.record(event(w)));
            assert_eq!(lazy.recorded(), eager.recorded());
            assert_eq!(lazy.len(), eager.len());
            assert_eq!(lazy.dropped(), eager.dropped());
            assert_eq!(
                lazy.events_json(),
                eager.events_json(),
                "{total}/{capacity}"
            );
        }
    }

    #[test]
    fn storage_grows_to_what_the_ring_holds() {
        let mut rec = FlightRecorder::new(usize::MAX);
        assert_eq!(rec.events.capacity(), 0, "nothing reserved up front");
        for w in 0..3 {
            rec.record(event(w));
        }
        assert!(rec.events.capacity() <= 8, "{}", rec.events.capacity());
        let mut rec = FlightRecorder::new(20);
        for w in 0..100 {
            rec.record(event(w));
        }
        assert_eq!(rec.events.capacity(), 20, "growth stops at the capacity");
    }

    #[test]
    fn binding_detection_requires_an_active_cap_at_the_chosen_level() {
        let mut e = DecisionEvent::new(0, 0.0, 2);
        e.max_level[..2].copy_from_slice(&[5, 5]);
        e.cap[..2].copy_from_slice(&[3, 5]);
        e.level[..2].copy_from_slice(&[3, 5]);
        // Domain 0: level == cap < max → binding. Domain 1: cap is the
        // max, so nothing binds even though level == cap.
        assert_eq!(e.binding_domains().collect::<Vec<_>>(), vec![0]);
        assert!(e.caps_bound());
        e.level[0] = 2; // baseline chose below the cap on its own
        assert!(!e.caps_bound());
    }

    #[test]
    fn events_json_is_valid_and_truncates_to_the_domain_count() {
        let mut rec = FlightRecorder::new(4);
        rec.record(event(0));
        rec.record(event(1));
        let text = format!("{{\"events\": {}}}", rec.events_json());
        let value = crate::json::parse(&text).expect("valid JSON");
        let events = value.as_object().unwrap()["events"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        let first = events[0].as_object().unwrap();
        assert_eq!(first["band"].as_str(), Some("none"));
        assert_eq!(first["util"].as_array().unwrap().len(), 2);
        assert_eq!(first["die_c"].as_array().unwrap().len(), 1);
        // NaN fields export as null.
        assert!(first["predicted_skin_c"].as_f64().is_none());
        assert_eq!(first["skin_c"].as_f64(), Some(30.0));
    }

    /// The serializer as it was before it wrote into one buffer: one
    /// `String` per number, joined. Kept as the byte-for-byte oracle.
    fn reference_json(e: &DecisionEvent) -> String {
        use crate::json::{json_number, json_string};
        let floats = |values: &[f64]| -> String {
            let inner: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
            format!("[{}]", inner.join(", "))
        };
        let ints = |values: &[u16]| -> String {
            let inner: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            format!("[{}]", inner.join(", "))
        };
        let n = e.domains as usize;
        format!(
            "{{\"w\": {}, \"t_s\": {}, \"band\": {}, \"skin_c\": {}, \
             \"predicted_skin_c\": {}, \"residual_c\": {}, \"budget_w\": {}, \
             \"allocated_w\": {}, \"util\": {}, \"freq_khz\": {}, \"cap\": {}, \
             \"level\": {}, \"max_level\": {}, \"die_c\": {}}}",
            e.window,
            json_number(e.t_s),
            json_string(band_name(e.band)),
            json_number(e.skin_c),
            json_number(e.predicted_skin_c),
            json_number(e.residual_c),
            json_number(e.budget_w),
            json_number(e.allocated_w),
            floats(&e.util[..n]),
            floats(&e.freq_khz[..n]),
            ints(&e.cap[..n]),
            ints(&e.level[..n]),
            ints(&e.max_level[..n]),
            floats(&e.die_c[..e.dies as usize]),
        )
    }

    #[test]
    fn buffered_serializer_matches_the_reference_bytes() {
        let mut full = DecisionEvent::new(123_456, 12_345.6, MAX_DOMAINS);
        full.band = 2;
        full.skin_c = 36.676_543_210_987;
        full.predicted_skin_c = -0.0;
        full.residual_c = f64::INFINITY;
        full.budget_w = 1e-300;
        full.allocated_w = 2.5e21;
        full.dies = MAX_DOMAINS as u8;
        for d in 0..MAX_DOMAINS {
            full.util[d] = 1.0 / (d as f64 + 3.0);
            full.freq_khz[d] = 2_265_600.0 - d as f64 * 0.1;
            full.cap[d] = u16::MAX - d as u16;
            full.level[d] = d as u16;
            full.max_level[d] = 10 * d as u16;
            full.die_c[d] = if d == 3 {
                f64::NAN
            } else {
                40.0 + d as f64 / 7.0
            };
        }
        let mut rec = FlightRecorder::new(3);
        for e in [event(0), full, DecisionEvent::new(9, f64::NAN, 1), event(4)] {
            let mut out = String::new();
            e.write_json(&mut out);
            assert_eq!(out, reference_json(&e));
            rec.record(e);
        }
        let joined: Vec<String> = rec.events().map(reference_json).collect();
        assert_eq!(
            rec.events_json(),
            format!("[\n    {}\n  ]", joined.join(",\n    "))
        );
    }

    #[test]
    fn empty_recorder_exports_an_empty_array() {
        let rec = FlightRecorder::new(4);
        assert_eq!(rec.events_json(), "[]");
    }

    #[test]
    fn band_names_cover_every_code() {
        assert_eq!(band_name(0), "unrestricted");
        assert_eq!(band_name(1), "one-below-max");
        assert_eq!(band_name(2), "two-below-max");
        assert_eq!(band_name(3), "minimum");
        assert_eq!(band_name(BAND_NONE), "none");
        assert_eq!(band_name(17), "none");
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        FlightRecorder::new(0);
    }

    #[test]
    #[should_panic(expected = "domain count")]
    fn excess_domains_are_rejected() {
        DecisionEvent::new(0, 0.0, MAX_DOMAINS + 1);
    }
}
