//! RAII span timers.

use std::time::Instant;

use crate::registry::DurationHistogram;

/// An RAII timer: created via [`crate::Registry::span`], it measures
/// until dropped, records the elapsed time into its histogram, and
/// emits one trace event into the per-thread ring.
///
/// Spans are for **coarse** scopes (a whole triple, a training fit) —
/// per-step hot loops should time a sample of their iterations locally
/// and flush into a resolved [`DurationHistogram`] once, as the sim
/// step loop's phase clock does.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    hist: DurationHistogram,
    start: Instant,
}

impl Span {
    /// Starts the timer now.
    pub(crate) fn enter(name: &'static str, hist: DurationHistogram) -> Span {
        Span {
            name,
            hist,
            start: Instant::now(),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.hist.record(elapsed);
        crate::trace::record(self.name, self.start, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn span_records_one_observation_on_drop() {
        let r = Registry::new();
        {
            let _span = r.span("scope");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let s = r.histogram("scope").snapshot();
        assert_eq!(s.count, 1);
        assert!(s.total_s >= 0.001, "slept ≥1 ms, recorded {}", s.total_s);
    }

    #[test]
    fn nested_spans_each_record() {
        let r = Registry::new();
        {
            let _outer = r.span("outer");
            let _inner = r.span("inner");
        }
        assert_eq!(r.histogram("outer").snapshot().count, 1);
        assert_eq!(r.histogram("inner").snapshot().count, 1);
    }
}
