//! Telemetry contract tests: the deterministic work counters belong to
//! the golden surface (bit-identical at any thread count), and the
//! exported artifacts are well-formed.
//!
//! The process-global registry is shared by every test in this binary,
//! so each test holds [`serial`]'s lock: registry deltas taken across
//! one sweep then count that sweep alone. Totals are structural, since
//! earlier tests' counts stay in the registry.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use usta_fleet::{run_sweep, SweepConfig};
use usta_sim::runner::{PHASE_NAMES, PHASE_OFFSET, PHASE_STRIDE};
use usta_workloads::Benchmark;

/// Whether `name` may be a registered timing histogram: the sim layer
/// times itself only through the phase clock, so every `sim.*` timer is
/// a `sim.phase.*` one and the USTA layer registers no timer at all
/// (the nested per-step and arbiter timers are retired).
fn allowed_timer(name: &str) -> bool {
    (!name.starts_with("sim.") || name.starts_with("sim.phase.")) && !name.starts_with("usta.")
}

/// Runs this binary's tests one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sample counts of the global registry's `sim.phase.*` histograms.
fn phase_counts() -> BTreeMap<&'static str, u64> {
    usta_telemetry::global()
        .histogram_snapshots()
        .into_iter()
        .filter(|(name, _)| name.starts_with("sim.phase."))
        .map(|(name, snapshot)| (name, snapshot.count))
        .collect()
}

/// The global registry's `sim.steps` counter.
fn steps_counter() -> u64 {
    usta_telemetry::global().counter("sim.steps").value()
}

fn tiny_sweep(device: &str, users: usize, threads: usize, seed: u64) -> SweepConfig {
    SweepConfig {
        users,
        threads,
        seed,
        devices: vec![device.to_owned()],
        max_sim_seconds: 20.0,
        predictor_pool: 1,
        training_benchmarks: vec![Benchmark::GfxBench],
        training_cap_seconds: 30.0,
        chunk_size: 2,
        smoke: true,
        ..SweepConfig::default()
    }
}

#[test]
fn work_counters_cover_the_multi_domain_path() {
    let _serial = serial();
    // The flagship has GPU + display domains, so USTA's system-level
    // decide path (and with it the arbiter) must actually run.
    let report = run_sweep(&tiny_sweep("flagship-octa", 2, 1, 7)).expect("sweep runs");
    let work = report.aggregate.work;
    assert!(work.steps > 0, "a sweep simulates steps");
    assert!(work.governor_decisions > 0);
    assert!(work.predictions > 0, "USTA predicts on its cadence");
    assert!(
        work.arbiter_invocations > 0,
        "multi-domain devices route every system decide through the arbiter"
    );
}

proptest! {
    // Each case runs two real sweeps, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn work_counters_are_bit_identical_across_thread_counts(
        users in 1usize..4,
        device_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let _serial = serial();
        let device = ["nexus4", "flagship-octa"][device_idx];
        let single = run_sweep(&tiny_sweep(device, users, 1, seed)).expect("sweep runs");
        let four = run_sweep(&tiny_sweep(device, users, 4, seed)).expect("sweep runs");
        prop_assert_eq!(single.aggregate.work, four.aggregate.work);
        prop_assert!(single.aggregate.work.steps > 0);
    }
}

#[test]
fn exported_artifacts_are_well_formed() {
    let _serial = serial();
    // Turning the global sink on is sticky for the whole test binary;
    // the registry may also hold counts from earlier tests, so every
    // assertion below is structural rather than exact.
    usta_telemetry::enable();
    let report = run_sweep(&tiny_sweep("nexus4", 2, 2, 3)).expect("sweep runs");
    assert!(report.aggregate.work.steps > 0);

    let metrics = usta_telemetry::json::parse(&usta_telemetry::global().to_json())
        .expect("metrics JSON parses");
    let root = metrics.as_object().expect("metrics root is an object");
    assert_eq!(
        root.get("schema").and_then(|v| v.as_str()),
        Some("usta-telemetry/v1")
    );
    let deterministic = root
        .get("deterministic")
        .and_then(|v| v.as_object())
        .expect("deterministic section is an object");
    let triples = deterministic
        .get("fleet.triples")
        .and_then(|v| v.as_f64())
        .expect("fleet.triples is a number");
    assert!(triples >= 2.0, "this test alone contributed 2 triples");
    let wallclock = root
        .get("wallclock")
        .and_then(|v| v.as_object())
        .expect("wallclock section is an object");
    for name in PHASE_NAMES {
        assert!(wallclock.contains_key(name), "{name} missing");
    }
    for (name, entry) in wallclock {
        assert!(allowed_timer(name), "{name} registered");
        let entry = entry.as_object().expect("histogram summary object");
        let field = |key: &str| entry[key].as_f64().expect("non-empty histogram");
        let ordered = [
            field("min_s"),
            field("p50_s"),
            field("p90_s"),
            field("p99_s"),
            field("max_s"),
        ];
        assert!(
            ordered.windows(2).all(|pair| pair[0] <= pair[1]),
            "{name}: min/p50/p90/p99/max out of order: {ordered:?}"
        );
    }

    let trace = usta_telemetry::json::parse(&usta_telemetry::trace::chrome_trace_json())
        .expect("chrome trace parses");
    let events = trace
        .as_object()
        .and_then(|o| o.get("traceEvents"))
        .and_then(|v| v.as_array())
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "the sweep above emitted spans");
    // Chrome's renderer requires ts to be sorted within a thread row;
    // the exporter guarantees it per tid.
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for event in events {
        let obj = event.as_object().expect("event is an object");
        assert_eq!(obj.get("ph").and_then(|v| v.as_str()), Some("X"));
        let tid = obj.get("tid").and_then(|v| v.as_f64()).expect("tid") as u64;
        let ts = obj.get("ts").and_then(|v| v.as_f64()).expect("ts");
        assert!(obj.get("dur").and_then(|v| v.as_f64()).expect("dur") >= 0.0);
        if let Some(prev) = last_ts.insert(tid, ts) {
            assert!(ts >= prev, "ts must be monotone within tid {tid}");
        }
    }
}

#[test]
fn phase_clock_samples_every_layer_once_per_sampled_step() {
    let _serial = serial();
    usta_telemetry::enable();
    // USTA on the flagship: the training campaign and the triples run
    // every layer, arbiter included. Training and triples share one
    // 20 s cap.
    let config = SweepConfig {
        training_cap_seconds: 20.0,
        ..tiny_sweep("flagship-octa", 3, 2, 11)
    };
    let before = phase_counts();
    let steps_before = steps_counter();
    let report = run_sweep(&config).expect("sweep runs");
    let after = phase_counts();

    // One training run (one device, one benchmark) plus the triples,
    // each exactly 200 steps long.
    let runs = report.aggregate.triples + 1;
    let run_steps = 200;
    assert_eq!(
        steps_counter() - steps_before,
        runs * run_steps,
        "every run reaches the 20 s cap"
    );
    // Each stride samples its step `PHASE_OFFSET`.
    let sampled = runs * (run_steps - PHASE_OFFSET).div_ceil(PHASE_STRIDE);
    let mut names = PHASE_NAMES.to_vec();
    names.sort_unstable();
    assert_eq!(after.keys().copied().collect::<Vec<_>>(), names);
    for name in PHASE_NAMES {
        let delta = after[name] - before.get(name).copied().unwrap_or(0);
        assert_eq!(delta, sampled, "{name}: one lap per sampled step");
    }
    let registered = usta_telemetry::global().histogram_snapshots();
    for (name, _) in registered {
        assert!(allowed_timer(name), "{name} registered");
    }
}
