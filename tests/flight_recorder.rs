//! Flight-recorder contract tests: triaged `flight-*.json` dumps and
//! the worst-triples table are bit-identical at any thread count, and
//! the `explain` replay reproduces exactly what the sweep recorded.

use std::collections::BTreeMap;
use std::path::Path;

use proptest::prelude::*;
use usta_fleet::{explain_triple, run_sweep, SweepConfig};
use usta_workloads::Benchmark;

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

fn read_flights(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| e.expect("dir entry reads"))
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("flight-") && name.ends_with(".json")
        })
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read_to_string(e.path()).expect("flight file reads"),
            )
        })
        .collect()
}

#[test]
fn triage_dumps_every_triple_at_a_zero_threshold_and_validates() {
    let dir = std::env::temp_dir().join(format!("usta_flight_all_{}", std::process::id()));
    let mut config = tiny_sweep("nexus4", 2, 1, 5);
    config.trace_dir = Some(dir.clone());
    config.triage_over_fraction = 0.0; // >= 0 matches everything
    config.flight_windows = 32;
    let report = run_sweep(&config).expect("sweep runs");
    let flights = read_flights(&dir);
    assert_eq!(
        flights.len(),
        config.total_triples(),
        "a zero threshold triages every triple"
    );
    assert!(flights.contains_key("flight-000000.json"));
    // Every dump is valid JSON with the committed schema and a full
    // ring (the 20 s run records 200 windows into a 32-window ring).
    for (name, text) in &flights {
        let value = usta_telemetry::json::parse(text).unwrap_or_else(|e| {
            panic!("{name} is not valid JSON: {e:?}");
        });
        let root = value.as_object().expect("flight root is an object");
        assert_eq!(
            root["schema"].as_str(),
            Some("usta-flight/v1"),
            "{name} schema"
        );
        assert_eq!(root["device"].as_str(), Some("nexus4"));
        let windows = root["windows"].as_object().expect("windows object");
        assert_eq!(windows["recorded"].as_f64(), Some(200.0));
        assert_eq!(windows["kept"].as_f64(), Some(32.0));
        assert_eq!(windows["capacity"].as_f64(), Some(32.0));
        let events = root["events"].as_array().expect("events array");
        assert_eq!(events.len(), 32, "{name} keeps the newest 32 windows");
        let first = events[0].as_object().expect("event object");
        // 200 windows recorded, 32 kept: the ring starts at window 168.
        assert_eq!(first["w"].as_f64(), Some(168.0));
        assert!(first["skin_c"].as_f64().is_some());
    }
    // The worst-triples table covers the whole (dumped) sweep, worst
    // first, and the report prints it.
    assert_eq!(report.worst.len(), config.total_triples().min(10));
    assert!(report.worst.iter().all(|w| w.dumped));
    for pair in report.worst.windows(2) {
        assert!(
            pair[0].time_over_fraction >= pair[1].time_over_fraction,
            "worst table must be sorted"
        );
    }
    let summary = report.summary();
    assert!(summary.contains("worst triples"), "{summary}");
    assert!(summary.contains("flight-000000.json"), "{summary}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_without_a_trace_dir_have_no_worst_table() {
    let report = run_sweep(&tiny_sweep("nexus4", 1, 1, 5)).expect("sweep runs");
    assert!(report.worst.is_empty());
    assert!(!report.summary().contains("worst triples"));
}

proptest! {
    // Each case runs two real sweeps, so keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn flight_dumps_are_byte_identical_across_thread_counts(
        device_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let device = ["nexus4", "flagship-octa"][device_idx];
        let base = std::env::temp_dir().join(format!(
            "usta_flight_prop_{}_{seed}_{device_idx}",
            std::process::id()
        ));
        let run = |threads: usize, sub: &str| {
            let mut config = tiny_sweep(device, 2, threads, seed);
            config.trace_dir = Some(base.join(sub));
            config.triage_over_fraction = 0.0;
            config.flight_windows = 16;
            let report = run_sweep(&config).expect("sweep runs");
            (report, read_flights(&base.join(sub)))
        };
        let (report_one, flights_one) = run(1, "t1");
        let (report_four, flights_four) = run(4, "t4");
        prop_assert_eq!(&report_one, &report_four);
        prop_assert_eq!(&report_one.worst, &report_four.worst);
        prop_assert!(!flights_one.is_empty());
        prop_assert_eq!(flights_one, flights_four);
        std::fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn five_domain_devices_fit_the_flight_event() {
    // prime-flagship carries three CPU clusters + GPU + display = five
    // frequency domains (the catalog's sd8s-gen3 likewise), so the
    // recorder's per-domain arrays must cover the workspace bound, not
    // just flagship-octa's four.
    let config = tiny_sweep("prime-flagship", 1, 1, 7);
    let explanation = explain_triple(&config, 0).expect("five-domain replay runs");
    assert!(!explanation.events.is_empty());
    assert!(explanation.events.iter().all(|e| e.domains == 5));
}

#[test]
fn explain_reproduces_the_sweeps_recorded_outcome_exactly() {
    let dir = std::env::temp_dir().join(format!("usta_flight_explain_{}", std::process::id()));
    let mut config = tiny_sweep("flagship-octa", 2, 4, 11);
    config.trace_dir = Some(dir.clone());
    run_sweep(&config).expect("sweep runs");
    let csv = std::fs::read_to_string(dir.join("triples.csv")).expect("trace written");
    // Shortest round-trip Display in the CSV means parsing recovers the
    // sweep's f64s exactly — the replay must match them bit for bit.
    for line in csv.lines().skip(1).step_by(3) {
        let fields: Vec<&str> = line.split(',').collect();
        let index: usize = fields[0].parse().expect("triple index");
        let peak: f64 = fields[4].parse().expect("peak");
        let over: f64 = fields[5].parse().expect("time over");
        let qos: f64 = fields[6].parse().expect("qos");
        let explanation = explain_triple(&config, index).expect("replay runs");
        assert_eq!(explanation.outcome.peak_skin_c, peak, "triple {index}");
        assert_eq!(
            explanation.outcome.time_over_fraction, over,
            "triple {index}"
        );
        assert_eq!(explanation.outcome.qos, qos, "triple {index}");
        assert_eq!(explanation.device, fields[3], "triple {index}");
        // The replay recorded every window of the run.
        assert_eq!(explanation.events.len(), 200);
        assert!(explanation.render().contains("band timeline:"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A ring capacity far past any run's length allocates only what the
/// run records: the sweep exits cleanly and dumps the same windows as
/// a capacity that merely covers the run. (Rings used to reserve their
/// full capacity up front: 10^11 windows aborted on the allocation and
/// `u64::MAX` panicked on capacity overflow.)
#[test]
fn huge_flight_window_counts_record_what_a_covering_ring_records() {
    let dump = |windows: &str| -> (String, usta_telemetry::json::Value) {
        let dir = std::env::temp_dir().join(format!(
            "usta_flight_windows_{windows}_{}",
            std::process::id()
        ));
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
            .args(["--smoke", "--users", "1", "--scenarios", "1"])
            .args(["--sim-seconds", "20", "--triage-over", "0", "--quiet"])
            .args(["--flight-windows", windows, "--trace-dir"])
            .arg(&dir)
            .output()
            .expect("fleet_sweep starts");
        assert!(
            output.status.success(),
            "--flight-windows {windows}: {:?}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        );
        let text = std::fs::read_to_string(dir.join("flight-000000.json")).expect("dump written");
        std::fs::remove_dir_all(&dir).ok();
        let value = usta_telemetry::json::parse(&text).expect("dump is valid JSON");
        (
            String::from_utf8(output.stdout).expect("UTF-8 report"),
            value,
        )
    };
    let (report, reference) = dump("4096");
    let reference = reference.as_object().expect("flight root");
    let windows = reference["windows"].as_object().expect("windows object");
    assert_eq!(windows["recorded"].as_f64(), Some(200.0));
    assert_eq!(windows["kept"].as_f64(), Some(200.0));
    for huge in ["100000000000", "18446744073709551615"] {
        let (huge_report, value) = dump(huge);
        assert_eq!(huge_report, report, "--flight-windows {huge}");
        let root = value.as_object().expect("flight root");
        let huge_windows = root["windows"].as_object().expect("windows object");
        assert_eq!(huge_windows["recorded"], windows["recorded"], "{huge}");
        assert_eq!(huge_windows["kept"], windows["kept"], "{huge}");
        assert_eq!(root["events"], reference["events"], "{huge}");
    }
}
