//! The benchmark's own tests. Run them optimized:
//! `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use std::process::Command;

use fleetbench::layers::{time_triples, Rebuilt, TrainingSpans};
use fleetbench::metrics::{END_TO_END, PER_LAYER};
use fleetbench::workload::{install_catalog, Workload};
use usta_fleet::SweepConfig;

/// The traced loop reproduces `run_workload` bit for bit on one triple
/// of every device, `sd8s-gen3` included, under USTA and under the bare
/// baseline, with and without a flight-recorder ring.
#[test]
fn traced_loop_matches_run_workload_on_every_device() {
    install_catalog().expect("the committed catalog loads");
    let devices = usta_device::merged_ids();
    assert!(devices.contains(&"sd8s-gen3"), "catalog device installed");
    for device in devices {
        for usta in [true, false] {
            let config = SweepConfig {
                users: 1,
                scenarios: 1,
                seed: 7,
                usta,
                max_sim_seconds: 60.0,
                devices: vec![device.to_owned()],
                ..SweepConfig::default()
            };
            let rebuilt =
                Rebuilt::new(&config, &mut TrainingSpans::default()).expect("the triple rebuilds");
            for ring in [false, true] {
                let mut failures = Vec::new();
                let (timings, aggregate) = time_triples(&rebuilt, ring, &mut failures);
                assert!(
                    failures.is_empty(),
                    "{device}, usta {usta}, ring {ring}: {failures:?}"
                );
                let (spans, steps) = (timings.spans, timings.steps);
                assert_eq!(steps, aggregate.work.steps);
                assert_eq!(spans.apply.calls, steps);
                assert_eq!(spans.decide.calls, steps);
                assert_eq!(spans.tick.calls, if usta { steps } else { 0 });
                assert_eq!(spans.predict.calls, aggregate.work.predictions);
                assert_eq!(spans.record.calls, if ring { steps } else { 0 });
            }
        }
    }
}

fn well_formed(text: &str, max: usize, allowed: impl Fn(char) -> bool) -> bool {
    !text.is_empty() && text.len() <= max && text.chars().all(allowed)
}

/// Every metric name matches `[A-Za-z0-9_.-]+`, is unique, carries a
/// unit, and is listed in `BENCHMARK.json` with that unit.
#[test]
fn metric_names_are_well_formed_and_declared() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for (i, &(name, unit)) in all.iter().enumerate() {
        assert!(
            well_formed(name, 64, |c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "bad metric name {name:?}"
        );
        assert!(
            well_formed(unit, 16, |c| c.is_ascii_alphanumeric()
                || "_/%.-".contains(c)),
            "bad unit {unit:?} on {name}"
        );
        assert!(
            all[..i].iter().all(|&(other, _)| other != name),
            "{name} listed twice"
        );
        let declared = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            manifest.contains(&declared),
            "{name} ({unit}) not declared in BENCHMARK.json"
        );
    }
    assert_eq!(
        manifest.matches("\"name\": ").count(),
        all.len() + Workload::ALL.len(),
        "BENCHMARK.json declares exactly the workloads and metrics the command prints"
    );
}

/// Runs the benchmark command and returns its last stdout line.
fn run_benchmark(workload: Workload, seed: u64, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args(["--workload", workload.name(), "--seed"])
        .arg(seed.to_string())
        .args(["--seconds", "1", "--trace"])
        .arg(trace.to_string())
        .output()
        .expect("the benchmark runs");
    assert!(
        output.status.success(),
        "{} exited with {}",
        workload.name(),
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

/// A held-out seed runs every workload, traced and untraced, with every
/// output check passing.
#[test]
fn held_out_seed_passes_the_output_checks() {
    for workload in Workload::ALL {
        for trace in [0, 1] {
            let line = run_benchmark(workload, 7, trace);
            assert!(
                line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
                "{} --trace {trace}: {line}",
                workload.name()
            );
            let catalog: &[(&str, &str)] = if trace == 1 { &PER_LAYER } else { &END_TO_END };
            for (name, _) in catalog {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing"
                );
            }
        }
    }
}
