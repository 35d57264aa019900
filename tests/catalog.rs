//! Integration suite for the file-driven catalog: canonical form of
//! the committed built-in files, exact round-trips, malformed-input
//! robustness, the merged registry, and the golden guarantee that a
//! device loaded from a file simulates bit-identically to the built-in
//! compiled from the same file.

use std::path::PathBuf;

use proptest::prelude::*;
use usta_catalog::{device_to_toml, parse_device, Catalog, ErrorKind, RegistryExt};
use usta_device::{DeviceSpec, Registry};
use usta_fleet::{run_sweep, GridAxes, SweepConfig};
use usta_sim::runner::{run_workload, Governor, RunConfig, RunResult};
use usta_sim::{Device, DeviceConfig};
use usta_workloads::Benchmark;

/// The committed catalog directory at the repository root.
fn committed_catalog_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../catalog")
}

fn builtin_specs() -> Vec<DeviceSpec> {
    Registry::builtin().specs().to_vec()
}

#[test]
fn committed_files_match_the_serializer_exactly() {
    // The built-in files are the only definition of the built-ins;
    // this keeps each in the canonical form the serializer writes, so
    // a hand edit stays minimal, exact and diffable.
    let dir = committed_catalog_dir();
    for spec in builtin_specs() {
        let path = dir.join(format!("{}.toml", spec.id));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} must be committed: {e}", path.display()));
        let canonical = device_to_toml(&spec);
        assert!(
            committed == canonical,
            "{} is not in canonical form; its canonical text is:\n{canonical}",
            path.display()
        );
    }
}

#[test]
fn committed_catalog_loads_and_round_trips_the_builtins() {
    let catalog = Catalog::load_dir(committed_catalog_dir()).expect("committed catalog loads");
    for spec in builtin_specs() {
        assert_eq!(
            catalog.device(spec.id),
            Some(&spec),
            "file-loaded {} must equal the compiled-in spec",
            spec.id
        );
    }
}

#[test]
fn sd8s_gen3_is_file_only_and_fully_validated() {
    let catalog = Catalog::load_dir(committed_catalog_dir()).expect("committed catalog loads");
    let spec = catalog.device("sd8s-gen3").expect("sd8s-gen3 is committed");
    // Loading already ran DeviceSpec::validate; spot-check the shape.
    assert!(
        Registry::builtin().by_id("sd8s-gen3").is_none(),
        "sd8s-gen3 must come only from the file"
    );
    spec.validate().expect("still validates");
    assert_eq!(spec.domains(), 3);
    assert_eq!(spec.cores(), 8);
    assert_eq!(spec.topology(), "1+4+3");
    // The GEARS gear-4 top frequencies, big-first.
    let tops: Vec<u32> = spec
        .clusters
        .iter()
        .map(|c| c.opp.last().expect("non-empty OPP").khz)
        .collect();
    assert_eq!(tops, vec![3_014_400, 2_803_200, 2_016_000]);
    assert!(spec.gpu.is_some(), "governed GPU domain");
    assert!(spec.brightness_ladder.is_some(), "governed display domain");
}

#[test]
fn committed_grid_resolves_against_the_fleet_enums() {
    let catalog = Catalog::load_dir(committed_catalog_dir()).expect("committed catalog loads");
    let grid = catalog.grid("paper-extremes").expect("grid is committed");
    assert_eq!(grid.len_per_device(), 24);
    let axes = GridAxes::from_spec(grid).expect("every axis value resolves");
    assert_eq!(axes.len_per_device(), 24);
    assert_eq!(axes.benchmarks.len(), 3);
    assert!(axes.benchmarks.contains(&Benchmark::GfxBench));
    assert_eq!(axes.charging, vec![true]);
}

#[test]
fn registry_from_dir_merges_the_committed_catalog() {
    let registry = Registry::from_dir(committed_catalog_dir()).expect("merges");
    assert_eq!(registry.len(), usta_device::NAMES.len() + 1);
    assert!(registry.by_id("sd8s-gen3").is_some());
    // Built-ins keep their identity (the files are the built-ins).
    assert_eq!(
        registry.by_id("nexus4"),
        Registry::builtin().by_id("nexus4")
    );
}

/// Runs GFXBench on a device built from the given spec.
fn gfxbench_on(spec: &DeviceSpec, seed: u64) -> RunResult {
    let config = DeviceConfig {
        sensor_seed: seed,
        ..DeviceConfig::for_device(spec.clone())
    };
    let mut device = Device::new(config).expect("spec builds a device");
    let mut workload = Benchmark::GfxBench.workload(seed);
    let mut governor =
        Governor::Baseline(usta_governors::by_name("ondemand").expect("ondemand is registered"));
    run_workload(
        &mut device,
        &mut workload,
        &mut governor,
        &RunConfig::default(),
    )
}

#[test]
fn nexus4_from_file_reproduces_the_builtin_trajectory_bit_for_bit() {
    let text = std::fs::read_to_string(committed_catalog_dir().join("nexus4.toml"))
        .expect("committed nexus4 file");
    let from_file = parse_device(&text).expect("parses");
    let builtin = Registry::builtin().by_id("nexus4").expect("built-in");
    assert_eq!(&from_file, builtin);
    let a = gfxbench_on(&from_file, 42);
    let b = gfxbench_on(builtin, 42);
    assert_eq!(a.skin_trace, b.skin_trace, "skin traces diverged");
    assert_eq!(a.freq_trace, b.freq_trace, "frequency traces diverged");
    assert_eq!(a.max_skin, b.max_skin);
    assert_eq!(a.work, b.work);
}

#[test]
fn installed_catalog_device_sweeps_deterministically_across_threads() {
    // Install from the committed files (what `--catalog catalog/`
    // does), then sweep the file-only device at two thread counts.
    let catalog = Catalog::load_dir(committed_catalog_dir()).expect("committed catalog loads");
    catalog.install().expect("installs");
    assert!(usta_device::merged_ids().contains(&"sd8s-gen3"));
    // Unknown-device errors now enumerate the merged registry.
    let message = usta_device::try_by_id("pixel-9").unwrap_err().to_string();
    assert!(message.contains("sd8s-gen3"), "{message:?}");

    let mut config = SweepConfig {
        users: 3,
        max_sim_seconds: 30.0,
        predictor_pool: 2,
        training_benchmarks: vec![Benchmark::GfxBench],
        training_cap_seconds: 60.0,
        smoke: true,
        devices: vec!["sd8s-gen3".to_owned()],
        ..SweepConfig::default()
    };
    config.threads = 1;
    let one = run_sweep(&config).expect("file-only device sweeps");
    config.threads = 4;
    let four = run_sweep(&config).expect("file-only device sweeps");
    assert_eq!(one, four, "sd8s-gen3 must be thread-count invariant");
    assert_eq!(one.devices, vec!["sd8s-gen3"]);
    assert!(one.aggregate.triples > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_builtin_round_trips_exactly(index in 0usize..5) {
        let spec = builtin_specs()[index].clone();
        let reparsed = parse_device(&device_to_toml(&spec)).expect("round-trips");
        prop_assert_eq!(reparsed, spec);
    }

    #[test]
    fn truncated_files_error_cleanly_and_never_panic(
        index in 0usize..5,
        fraction in 0.0f64..1.0,
    ) {
        let text = device_to_toml(&builtin_specs()[index]);
        let chars: Vec<char> = text.chars().collect();
        let cut = ((chars.len() as f64) * fraction) as usize;
        let truncated: String = chars[..cut.min(chars.len().saturating_sub(1))]
            .iter()
            .collect();
        // Any strict prefix is missing required keys at minimum, so it
        // must fail — with a message, never a panic.
        let error = parse_device(&truncated).expect_err("strict prefixes cannot validate");
        prop_assert!(!error.to_string().is_empty());
    }

    #[test]
    fn flipped_key_names_produce_structured_errors(
        index in 0usize..5,
        which in 0usize..6,
    ) {
        // Corrupt one known key into an unknown one; the error must
        // carry the offending line and a key path.
        let keys = ["id =", "cores =", "opp-khz =", "base-w =", "nodes =", "skin-node ="];
        let text = device_to_toml(&builtin_specs()[index]);
        let needle = keys[which];
        prop_assert!(text.contains(needle), "every device file has {needle:?}");
        let corrupted = text.replacen(needle, &format!("zz-{needle}"), 1);
        let error = parse_device(&corrupted).expect_err("unknown keys are rejected");
        prop_assert!(error.line > 0, "error should carry a line: {error}");
        prop_assert!(error.key.is_some(), "error should carry a key: {error}");
    }
}

#[test]
fn non_monotone_opp_files_are_device_errors_with_file_context() {
    // Swap the first two OPP frequencies of the first cluster: parses
    // fine, fails DeviceSpec validation — and through Catalog::load_dir
    // the error names the file.
    let spec = Registry::builtin().by_id("nexus4").expect("built-in");
    let khz0 = spec.clusters[0].opp[0].khz;
    let khz1 = spec.clusters[0].opp[1].khz;
    let text = device_to_toml(spec).replacen(
        &format!("opp-khz = [{khz0}, {khz1}"),
        &format!("opp-khz = [{khz1}, {khz0}"),
        1,
    );
    let error = parse_device(&text).expect_err("non-monotone OPP rejected");
    assert!(
        matches!(
            error.kind,
            ErrorKind::Device(usta_device::DeviceError::NonMonotoneOppFrequency { .. })
        ),
        "{error}"
    );
    assert_eq!(error.key.as_deref(), Some("device.cluster"));

    let dir = std::env::temp_dir().join(format!("usta-catalog-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("bad.toml"), &text).expect("write bad file");
    let error = Catalog::load_dir(&dir).expect_err("bad file rejected");
    assert!(error.to_string().contains("bad.toml"), "{error}");
    std::fs::remove_dir_all(&dir).ok();
}
