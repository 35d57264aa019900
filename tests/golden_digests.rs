//! Cross-commit golden digests of the fleet's byte-level outputs.
//!
//! Every digest below is an FNV-1a hash of bytes the sweep produces:
//! the `--smoke` report of each built-in device, under USTA and as the
//! bare baseline (`--no-usta`), the report of a sweep over every
//! catalog device (`--catalog catalog/ --device all`), and the
//! `triples.csv`, `steps-*.csv` and `flight-*.json` files of a
//! flagship-octa smoke sweep with a trace directory. They pin the simulator's output across
//! refactors of the step loop, the thermal integrator and the fleet
//! runner: a change that moves any simulated bit moves a digest.
//!
//! The USTA and trace digests were last recaptured when the thermal step became an
//! exact zero-order hold instead of sub-stepped forward Euler. Only
//! temperatures moved, by at most 5e-3 K on a die node and 3e-4 K on
//! the skin: every level, cap, band, prediction, QoS and time-over
//! value kept its bits, and the smoke reports changed only in the
//! fourth decimal of peak-skin and die-temperature rows.
//!
//! The baseline digests joined when the step loop began to read sensors
//! only on log and prediction steps. They were captured on the commit
//! before that change, so they pin it as byte-neutral.
//!
//! The every-device digest joined when the arbiter began to reuse its
//! last allocation and OPP tables became shared. It was captured on the
//! commit before that change, so it pins it as byte-neutral on the
//! three devices that engage the arbiter.
//!
//! The smoke, baseline and every-device report digests were last
//! recaptured when one relative-error sketch replaced the fixed-bin
//! histograms. The old bins read each quantile off a bin's upper edge,
//! so reports printed quantiles above their own max (p99 peak skin
//! 36.7000 °C against a max of 36.6764) and a time-over p50 of 0.0020
//! where most triples spent none. Only the p50/p90/p99 columns moved,
//! now within 2^-10 relative of the exact quantile and inside
//! `[min, max]`, and the `devices:` line now gives each device's
//! triple count. Means, mins, maxes, the worst-triples table and every
//! trace file kept their bytes.
//!
//! The USTA-retraining item on the ROADMAP changes what the fleet
//! reports on purpose; it re-baselines these digests once, with the
//! report diff explained. On a deliberate change, copy the `got` table
//! a failing test prints over the expected constants.

use std::path::Path;

use usta_catalog::Catalog;
use usta_fleet::{run_sweep, SweepConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Asserts `got` equals `expected`, printing the whole `got` table on
/// a mismatch so a deliberate re-baseline is one copy.
fn assert_digests(what: &str, got: &[(String, u64)], expected: &[(&str, u64)]) {
    let matches = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((name, digest), (want_name, want))| name == want_name && digest == want);
    if !matches {
        let table: String = got
            .iter()
            .map(|(name, digest)| {
                let hex = format!("{digest:016x}");
                let groups = [&hex[0..4], &hex[4..8], &hex[8..12], &hex[12..16]];
                format!("    (\"{name}\", 0x{}),\n", groups.join("_"))
            })
            .collect();
        panic!("{what} digests changed; got:\n{table}");
    }
}

/// `FleetReport::summary()` of `SweepConfig::smoke()` per built-in
/// device.
const SMOKE_SUMMARIES: &[(&str, u64)] = &[
    ("nexus4", 0x2016_acde_a6b4_d0ba),
    ("flagship-octa", 0x68bc_096b_7872_7bb9),
    ("prime-flagship", 0x9528_5454_7eda_3eda),
    ("tablet-10in", 0xfac2_b304_4fab_ca63),
    ("budget-quad", 0x8fa4_be50_fb23_f355),
];

/// `FleetReport::summary()` of `SweepConfig::smoke()` with
/// `usta = false` (`fleet_sweep --smoke --no-usta`) per built-in
/// device: the bare-baseline branch of the step loop.
const BASELINE_SMOKE_SUMMARIES: &[(&str, u64)] = &[
    ("nexus4", 0x85ca_9638_0efd_5e26),
    ("flagship-octa", 0xfa11_a212_96e3_27e5),
    ("prime-flagship", 0xfb2b_8067_c53a_ce7e),
    ("tablet-10in", 0xb0fb_ef02_9c66_053f),
    ("budget-quad", 0xdce4_eff7_7aab_fac1),
];

/// `FleetReport::summary()` of `fleet_sweep --catalog catalog/
/// --device all --users 4 --scenarios 16 --seed 42`. Each scenario
/// draws its device: at this seed 16 scenarios run all six, the three
/// arbiter devices among them, where the default 4 run only three.
const ALL_DEVICES_SUMMARY: u64 = 0x3023_4971_e7b8_43c9;

/// Every file a flagship-octa smoke sweep writes with a trace
/// directory and `trace_steps = 4`, by file name.
const FLAGSHIP_TRACE_FILES: &[(&str, u64)] = &[
    ("flight-000002.json", 0x326b_e594_7bcb_658a),
    ("flight-000006.json", 0x3c39_d317_3217_9b25),
    ("flight-000010.json", 0x1597_b6dc_331f_61a6),
    ("flight-000014.json", 0xf38b_6ed2_ab56_bc57),
    ("flight-000018.json", 0x21cb_f503_86f6_e75a),
    ("flight-000022.json", 0x8ade_bc0b_12ac_e98b),
    ("flight-000026.json", 0x9ff1_3208_145f_6614),
    ("flight-000030.json", 0xfb9c_5e03_cbea_cfd3),
    ("flight-000034.json", 0xb549_d409_58a3_272c),
    ("flight-000038.json", 0x22c9_528c_ad36_1271),
    ("flight-000042.json", 0xce65_2f2d_c113_f1a8),
    ("flight-000046.json", 0xc3e3_ebd4_4c1f_9af7),
    ("flight-000047.json", 0x0956_e535_2c5c_6f21),
    ("flight-000050.json", 0xde43_3dad_7947_43d3),
    ("flight-000054.json", 0x7e9e_f771_60c8_20dc),
    ("flight-000055.json", 0x555a_5106_4dee_8b23),
    ("flight-000062.json", 0xcc1b_5581_368b_d603),
    ("flight-000066.json", 0x9209_d542_0c38_23ea),
    ("flight-000070.json", 0x9b04_7ea0_481c_dc29),
    ("flight-000071.json", 0xc0eb_d566_83d2_09f5),
    ("flight-000074.json", 0x0ee6_48cc_d0d1_e290),
    ("flight-000078.json", 0x2422_e954_fc99_2528),
    ("flight-000082.json", 0x8c13_a529_39fa_5c8a),
    ("flight-000083.json", 0x7d4c_95e6_0e35_e7ef),
    ("flight-000086.json", 0x8ada_2885_e1cd_a80e),
    ("flight-000087.json", 0xc149_306a_e72c_d9a6),
    ("flight-000090.json", 0xcc27_01a9_103a_709b),
    ("flight-000094.json", 0xc91c_8d20_4d2b_3579),
    ("flight-000098.json", 0xd8a1_626c_e341_cfda),
    ("steps-000000.csv", 0xbc25_b746_31db_2a55),
    ("steps-000001.csv", 0x282b_db3d_d9f9_d0e5),
    ("steps-000002.csv", 0x388a_1801_3705_6018),
    ("steps-000003.csv", 0xfb46_69a3_39c5_6c37),
    ("triples.csv", 0x7172_0723_a56f_ecfe),
];

/// `FleetReport::summary()` of `SweepConfig::smoke()` per built-in
/// device, with or without the USTA wrap.
fn smoke_summaries(usta: bool) -> Vec<(String, u64)> {
    usta_device::NAMES
        .iter()
        .map(|&device| {
            let config = SweepConfig {
                devices: vec![device.to_owned()],
                threads: 2,
                usta,
                ..SweepConfig::smoke()
            };
            let report = run_sweep(&config).expect("smoke sweep runs");
            (device.to_owned(), fnv1a(report.summary().as_bytes()))
        })
        .collect()
}

#[test]
fn smoke_reports_match_their_golden_digests() {
    assert_digests("smoke report", &smoke_summaries(true), SMOKE_SUMMARIES);
}

#[test]
fn baseline_smoke_reports_match_their_golden_digests() {
    assert_digests(
        "baseline smoke report",
        &smoke_summaries(false),
        BASELINE_SMOKE_SUMMARIES,
    );
}

#[test]
fn all_device_report_matches_its_golden_digest() {
    // What `--catalog catalog/` does: install the committed files into
    // the process-wide registry, which then lists sd8s-gen3 too. The
    // built-ins' files are the sources they are parsed from, so the
    // other tests here see the same specs either way.
    Catalog::load_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../catalog"))
        .expect("committed catalog loads")
        .install()
        .expect("catalog installs");
    let config = SweepConfig {
        devices: usta_device::merged_ids()
            .iter()
            .map(|&id| id.to_owned())
            .collect(),
        users: 4,
        scenarios: 16,
        seed: 42,
        threads: 2,
        ..SweepConfig::default()
    };
    let report = run_sweep(&config).expect("every-device sweep runs");
    let summary = report.summary();
    for arbiter_device in ["flagship-octa", "prime-flagship", "sd8s-gen3"] {
        assert!(
            summary.contains(&format!("freq [GHz] {arbiter_device}/gpu")),
            "{arbiter_device} ran"
        );
    }
    assert_digests(
        "every-device report",
        &[("all".to_owned(), fnv1a(summary.as_bytes()))],
        &[("all", ALL_DEVICES_SUMMARY)],
    );
}

#[test]
fn flagship_trace_files_match_their_golden_digests() {
    let dir = std::env::temp_dir().join(format!("usta_golden_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SweepConfig {
        devices: vec!["flagship-octa".to_owned()],
        threads: 2,
        trace_dir: Some(dir.clone()),
        trace_steps: 4,
        ..SweepConfig::smoke()
    };
    run_sweep(&config).expect("traced smoke sweep runs");
    let got = file_digests(&dir);
    std::fs::remove_dir_all(&dir).expect("trace dir removes");
    assert!(got.iter().any(|(name, _)| name == "triples.csv"));
    assert!(got.iter().any(|(name, _)| name.starts_with("flight-")));
    assert_digests("flagship trace file", &got, FLAGSHIP_TRACE_FILES);
}

/// `(file name, digest)` of every file in `dir`, sorted by name.
fn file_digests(dir: &Path) -> Vec<(String, u64)> {
    let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|entry| {
            let entry = entry.expect("dir entry reads");
            let bytes = std::fs::read(entry.path()).expect("trace file reads");
            (
                entry.file_name().to_string_lossy().into_owned(),
                fnv1a(&bytes),
            )
        })
        .collect();
    files.sort();
    files
}
