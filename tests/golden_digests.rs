//! Cross-commit golden digests of the fleet's byte-level outputs.
//!
//! Every digest below is an FNV-1a hash of bytes the sweep produces:
//! the `--smoke` report of each built-in device, and the `triples.csv`,
//! `steps-*.csv` and `flight-*.json` files of a flagship-octa smoke
//! sweep with a trace directory. They pin the simulator's output across
//! refactors of the step loop, the thermal integrator and the fleet
//! runner: a change that moves any simulated bit moves a digest.
//!
//! The trace-file digests were last recaptured when sensor noise became
//! counter-based: the readings' noise and the thermistor lag changed,
//! so the retrained predictors' leaf values moved. Only the predicted
//! skin temperature and its residual changed (`predicted_skin_c` and
//! `residual_c` in `flight-*.json`, `prediction_c` in `steps-*.csv`);
//! the smoke reports and `triples.csv` kept their digests.
//!
//! The USTA-retraining item on the ROADMAP changes what the fleet
//! reports on purpose; it re-baselines these digests once, with the
//! report diff explained. On a deliberate change, copy the `got` table
//! a failing test prints over the expected constants.

use std::path::Path;

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
    ("nexus4", 0x393a_be47_51a7_cfa0),
    ("flagship-octa", 0xf509_1e79_ce5b_1fd1),
    ("prime-flagship", 0x6b10_204c_444d_6319),
    ("tablet-10in", 0xad19_8001_8382_571a),
    ("budget-quad", 0x42f7_3d50_e5da_25cf),
];

/// Every file a flagship-octa smoke sweep writes with a trace
/// directory and `trace_steps = 4`, by file name.
const FLAGSHIP_TRACE_FILES: &[(&str, u64)] = &[
    ("flight-000002.json", 0xf9f7_6b8e_6db9_82f4),
    ("flight-000006.json", 0x79f3_d75e_8f06_4f3c),
    ("flight-000010.json", 0xc3ea_816e_9903_df1b),
    ("flight-000014.json", 0x1a99_17c1_6f1b_b903),
    ("flight-000018.json", 0xb0c2_103c_8ec4_9871),
    ("flight-000022.json", 0xe368_3eba_3203_47f8),
    ("flight-000026.json", 0xab51_f576_86c0_13e1),
    ("flight-000030.json", 0xb702_275a_5e26_04a0),
    ("flight-000034.json", 0x9199_e13d_2741_dd8a),
    ("flight-000038.json", 0x8cea_7a98_174b_c49e),
    ("flight-000042.json", 0x5591_25ea_747b_05e0),
    ("flight-000046.json", 0x0bc3_bfeb_1be6_8c6c),
    ("flight-000047.json", 0x4495_47eb_a443_e42d),
    ("flight-000050.json", 0xa206_5d7a_6ff2_9087),
    ("flight-000054.json", 0xba57_ab6c_7631_fd41),
    ("flight-000055.json", 0xeaab_47ea_99f6_8a8a),
    ("flight-000062.json", 0xbef6_b642_e111_9c52),
    ("flight-000066.json", 0xd4fc_f5fd_b796_339a),
    ("flight-000070.json", 0xc4bb_53cc_a346_ca1f),
    ("flight-000071.json", 0x3149_d9a6_0e48_e2ca),
    ("flight-000074.json", 0x03d6_b313_ef48_2823),
    ("flight-000078.json", 0x0d2f_a45c_2626_0b8a),
    ("flight-000082.json", 0xbe80_4937_a5ab_6661),
    ("flight-000083.json", 0xe560_928a_7c71_8e5a),
    ("flight-000086.json", 0x9402_edf3_a0ce_1102),
    ("flight-000087.json", 0xb754_14a3_7ec5_cc02),
    ("flight-000090.json", 0x8cb1_73ea_5a2d_0e45),
    ("flight-000094.json", 0xc0b1_68f5_87d8_e76d),
    ("flight-000098.json", 0x4c2d_e30e_f04f_d4a6),
    ("steps-000000.csv", 0xb66f_06d3_3708_f9a9),
    ("steps-000001.csv", 0x9890_0a98_fa0a_4c31),
    ("steps-000002.csv", 0x45f5_4805_4601_80af),
    ("steps-000003.csv", 0x04e7_3fb7_b32b_c2fd),
    ("triples.csv", 0x313d_0a36_2067_71bc),
];

#[test]
fn smoke_reports_match_their_golden_digests() {
    let got: Vec<(String, u64)> = usta_device::NAMES
        .iter()
        .map(|&device| {
            let config = SweepConfig {
                devices: vec![device.to_owned()],
                threads: 2,
                ..SweepConfig::smoke()
            };
            let report = run_sweep(&config).expect("smoke sweep runs");
            (device.to_owned(), fnv1a(report.summary().as_bytes()))
        })
        .collect();
    assert_digests("smoke report", &got, SMOKE_SUMMARIES);
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
