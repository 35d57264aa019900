//! Cross-commit golden digests of the fleet's byte-level outputs.
//!
//! Every digest below is an FNV-1a hash of bytes the sweep produces:
//! the `--smoke` report of each built-in device, and the `triples.csv`,
//! `steps-*.csv` and `flight-*.json` files of a flagship-octa smoke
//! sweep with a trace directory. They pin the simulator's output across
//! refactors of the step loop, the thermal integrator and the fleet
//! runner: a change that moves any simulated bit moves a digest.
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
    ("flight-000002.json", 0x62a9_34e2_bdfb_9278),
    ("flight-000006.json", 0xd048_8fd7_cd7e_56e4),
    ("flight-000010.json", 0xcd8b_a32e_3db3_5ec3),
    ("flight-000014.json", 0xce58_53bb_3c3b_94cd),
    ("flight-000018.json", 0x7810_7673_382c_0fe7),
    ("flight-000022.json", 0x2091_b70d_5621_b00c),
    ("flight-000026.json", 0xc72c_aae4_caa2_671b),
    ("flight-000030.json", 0x78a8_bc50_099e_935e),
    ("flight-000034.json", 0xc2b7_f449_04d7_cc7c),
    ("flight-000038.json", 0xfd12_b853_e0c9_64d0),
    ("flight-000042.json", 0xbe24_acc3_980f_73e8),
    ("flight-000046.json", 0xa6f9_a32d_c4c8_36f2),
    ("flight-000047.json", 0x969e_2518_f2da_9faf),
    ("flight-000050.json", 0xa5c1_8431_d277_d861),
    ("flight-000054.json", 0x91f9_3405_e79b_4539),
    ("flight-000055.json", 0x35f0_4cac_3e5f_ea16),
    ("flight-000062.json", 0x855d_1a27_402f_3f90),
    ("flight-000066.json", 0xc842_c4f4_f818_1764),
    ("flight-000070.json", 0xa351_95ca_494d_e601),
    ("flight-000071.json", 0x4024_305b_9e5e_78d8),
    ("flight-000074.json", 0x0489_f833_d848_b505),
    ("flight-000078.json", 0xd7bf_e494_1cef_eca0),
    ("flight-000082.json", 0xe332_4b4f_b06e_e0cf),
    ("flight-000083.json", 0xbf42_f2f6_b465_2cbe),
    ("flight-000086.json", 0x442c_91ad_a9d5_09f8),
    ("flight-000087.json", 0x8b92_39e4_77e4_70de),
    ("flight-000090.json", 0x2d63_4cf3_9eb8_633b),
    ("flight-000094.json", 0x5c98_d768_83f7_36d3),
    ("flight-000098.json", 0xc6dd_6159_46bb_edfa),
    ("steps-000000.csv", 0x407d_1d19_c92c_892b),
    ("steps-000001.csv", 0x4bc2_4b51_98a4_8666),
    ("steps-000002.csv", 0x6274_4ac0_c6ea_6c71),
    ("steps-000003.csv", 0x08d8_06b0_58ce_32a1),
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
