//! `fleet.triple` spans time one triple each.
//!
//! This binary holds a single test on purpose: it turns the
//! process-global telemetry sink on and asserts exact span counts,
//! which sibling sweeps in the same process would disturb.

use usta_fleet::{run_sweep, SweepConfig};

#[test]
fn triple_spans_count_each_triple_once_and_fit_inside_the_sweep() {
    usta_telemetry::enable();
    // Baseline-only (no training campaign), so simulation is nearly
    // all of the wall time; chunks of 8 same-device triples.
    let config = SweepConfig {
        users: 6,
        threads: 1,
        usta: false,
        max_sim_seconds: 30.0,
        chunk_size: 8,
        smoke: true,
        ..SweepConfig::default()
    };
    let start = std::time::Instant::now();
    let report = run_sweep(&config).expect("sweep runs");
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(report.aggregate.triples, config.total_triples() as u64);

    let spans = usta_telemetry::global()
        .histogram_snapshots()
        .into_iter()
        .find(|(name, _)| *name == "fleet.triple")
        .map(|(_, snapshot)| snapshot)
        .expect("the sweep opened fleet.triple spans");
    assert_eq!(spans.count, config.total_triples() as u64);
    assert!(
        spans.total_s <= wall_s,
        "fleet.triple spans sum to {:.4} s inside a {:.4} s sweep",
        spans.total_s,
        wall_s
    );
}
