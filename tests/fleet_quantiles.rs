//! The fleet report's quantiles are true of the data: on a
//! reference-shaped sweep, every p50/p90/p99 lies in its row's exact
//! `[min, max]` and within 2^-10 relative of the exact nearest-rank
//! quantile of the `triples.csv` column it summarizes, and every probe
//! of the percentile search reads a p99 inside its own sweep's range.

use usta_fleet::{run_sweep, target_percentile, MetricAggregate, SweepConfig};

/// The reference sweep's shape (nexus4, 4 scenarios, 180 s cap, seed
/// 42) with fewer users.
fn reference_shaped(users: usize) -> SweepConfig {
    SweepConfig {
        users,
        seed: 42,
        threads: 2,
        ..SweepConfig::default()
    }
}

/// The exact nearest-rank `q`-quantile (`ceil(q·n)`, at least 1).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

#[test]
fn report_quantiles_match_the_exact_ones_from_triples_csv() {
    let dir = std::env::temp_dir().join(format!("usta_quantiles_{}", std::process::id()));
    let config = SweepConfig {
        trace_dir: Some(dir.clone()),
        ..reference_shaped(40)
    };
    let report = run_sweep(&config).expect("sweep runs");
    let csv = std::fs::read_to_string(dir.join("triples.csv")).expect("triples.csv");
    std::fs::remove_dir_all(&dir).ok();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert_eq!(rows.len(), config.total_triples());

    let aggregate = &report.aggregate;
    let metrics: [(&str, &MetricAggregate); 3] = [
        ("peak_skin_c", &aggregate.peak_skin),
        ("time_over_fraction", &aggregate.time_over_limit),
        ("qos", &aggregate.qos),
    ];
    for (column, metric) in metrics {
        let at = header.iter().position(|&h| h == column).expect(column);
        let mut values: Vec<f64> = rows.iter().map(|r| r[at].parse().expect("f64")).collect();
        values.sort_by(f64::total_cmp);
        let (lo, hi) = (values[0], values[values.len() - 1]);
        assert_eq!(
            (metric.stats.min(), metric.stats.max()),
            (lo, hi),
            "{column}"
        );
        for q in [0.50, 0.90, 0.99] {
            let (got, exact) = (metric.sketch.quantile(q), nearest_rank(&values, q));
            assert!(
                lo <= got && got <= hi,
                "{column} p{q}: {got} outside [{lo}, {hi}]"
            );
            assert!(
                (got - exact).abs() <= exact.abs() / 1024.0,
                "{column} p{q}: {got} vs exact {exact}"
            );
        }
    }

    // Most triples of this shape never cross their limit: the exact
    // median time over limit is 0, and the report prints exactly that.
    let times = &aggregate.time_over_limit;
    assert_eq!(times.sketch.quantile(0.5), 0.0);
    let row = report
        .summary()
        .lines()
        .find(|l| l.starts_with("time over limit"))
        .expect("time-over row")
        .to_owned();
    let cells: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cells[5], "0.0000", "p50 column of {row:?}");
}

#[test]
fn every_percentile_probe_stays_within_its_sweeps_range() {
    // The search bisects on p99 time over limit, so each probe's p99
    // must be a value its own sweep could have produced.
    let config = reference_shaped(40);
    let target = target_percentile(&config, 0.05, 1).expect("search runs");
    assert_eq!(target.trajectory.len(), 3);
    for probe in &target.trajectory {
        let over = run_sweep(&SweepConfig {
            policy_limit_percentile: Some(probe.percentile),
            ..config.clone()
        })
        .expect("probe sweep runs")
        .aggregate
        .time_over_limit;
        assert_eq!(probe.p99_time_over, over.sketch.quantile(0.99));
        let (lo, hi) = (over.stats.min(), over.stats.max());
        assert!(
            lo <= probe.p99_time_over && probe.p99_time_over <= hi,
            "probe {}: p99 {} outside [{lo}, {hi}]",
            probe.percentile,
            probe.p99_time_over
        );
    }
}
