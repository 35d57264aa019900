//! # usta-bench — the paper's evaluation, regenerated
//!
//! One printer per paper artifact. Each `repro_*` binary
//! (`cargo run --release -p usta-bench --bin repro_table1` etc.) calls
//! one of them and prints the table or figure as text rows/series with
//! the paper's numbers alongside; `repro_all` calls all eight in order,
//! so its output holds every line the other binaries print.
//!
//! Every line is deterministic except the §4.A cost lines of
//! [`print_fig3`], which are wall-clock times on the running machine.
//! Performance is measured by the fleet benchmark (`fleetbench/`), not
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use usta_core::governor::DEFAULT_PREDICTION_PERIOD_S;
use usta_core::predictor::PredictionTarget;
use usta_ml::Learner;
use usta_sim::experiments::{
    cadence_sweep, collect_global_training_log, feature_ablation, fig1, fig2, fig3, fig4, fig5,
    policy_sweep, table1, touch, train_predictor, PAPER_TABLE1,
};

/// Timed repeats behind each §4.A median.
const REPEATS: usize = 5;

/// Figure 1: the user study's per-participant comfort limits (skin and
/// screen temperature at the discomfort instant).
pub fn print_fig1() {
    let r = fig1::fig1(7);
    println!("=== Figure 1: per-user comfort limits (AnTuTu Tester hold study) ===\n");
    println!("{}", r.to_display_string());
    println!(
        "quit-skin range: {:.1}–{:.1} °C (paper: 34.0–42.8 °C); longest session {:.0} s (paper: ~7 min)",
        r.min_quit_skin().value(),
        r.max_quit_skin().value(),
        r.longest_session_s(),
    );
}

/// Figure 2: percent of a 30-minute USTA-controlled Skype call spent
/// above each of eleven comfort-limit settings.
pub fn print_fig2() {
    let r = fig2::fig2(5);
    println!("=== Figure 2: % of 30-min Skype above threshold (USTA) ===\n");
    println!("{}", r.to_display_string());
    println!(
        "default user (37 °C): {:.1} % of the call above the limit (paper: 15.6 %)",
        r.default_user_percent()
    );
}

/// Figure 3: 10-fold cross-validated error rates of the four learners
/// on the pooled 13-benchmark dataset, skin and screen, followed by
/// §4.A's build and prediction costs on the same dataset.
pub fn print_fig3() {
    let log = collect_global_training_log(11);
    let r = fig3::fig3_on(&log, 11);
    println!("=== Figure 3: predictor error rates (10-fold CV) ===\n");
    println!("{}", r.to_display_string());
    println!(
        "best on skin: {} at {:.2} % (paper: REPTree 0.95 %, M5P 0.96 %, LR/MLP worse)",
        r.best_learner(PredictionTarget::Skin).learner,
        r.best_learner(PredictionTarget::Skin).error_rate,
    );
    let m5p = r.entry("M5P", PredictionTarget::Skin);
    println!(
        "M5P skin with 1 °C dead band: {:.2} % (paper: 0.26 %)",
        m5p.error_rate_deadband
    );

    println!("\n§4.A cost on this machine (wall-clock; varies run to run):");
    let data = log
        .to_dataset(PredictionTarget::Skin)
        .expect("log is finite");
    let mut fit_ms = HashMap::new();
    for learner in Learner::paper_set() {
        let ms = fig3::fit_time(&learner, &data, REPEATS, 7).as_secs_f64() * 1e3;
        println!(
            "fit time, {:<22} {ms:>9.2} ms (median of {REPEATS} fits, skin)",
            learner.name()
        );
        fit_ms.insert(learner.name(), ms);
    }
    println!(
        "REPTree/M5P fit-time ratio: {:.2} (paper: REPTree \"builds faster\")",
        fit_ms["REPTree"] / fit_ms["M5P"]
    );
    let window_ms = DEFAULT_PREDICTION_PERIOD_S * 1e3;
    for (target, paper_ms) in [
        (PredictionTarget::Skin, fig3::PAPER_SKIN_PREDICTION_MS),
        (PredictionTarget::Screen, fig3::PAPER_SCREEN_PREDICTION_MS),
    ] {
        let predictor = train_predictor(&log, target, 11);
        let ns = fig3::prediction_cost(&predictor, &log, REPEATS).as_nanos();
        println!(
            "one REPTree {:<6} prediction: {ns:>5} ns = {:.1e} of the 3 s window (paper: {paper_ms} ms = {:.1e})",
            target.name(),
            ns as f64 * 1e-6 / window_ms,
            paper_ms / window_ms,
        );
    }
}

/// Figure 4: the half-hour Skype temperature traces under baseline
/// DVFS and under USTA at the default 37 °C limit.
pub fn print_fig4() {
    let r = fig4::fig4(13);
    println!("=== Figure 4: Skype video call traces, baseline vs USTA ===\n");
    println!("{}", r.to_display_string());
}

/// Figure 5: per-participant 1–5 ratings of the baseline and USTA
/// sessions, plus stated preferences.
pub fn print_fig5() {
    let r = fig5::fig5(17);
    println!("=== Figure 5: blind satisfaction study ===\n");
    println!("{}", r.to_display_string());
}

/// Table 1: peak screen/skin temperature and average CPU frequency for
/// all 13 benchmarks, baseline ondemand vs USTA @ 37 °C, with the
/// paper's skin numbers alongside.
pub fn print_table1() {
    let t = table1::table1(42);
    println!("=== Table 1: 13 benchmarks x {{baseline, USTA@37°C}} ===\n");
    println!("{}", t.to_display_string());
    println!(
        "headline claim (USTA reduces the peak wherever baseline comes within 2°C of 37°C): {}",
        if t.headline_claim_holds() {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    let ours: Vec<f64> = t.rows.iter().map(|r| r.baseline.max_skin.value()).collect();
    let paper: Vec<f64> = PAPER_TABLE1.iter().map(|p| p.1).collect();
    println!(
        "baseline peak-skin correlation vs paper: {:.3}",
        usta_ml::metrics::correlation(&paper, &ours)
    );
}

/// The §3.A touch study: exterior temperatures with and without a palm
/// on the back cover, device off and under load.
pub fn print_touch() {
    let r = touch::touch(3);
    println!("=== §3.A touch study ===\n");
    println!("{}", r.to_display_string());
}

/// Ablations of USTA's design choices: prediction cadence, banding
/// policy, and predictor feature set.
pub fn print_ablations() {
    println!("=== Ablation: prediction cadence (30-min USTA Skype @ 37°C) ===\n");
    println!("period s | predictions | % over limit | peak skin °C");
    println!("{}", "-".repeat(58));
    for row in cadence_sweep(3, &[1.0, 3.0, 10.0, 30.0]) {
        println!(
            "{:>8.0} | {:>11} | {:>12.1} | {:>6.1}",
            row.period_s,
            row.predictions,
            row.percent_over,
            row.peak_skin.value()
        );
    }

    println!("\n=== Ablation: banding policy (30-min USTA Skype @ 37°C) ===\n");
    println!("{:<28} | % over | peak °C | avg GHz", "policy");
    println!("{}", "-".repeat(62));
    for row in policy_sweep(3) {
        println!(
            "{:<28} | {:>6.1} | {:>7.1} | {:>7.2}",
            row.name,
            row.percent_over,
            row.peak_skin.value(),
            row.avg_freq_ghz
        );
    }

    println!("\n=== Ablation: predictor feature set (REPTree, 10-fold CV, skin) ===\n");
    println!("{:<22} | err % | MAE K", "features");
    println!("{}", "-".repeat(42));
    for row in feature_ablation(3) {
        println!(
            "{:<22} | {:>5.2} | {:>5.3}",
            row.features, row.error_rate, row.mae
        );
    }
}

/// Every printer above, in the order `repro_all` runs them.
pub fn print_all() {
    println!("############ USTA (DATE 2015) — full evaluation reproduction ############\n");
    for print in [
        print_table1,
        print_fig1,
        print_fig2,
        print_fig3,
        print_fig4,
        print_fig5,
        print_touch,
        print_ablations,
    ] {
        print();
        println!();
    }
}
