//! Calibration tool: grid-search the rating-model weights against the
//! simulated session experiences so the population-level Figure 5
//! outcome (preference structure, ~4.0 vs ~4.3 means) emerges.

use usta_core::predictor::PredictionTarget;
use usta_core::rating::{Preference, RatingModel, SessionExperience};
use usta_core::user::{UserPopulation, UserProfile};
use usta_sim::experiments::common::{
    collect_global_training_log, run_baseline, run_usta, train_predictor,
};
use usta_sim::experiments::fig5::experience;
use usta_workloads::Benchmark;

fn main() {
    let seed = 17u64;
    let log = collect_global_training_log(seed);
    let population = UserPopulation::paper();
    let sessions: Vec<(UserProfile, SessionExperience, SessionExperience)> = population
        .iter()
        .map(|user| {
            let base = run_baseline(Benchmark::Skype, seed ^ (user.label as u64) << 2);
            let predictor = train_predictor(&log, PredictionTarget::Skin, seed);
            let usta = run_usta(
                Benchmark::Skype,
                user.skin_limit,
                predictor,
                seed ^ (user.label as u64) << 4,
            );
            (
                *user,
                experience(&base, user.skin_limit),
                experience(&usta, user.skin_limit),
            )
        })
        .collect();

    for (u, b, s) in &sessions {
        println!(
            "{}: base(frac {:.2} exc {:.2} uns {:.2})  usta(frac {:.2} exc {:.2} uns {:.2})",
            u.label,
            b.fraction_over_limit,
            b.mean_excess_k,
            b.unserved_fraction,
            s.fraction_over_limit,
            s.mean_excess_k,
            s.unserved_fraction
        );
    }

    let mut best: Option<(f64, RatingModel, String)> = None;
    for ht in [0.5, 0.7, 0.9, 1.1, 1.3] {
        for hd in [0.15, 0.2, 0.25, 0.3, 0.4, 0.5] {
            for pw in [0.4, 0.7, 1.0, 1.4, 2.0] {
                for band in [0.06, 0.1, 0.15, 0.2, 0.3] {
                    let m = RatingModel {
                        heat_time_weight: ht,
                        heat_degree_weight: hd,
                        perf_weight: pw,
                        indifference_band: band,
                    };
                    let mut usta_set = String::new();
                    let mut base_set = String::new();
                    let mut none_set = String::new();
                    let mut bsum = 0.0;
                    let mut usum = 0.0;
                    for (u, be, ue) in &sessions {
                        let bs = m.score(u, be);
                        let us = m.score(u, ue);
                        bsum += m.rating(u, be) as f64;
                        usum += m.rating(u, ue) as f64;
                        match m.preference(u, bs, us) {
                            Preference::Usta => usta_set.push(u.label),
                            Preference::Baseline => base_set.push(u.label),
                            Preference::NoDifference => none_set.push(u.label),
                        }
                    }
                    let bmean = bsum / sessions.len() as f64;
                    let umean = usum / sessions.len() as f64;
                    // Loss: preference mismatch + mean deviation.
                    let want_usta = "bfhj";
                    let want_base = "cg";
                    let want_none = "adei";
                    let mism = |got: &str, want: &str| {
                        want.chars().filter(|c| !got.contains(*c)).count()
                            + got.chars().filter(|c| !want.contains(*c)).count()
                    };
                    let loss = mism(&usta_set, want_usta) as f64 * 1.0
                        + mism(&base_set, want_base) as f64 * 1.0
                        + mism(&none_set, want_none) as f64 * 1.0
                        + (bmean - 4.0).abs() * 0.8
                        + (umean - 4.3).abs() * 0.8
                        + if umean <= bmean { 2.0 } else { 0.0 };
                    let desc = format!(
                        "ht={ht} hd={hd} pw={pw} band={band}: usta [{usta_set}] base [{base_set}] none [{none_set}] means {bmean:.1}/{umean:.1}"
                    );
                    if best.as_ref().is_none_or(|(l, _, _)| loss < *l) {
                        best = Some((loss, m, desc));
                    }
                }
            }
        }
    }
    let (loss, _, desc) = best.expect("grid non-empty");
    println!("\nbest (loss {loss:.2}): {desc}");
}
