//! Figure 5: the blind satisfaction study — each participant rates a
//! 30-minute Skype call under the baseline and another under USTA
//! (configured to their own limit), 1–5.
//!
//! Paper anchors (§4.B): mean rating 4.0 (baseline) vs 4.3 (USTA);
//! 4 participants preferred USTA (b, f, h, j), 2 the baseline (c, g),
//! 4 noticed no difference (a, d, e, i).

use crate::experiments::common::{
    collect_global_training_log, run_baseline, run_usta, train_predictor,
};
use crate::runner::RunResult;
use usta_core::comfort::ComfortStats;
use usta_core::predictor::PredictionTarget;
use usta_core::rating::{preference, rating, satisfaction_score, Preference, SessionExperience};
use usta_core::user::{UserPopulation, UserProfile};
use usta_thermal::Celsius;
use usta_workloads::Benchmark;

/// One participant's two sessions and their verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Entry {
    /// Participant label.
    pub label: char,
    /// Rating of the baseline session, 1–5.
    pub baseline_rating: u8,
    /// Rating of the USTA session, 1–5.
    pub usta_rating: u8,
    /// Stated preference.
    pub preference: Preference,
}

/// The reproduced figure.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// One entry per participant.
    pub entries: Vec<Fig5Entry>,
}

impl Fig5Result {
    /// Mean baseline rating (the paper's 4.0).
    pub fn mean_baseline_rating(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.baseline_rating as f64)
            .sum::<f64>()
            / self.entries.len() as f64
    }

    /// Mean USTA rating (the paper's 4.3).
    pub fn mean_usta_rating(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.usta_rating as f64)
            .sum::<f64>()
            / self.entries.len() as f64
    }

    /// How many participants gave each verdict:
    /// `(prefers_usta, prefers_baseline, no_difference)`.
    pub fn preference_split(&self) -> (usize, usize, usize) {
        let usta = self
            .entries
            .iter()
            .filter(|e| e.preference == Preference::Usta)
            .count();
        let base = self
            .entries
            .iter()
            .filter(|e| e.preference == Preference::Baseline)
            .count();
        (usta, base, self.entries.len() - usta - base)
    }

    /// Renders the figure as a table.
    pub fn to_display_string(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "user | baseline | usta | preference");
        let _ = writeln!(s, "{}", "-".repeat(45));
        for e in &self.entries {
            let _ = writeln!(
                s,
                "  {}  |    {}     |  {}   | {:?}",
                e.label, e.baseline_rating, e.usta_rating, e.preference
            );
        }
        let (u, b, n) = self.preference_split();
        let _ = writeln!(
            s,
            "\nmean rating: baseline {:.1} vs usta {:.1} (paper: 4.0 vs 4.3)",
            self.mean_baseline_rating(),
            self.mean_usta_rating(),
        );
        let _ = writeln!(
            s,
            "preferences: {u} usta / {b} baseline / {n} no difference (paper: 4/2/4)"
        );
        s
    }
}

/// Converts a run into the session experience the participant felt.
pub fn experience(result: &RunResult, limit: Celsius) -> SessionExperience {
    let stats = ComfortStats::from_trace(&result.skin_trace, result.log_period_s, limit);
    let mean_excess = if stats.time_over_s > 0.0 {
        // Mean kelvins above the limit, over the exceeded samples.
        let (sum, n) = result
            .skin_trace
            .iter()
            .filter(|(_, t)| *t > limit)
            .fold((0.0, 0usize), |(s, n), (_, t)| (s + (*t - limit), n + 1));
        sum / n as f64
    } else {
        0.0
    };
    SessionExperience {
        fraction_over_limit: stats.fraction_over,
        mean_excess_k: mean_excess,
        unserved_fraction: result.unserved_fraction,
    }
}

/// Runs the full blind study.
pub fn fig5(seed: u64) -> Fig5Result {
    let log = collect_global_training_log(seed);
    let predictor = train_predictor(&log, PredictionTarget::Skin, seed);
    let population = UserPopulation::paper();
    let entries = population
        .iter()
        .map(|user: &UserProfile| {
            let base_run = run_baseline(Benchmark::Skype, seed ^ (user.label as u64) << 2);
            let usta_run = run_usta(
                Benchmark::Skype,
                user.skin_limit,
                predictor.clone(),
                seed ^ (user.label as u64) << 4,
            );
            let base_exp = experience(&base_run, user.skin_limit);
            let usta_exp = experience(&usta_run, user.skin_limit);
            Fig5Entry {
                label: user.label,
                baseline_rating: rating(user, &base_exp),
                usta_rating: rating(user, &usta_exp),
                preference: preference(
                    user,
                    satisfaction_score(user, &base_exp),
                    satisfaction_score(user, &usta_exp),
                ),
            }
        })
        .collect();
    Fig5Result { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> &'static Fig5Result {
        use std::sync::OnceLock;
        static RESULT: OnceLock<Fig5Result> = OnceLock::new();
        RESULT.get_or_init(|| fig5(17))
    }

    #[test]
    fn usta_rates_at_least_as_high_on_average() {
        let r = result();
        let base = r.mean_baseline_rating();
        let usta = r.mean_usta_rating();
        assert!(
            usta >= base,
            "mean ratings: usta {usta} should be ≥ baseline {base} (paper: 4.3 vs 4.0)"
        );
        // Both sit in the satisfied band like the paper's 4-ish means.
        assert!(base > 2.5 && usta > 3.0);
    }

    #[test]
    fn more_users_prefer_usta_than_baseline() {
        let (usta, base, none) = result().preference_split();
        assert!(
            usta > base,
            "preferences usta {usta} / baseline {base} / none {none}"
        );
        assert!(none >= 1, "high-limit users should see no difference");
    }

    #[test]
    fn user_g_prefers_baseline_despite_no_action() {
        let r = result();
        let g = r.entries.iter().find(|e| e.label == 'g').expect("user g");
        assert_eq!(g.preference, Preference::Baseline);
        // …and rated both the same (USTA never acted at 42.8 °C).
        assert_eq!(g.baseline_rating, g.usta_rating);
    }

    #[test]
    fn ratings_are_in_range() {
        for e in &result().entries {
            assert!((1..=5).contains(&e.baseline_rating));
            assert!((1..=5).contains(&e.usta_rating));
        }
    }
}
