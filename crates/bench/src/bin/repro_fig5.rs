//! Regenerates Figure 5: per-participant 1–5 ratings of the baseline and
//! USTA sessions, plus stated preferences.

fn main() {
    usta_bench::print_fig5();
}
