//! Regenerates Figure 3: 10-fold cross-validated error rates of the four
//! learners on the pooled 13-benchmark dataset, skin and screen, and
//! §4.A's fit-time and prediction-cost claims.

fn main() {
    usta_bench::print_fig3();
}
