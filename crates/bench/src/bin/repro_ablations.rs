//! Ablations of USTA's design choices: prediction cadence, banding
//! policy, and predictor feature set.

fn main() {
    usta_bench::print_ablations();
}
