//! Runs every repro experiment in sequence — the one-shot regeneration
//! of the paper's whole evaluation section.

fn main() {
    usta_bench::print_all();
}
