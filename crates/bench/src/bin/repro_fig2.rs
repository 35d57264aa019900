//! Regenerates Figure 2: percent of a 30-minute USTA-controlled Skype
//! call spent above each of eleven comfort-limit settings.

fn main() {
    usta_bench::print_fig2();
}
