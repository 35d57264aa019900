//! Regenerates the §3.A touch study: exterior temperatures with and
//! without a palm on the back cover, device off and under load.

fn main() {
    usta_bench::print_touch();
}
