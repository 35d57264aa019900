//! Regenerates Figure 1: the user study's per-participant comfort limits
//! (skin and screen temperature at the discomfort instant).

fn main() {
    usta_bench::print_fig1();
}
