//! Regenerates Figure 4: the half-hour Skype temperature traces under
//! baseline DVFS and under USTA at the default 37 °C limit.

fn main() {
    usta_bench::print_fig4();
}
