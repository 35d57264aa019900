//! Regenerates Table 1: peak screen/skin temperature and average CPU
//! frequency for all 13 benchmarks, baseline ondemand vs USTA @ 37 °C,
//! with the paper's skin numbers printed alongside.

fn main() {
    usta_bench::print_table1();
}
