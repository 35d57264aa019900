//! Table 1 harness cost: 60-second slices of each benchmark under the
//! baseline governor (full rows come from `repro_table1`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usta_governors::OnDemand;
use usta_sim::{run_workload, Device, Governor, RunConfig};
use usta_workloads::{Benchmark, PhasedWorkload, Workload};

/// A 60-second window of a benchmark.
#[derive(Debug)]
struct Slice(PhasedWorkload);

impl Workload for Slice {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn duration(&self) -> f64 {
        60.0
    }
    fn demand_into(&mut self, t: f64, dt: f64, out: &mut usta_workloads::DeviceDemand) {
        self.0.demand_into(t, dt, out)
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_slice_60s");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    for b in Benchmark::ALL {
        group.bench_function(b.name(), |bench| {
            bench.iter(|| {
                let mut device = Device::with_seed(1).expect("default device builds");
                let mut workload = Slice(b.workload(1));
                let mut governor = Governor::Baseline(Box::new(OnDemand::default()));
                black_box(run_workload(
                    &mut device,
                    &mut workload,
                    &mut governor,
                    &RunConfig::default(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
