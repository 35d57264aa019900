//! Figure 2 harness cost: a 3-minute USTA Skype slice at three comfort
//! limits (full 11-limit sweep comes from `repro_fig2`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usta_bench::trained;
use usta_core::predictor::PredictionTarget;
use usta_core::{UstaGovernor, UstaPolicy};
use usta_governors::OnDemand;
use usta_ml::reptree::RepTreeParams;
use usta_ml::Learner;
use usta_sim::{run_workload, Device, Governor, RunConfig};
use usta_thermal::Celsius;
use usta_workloads::{Benchmark, PhasedWorkload, Workload};

#[derive(Debug)]
struct Slice(PhasedWorkload);

impl Workload for Slice {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn duration(&self) -> f64 {
        180.0
    }
    fn demand_into(&mut self, t: f64, dt: f64, out: &mut usta_workloads::DeviceDemand) {
        self.0.demand_into(t, dt, out)
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_usta_skype_slice");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    for limit in [34.0, 37.0, 42.8] {
        group.bench_function(format!("limit_{limit}"), |bench| {
            bench.iter(|| {
                let mut device = Device::with_seed(2).expect("default device builds");
                let mut workload = Slice(Benchmark::Skype.workload(2));
                let usta = UstaGovernor::new(
                    Box::new(OnDemand::default()),
                    trained(
                        &Learner::RepTree(RepTreeParams::default()),
                        PredictionTarget::Skin,
                    ),
                    UstaPolicy::new(Celsius(limit)),
                );
                let mut governor = Governor::Usta(Box::new(usta));
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
