//! Cadence ablation cost: the per-run price of predicting every 1 s vs
//! the paper's 3 s vs a lazy 30 s, over a 2-minute Skype slice.
//! (Control-quality numbers come from `repro_ablations`.)

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
        120.0
    }
    fn demand_into(&mut self, t: f64, dt: f64, out: &mut usta_workloads::DeviceDemand) {
        self.0.demand_into(t, dt, out)
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_cadence_2min");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    for period in [1.0, 3.0, 30.0] {
        group.bench_function(format!("period_{period}s"), |bench| {
            bench.iter(|| {
                let mut device = Device::with_seed(3).expect("default device builds");
                let mut workload = Slice(Benchmark::Skype.workload(3));
                let mut usta = UstaGovernor::new(
                    Box::new(OnDemand::default()),
                    trained(
                        &Learner::RepTree(RepTreeParams::default()),
                        PredictionTarget::Skin,
                    ),
                    UstaPolicy::new(Celsius(37.0)),
                );
                usta.set_prediction_period(period);
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
