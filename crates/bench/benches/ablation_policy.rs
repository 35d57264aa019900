//! Policy ablation cost: the paper's staircase vs a min-only policy vs a
//! gentle cap over a 2-minute Skype slice.
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
    let limit = Celsius(37.0);
    let variants: Vec<(&str, UstaPolicy)> = vec![
        ("staircase", UstaPolicy::new(limit)),
        ("min_only", UstaPolicy::with_margins(limit, 2.0, 2.0, 2.0)),
        ("gentle_cap", UstaPolicy::with_margins(limit, 4.0, 2.0, 0.0)),
    ];
    let mut group = c.benchmark_group("ablation_policy_2min");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    for (name, policy) in variants {
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let mut device = Device::with_seed(4).expect("default device builds");
                let mut workload = Slice(Benchmark::Skype.workload(4));
                let usta = UstaGovernor::new(
                    Box::new(OnDemand::default()),
                    trained(
                        &Learner::RepTree(RepTreeParams::default()),
                        PredictionTarget::Skin,
                    ),
                    policy,
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
