//! Proof that the disabled telemetry sink is a true no-op.
//!
//! Nothing in this process ever calls `usta_telemetry::enable()`, so
//! every instrumented site in the sim stack runs its disabled path:
//! one relaxed atomic load behind `Sink::active()`, then nothing. The
//! full-run bench pins the end-to-end per-step cost with the sink off;
//! the two micro-benches show the guarded counter loop costs the same
//! as a bare integer loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usta_governors::OnDemand;
use usta_sim::{run_workload, run_workload_recorded, Device, Governor, RunConfig};
use usta_telemetry::{DecisionEvent, FlightRecorder};
use usta_workloads::{Benchmark, PhasedWorkload, Workload};

/// A 10-second slice of the Skype phase mix: long enough to exercise
/// every instrumented site, short enough for a tight bench loop.
#[derive(Debug)]
struct Slice(PhasedWorkload);

impl Workload for Slice {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn duration(&self) -> f64 {
        10.0
    }
    fn demand_into(&mut self, t: f64, dt: f64, out: &mut usta_workloads::DeviceDemand) {
        self.0.demand_into(t, dt, out)
    }
}

fn bench(c: &mut Criterion) {
    assert!(
        !usta_telemetry::enabled(),
        "this bench must run with the telemetry sink disabled"
    );
    let mut group = c.benchmark_group("telemetry_overhead");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);

    group.bench_function("run_10s_disabled_sink", |bench| {
        bench.iter(|| {
            let mut device = Device::with_seed(7).expect("default device builds");
            let mut workload = Slice(Benchmark::Skype.workload(7));
            let mut governor = Governor::Baseline(Box::new(OnDemand::default()));
            black_box(run_workload(
                &mut device,
                &mut workload,
                &mut governor,
                &RunConfig::default(),
            ))
        })
    });

    // The flight recorder's disabled path is one `Option` check per
    // step: this run must cost the same as `run_10s_disabled_sink`.
    group.bench_function("run_10s_disabled_recorder", |bench| {
        bench.iter(|| {
            let mut device = Device::with_seed(7).expect("default device builds");
            let mut workload = Slice(Benchmark::Skype.workload(7));
            let mut governor = Governor::Baseline(Box::new(OnDemand::default()));
            black_box(run_workload_recorded(
                &mut device,
                &mut workload,
                &mut governor,
                &RunConfig::default(),
                None,
            ))
        })
    });

    // Recording itself: one Copy into preallocated ring storage.
    group.bench_function("flight_ring_record", |bench| {
        let mut ring = FlightRecorder::new(512);
        let event = DecisionEvent::new(0, 0.0, 4);
        bench.iter(|| {
            for w in 0..10_000u64 {
                let mut e = black_box(event);
                e.window = w;
                ring.record(e);
            }
            black_box(ring.recorded())
        })
    });

    group.bench_function("counter_loop_raw", |bench| {
        bench.iter(|| {
            let mut total = 0u64;
            for i in 0..10_000u64 {
                total = total.wrapping_add(black_box(i));
            }
            black_box(total)
        })
    });

    group.bench_function("counter_loop_disabled_sink", |bench| {
        bench.iter(|| {
            let mut total = 0u64;
            for i in 0..10_000u64 {
                if let Some(registry) = usta_telemetry::Sink::active() {
                    registry.counter("bench.never").increment();
                }
                total = total.wrapping_add(black_box(i));
            }
            black_box(total)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
