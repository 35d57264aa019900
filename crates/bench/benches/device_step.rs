//! Substrate throughput: one 100 ms device step (SoC power + battery +
//! one zero-order-hold RC thermal mat-vec), and a full observation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usta_sim::Device;
use usta_workloads::DeviceDemand;

fn bench(c: &mut Criterion) {
    let mut device = Device::with_seed(1).expect("default device builds");
    let demand = DeviceDemand {
        cpu_threads_khz: vec![1_200_000.0, 600_000.0, 300_000.0, 150_000.0],
        gpu_load: 0.5,
        display_on: true,
        brightness: 0.9,
        board_w: 0.8,
        charging: false,
    };
    let mut group = c.benchmark_group("device");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    group.bench_function("step_100ms", |b| {
        b.iter(|| device.apply_level(black_box(&demand), 8, 0.1))
    });
    group.bench_function("observe", |b| b.iter(|| black_box(device.observe())));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
