//! Thermal-topology stepping cost per device: one 100 ms
//! `DeviceThermalModel` step (one zero-order-hold mat-vec, discretized
//! on the first step) for every catalog device, so the per-node cost of
//! growing topologies (7 nodes on single-cluster phones up to 10 on
//! prime-flagship) is tracked.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usta_thermal::{DeviceThermalModel, HeatLoad};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_step");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for id in usta_device::NAMES {
        let spec = usta_device::by_id(id).expect("catalog id");
        let mut model =
            DeviceThermalModel::new(spec.thermal.topology()).expect("catalog topology builds");
        let dies = model.topology().dies();
        model.set_heat(HeatLoad {
            die_w: (0..dies).map(|d| 1.5 / (d + 1) as f64).collect(),
            gpu_w: 1.0,
            display_w: 0.8,
            battery_w: 0.2,
            board_w: 0.3,
        });
        group.bench_function(format!("step_100ms/{id}"), |b| {
            b.iter(|| black_box(&mut model).step(0.1))
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
