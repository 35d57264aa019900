//! Power-budget arbiter cost per catalog device: the arbiter runs
//! inside every USTA decision on system-level devices, so its cost
//! must stay far below the 100 ms governor period. Domain count and
//! OPP-table depth drive the greedy allocation loop, so each device's
//! topology gets its own benchmark id; the band sets how much of the
//! ladder the loop climbs, so the widest (Unrestricted) and tightest
//! (MinimumFrequency) budgets bracket the cost.
//!
//! The governor prices a device's ladders once ([`PriceTable`]) and
//! keeps the table for the run, so each row times one decision on a
//! table built outside the timed loop. The governor also returns its
//! last allocation when a decision's weighted demands repeat; each row
//! here times the full greedy that such a reuse skips.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use usta_core::arbiter::PriceTable;
use usta_core::policy::FrequencyCap;
use usta_governors::FreqDomain;
use usta_sim::{Device, DeviceConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("arbiter");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));
    for id in usta_device::NAMES {
        let device = Device::new(DeviceConfig::for_device_id(id).expect("catalog id"))
            .expect("catalog device builds");
        let domains: Vec<FreqDomain> = device.freq_domains();
        let prices = PriceTable::new(&domains);
        let demand: Vec<f64> = domains
            .iter()
            .enumerate()
            .map(|(d, _)| 0.35 + 0.15 * d as f64)
            .collect();
        for (band_name, band) in [
            ("unrestricted", FrequencyCap::Unrestricted),
            ("one_below", FrequencyCap::OneLevelBelowMax),
            ("minimum", FrequencyCap::MinimumFrequency),
        ] {
            group.bench_function(format!("{band_name}/{id}"), |b| {
                b.iter(|| {
                    black_box(black_box(&prices).arbitrate(
                        black_box(band),
                        black_box(&demand),
                        black_box(Some(55.0)),
                    ))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
