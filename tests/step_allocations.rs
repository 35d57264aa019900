//! The 100 ms step loop allocates nothing on a step that neither logs
//! nor predicts: the workload writes into one caller-owned demand
//! buffer, the device rewrites its state in place, and the governor
//! samples, the levels and USTA's decision record are loop-carried.
//!
//! A counting global allocator counts this thread's allocations, and a
//! probe governor wrapped around the baseline reads the count at every
//! decision. The gap between two consecutive decisions covers the tail
//! of one step and the head of the next; it must be zero whenever
//! neither step logs and the later one does not predict.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use usta_core::{PredictionTarget, TemperaturePredictor, UstaGovernor, UstaPolicy};
use usta_governors::{CpuGovernor, DvfsDecision, GovernorInput, OnDemand};
use usta_ml::reptree::RepTreeParams;
use usta_ml::Learner;
use usta_sim::{run_workload, Device, DeviceConfig, Governor, RunConfig, RunResult};
use usta_thermal::Celsius;
use usta_workloads::Benchmark;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation
/// per thread (so tests running in parallel do not mix their counts).
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the count is a const-initialised thread-local `Cell`,
// which neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A baseline governor that records this thread's allocation count at
/// each decision, into storage reserved before the run.
#[derive(Debug)]
struct Probe {
    inner: OnDemand,
    marks: Rc<RefCell<Vec<u64>>>,
}

impl CpuGovernor for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> DvfsDecision {
        let mark = ALLOCATIONS.with(Cell::get);
        let mut marks = self.marks.borrow_mut();
        assert!(marks.len() < marks.capacity(), "marks are reserved");
        marks.push(mark);
        drop(marks);
        self.inner.decide(input)
    }
}

fn device(id: &str) -> Device {
    Device::new(DeviceConfig {
        sensor_seed: 3,
        ..DeviceConfig::for_device_id(id).expect("built-in device")
    })
    .expect("device builds")
}

/// A probe wrapped around ondemand, with its mark storage.
fn probe(steps: usize) -> (Box<Probe>, Rc<RefCell<Vec<u64>>>) {
    let marks = Rc::new(RefCell::new(Vec::with_capacity(steps + 1)));
    let probe = Probe {
        inner: OnDemand::default(),
        marks: Rc::clone(&marks),
    };
    (Box::new(probe), marks)
}

/// Runs AnTuTu Full (phases of four and two threads) under `governor`
/// and asserts every gap between decisions that touches no log and no
/// prediction step allocated nothing.
fn assert_quiet_steps_allocate_nothing(
    id: &str,
    governor: &mut Governor,
    marks: &RefCell<Vec<u64>>,
) -> RunResult {
    let config = RunConfig::default();
    let steps_per_log = (config.log_period_s / config.governor_period_s).round() as usize;
    let result = run_workload(
        &mut device(id),
        &mut Benchmark::AntutuFull.workload(9),
        governor,
        &config,
    );
    let marks = marks.borrow();
    assert_eq!(marks.len() as u64, result.work.governor_decisions, "{id}");
    // A prediction reported at device time `t` ran on step `t/dt - 1`.
    let prediction_steps: Vec<usize> = result
        .predictions
        .iter()
        .map(|&(t, _)| (t / config.governor_period_s).round() as usize - 1)
        .collect();
    let log_step = |step: usize| step.is_multiple_of(steps_per_log);
    let mut quiet = 0;
    for step in 1..marks.len() {
        if log_step(step - 1) || log_step(step) || prediction_steps.contains(&step) {
            continue;
        }
        quiet += 1;
        assert_eq!(
            marks[step] - marks[step - 1],
            0,
            "{id}: allocations between the decisions of steps {} and {step}",
            step - 1
        );
    }
    // Only log steps may allocate: at the default cadence every
    // prediction lands on a log step.
    assert!(prediction_steps.iter().all(|&step| log_step(step)), "{id}");
    assert!(quiet > marks.len() / 2, "{id}: {quiet} quiet gaps");
    result
}

#[test]
fn ondemand_on_flagship_octa_allocates_nothing_between_log_steps() {
    let steps = (Benchmark::AntutuFull.duration() / 0.1).round() as usize;
    let (probe, marks) = probe(steps);
    let mut governor = Governor::Baseline(probe);
    let result = assert_quiet_steps_allocate_nothing("flagship-octa", &mut governor, &marks);
    assert_eq!(result.domains(), 4, "CPU clusters, GPU and display");
}

#[test]
fn usta_on_nexus4_allocates_nothing_between_log_steps() {
    let training = run_workload(
        &mut device("nexus4"),
        &mut Benchmark::GfxBench.workload(4),
        &mut Governor::Baseline(Box::new(OnDemand::default())),
        &RunConfig::default(),
    );
    let predictor = TemperaturePredictor::train(
        &Learner::RepTree(RepTreeParams::default()),
        &training.training_log,
        PredictionTarget::Skin,
        4,
    )
    .expect("training log is non-empty");
    let steps = (Benchmark::AntutuFull.duration() / 0.1).round() as usize;
    let (probe, marks) = probe(steps);
    // A limit under the training peak, so the bands move and USTA's
    // capped path runs too.
    let limit = Celsius(training.max_skin.value() - 2.0);
    let usta = UstaGovernor::new(probe, predictor, UstaPolicy::new(limit));
    let mut governor = Governor::Usta(Box::new(usta));
    let result = assert_quiet_steps_allocate_nothing("nexus4", &mut governor, &marks);
    assert!(result.work.predictions > 100, "{:?}", result.work);
    assert!(result.work.capped_decisions > 0, "{:?}", result.work);
}
