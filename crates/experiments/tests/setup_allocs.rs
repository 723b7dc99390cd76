//! Allocation ceilings on building a simulation, and exact allocation
//! counts of running one. A counting global allocator counts the
//! allocations (and reallocations) made on this thread, so a per-switch
//! name, a per-flow path or an unsized builder `Vec` coming back fails
//! here, in every build, without the `alloc-profile` feature; so does a
//! per-event or per-sample allocation in a run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hostcc_experiments::figures::Budget;
use hostcc_experiments::grid::GridSpec;
use hostcc_experiments::{Scenario, Simulation};
use hostcc_telemetry::{Telemetry, TelemetryHandle};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Allocations made by building and dropping a simulation of `scenario`.
fn setup_allocs(scenario: Scenario) -> u64 {
    allocs(|| drop(Simulation::new(scenario)))
}

/// Allocations made by running `sim` to its result (set-up excluded).
fn run_allocs(mut sim: Simulation) -> u64 {
    allocs(|| drop(sim.run()))
}

#[test]
fn fat_tree_set_up_stays_within_its_allocation_ceilings() {
    for (k, ceiling) in [(4, 31), (8, 143)] {
        let scenario = Scenario::fat_tree_incast(k, 3.0);
        let allocs = setup_allocs(scenario.clone());
        assert!(allocs <= ceiling, "k={k}: {allocs} allocations");
        let allocs = setup_allocs(scenario.enable_hostcc());
        assert!(allocs <= ceiling, "k={k} with hostCC: {allocs} allocations");
    }
}

/// A targeted link fault is checked by looking the link up, not by
/// rendering every link name into a list of strings.
#[test]
fn targeted_chaos_set_up_stays_within_its_allocation_ceiling() {
    let mut scenario = Scenario::fat_tree_incast(4, 3.0);
    scenario.chaos = Some("flap@link:p3e1-h15@4500us+400us".to_string());
    let allocs = setup_allocs(scenario);
    assert!(allocs <= 80, "{allocs} allocations");
}

/// The single-host scenarios of the benchmark: the paper baseline, and
/// hostCC under 3× congestion with four RPC clients. Each client
/// allocates one `Vec` of per-size histograms, and the clients sit in
/// one more `Vec`.
#[test]
fn single_host_set_up_stays_at_its_allocation_counts() {
    for (name, scenario, ceiling) in [
        ("baseline", Scenario::paper_baseline(), 10),
        (
            "hostcc with RPC",
            Scenario::with_congestion(3.0).enable_hostcc().with_rpc(4),
            19,
        ),
    ] {
        let allocs = setup_allocs(scenario);
        assert!(allocs <= ceiling, "{name}: {allocs} allocations");
    }
}

/// A run allocates only where its state grows (queues, arenas, RPC
/// histograms and buffers reaching their peak): an RPC completion is
/// drained in place, not handed back in a fresh buffer.
#[test]
fn hostcc_rpc_run_allocates_exactly_its_growth() {
    let scenario = Scenario::with_congestion(3.0).enable_hostcc().with_rpc(4);
    let sim = Simulation::new(Budget::quick().apply(scenario));
    assert_eq!(run_allocs(sim), 372);
}

/// A recorded run registers its metrics once, at attach; after that a
/// telemetry sample allocates nothing beyond its series' growth, and the
/// result's frozen copy.
#[test]
fn recorded_hostcc_run_allocates_exactly_its_growth() {
    let base = GridSpec::preset("hostcc").expect("scenario preset").base;
    let mut sim = Simulation::new(Budget::quick().apply(base));
    sim.set_telemetry(TelemetryHandle::new(Telemetry::default()));
    assert_eq!(run_allocs(sim), 648);
}
