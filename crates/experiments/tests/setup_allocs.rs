//! Allocation ceilings on building a fat-tree simulation. A counting
//! global allocator counts the allocations (and reallocations) that
//! `Simulation::new` and the drop of its result make on this thread, so
//! a per-switch name, a per-flow path or an unsized builder `Vec` coming
//! back fails here, in every build, without the `alloc-profile` feature.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hostcc_experiments::{Scenario, Simulation};

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

/// Allocations made by building and dropping a simulation of `scenario`.
fn setup_allocs(scenario: Scenario) -> u64 {
    let before = ALLOCS.with(Cell::get);
    drop(Simulation::new(scenario));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn fat_tree_set_up_stays_within_its_allocation_ceilings() {
    for (k, ceiling) in [(4, 50), (8, 200)] {
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
