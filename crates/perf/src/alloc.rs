//! Heap observability: a counting global allocator behind the
//! `alloc-profile` feature.
//!
//! Default builds compile none of the unsafe allocator code (the crate
//! is `forbid(unsafe_code)` without the feature) and [`alloc_stats`]
//! statically returns `None`, so tier-1 builds pay nothing. With the
//! feature on, the `repro` binary registers [`CountingAllocator`] as the
//! `#[global_allocator]` and the bench harness snapshots counter deltas
//! around each workload.

/// A snapshot (or delta) of heap-allocator activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocations.
    pub allocs: u64,
    /// Number of deallocations.
    pub(crate) frees: u64,
    /// Total bytes requested across all allocations.
    pub bytes: u64,
    /// High-water mark of live heap bytes (process lifetime for a
    /// snapshot; within-window peak is not recoverable from deltas, so
    /// [`reset_alloc_peak`] rebases it to the current live size first).
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// Activity between `earlier` and `self` (`self - earlier` for the
    /// monotone counters; the peak is reported as-is since it is rebased
    /// by [`reset_alloc_peak`], not differenced).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            frees: self.frees.saturating_sub(earlier.frees),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            peak_live_bytes: self.peak_live_bytes,
        }
    }
}

#[cfg(feature = "alloc-profile")]
mod counting {
    use super::AllocStats;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static FREES: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static LIVE: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    /// A [`GlobalAlloc`] wrapping [`System`] that counts allocations,
    /// frees, requested bytes, and the peak live heap size.
    ///
    /// Counters are relaxed atomics — cheap, and exact totals are all we
    /// need (the bench harness reads them between workloads, never
    /// concurrently with a measurement it cares about).
    pub struct CountingAllocator;

    fn on_alloc(size: u64) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size, Relaxed);
        let live = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
    }

    fn on_free(size: u64) {
        FREES.fetch_add(1, Relaxed);
        LIVE.fetch_sub(size, Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                on_alloc(layout.size() as u64);
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            on_free(layout.size() as u64);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                // Count a realloc as one free + one alloc so live-byte
                // accounting stays exact.
                on_free(layout.size() as u64);
                on_alloc(new_size as u64);
            }
            p
        }
    }

    /// Current counter snapshot.
    pub(super) fn stats() -> AllocStats {
        AllocStats {
            allocs: ALLOCS.load(Relaxed),
            frees: FREES.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            peak_live_bytes: PEAK.load(Relaxed),
        }
    }

    /// Rebase the peak to the current live size (call at the start of a
    /// measurement window so the reported peak is the window's own).
    pub(crate) fn reset_peak() {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
    }
}

/// Re-export of the counting allocator for `#[global_allocator]`
/// registration (only exists with the `alloc-profile` feature).
#[cfg(feature = "alloc-profile")]
pub use counting::CountingAllocator;

/// Current allocator counters, or `None` when the `alloc-profile`
/// feature is off (or the counting allocator simply wasn't registered —
/// then all counters read zero, which callers may treat as absent too).
pub fn alloc_stats() -> Option<AllocStats> {
    #[cfg(feature = "alloc-profile")]
    {
        let s = counting::stats();
        if s.allocs == 0 {
            return None;
        }
        Some(s)
    }
    #[cfg(not(feature = "alloc-profile"))]
    {
        None
    }
}

/// Rebase the peak-live-bytes high-water mark to the current live heap
/// size. No-op without the `alloc-profile` feature.
pub fn reset_alloc_peak() {
    #[cfg(feature = "alloc-profile")]
    counting::reset_peak();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_monotone_counters() {
        let earlier = AllocStats {
            allocs: 10,
            frees: 4,
            bytes: 1000,
            peak_live_bytes: 600,
        };
        let later = AllocStats {
            allocs: 25,
            frees: 20,
            bytes: 4000,
            peak_live_bytes: 900,
        };
        let d = later.since(&earlier);
        assert_eq!(d.allocs, 15);
        assert_eq!(d.frees, 16);
        assert_eq!(d.bytes, 3000);
        assert_eq!(d.peak_live_bytes, 900);
    }

    #[cfg(not(feature = "alloc-profile"))]
    #[test]
    fn stats_absent_without_feature() {
        assert!(alloc_stats().is_none());
        reset_alloc_peak(); // must be a harmless no-op
    }
}
