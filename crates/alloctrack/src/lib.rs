//! A counting global allocator for allocation-freedom tests.
//!
//! Wraps the system allocator and counts every `alloc` / `realloc` /
//! `alloc_zeroed` call (frees are not counted — the tests assert that
//! *no new memory is requested* on a hot path, which is the property
//! that makes the path malloc-independent).
//!
//! This is the only crate in the workspace allowed to use `unsafe`: the
//! two unsafe functions below delegate verbatim to [`System`] and add a
//! relaxed atomic increment and a per-thread one. Everything else
//! inherits the workspace-wide `unsafe_code = "forbid"`.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers a destructor.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that counts allocation requests.
///
/// Install with `#[global_allocator]` in a test binary, then diff
/// [`CountingAlloc::count`] (every thread) or
/// [`CountingAlloc::thread_count`] (the calling thread) around the code
/// under test.
pub struct CountingAlloc {
    allocations: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter (usable in `static` position).
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            allocations: AtomicU64::new(0),
        }
    }

    /// Total allocation requests (alloc + alloc_zeroed + realloc) so far.
    pub fn count(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Allocation requests the calling thread made so far: immune to
    /// what other threads (a test harness's own, say) allocate meanwhile.
    pub fn thread_count(&self) -> u64 {
        THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
    }

    fn counted(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.counted();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.counted();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.counted();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
