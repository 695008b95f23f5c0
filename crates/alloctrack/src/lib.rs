//! A counting global allocator for allocation-freedom tests.
//!
//! Wraps the system allocator and counts every `alloc` / `realloc` /
//! `alloc_zeroed` call (frees are not counted — the tests assert that
//! *no new memory is requested* on a hot path, which is the property
//! that makes the path malloc-independent). Per thread it also keeps
//! the bytes live — allocated minus freed by that thread — and their
//! peak, for tests that bound a run's heap.
//!
//! This is the only crate in the workspace allowed to use `unsafe`: the
//! unsafe functions below delegate verbatim to [`System`] and add a
//! relaxed atomic increment and per-thread bookkeeping. Everything else
//! inherits the workspace-wide `unsafe_code = "forbid"`.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    // Const-initialised and without a destructor, so touching them from
    // inside the allocator never allocates or registers a destructor.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated minus bytes it freed (negative when it
    // frees what another thread allocated), and their most since the
    // last `reset_thread_peak`.
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<i64> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that counts allocation requests.
///
/// Install with `#[global_allocator]` in a test binary, then diff
/// [`CountingAlloc::count`] (every thread) or
/// [`CountingAlloc::thread_count`] (the calling thread) around the code
/// under test; bound its heap with [`CountingAlloc::reset_thread_peak`]
/// before it and [`CountingAlloc::thread_peak_bytes`] after.
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

    /// Bytes the calling thread holds: allocated minus freed.
    pub fn thread_live_bytes(&self) -> i64 {
        THREAD_LIVE.try_with(Cell::get).unwrap_or(0)
    }

    /// The most bytes the calling thread held since its last
    /// [`CountingAlloc::reset_thread_peak`].
    pub fn thread_peak_bytes(&self) -> i64 {
        THREAD_PEAK.try_with(Cell::get).unwrap_or(0)
    }

    /// Start the calling thread's peak over from what it holds now.
    pub fn reset_thread_peak(&self) {
        let _ = THREAD_PEAK.try_with(|p| p.set(self.thread_live_bytes()));
    }

    fn counted(&self) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    /// The calling thread's live bytes moved by `delta`.
    fn resized(delta: i64) {
        let _ = THREAD_LIVE.try_with(|live| {
            let now = live.get() + delta;
            live.set(now);
            let _ = THREAD_PEAK.try_with(|p| p.set(p.get().max(now)));
        });
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
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            CountingAlloc::resized(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc::resized(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.counted();
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            CountingAlloc::resized(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.counted();
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            CountingAlloc::resized(new_size as i64 - layout.size() as i64);
        }
        new
    }
}
