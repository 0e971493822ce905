//! A counting global allocator, switched on only around the calls the
//! traced run measures (`Engine::run`), so the untraced run pays one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Forwards every request to [`System`], counting allocations and
/// requested bytes while [`counted`] is running.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ON.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap traffic observed during one [`counted`] call. A `realloc` counts
/// as one allocation of its new size.
#[derive(Debug, Clone, Copy, Default)]
pub struct Allocs {
    /// Allocation calls.
    pub count: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

/// Runs `f` with counting on (when `enabled`) and returns what it
/// allocated. The benchmark is single-threaded, so every counted
/// allocation is `f`'s own.
pub fn counted<T>(enabled: bool, f: impl FnOnce() -> T) -> (T, Allocs) {
    if !enabled {
        return (f(), Allocs::default());
    }
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let allocs = Allocs {
        count: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    };
    (out, allocs)
}
