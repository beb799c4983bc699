//! A counting global allocator for the `alloc.*` metrics. It lives in
//! the benchmark binary only: the simulator's crates keep the system
//! allocator and never see the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator, plus a count of allocations and requested
/// bytes once [`start_counting`] has run. `realloc` counts as one
/// allocation of its new size. The counters publish no other data, so
/// every access is `Relaxed`.
pub struct Counting;

/// Counter shards, one cache line each, so the campaign's worker
/// threads do not contend for one line.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    count: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Shard = Shard {
    count: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

static ON: AtomicBool = AtomicBool::new(false);
static SHARD: [Shard; SHARDS] = [ZERO; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates (this runs inside the allocator).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(size: usize) {
    if !ON.load(Relaxed) {
        return;
    }
    let i = MY_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    SHARD[i].count.fetch_add(1, Relaxed);
    SHARD[i].bytes.fetch_add(size as u64, Relaxed);
}

/// Zeroes the counters and starts counting.
pub fn start_counting() {
    for s in &SHARD {
        s.count.store(0, Relaxed);
        s.bytes.store(0, Relaxed);
    }
    ON.store(true, Relaxed);
}

/// Stops counting until [`resume`]; returns whether counting was on.
pub fn pause() -> bool {
    ON.swap(false, Relaxed)
}

/// Counts again if `on`, the value [`pause`] returned.
pub fn resume(on: bool) {
    ON.store(on, Relaxed);
}

/// `(allocations, bytes)` counted since [`start_counting`].
pub fn counted() -> (u64, u64) {
    SHARD.iter().fold((0, 0), |(c, b), s| {
        (c + s.count.load(Relaxed), b + s.bytes.load(Relaxed))
    })
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// memory that is handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's valid size.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
