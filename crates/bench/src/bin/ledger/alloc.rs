//! A counting allocator for `engine.allocs_per_op` and
//! `engine.alloc_bytes_per_op`. It forwards to the system allocator and
//! counts only between [`start`] and [`stop`], so the untraced pass pays
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed throughout: the counters are statistics and publish no data.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Zero the counters and start counting (all threads).
pub fn start() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Stop counting; returns (allocations, bytes requested) since [`start`].
pub fn stop() -> (u64, u64) {
    ON.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Run `f` with counting suspended. The ledger's own bookkeeping inside a
/// traced operation (growing the span and sample buffers, reading the
/// engine's profile) is not the program's allocation.
pub fn paused<T>(f: impl FnOnce() -> T) -> T {
    let was_on = ON.swap(false, Ordering::Relaxed);
    let value = f();
    ON.store(was_on, Ordering::Relaxed);
    value
}

/// Held by every test that flips the switch (tests run on parallel
/// threads and the counters are process-wide).
#[cfg(test)]
pub static SWITCH_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    /// Other tests' threads may allocate meanwhile, hence `>=`.
    #[test]
    fn counts_only_while_switched_on() {
        let _guard = super::SWITCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        super::start();
        let v: Vec<u8> = Vec::with_capacity(1000);
        let (allocs, bytes) = super::stop();
        drop(v);
        assert!(
            allocs >= 1 && bytes >= 1000,
            "{allocs} allocations, {bytes} bytes"
        );
        let w: Vec<u8> = Vec::with_capacity(4000);
        let (later_allocs, _) = super::stop();
        drop(w);
        assert_eq!(later_allocs, allocs, "counted while switched off");
        super::start();
        let x: Vec<u8> = super::paused(|| Vec::with_capacity(1 << 26));
        let (_, bytes) = super::stop();
        drop(x);
        assert!(bytes < 1 << 26, "counted while paused");
    }
}
