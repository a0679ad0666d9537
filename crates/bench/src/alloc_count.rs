//! A counting global allocator: the proof side of the zero-allocation
//! datapath work.
//!
//! Every binary, bench and test that links `csar-bench` routes its heap
//! traffic through [`CountingAlloc`], which forwards to the system
//! allocator and bumps a per-thread counter. [`count`] brackets a
//! closure with counter snapshots, so the datapath audit can assert
//! "this whole-group parity computation performed N heap allocations"
//! as a hard, hermetic fact rather than a profiler estimate.
//!
//! The counter is per thread, so allocations made by other threads (a
//! test harness running suites in parallel, a server thread) never leak
//! into an audit. Keep audited regions free of incidental work (no
//! printing, no collection growth) and of work handed to other threads,
//! or the numbers will include the former and miss the latter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwarding allocator that counts calls per thread.
pub struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates (no lazy init) and never
    // recurses.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only during thread teardown; an allocation made
    // then is outside every audit window anyway.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: a pure pass-through to `System` — every method forwards its
// arguments unchanged, so the `GlobalAlloc` contract (layout validity,
// pointer provenance) holds exactly when the caller's does.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds `alloc`'s contract; forwarded as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: see above.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `alloc_zeroed`'s contract; forwarded as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: see above.
        unsafe { System.alloc_zeroed(layout) }
    }

    // A realloc is a fresh allocation for counting purposes: the
    // zero-allocation claim is about steady-state buffer reuse, and a
    // growing Vec defeats that exactly like a new Vec would.
    // SAFETY: caller upholds `realloc`'s contract; forwarded as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: see above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `dealloc`'s contract; forwarded as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: see above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by the calling thread so far.
fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Run `f`, returning its result and the number of heap allocations it
/// performed on the calling thread.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_allocations();
    let r = f();
    (r, thread_allocations() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_vec_allocation() {
        let (_v, n) = count(|| vec![0u8; 4096]);
        assert!(n >= 1, "allocating a Vec must be counted");
    }

    #[test]
    fn other_threads_are_not_counted() {
        // Spawning allocates on this thread (the thread handle, the
        // result slot), so compare against the same spawn with an
        // allocation-free worker; the first spawn warms one-time state.
        let spawn = |work: fn() -> usize| std::thread::scope(|s| s.spawn(work).join().unwrap());
        spawn(|| 0);
        let (_, base) = count(|| spawn(|| 0));
        let (_, n) = count(|| spawn(|| vec![0u8; 4096].len()));
        assert_eq!(n, base, "a worker thread's allocations must not be counted");
    }

    #[test]
    fn pure_arithmetic_allocates_nothing() {
        let (x, n) = count(|| (0u64..1000).fold(0u64, |a, b| a.wrapping_add(b)));
        assert_eq!(x, 499_500);
        assert_eq!(n, 0, "a pure loop must not touch the heap");
    }
}
