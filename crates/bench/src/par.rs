//! Scoped-thread fan-out for the experiment sweeps.
//!
//! Replaces the previous rayon `par_iter` usage with a std-only
//! equivalent so the workspace builds hermetically. The sweeps here are
//! coarse-grained (each item is a whole simulated experiment lasting
//! milliseconds to seconds), so one OS thread per item is the right
//! granularity — no work-stealing pool needed.

use std::thread;

/// Apply `f` to every item concurrently and return the results in input
/// order. Spawns one scoped thread per item; a panicking worker
/// propagates the panic to the caller.
pub fn pmap<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = items.iter().map(|item| s.spawn(move || f(item))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<u64> = (0..37).collect();
        let out = pmap(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = pmap(&[] as &[u8], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn closures_may_borrow_environment() {
        let base = [10u64, 20, 30];
        let items = [0usize, 1, 2];
        let out = pmap(&items, |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }
}
