//! The one worker pool behind every parallel phase: cell collection
//! ([`crate::Suite`], cache-grid sweeps included) and the Table 4 /
//! pipeline / FPU sweeps `repro` runs after it.
//!
//! Workers pull the next index from a shared counter (so one long task
//! does not hold up the short ones behind it) and keep their results
//! locally; the caller gets them back in index order once the scope
//! joins. The output is therefore identical for every `jobs` value, and
//! `jobs == 1` runs the same tasks in order on the calling thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task` on every item on up to `jobs` scoped threads and returns
/// the results in item order.
///
/// # Panics
///
/// Re-raises (as a panic) a panic in any task.
pub fn map<I: Sync, T: Send>(items: &[I], jobs: usize, task: impl Fn(&I) -> T + Sync) -> Vec<T> {
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let finished: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break local };
                        local.push((i, task(item)));
                    }
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("pool worker panicked")).collect()
    });
    let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
    for (i, r) in finished {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every item ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_jobs() {
        let items: Vec<u64> = (0..37).collect();
        let serial = map(&items, 1, |&x| x * x);
        for jobs in [2, 4, 64] {
            assert_eq!(map(&items, jobs, |&x| x * x), serial, "jobs {jobs}");
        }
        assert!(map(&[] as &[u64], 4, |&x| x).is_empty());
    }
}
