//! Scoped fan-out of owned jobs over worker threads.
//!
//! One helper behind every parallel path in the workspace: Monte-Carlo
//! replicates (`bench::parallel`), per-arm build planning and shard runs
//! (`fleet`). Workers claim items dynamically — a fast worker takes the
//! next item instead of idling behind a static chunk — each worker owns
//! one piece of state for all the items it claims (a recycled event
//! queue, say), and results come back in item order, so the output never
//! depends on thread scheduling.
//!
//! A panicking job is caught at the job boundary and its worker stops
//! claiming. Every worker is joined before the helper returns; the error
//! then names the panicking job with the **lowest index**, payload
//! included. Claims are handed out in index order, so whenever any job
//! panics the lowest panicking index has certainly run — the reported
//! failure is deterministic, independent of which worker claimed what.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// A job that panicked inside [`fan_out`].
#[derive(Debug)]
pub struct JobPanic {
    /// Index of the job in the input.
    pub index: usize,
    /// The panic payload, for [`std::panic::resume_unwind`].
    pub payload: Box<dyn Any + Send>,
}

impl JobPanic {
    /// The payload rendered as text (`<non-string panic payload>` when it
    /// is neither a `String` nor a `&str`).
    pub fn message(&self) -> String {
        self.payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| self.payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".to_string())
    }
}

/// Runs `job(state, index, item)` for every item across up to `workers`
/// scoped threads and returns the results in item order.
///
/// Each worker builds its state once with `init` and threads it through
/// every job it claims. With one worker (or at most one item) everything
/// runs on the calling thread and no thread is spawned.
///
/// # Errors
///
/// The lowest-index [`JobPanic`] if any job panicked. Jobs are guarded
/// with `AssertUnwindSafe`: a worker whose job panicked abandons its
/// state and stops, so no half-updated state is ever reused.
///
/// # Panics
///
/// Re-raises a panic that escapes the per-job guard (one raised by
/// `init`), after every worker has been joined.
pub fn fan_out<I, S, T>(
    items: Vec<I>,
    workers: usize,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize, I) -> T + Sync,
) -> Result<Vec<T>, JobPanic>
where
    I: Send,
    T: Send,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // The lock only guards `next()`, which cannot panic, so a
            // poisoned lock still holds a consistent iterator.
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((index, item)) = claimed else { return (done, None) };
            match panic::catch_unwind(AssertUnwindSafe(|| job(&mut state, index, item))) {
                Ok(out) => done.push((index, out)),
                Err(payload) => return (done, Some(JobPanic { index, payload })),
            }
        }
    };
    let finished = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            joined
                .into_iter()
                .map(|r| r.unwrap_or_else(|payload| panic::resume_unwind(payload)))
                .collect()
        })
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut panics = Vec::new();
    for (done, failure) in finished {
        for (index, out) in done {
            slots[index] = Some(out);
        }
        panics.extend(failure);
    }
    match panics.into_iter().min_by_key(|p| p.index) {
        Some(p) => Err(p),
        // Without a panic every worker ran until the queue was empty, so
        // every slot is filled.
        None => Ok(slots.into_iter().flatten().collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        for workers in [1, 2, 3, 16] {
            let out = fan_out((0..20u64).collect(), workers, || (), |_, i, x| (i, x * x)).unwrap();
            assert_eq!(out, (0..20u64).map(|x| (x as usize, x * x)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = fan_out(vec![(); 4], 1, || (), |_, _, ()| std::thread::current().id()).unwrap();
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn state_is_per_worker_and_reused_across_items() {
        // One worker: its counter sees every item in order.
        let seen = fan_out(
            vec![(); 5],
            1,
            || 0u32,
            |n, _, ()| {
                *n += 1;
                *n
            },
        )
        .unwrap();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        // Two workers: counters restart per worker, and sum to the items.
        let seen = fan_out(
            vec![(); 50],
            2,
            || 0u32,
            |n, _, ()| {
                *n += 1;
                *n
            },
        )
        .unwrap();
        assert_eq!(seen.len(), 50);
        assert!(seen.iter().filter(|&&n| n == 1).count() <= 2);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = fan_out(Vec::<u8>::new(), 4, || (), |_, _, x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn lowest_index_panic_wins_with_its_payload() {
        for workers in [1, 2, 6] {
            for _ in 0..4 {
                let err = fan_out(
                    (0..12u32).collect(),
                    workers,
                    || (),
                    |_, _, x| {
                        assert!(x != 3 && x != 7, "job {x} failed");
                        x
                    },
                )
                .unwrap_err();
                assert_eq!(err.index, 3, "workers={workers}");
                assert_eq!(err.message(), "job 3 failed");
            }
        }
    }

    #[test]
    fn non_string_payloads_are_named() {
        let err = fan_out(vec![0u8], 1, || (), |_, _, _| -> u8 { std::panic::panic_any(42u32) })
            .unwrap_err();
        assert_eq!(err.message(), "<non-string panic payload>");
        assert!(err.payload.downcast_ref::<u32>().is_some());
    }
}
