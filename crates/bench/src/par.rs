//! The harness's one fan-out, shared by the seed × scenario matrix and
//! the Fig. 13–15 sweeps: independent jobs on scoped threads, at most
//! `available_parallelism` at a time, results delivered in input order.

use std::num::NonZeroUsize;

/// Runs `f` on every item in batches of the worker count and passes
/// each batch's results to `sink` in input order before the next batch
/// starts, so at most one batch of results is alive. A panic in `f`
/// resumes in the caller with its original payload.
///
/// # Errors
/// The first `Err` from `sink`; no further item is started.
pub(crate) fn for_each_ordered<T: Send, R: Send, E>(
    items: impl IntoIterator<Item = T>,
    f: impl Fn(T) -> R + Sync,
    mut sink: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E> {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let f = &f;
    let mut items = items.into_iter().peekable();
    while items.peek().is_some() {
        let batch: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .by_ref()
                .take(workers)
                .map(|item| scope.spawn(move || f(item)))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for result in batch {
            sink(result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;

    fn workers() -> usize {
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }

    #[test]
    fn results_reach_the_sink_in_input_order() {
        // Item 0 returns only after the rest of its batch has finished.
        let (done, finished) = mpsc::channel();
        let finished = Mutex::new(finished);
        let n = 3 * workers() + 1;
        let mut seen = Vec::new();
        for_each_ordered(
            0..n,
            |i| {
                if i == 0 {
                    let finished = finished.lock().expect("one waiter");
                    for _ in 1..workers() {
                        let _ = finished.recv_timeout(Duration::from_secs(10));
                    }
                } else {
                    done.send(()).expect("the receiver outlives the run");
                }
                i
            },
            |i| {
                seen.push(i);
                Ok::<_, Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn at_most_one_batch_of_results_is_undelivered() {
        let undelivered = AtomicUsize::new(0);
        let mut peak = 0;
        let mut delivered = 0;
        for_each_ordered(
            0..4 * workers() + 3,
            |_| {
                undelivered.fetch_add(1, Ordering::SeqCst);
            },
            |()| {
                peak = peak.max(undelivered.fetch_sub(1, Ordering::SeqCst));
                delivered += 1;
                Ok::<_, Infallible>(())
            },
        )
        .unwrap();
        assert_eq!(delivered, 4 * workers() + 3);
        assert!(
            peak <= workers(),
            "{peak} undelivered > {} workers",
            workers()
        );
    }

    #[test]
    fn the_first_sink_error_stops_the_run() {
        let started = AtomicUsize::new(0);
        let result = for_each_ordered(
            0..10 * workers(),
            |i| {
                started.fetch_add(1, Ordering::SeqCst);
                i
            },
            |i| if i == 0 { Err(i) } else { Ok(()) },
        );
        assert_eq!(result, Err(0));
        assert_eq!(started.load(Ordering::SeqCst), workers());
    }

    #[test]
    fn a_panicking_item_reraises_its_message_in_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            for_each_ordered(
                0..2 * workers() + 1,
                |i| assert!(i != workers(), "item {i} failed"),
                |()| Ok::<_, Infallible>(()),
            )
        })
        .unwrap_err();
        let message = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| caught.downcast_ref::<&str>().copied());
        assert_eq!(message, Some(format!("item {} failed", workers()).as_str()));
    }
}
