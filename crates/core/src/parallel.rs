//! Deterministic work distribution for program execution.
//!
//! This is the thread work-queue machinery that used to live inside
//! `imgproc::tile`, hoisted into the core crate so that *any* program —
//! not just image tiles — can be scheduled across workers: the tiled
//! image kernels drive [`run_indexed_with`] with one job per row tile,
//! and the cross-array pipeline scheduler ([`crate::program::sched`])
//! with one job per program slice. [`BoundedQueue`] is the blocking FIFO
//! a service frontend admits requests through.
//!
//! Everything here is *deterministic by construction*: jobs are
//! identified by index, results are collected in index order, and no
//! output ever depends on thread scheduling. Without the `parallel`
//! feature the same APIs execute sequentially and return bit-identical
//! results (the environment pins dependencies, so the workers are
//! `std::thread` scoped threads; a rayon pool could be dropped in behind
//! the same seam).

/// Runs jobs `0..n` with per-worker scratch state, collecting results in
/// index order.
///
/// `init` builds one scratch state per worker (e.g. a pooled
/// [`crate::program::ExecArena`]); `worker` receives the state and a job
/// index and must be deterministic in the index. With the `parallel`
/// feature enabled and `threads > 1`, jobs are claimed from an atomic
/// counter by `min(threads, n)` scoped workers; otherwise they run
/// sequentially on a single state. Results never depend on which worker
/// ran which job.
///
/// # Errors
///
/// The error of the lowest-indexed failing job. Sequential execution
/// stops at the first failure; threaded execution stops claiming new
/// jobs once a failure is observed (already-claimed jobs still finish),
/// and the lowest-indexed failure is still the one reported, because
/// jobs are claimed in index order.
pub fn run_indexed_with<S, T, E, I, W>(
    n: usize,
    threads: usize,
    init: I,
    worker: W,
) -> Result<Vec<T>, E>
where
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> Result<T, E> + Sync,
    T: Send,
    E: Send,
{
    #[cfg(feature = "parallel")]
    {
        if threads > 1 && n > 1 {
            return run_threaded(n, threads.min(n), &init, &worker);
        }
    }
    let _ = threads;
    let mut state = init();
    (0..n).map(|i| worker(&mut state, i)).collect()
}

#[cfg(feature = "parallel")]
fn run_threaded<S, T, E, I, W>(n: usize, threads: usize, init: &I, worker: &W) -> Result<Vec<T>, E>
where
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> Result<T, E> + Sync,
    T: Send,
    E: Send,
{
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = worker(&mut state, i);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    *slots[i].lock().expect("job slot lock") = Some(result);
                }
            });
        }
    });
    // Claims happen in index order, so the filled slots form a prefix and
    // the lowest-indexed error precedes every unclaimed slot.
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.into_inner().expect("job slot lock") {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            None => unreachable!("unclaimed job without a preceding failure"),
        }
    }
    Ok(out)
}

/// A blocking bounded FIFO between a producer and a consumer thread.
///
/// [`BoundedQueue::push`] blocks while the queue is full (back-pressure); [`BoundedQueue::pop`] blocks while it is empty and
/// returns `None` once the queue is closed *and* drained. Built on
/// `Mutex` + `Condvar` only, so it works wherever `std` does.
#[cfg(feature = "parallel")]
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: std::sync::Mutex<QueueInner<T>>,
    not_empty: std::sync::Condvar,
    not_full: std::sync::Condvar,
    capacity: usize,
}

#[cfg(feature = "parallel")]
#[derive(Debug)]
struct QueueInner<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
}

#[cfg(feature = "parallel")]
impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: std::sync::Mutex::new(QueueInner {
                items: std::collections::VecDeque::new(),
                closed: false,
            }),
            not_empty: std::sync::Condvar::new(),
            not_full: std::sync::Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if the queue was closed (a closed queue must not receive
    /// further work — that would be a caller bug, not a data race).
    pub fn push(&self, item: T) {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.items.len() >= self.capacity && !inner.closed {
            inner = self.not_full.wait(inner).expect("queue lock");
        }
        assert!(!inner.closed, "push into a closed queue");
        inner.items.push_back(item);
        self.not_empty.notify_one();
    }

    /// Dequeues the next item, blocking while the queue is empty; `None`
    /// once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Attempts to enqueue `item` without blocking.
    ///
    /// Returns `Err(item)` (handing the item back) when the queue is full
    /// or closed — the admission-control path of a service frontend: a
    /// full queue is a *shed now* signal, not something to wait out.
    ///
    /// # Errors
    ///
    /// `Err(item)` if the queue is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item without blocking; `None` if the queue is
    /// currently empty (whether or not it is closed).
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        let item = inner.items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Dequeues the next item, blocking up to `timeout`.
    ///
    /// Returns [`PopResult::Item`] when an item arrives in time,
    /// [`PopResult::Closed`] once the queue is closed and drained, and
    /// [`PopResult::TimedOut`] if the wait expired with the queue still
    /// open and empty — the batching-window primitive: a coalescing
    /// frontend waits a short window for more compatible work, then
    /// dispatches what it has.
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> PopResult<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return PopResult::Item(item);
            }
            if inner.closed {
                return PopResult::Closed;
            }
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return PopResult::TimedOut;
            };
            let (guard, wait) = self
                .not_empty
                .wait_timeout(inner, remaining)
                .expect("queue lock");
            inner = guard;
            if wait.timed_out() && inner.items.is_empty() && !inner.closed {
                return PopResult::TimedOut;
            }
        }
    }

    /// Closes the queue: pending items remain poppable, further pushes
    /// panic, and a drained pop returns `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Outcome of a [`BoundedQueue::pop_timeout`] wait.
#[cfg(feature = "parallel")]
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item arrived within the window.
    Item(T),
    /// The wait expired with the queue still open and empty.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

#[cfg(feature = "parallel")]
impl<T> PopResult<T> {
    /// The popped item, if any.
    pub fn into_item(self) -> Option<T> {
        match self {
            PopResult::Item(item) => Some(item),
            PopResult::TimedOut | PopResult::Closed => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_results_come_back_in_order() {
        let out: Result<Vec<usize>, ()> = run_indexed_with(
            10,
            4,
            || 0usize,
            |state, i| {
                *state += 1;
                Ok(i * 2)
            },
        );
        assert_eq!(out.unwrap(), (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_indexed_error_wins() {
        let out: Result<Vec<usize>, usize> =
            run_indexed_with(8, 4, || (), |(), i| if i >= 3 { Err(i) } else { Ok(i) });
        assert_eq!(out.unwrap_err(), 3);
    }

    #[test]
    fn sequential_when_single_threaded() {
        let out: Result<Vec<usize>, ()> = run_indexed_with(4, 1, || (), |(), i| Ok(i));
        assert_eq!(out.unwrap(), vec![0, 1, 2, 3]);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn bounded_queue_delivers_in_fifo_order_across_threads() {
        let q = BoundedQueue::new(2);
        let got = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            });
            for i in 0..16 {
                q.push(i);
            }
            q.close();
            consumer.join().expect("consumer thread")
        });
        assert_eq!(got, (0..16).collect::<Vec<i32>>());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn try_push_sheds_when_full_and_when_closed() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.try_pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        // Pending items stay poppable after close.
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn pop_timeout_distinguishes_window_expiry_from_close() {
        use std::time::Duration;
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), PopResult::TimedOut);
        q.push(7);
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), PopResult::Item(7));
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(5)), PopResult::Closed);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn pop_timeout_wakes_for_concurrent_push() {
        use std::time::Duration;
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| q.pop_timeout(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(10));
            q.push(42);
            waiter.join().expect("waiter thread")
        });
        assert_eq!(got, PopResult::Item(42));
    }
}
