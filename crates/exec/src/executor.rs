//! The work-stealing thread pool.
//!
//! Topology: one deque per worker plus a *two-level* shared injector for
//! external submissions. A worker pops its own deque from the back (LIFO
//! — the task it just spawned is the cache-warm one), and when empty
//! takes from the interactive injector, steals from sibling deques from
//! the front (FIFO — the oldest task is the one least likely to
//! conflict), and only then drains the background injector. Idle workers
//! park on a condvar; every submission re-arms them.
//!
//! The two injector levels implement [`Priority`]: interactive work (a
//! client-blocking rerun's stage DAG) always runs ahead of background
//! work (daemon warm-up prefetches) — background tasks are scheduled
//! strictly from idle capacity and can be starved indefinitely under
//! interactive load, by design. Nothing preempts: a background task that
//! already started runs to completion (or to its next cancel point).
//!
//! The pool never blocks a worker on another task's completion:
//! [`Executor::wait`] turns a blocked worker into a helper that keeps
//! draining the pool until its latch opens. That property is what lets
//! the session DAG and the `yalla serve` daemon nest waits arbitrarily
//! deep on a pool of any size — including a single worker — without
//! deadlock.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::Duration;

use yalla_obs::metrics::LocalCounters;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker sleeps between queue re-checks. Wakeups are
/// condvar-driven; the timeout is only a safety net.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);

/// How long a helping waiter sleeps when the pool is drained but its
/// latch is still closed (tasks are in flight on other workers).
const HELP_TIMEOUT: Duration = Duration::from_micros(500);

/// Scheduling class for a submitted task.
///
/// Interactive tasks (the default for [`Executor::spawn`] and
/// [`crate::Dag::run`]) go to the high-priority injector; background
/// tasks go to a separate low-priority injector that workers only drain
/// when no interactive work exists anywhere in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// A client is waiting on this work: run it as soon as a worker
    /// frees up, ahead of any queued background task.
    #[default]
    Interactive,
    /// Speculative work nobody is waiting on (warm-up prefetch): runs
    /// from idle capacity only and may be starved under load.
    Background,
}

struct Inner {
    deques: Vec<Mutex<VecDeque<Task>>>,
    injector: Mutex<VecDeque<Task>>,
    /// The low-priority lane: drained only when deques, the interactive
    /// injector, and every steal target are all empty.
    background: Mutex<VecDeque<Task>>,
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    fn has_work(&self) -> bool {
        if !self.injector.lock().expect("injector lock").is_empty() {
            return true;
        }
        if self
            .deques
            .iter()
            .any(|d| !d.lock().expect("deque lock").is_empty())
        {
            return true;
        }
        !self.background.lock().expect("background lock").is_empty()
    }

    /// Pops a task: own deque back, interactive injector front, steal
    /// siblings front, and only then the background injector front. `me`
    /// is the calling worker's index, or `None` for external helpers
    /// (which skip the own-deque step).
    fn find_task(&self, me: Option<usize>, stats: &mut WorkerStats) -> Option<Task> {
        if let Some(i) = me {
            if let Some(t) = self.deques[i].lock().expect("deque lock").pop_back() {
                return Some(t);
            }
        }
        if let Some(t) = self.injector.lock().expect("injector lock").pop_front() {
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let victim = (start + k) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.deques[victim].lock().expect("deque lock").pop_front() {
                stats.stolen += 1;
                return Some(t);
            }
        }
        self.background.lock().expect("background lock").pop_front()
    }

    fn notify(&self) {
        // Taking the sleep lock orders this notify after any in-progress
        // "check queues then wait" sequence, so submissions are never
        // missed (the park timeout is only a safety net).
        drop(self.sleep.lock().expect("sleep lock"));
        self.wake.notify_all();
    }
}

#[derive(Default)]
struct WorkerStats {
    executed: u64,
    stolen: u64,
    parks: u64,
}

impl WorkerStats {
    /// Moves the accumulated deltas into a thread-local counter buffer.
    fn drain_into(&mut self, local: &mut LocalCounters) {
        local.add("exec.tasks_executed", self.executed as i64);
        local.add("exec.tasks_stolen", self.stolen as i64);
        local.add("exec.parks", self.parks as i64);
        *self = WorkerStats::default();
    }
}

struct WorkerCtx {
    inner: Weak<Inner>,
    index: usize,
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

/// Index of the calling thread in `inner`'s pool, if it is one of its
/// workers.
fn current_index(inner: &Arc<Inner>) -> Option<usize> {
    CURRENT.with(|c| {
        c.borrow().as_ref().and_then(|ctx| {
            let mine = ctx.inner.upgrade()?;
            Arc::ptr_eq(&mine, inner).then_some(ctx.index)
        })
    })
}

fn run_task(task: Task) {
    // A panicking task must not take its worker thread down with it; the
    // DAG layer converts panics into run-level failures, and raw spawns
    // get the panic reported on stderr.
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic>".into());
        eprintln!("yalla-exec: task panicked: {msg}");
    }
}

fn worker_main(inner: Arc<Inner>, index: usize) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(WorkerCtx {
            inner: Arc::downgrade(&inner),
            index,
        });
    });
    let mut stats = WorkerStats::default();
    let mut local = LocalCounters::new();
    loop {
        if let Some(task) = inner.find_task(Some(index), &mut stats) {
            stats.executed += 1;
            run_task(task);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        // Merge this worker's counter deltas before parking — the
        // "per-thread buffers merged when the thread goes quiet" half of
        // the thread-safe aggregation contract.
        stats.parks += 1;
        stats.drain_into(&mut local);
        local.flush_into(yalla_obs::global().metrics());
        let guard = inner.sleep.lock().expect("sleep lock");
        if inner.has_work() || inner.shutdown.load(Ordering::Acquire) {
            continue;
        }
        let _ = inner
            .wake
            .wait_timeout(guard, PARK_TIMEOUT)
            .expect("sleep lock");
    }
    stats.drain_into(&mut local);
    local.flush_into(yalla_obs::global().metrics());
}

/// Owns the worker threads; dropped exactly once, when the last
/// [`Executor`] clone goes away (workers hold `Arc<Inner>`, never the
/// core, so they cannot keep the pool alive).
struct Core {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    workers: usize,
}

impl Drop for Core {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.notify();
        // A task may drop the last clone on one of this pool's workers,
        // which cannot join itself: its handle is detached, and it exits
        // once the task returns.
        let current = std::thread::current().id();
        for handle in self.handles.lock().expect("handles lock").drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

/// A work-stealing thread pool. Cloning shares the pool; the worker
/// threads stop when the last clone drops.
#[derive(Clone)]
pub struct Executor {
    core: Arc<Core>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.core.workers)
            .finish()
    }
}

impl Executor {
    /// A pool with `workers` threads (`0` means all hardware threads).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            hardware_threads()
        } else {
            workers
        };
        let inner = Arc::new(Inner {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            background: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("yalla-exec-{i}"))
                    .spawn(move || worker_main(inner, i))
                    .expect("spawn worker")
            })
            .collect();
        yalla_obs::gauge("exec.workers", workers as i64);
        Executor {
            core: Arc::new(Core {
                inner,
                handles: Mutex::new(handles),
                workers,
            }),
        }
    }

    /// The process-wide executor, sized by the `YALLA_WORKERS` environment
    /// variable (`0` or `max` = all hardware threads; unset defaults to
    /// all hardware threads).
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(workers_from_env()))
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Submits an interactive task. Tasks spawned from a worker thread of
    /// this pool go to that worker's own deque (LIFO); external
    /// submissions go to the shared interactive injector.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.spawn_at(Priority::Interactive, task);
    }

    /// Submits a background task: it runs only when no interactive work
    /// is queued anywhere in the pool. Shorthand for
    /// [`Executor::spawn_at`] with [`Priority::Background`].
    pub fn spawn_background(&self, task: impl FnOnce() + Send + 'static) {
        self.spawn_at(Priority::Background, task);
    }

    /// Submits a task at an explicit [`Priority`]. Background tasks
    /// always go to the low-priority injector — even when spawned from a
    /// worker thread — so speculative work never rides the LIFO fast
    /// path ahead of a client-blocking task.
    pub fn spawn_at(&self, priority: Priority, task: impl FnOnce() + Send + 'static) {
        let task: Task = Box::new(task);
        let inner = &self.core.inner;
        match priority {
            Priority::Interactive => match current_index(inner) {
                Some(i) => inner.deques[i].lock().expect("deque lock").push_back(task),
                None => inner
                    .injector
                    .lock()
                    .expect("injector lock")
                    .push_back(task),
            },
            Priority::Background => {
                yalla_obs::count("exec.tasks_background", 1);
                inner
                    .background
                    .lock()
                    .expect("background lock")
                    .push_back(task);
            }
        }
        inner.notify();
    }

    /// Blocks until `latch` opens. When called from one of this pool's
    /// worker threads the wait *helps*: the worker keeps executing pool
    /// tasks while the latch is closed, so nested waits never deadlock —
    /// a one-worker pool still completes arbitrarily nested task graphs.
    pub fn wait(&self, latch: &Latch) {
        let inner = &self.core.inner;
        match current_index(inner) {
            Some(i) => {
                let mut stats = WorkerStats::default();
                while !latch.is_done() {
                    if let Some(task) = inner.find_task(Some(i), &mut stats) {
                        stats.executed += 1;
                        run_task(task);
                    } else {
                        latch.wait_timeout(HELP_TIMEOUT);
                    }
                }
                let mut local = LocalCounters::new();
                stats.drain_into(&mut local);
                local.flush_into(yalla_obs::global().metrics());
            }
            None => latch.wait(),
        }
    }

    /// Runs every closure to completion on the pool, blocking (helpfully)
    /// until all are done.
    pub fn run_all(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'static>>) {
        let latch = Arc::new(Latch::new(tasks.len()));
        for task in tasks {
            let latch = Arc::clone(&latch);
            self.spawn(move || {
                task();
                latch.count_down();
            });
        }
        self.wait(&latch);
    }
}

/// Hardware thread count (at least 1).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Worker count requested by `YALLA_WORKERS` (`0`/`max` = hardware).
pub fn workers_from_env() -> usize {
    match std::env::var("YALLA_WORKERS") {
        Ok(v) if v.eq_ignore_ascii_case("max") => hardware_threads(),
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(0) | Err(_) => hardware_threads(),
            Ok(n) => n,
        },
        Err(_) => hardware_threads(),
    }
}

/// A countdown latch: opens when [`Latch::count_down`] has been called
/// `count` times. `count == 0` starts open.
#[derive(Debug)]
pub struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    /// A latch that opens after `count` countdowns.
    pub fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            cv: Condvar::new(),
        }
    }

    /// Records one completion; the final call opens the latch.
    pub fn count_down(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        *remaining = remaining.saturating_sub(1);
        if *remaining == 0 {
            self.cv.notify_all();
        }
    }

    /// True once every countdown has happened.
    pub fn is_done(&self) -> bool {
        *self.remaining.lock().expect("latch lock") == 0
    }

    /// Blocks until the latch opens.
    pub fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("latch lock");
        while *remaining > 0 {
            remaining = self.cv.wait(remaining).expect("latch lock");
        }
    }

    /// Blocks until the latch opens or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) {
        let remaining = self.remaining.lock().expect("latch lock");
        if *remaining > 0 {
            let _ = self
                .cv
                .wait_timeout(remaining, timeout)
                .expect("latch lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_spawned_tasks() {
        let exec = Executor::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        let latch = Arc::new(Latch::new(100));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            let latch = Arc::clone(&latch);
            exec.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        exec.wait(&latch);
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_task_that_drops_the_last_handle_joins_the_other_worker() {
        /// Set when the worker thread holding it exits.
        struct OnExit(Arc<AtomicBool>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: RefCell<Option<OnExit>> = const { RefCell::new(None) };
        }
        let exec = Executor::new(2);
        // Both tasks and this thread meet, so the tasks run on different
        // workers and this thread's handle is gone before the last drops.
        let meet = Arc::new(std::sync::Barrier::new(3));
        let exited = Arc::new(AtomicBool::new(false));
        let (report, reported) = std::sync::mpsc::channel();
        {
            let (meet, exited) = (Arc::clone(&meet), Arc::clone(&exited));
            exec.spawn(move || {
                EXIT.with(|e| *e.borrow_mut() = Some(OnExit(exited)));
                meet.wait();
            });
        }
        {
            let (meet, exited, last) = (Arc::clone(&meet), Arc::clone(&exited), exec.clone());
            exec.spawn(move || {
                meet.wait();
                let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
                let _ = report.send((dropped.is_ok(), exited.load(Ordering::SeqCst)));
            });
        }
        drop(exec);
        meet.wait();
        let (no_panic, joined) = reported
            .recv_timeout(Duration::from_secs(30))
            .expect("the task reports");
        assert!(no_panic, "dropping the last handle on a worker panicked");
        assert!(joined, "the other worker was not joined");
    }

    #[test]
    fn zero_means_hardware_threads() {
        let exec = Executor::new(0);
        assert!(exec.workers() >= 1);
    }

    #[test]
    fn nested_waits_complete_on_one_worker() {
        // A task that spawns subtasks and waits for them must not
        // deadlock a single-worker pool: the helping wait runs them.
        let exec = Executor::new(1);
        let latch = Arc::new(Latch::new(1));
        let done = Arc::new(AtomicUsize::new(0));
        {
            let exec2 = exec.clone();
            let latch = Arc::clone(&latch);
            let done = Arc::clone(&done);
            exec.spawn(move || {
                let inner_latch = Arc::new(Latch::new(8));
                for _ in 0..8 {
                    let inner_latch = Arc::clone(&inner_latch);
                    let done = Arc::clone(&done);
                    exec2.spawn(move || {
                        done.fetch_add(1, Ordering::Relaxed);
                        inner_latch.count_down();
                    });
                }
                exec2.wait(&inner_latch);
                latch.count_down();
            });
        }
        exec.wait(&latch);
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn worker_spawned_tasks_can_be_stolen() {
        // One worker floods its own deque while holding the pool hostage;
        // the other worker must steal the flood.
        let exec = Executor::new(2);
        let latch = Arc::new(Latch::new(64));
        {
            let exec2 = exec.clone();
            let latch = Arc::clone(&latch);
            exec.spawn(move || {
                for _ in 0..64 {
                    let latch = Arc::clone(&latch);
                    exec2.spawn(move || {
                        std::thread::sleep(Duration::from_micros(100));
                        latch.count_down();
                    });
                }
            });
        }
        // External wait: blocks on the latch without helping.
        exec.wait(&latch);
        assert!(latch.is_done());
    }

    #[test]
    fn a_panicking_task_does_not_kill_the_pool() {
        let exec = Executor::new(1);
        exec.spawn(|| panic!("boom"));
        let latch = Arc::new(Latch::new(1));
        {
            let latch = Arc::clone(&latch);
            exec.spawn(move || latch.count_down());
        }
        exec.wait(&latch);
    }

    #[test]
    fn run_all_blocks_until_done() {
        let exec = Executor::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..20)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        exec.run_all(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn latch_zero_starts_open() {
        let latch = Latch::new(0);
        assert!(latch.is_done());
        latch.wait(); // must not block
    }

    #[test]
    fn workers_from_env_parses() {
        // Not exercised via the environment (tests run in parallel);
        // the parse rules are covered through Executor::new instead.
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn interactive_tasks_run_ahead_of_earlier_background_tasks() {
        // Hold the single worker hostage, queue a background task, then
        // an interactive one: the interactive task must run first even
        // though it was submitted later.
        let exec = Executor::new(1);
        let release = Arc::new(Latch::new(1));
        let order = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(Latch::new(3));
        {
            let release = Arc::clone(&release);
            let done = Arc::clone(&done);
            exec.spawn(move || {
                release.wait();
                done.count_down();
            });
        }
        // Give the worker a moment to pick up the blocker, so the next
        // two submissions genuinely queue behind it.
        std::thread::sleep(Duration::from_millis(20));
        {
            let order = Arc::clone(&order);
            let done = Arc::clone(&done);
            exec.spawn_background(move || {
                order.lock().unwrap().push("background");
                done.count_down();
            });
        }
        {
            let order = Arc::clone(&order);
            let done = Arc::clone(&done);
            exec.spawn(move || {
                order.lock().unwrap().push("interactive");
                done.count_down();
            });
        }
        release.count_down();
        exec.wait(&done);
        assert_eq!(*order.lock().unwrap(), vec!["interactive", "background"]);
    }

    #[test]
    fn background_tasks_run_when_the_pool_is_idle() {
        let exec = Executor::new(2);
        let latch = Arc::new(Latch::new(16));
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let latch = Arc::clone(&latch);
            let hits = Arc::clone(&hits);
            exec.spawn_background(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                latch.count_down();
            });
        }
        exec.wait(&latch);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn dropping_the_pool_joins_workers() {
        let exec = Executor::new(2);
        let latch = Arc::new(Latch::new(1));
        {
            let latch = Arc::clone(&latch);
            exec.spawn(move || latch.count_down());
        }
        exec.wait(&latch);
        drop(exec); // must not hang
    }
}
