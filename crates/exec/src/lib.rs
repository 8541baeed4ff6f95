//! `cbv-exec` — the parallel execution layer of the CBV toolkit.
//!
//! §4.1 of the paper: DEC ran logic verification "on a network of 100
//! high performance workstations" because verification throughput *is*
//! the methodology — Correct-by-Verification only works when every check
//! can run over every transistor on every iteration. This crate is the
//! single-machine analogue: a zero-dependency, bounded worker pool whose
//! helper threads are started once and parked between maps, so borrowed
//! netlists, extractions and recognitions can be shared read-only across
//! workers without `Arc`, and a map pays no thread start-up.
//!
//! Design rules the rest of the workspace relies on:
//!
//! * **Determinism** — [`Executor::map`] preserves input order exactly;
//!   a parallel run produces the same `Vec` a serial run would. Work is
//!   handed out dynamically (an atomic-free shared iterator), but every
//!   result lands in its input's slot.
//! * **Bounded** — at most the configured number of workers run one
//!   `map`: the caller plus up to `threads − 1` helpers from one
//!   process-wide pool. Helpers are spawned on first need, never more
//!   than the largest `threads − 1` any map has asked for, and park on a
//!   condition variable between maps. A map returns only after every
//!   helper that joined it has left, and a nested or concurrent map
//!   drains its own queue, so busy helpers never block it.
//! * **Configurable** — [`Executor::new`] honours the `CBV_THREADS`
//!   environment variable; [`Executor::threads`] pins a count
//!   programmatically (the `FlowConfig::parallelism` knob feeds this).

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use cbv_obs::TraceCtx;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "CBV_THREADS";

/// A task handed to [`Executor::try_map_traced`] panicked. Carries the
/// task's input index and the panic message so callers can convert the
/// failure into a reviewable finding that *names the unit* instead of
/// letting one bad check take down the whole battery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the panicking item in the input `Vec`.
    pub task: usize,
    /// Best-effort panic payload rendered as text.
    pub message: String,
}

impl fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one closure under the same panic isolation the mapped tasks
/// get: `catch_unwind` plus best-effort payload rendering into a
/// [`TaskPanic`]. Long-lived consumers of a job queue (the `cbv-serve`
/// daemon's workers) wrap each dequeued job with this so a poisoned job
/// kills neither the worker thread nor the daemon; `task` is whatever
/// index identifies the job to the caller.
pub fn run_isolated<T>(task: usize, f: impl FnOnce() -> T) -> Result<T, TaskPanic> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| TaskPanic {
        task,
        message: panic_message(payload),
    })
}

/// A bounded worker pool: the caller plus up to `threads − 1` parked
/// helpers of the process-wide pool run each map.
///
/// Cheap to construct (one word; no thread starts until a [`map`] first
/// needs a helper) and freely clonable; treat it as a configuration
/// value.
///
/// [`map`]: Executor::map
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Pool sized from `CBV_THREADS` if set (and nonzero), otherwise the
    /// machine's available parallelism.
    pub fn new() -> Executor {
        let from_env = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        Executor {
            threads: from_env.unwrap_or_else(default_threads),
        }
    }

    /// Pool with exactly `n` workers; `n = 0` means "auto" and behaves
    /// like [`Executor::new`].
    pub fn threads(n: usize) -> Executor {
        if n == 0 {
            Executor::new()
        } else {
            Executor { threads: n }
        }
    }

    /// A single-worker pool: runs everything inline on the caller.
    pub fn serial() -> Executor {
        Executor { threads: 1 }
    }

    /// Applies `f` to every item, in parallel, returning results in the
    /// input order. Items are scheduled dynamically so uneven work
    /// balances across workers.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        self.map_traced(TraceCtx::disabled(), items, f, |_| String::new())
            .0
    }

    /// [`map`](Executor::map) with per-task tracing, also returning the
    /// aggregate busy time summed over all workers. With one worker this
    /// equals wall-clock; with `n` busy workers it approaches `n ×`
    /// wall-clock — the "worker-CPU" figure the flow's stage reports
    /// record. Each task gets a span named by `label(index)` under
    /// `ctx`'s parent, so queue skew across workers is visible in the
    /// trace. `label` is only invoked when the tracer is enabled —
    /// untraced runs pay nothing for it. A panicking task re-panics *after* all workers
    /// drain, with the [`TaskPanic`] message; use
    /// [`try_map_traced`](Executor::try_map_traced) to convert panics
    /// into values instead.
    pub fn map_traced<I, T, F, L>(
        &self,
        ctx: TraceCtx<'_>,
        items: Vec<I>,
        f: F,
        label: L,
    ) -> (Vec<T>, Duration)
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let (results, busy) = self.try_map_traced(ctx, items, f, label);
        let out = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| panic!("{p}")))
            .collect();
        (out, busy)
    }

    /// The full-featured map: per-task spans *and* per-task panic
    /// isolation — each task runs under [`catch_unwind`], so one
    /// panicking check cannot take down the battery. The result slot of
    /// a panicking task carries a [`TaskPanic`] naming it; every other
    /// task still completes and lands in order. The other `map` flavours
    /// delegate here. The span of a panicking task still closes (and is
    /// recorded) before the [`TaskPanic`] is returned, so the failure is
    /// visible in the trace at the unit that caused it.
    pub fn try_map_traced<I, T, F, L>(
        &self,
        ctx: TraceCtx<'_>,
        items: Vec<I>,
        f: F,
        label: L,
    ) -> (Vec<Result<T, TaskPanic>>, Duration)
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
        L: Fn(usize) -> String + Sync,
    {
        self.try_map_on(&POOL, ctx, items, f, label)
    }

    /// [`try_map_traced`](Executor::try_map_traced) with its helpers
    /// drawn from `pool`: the caller drains the queue itself and up to
    /// `threads − 1` of the pool's helpers join it.
    fn try_map_on<I, T, F, L>(
        &self,
        pool: &'static Pool,
        ctx: TraceCtx<'_>,
        items: Vec<I>,
        f: F,
        label: L,
    ) -> (Vec<Result<T, TaskPanic>>, Duration)
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
        L: Fn(usize) -> String + Sync,
    {
        let run_one = |index: usize, item: I| -> Result<T, TaskPanic> {
            let _span = if ctx.is_enabled() {
                Some(ctx.tracer.span_in(ctx.parent, &label(index)))
            } else {
                None
            };
            catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| TaskPanic {
                task: index,
                message: panic_message(payload),
            })
        };
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            let start = Instant::now();
            let out: Vec<Result<T, TaskPanic>> = items
                .into_iter()
                .enumerate()
                .map(|(index, item)| run_one(index, item))
                .collect();
            return (out, start.elapsed());
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let busy = Mutex::new(Duration::ZERO);
        let drain = || {
            let started = Instant::now();
            loop {
                // Take the lock only to pull the next item; the work
                // itself runs unlocked.
                let next = queue.lock().expect("queue lock").next();
                let Some((index, item)) = next else { break };
                let value = run_one(index, item);
                *slots[index].lock().expect("slot lock") = Some(value);
            }
            *busy.lock().expect("busy lock") += started.elapsed();
        };
        pool.run(workers - 1, &drain);
        let out = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("worker filled every slot")
            })
            .collect();
        (out, busy.into_inner().expect("busy lock"))
    }
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new()
    }
}

/// Runs every closure on its own scoped thread, joins them all, and
/// returns results in input order with per-task panic isolation.
///
/// Unlike the bounded [`Executor`] maps this spawns one thread per task
/// *unconditionally*: it is for heterogeneous, blocking dispatch loops
/// (one per remote farm worker, each parked in socket reads most of the
/// time) where sharing a bounded pool would let one stalled peer starve
/// the others. CPU-bound work belongs on an [`Executor`] instead.
pub fn fan_out<T, F>(tasks: Vec<F>) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if tasks.len() <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, f)| run_isolated(i, f))
            .collect();
    }
    thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, f)| scope.spawn(move || run_isolated(i, f)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan_out tasks are panic-isolated"))
            .collect()
    })
}

/// The machine's available parallelism, asked once per process: the
/// query reads cgroup files, and every flow builds an [`Executor`].
fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The helper pool every [`Executor`] map runs on.
static POOL: Pool = Pool::new();

/// Helper threads that join posted maps and park between them.
///
/// A map's caller posts its drain loop as a [`Job`] that at most
/// `threads − 1` helpers may join, runs the loop itself, then withdraws
/// the job: no helper may join it any more, and the caller waits until
/// every helper that did has left. A helper joins whichever open job
/// was posted first, so concurrent and nested maps share the helpers;
/// each caller drains its own queue, so none waits on a busy helper to
/// make progress.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a job is posted; parked helpers wait on it.
    posted: Condvar,
    /// Signalled when a job's last helper leaves it; its caller may be
    /// waiting to withdraw it.
    left: Condvar,
}

struct PoolState {
    jobs: Vec<Job>,
    next_id: u64,
    /// Helpers started so far. They run until the process exits.
    spawned: usize,
    /// Helpers parked on [`Pool::posted`].
    idle: usize,
    /// Helpers running some job's body now.
    #[cfg(test)]
    inside: usize,
}

/// One posted map.
struct Job {
    id: u64,
    /// The caller's drain loop, its lifetime erased by [`Pool::run`].
    body: &'static (dyn Fn() + Sync),
    /// How many more helpers may join.
    seats: usize,
    /// Helpers running `body` now.
    inside: usize,
    /// The first panic that escaped `body` on a helper; the caller
    /// re-raises it.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                jobs: Vec::new(),
                next_id: 0,
                spawned: 0,
                idle: 0,
                #[cfg(test)]
                inside: 0,
            }),
            posted: Condvar::new(),
            left: Condvar::new(),
        }
    }

    /// The pool's bookkeeping runs no user code under the lock and
    /// leaves it consistent after every update, so a poisoned lock
    /// still guards valid state.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `body` on the calling thread while up to `helpers` pool
    /// threads may run it alongside; returns once every helper that
    /// joined has left. A panic that escaped `body` on a helper is
    /// re-raised here.
    fn run(&'static self, helpers: usize, body: &(dyn Fn() + Sync)) {
        // SAFETY: only the lifetime changes; the reference itself is
        // valid for this whole call. The erased copy is reachable only
        // through the job posted below, and a helper calls it only while
        // counted in that job's `inside`. `posted` withdraws the job
        // before this frame is left, on return and on unwind alike (its
        // `Drop`): withdrawing closes the job's seats, waits until
        // `inside` is 0 and removes the job, so no helper calls `body`
        // after this function returns.
        let erased =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
        let mut posted = Posted {
            pool: self,
            id: self.post(helpers, erased),
            open: true,
        };
        body();
        if let Some(payload) = posted.withdraw() {
            resume_unwind(payload);
        }
    }

    /// Opens a job with `helpers` seats, spawning helpers until there
    /// are `helpers` of them, and wakes as many parked ones as it has
    /// seats for.
    fn post(&'static self, helpers: usize, body: &'static (dyn Fn() + Sync)) -> u64 {
        let mut state = self.lock();
        while state.spawned < helpers {
            let started = thread::Builder::new()
                .name("cbv-exec".to_owned())
                .spawn(move || self.serve());
            // A caller that cannot get a helper drains its queue alone.
            if started.is_err() {
                break;
            }
            state.spawned += 1;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.push(Job {
            id,
            body,
            seats: helpers,
            inside: 0,
            panic: None,
        });
        for _ in 0..helpers.min(state.idle) {
            self.posted.notify_one();
        }
        id
    }

    /// A helper's life: join the first open job, run its body, leave,
    /// and park while no job has a free seat. Panics escaping a body are
    /// caught and handed to the job's caller, so a helper never exits
    /// and its thread is never joined.
    fn serve(&self) {
        let mut state = self.lock();
        loop {
            let Some(job) = state.jobs.iter_mut().find(|job| job.seats > 0) else {
                state.idle += 1;
                state = self
                    .posted
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.idle -= 1;
                continue;
            };
            job.seats -= 1;
            job.inside += 1;
            let (id, body) = (job.id, job.body);
            #[cfg(test)]
            {
                state.inside += 1;
            }
            drop(state);
            let outcome = catch_unwind(AssertUnwindSafe(body));
            state = self.lock();
            #[cfg(test)]
            {
                state.inside -= 1;
            }
            let job = state
                .jobs
                .iter_mut()
                .find(|job| job.id == id)
                .expect("a job stays posted until its helpers have left");
            job.inside -= 1;
            if let Err(payload) = outcome {
                job.panic.get_or_insert(payload);
            }
            if job.inside == 0 {
                self.left.notify_all();
            }
        }
    }
}

/// A posted job, withdrawn when its caller finishes or unwinds.
struct Posted {
    pool: &'static Pool,
    id: u64,
    open: bool,
}

impl Posted {
    /// Closes the job to new helpers, waits until every helper that
    /// joined it has left, and removes it. Returns the first panic that
    /// escaped it on a helper.
    fn withdraw(&mut self) -> Option<Box<dyn Any + Send>> {
        self.open = false;
        let mut state = self.pool.lock();
        loop {
            let at = state.jobs.iter().position(|job| job.id == self.id)?;
            let job = &mut state.jobs[at];
            job.seats = 0;
            if job.inside == 0 {
                return state.jobs.remove(at).panic;
            }
            state = self
                .pool
                .left
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Posted {
    fn drop(&mut self) {
        if self.open {
            // Unwinding already: a helper's panic payload is dropped.
            self.withdraw();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced<T: Send>(
        exec: &Executor,
        items: Vec<u64>,
        f: impl Fn(u64) -> T + Sync,
    ) -> (Vec<T>, Duration) {
        exec.map_traced(TraceCtx::disabled(), items, f, |_| String::new())
    }

    /// A pool of its own, so the counts a test reads are not moved by
    /// tests running alongside on the process-wide one. Its parked
    /// helpers live until the test process exits.
    fn private_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn map_on<T: Send>(
        exec: &Executor,
        pool: &'static Pool,
        items: Vec<u64>,
        f: impl Fn(u64) -> T + Sync,
    ) -> Vec<Result<T, TaskPanic>> {
        exec.try_map_on(pool, TraceCtx::disabled(), items, f, |_| String::new())
            .0
    }

    /// Helpers still running some job's body: 0 whenever no map is open.
    fn inside(pool: &Pool) -> usize {
        pool.lock().inside
    }

    fn unwrap_all<T: fmt::Debug>(results: Vec<Result<T, TaskPanic>>) -> Vec<T> {
        results
            .into_iter()
            .map(|r| r.expect("no task panics"))
            .collect()
    }

    #[test]
    fn nested_maps_equal_a_serial_map() {
        let expected: Vec<u64> = (0u64..12)
            .map(|i| (0u64..12).map(|j| i * 100 + j).sum())
            .collect();
        for threads in [2, 8] {
            let pool = private_pool();
            let exec = Executor::threads(threads);
            let out = map_on(&exec, pool, (0u64..12).collect(), |i| {
                let inner = map_on(&exec, pool, (0u64..12).collect(), |j| i * 100 + j);
                unwrap_all(inner).into_iter().sum::<u64>()
            });
            assert_eq!(unwrap_all(out), expected, "at {threads} workers");
            assert_eq!(inside(pool), 0, "a helper outlived its map");
            assert!(pool.lock().spawned < threads);
        }
    }

    #[test]
    fn concurrent_callers_each_get_a_serial_result() {
        let pool = private_pool();
        let exec = Executor::threads(4);
        let start = std::sync::Barrier::new(4);
        thread::scope(|scope| {
            for caller in 0u64..4 {
                let start = &start;
                scope.spawn(move || {
                    let work = |x: u64| x * 1_000 + caller;
                    let serial: Vec<u64> = (0u64..64).map(work).collect();
                    start.wait();
                    for _ in 0..50 {
                        let out = unwrap_all(map_on(&exec, pool, (0u64..64).collect(), work));
                        assert_eq!(out, serial, "caller {caller}");
                    }
                });
            }
        });
        assert_eq!(inside(pool), 0);
        assert!(pool.lock().spawned <= 3);
    }

    #[test]
    fn a_panic_outside_the_task_reaches_the_caller_after_the_helpers_leave() {
        // A label runs outside the task's unwind boundary: its panic,
        // on whichever thread, ends the map on the caller.
        let (tracer, _collector) = cbv_obs::Tracer::collecting();
        let root = tracer.span("map");
        let ctx = TraceCtx::under(&tracer, &root);
        let pool = private_pool();
        let exec = Executor::threads(8);
        for _ in 0..20 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                exec.try_map_on(
                    pool,
                    ctx,
                    (0u64..16).collect(),
                    |x| x,
                    |i| {
                        assert_ne!(i, 3, "label 3 is bad");
                        format!("task:{i}")
                    },
                )
            }));
            let payload = caught.expect_err("the label's panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(message.contains("label 3 is bad"), "{message}");
            assert_eq!(inside(pool), 0);
        }
        let out = unwrap_all(map_on(&exec, pool, (0u64..16).collect(), |x| x * 3));
        assert_eq!(out, (0u64..16).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn helpers_are_spawned_once_and_reused() {
        let pool = private_pool();
        let exec = Executor::threads(8);
        for round in 0u64..1_000 {
            let out = unwrap_all(map_on(&exec, pool, (0u64..16).collect(), |x| x + round));
            assert_eq!(out, (0u64..16).map(|x| x + round).collect::<Vec<_>>());
            assert_eq!(inside(pool), 0);
        }
        let spawned = pool.lock().spawned;
        assert!(
            spawned <= 7,
            "1,000 maps at 8 workers spawned {spawned} helpers"
        );
    }

    #[test]
    fn map_preserves_order() {
        for threads in [1, 2, 8] {
            let exec = Executor::threads(threads);
            let squares = exec.map((0u64..100).collect(), |x| x * x);
            assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_serial_with_uneven_work() {
        let work = |i: u64| {
            // Skewed workloads exercise the dynamic queue.
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let serial = Executor::serial().map((0..64).collect(), work);
        let parallel = Executor::threads(8).map((0..64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(Executor::threads(3).threads, 3);
        assert_eq!(Executor::serial().threads, 1);
        assert!(Executor::threads(0).threads >= 1);
        assert!(Executor::new().threads >= 1);
    }

    #[test]
    fn empty_and_single_item_maps() {
        for threads in [1, 4] {
            let exec = Executor::threads(threads);
            let empty: Vec<u64> = exec.map(Vec::new(), |x: u64| x + 1);
            assert!(empty.is_empty(), "empty input yields empty output");
            let (one, busy) = untraced(&exec, vec![41u64], |x| x + 1);
            assert_eq!(one, vec![42]);
            // A single item runs inline; busy time is still measured.
            assert!(busy >= Duration::ZERO);
        }
    }

    // One test mutates the process-wide env var for every CBV_THREADS
    // case, serialized within a single test fn so parallel test threads
    // cannot interleave observations of it.
    #[test]
    fn threads_env_edge_cases_fall_back_to_auto() {
        let checks: [(&str, &dyn Fn(usize)); 5] = [
            ("0", &|n| assert!(n >= 1, "zero falls back to auto")),
            ("garbage", &|n| assert!(n >= 1, "non-numeric falls back")),
            ("-2", &|n| assert!(n >= 1, "negative falls back")),
            ("  3  ", &|n| assert_eq!(n, 3, "whitespace is trimmed")),
            ("2", &|n| assert_eq!(n, 2)),
        ];
        for (value, check) in checks {
            std::env::set_var(THREADS_ENV, value);
            let exec = Executor::new();
            check(exec.threads);
            // Whatever the resolution, mapping must not panic and must
            // preserve order.
            assert_eq!(exec.map(vec![1u64, 2, 3], |x| x * 2), vec![2, 4, 6]);
        }
        std::env::remove_var(THREADS_ENV);
        assert!(Executor::new().threads >= 1, "unset means auto");
    }

    #[test]
    fn busy_time_accumulates() {
        let exec = Executor::threads(4);
        let (out, busy) = untraced(&exec, (0..16).collect::<Vec<u64>>(), |x| {
            std::thread::sleep(Duration::from_millis(2));
            x
        });
        assert_eq!(out.len(), 16);
        // 16 sleeps of 2 ms must show up in aggregate busy time.
        assert!(busy >= Duration::from_millis(20), "busy = {busy:?}");
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let exec = Executor::threads(8);
        let empty: Vec<u32> = exec.map(Vec::<u32>::new(), |x| x);
        assert!(empty.is_empty());
        assert_eq!(exec.map(vec![41], |x| x + 1), vec![42]);
    }

    #[test]
    fn try_map_isolates_panics_per_task() {
        for threads in [1, 2, 8] {
            let pool = private_pool();
            let exec = Executor::threads(threads);
            let out = map_on(&exec, pool, (0u64..16).collect(), |x| {
                if x == 5 {
                    panic!("unit {x} exploded");
                }
                if x == 9 {
                    // Non-&str payload path.
                    std::panic::panic_any(format!("unit {x} exploded loudly"));
                }
                x * 2
            });
            assert_eq!(inside(pool), 0, "a helper outlived its map");
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                match (i, r) {
                    (5, Err(p)) => {
                        assert_eq!(p.task, 5);
                        assert_eq!(p.message, "unit 5 exploded");
                    }
                    (9, Err(p)) => {
                        assert_eq!(p.task, 9);
                        assert_eq!(p.message, "unit 9 exploded loudly");
                    }
                    (_, Ok(v)) => assert_eq!(*v, i as u64 * 2),
                    (i, r) => panic!("unexpected slot {i}: {r:?}"),
                }
            }
        }
    }

    #[test]
    fn map_traced_records_per_task_spans() {
        for threads in [1, 4] {
            let (tracer, collector) = cbv_obs::Tracer::collecting();
            {
                let root = tracer.span("map");
                let ctx = TraceCtx::under(&tracer, &root);
                let exec = Executor::threads(threads);
                let (out, _busy) =
                    exec.map_traced(ctx, (0u64..6).collect(), |x| x + 1, |i| format!("task:{i}"));
                assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
            }
            tracer.flush();
            let sig = collector.trace().tree_signature();
            for i in 0..6 {
                assert!(
                    sig.contains(&("map".into(), format!("task:{i}"))),
                    "missing task:{i} at {threads} threads: {sig:?}"
                );
            }
        }
    }

    #[test]
    fn panicking_task_still_records_its_span() {
        let (tracer, collector) = cbv_obs::Tracer::collecting();
        {
            let root = tracer.span("map");
            let ctx = TraceCtx::under(&tracer, &root);
            let exec = Executor::threads(2);
            let (out, _busy) = exec.try_map_traced(
                ctx,
                vec![0u64, 1, 2],
                |x| {
                    if x == 1 {
                        panic!("boom");
                    }
                    x
                },
                |i| format!("task:{i}"),
            );
            assert!(out[1].is_err());
        }
        tracer.flush();
        let trace = collector.trace();
        assert!(
            trace.spans_named("task:1").count() == 1,
            "panicked task's span must still be recorded"
        );
    }

    #[test]
    fn fan_out_runs_blocking_tasks_concurrently_in_order() {
        use std::sync::mpsc;
        // Two tasks that must rendezvous: each sends before receiving,
        // so a serialized fan_out would time out rather than complete.
        let (to_a, from_b) = mpsc::channel::<u32>();
        let (to_b, from_a) = mpsc::channel::<u32>();
        let task_a = move || {
            to_b.send(1).unwrap();
            from_b.recv_timeout(Duration::from_secs(10)).unwrap() + 10
        };
        let task_b = move || {
            to_a.send(2).unwrap();
            from_a.recv_timeout(Duration::from_secs(10)).unwrap() + 20
        };
        let boxed: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(task_a), Box::new(task_b)];
        let out = fan_out(boxed);
        assert_eq!(out.len(), 2);
        assert_eq!(*out[0].as_ref().unwrap(), 12, "a got b's message");
        assert_eq!(*out[1].as_ref().unwrap(), 21, "b got a's message");
    }

    #[test]
    fn fan_out_isolates_panics_per_task() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..3usize)
            .map(|i| {
                Box::new(move || {
                    if i == 1 {
                        panic!("dispatcher {i} died");
                    }
                    i * 7
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = fan_out(tasks);
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        let p = out[1].as_ref().unwrap_err();
        assert_eq!(p.task, 1);
        assert_eq!(p.message, "dispatcher 1 died");
        assert_eq!(*out[2].as_ref().unwrap(), 14);

        // Single-task (inline) path keeps the same isolation.
        let one: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| -> usize { panic!("solo died") })];
        let out = fan_out(one);
        assert_eq!(out[0].as_ref().unwrap_err().message, "solo died");
    }

    #[test]
    fn map_traced_repanics_with_unit_name() {
        let exec = Executor::serial();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.map_traced(
                TraceCtx::disabled(),
                vec![0u64, 1],
                |x| {
                    if x == 1 {
                        panic!("bad check");
                    }
                    x
                },
                |_| String::new(),
            )
        }));
        let payload = caught.expect_err("must propagate the panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("task 1 panicked: bad check"), "{message}");
    }
}
