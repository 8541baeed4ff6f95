//! `cbv-exec` — the parallel execution layer of the CBV toolkit.
//!
//! §4.1 of the paper: DEC ran logic verification "on a network of 100
//! high performance workstations" because verification throughput *is*
//! the methodology — Correct-by-Verification only works when every check
//! can run over every transistor on every iteration. This crate is the
//! single-machine analogue: a zero-dependency, bounded worker pool built
//! on [`std::thread::scope`], so borrowed netlists, extractions and
//! recognitions can be shared read-only across workers without `Arc`.
//!
//! Design rules the rest of the workspace relies on:
//!
//! * **Determinism** — [`Executor::map`] preserves input order exactly;
//!   a parallel run produces the same `Vec` a serial run would. Work is
//!   handed out dynamically (an atomic-free shared iterator), but every
//!   result lands in its input's slot.
//! * **Bounded** — at most the configured number of workers exist at a
//!   time, and they live only for the duration of one `map` call.
//! * **Configurable** — [`Executor::new`] honours the `CBV_THREADS`
//!   environment variable; [`Executor::threads`] pins a count
//!   programmatically (the `FlowConfig::parallelism` knob feeds this).

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
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

/// A bounded scoped-thread worker pool.
///
/// Cheap to construct (two words, no threads until [`map`] runs) and
/// freely clonable; treat it as a configuration value.
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
        if self.threads <= 1 || n <= 1 {
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
        let workers = self.threads.min(n);
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let started = Instant::now();
                    loop {
                        // Take the lock only to pull the next item; the
                        // work itself runs unlocked.
                        let next = queue.lock().expect("queue lock").next();
                        let Some((index, item)) = next else { break };
                        let value = run_one(index, item);
                        *slots[index].lock().expect("slot lock") = Some(value);
                    }
                    *busy.lock().expect("busy lock") += started.elapsed();
                });
            }
        });
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

fn default_threads() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
            let exec = Executor::threads(threads);
            let (out, _busy) = exec.try_map_traced(
                TraceCtx::disabled(),
                (0u64..16).collect(),
                |x| {
                    if x == 5 {
                        panic!("unit {x} exploded");
                    }
                    if x == 9 {
                        // Non-&str payload path.
                        std::panic::panic_any(format!("unit {x} exploded loudly"));
                    }
                    x * 2
                },
                |_| String::new(),
            );
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
