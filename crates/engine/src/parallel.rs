//! Deterministic ordered-merge parallel executor.
//!
//! The compiled evaluator ([`crate::bytecode`]) decomposes one Γ step into
//! a fixed, sequentially-ordered list of independent *shard tasks* over an
//! immutable pre-step snapshot — each task owns the delta units that
//! enumerate one predicate's relation shard. This module runs those tasks
//! on a small pool of scoped threads, each task firing into its own
//! buffer, and then concatenates the buffers in task-index order. The
//! evaluator tags its output with unit indices and re-merges per unit, so
//! the final [`FiredAction`] stream is byte-identical to the sequential
//! one — marks, SELECT inputs, and traces do not change.
//!
//! Threads are spawned per call with [`std::thread::scope`]; no pool lives
//! beyond a Γ step, and nothing is spawned at all when parallelism is off
//! or there is at most one task.
//!
//! The *pool size* (`workers`) is decoupled from the *task decomposition*:
//! the shard decomposition depends only on the program, while the fixpoint
//! loop clamps the number of threads actually spawned to
//! [`host_parallelism`]. Oversubscribing a host (e.g. 4 workers on 1 core)
//! only adds scheduling overhead — `BENCH_eval.json` measured threads=4 at
//! 1.45× *slower* than threads=1 on a 1-core host — and since the merge
//! order is deterministic, shrinking the pool cannot change any output.

use crate::gamma::FiredAction;
use crate::metrics::TaskSpan;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The host's available parallelism, cached after the first query.
/// Falls back to 1 when the host refuses to say.
pub(crate) fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// How many firings a task-output item represents, for [`TaskSpan`]
/// accounting. A bare action counts 1; a tagged per-unit buffer counts its
/// length.
pub(crate) trait SpanWeight {
    /// Number of fired actions this item carries.
    fn weight(&self) -> usize;
}

impl SpanWeight for FiredAction {
    fn weight(&self) -> usize {
        1
    }
}

impl SpanWeight for (usize, Vec<FiredAction>) {
    fn weight(&self) -> usize {
        self.1.len()
    }
}

/// Run `run` over every task, in parallel on up to `workers` threads, and
/// return the task buffers concatenated in task-index order. When `spans`
/// is supplied, one [`TaskSpan`] per task (fired count + wall-clock nanos)
/// is appended to it, in task-index order.
///
/// Falls back to a plain sequential loop when the task count or the worker
/// count makes spawning pointless.
pub(crate) fn run_ordered<T, R, F>(
    tasks: &[T],
    workers: usize,
    run: F,
    spans: Option<&mut Vec<TaskSpan>>,
) -> Vec<R>
where
    T: Sync,
    R: Send + SpanWeight,
    F: Fn(&T, &mut Vec<R>) + Sync,
{
    let timed = spans.is_some();
    let workers = workers.min(tasks.len());
    if workers <= 1 {
        let mut out = Vec::new();
        if let Some(spans) = spans {
            for (idx, task) in tasks.iter().enumerate() {
                let before = out.len();
                let started = Instant::now();
                run(task, &mut out);
                spans.push(TaskSpan {
                    index: idx,
                    fired: out[before..].iter().map(SpanWeight::weight).sum(),
                    nanos: started.elapsed().as_nanos() as u64,
                });
            }
        } else {
            for task in tasks {
                run(task, &mut out);
            }
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let mut buffers: Vec<Vec<R>> = Vec::with_capacity(tasks.len());
    let mut collected: Vec<(usize, Vec<R>, u64)> = Vec::with_capacity(tasks.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let next = &next;
            let run = &run;
            handles.push(scope.spawn(move || {
                let mut done: Vec<(usize, Vec<R>, u64)> = Vec::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= tasks.len() {
                        break;
                    }
                    let mut buf = Vec::new();
                    let started = timed.then(Instant::now);
                    run(&tasks[idx], &mut buf);
                    let nanos = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    done.push((idx, buf, nanos));
                }
                done
            }));
        }
        for handle in handles {
            collected.extend(handle.join().expect("evaluation worker panicked"));
        }
        collected.sort_unstable_by_key(|(idx, ..)| *idx);
    });
    if let Some(spans) = spans {
        spans.extend(collected.iter().map(|(idx, buf, nanos)| TaskSpan {
            index: *idx,
            fired: buf.iter().map(SpanWeight::weight).sum(),
            nanos: *nanos,
        }));
    }
    buffers.extend(collected.into_iter().map(|(_, buf, _)| buf));
    buffers.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use park_storage::Code;

    fn action(rule: usize, tag: i64) -> FiredAction {
        use crate::compile::RuleId;
        use crate::grounding::Grounding;
        use park_syntax::Sign;
        let c = Code::from_small_int(tag).expect("test tags are small");
        FiredAction {
            grounding: Grounding {
                rule: RuleId(rule as u32),
                subst: Box::from([c]),
            },
            sign: Sign::Insert,
            pred: park_storage::PredId(0),
            tuple: Box::from([c]),
        }
    }

    #[test]
    fn ordered_merge_matches_sequential_concatenation() {
        // Tasks emit differing numbers of actions; the merge must preserve
        // the task order regardless of which worker ran which task.
        let tasks: Vec<usize> = (0..37).collect();
        let run = |t: &usize, out: &mut Vec<FiredAction>| {
            for k in 0..(*t % 5) {
                out.push(action(*t, (*t * 10 + k) as i64));
            }
        };
        let mut expected = Vec::new();
        for t in &tasks {
            run(t, &mut expected);
        }
        for threads in [1, 2, 4, 8] {
            let got = run_ordered(&tasks, threads, run, None);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_task_lists() {
        let run = |t: &usize, out: &mut Vec<FiredAction>| {
            out.push(action(*t, *t as i64));
        };
        assert!(run_ordered(&[], 4, run, None).is_empty());
        let one = run_ordered(&[7usize], 4, run, None);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn spans_cover_every_task_in_merge_order() {
        let tasks: Vec<usize> = (0..9).collect();
        let run = |t: &usize, out: &mut Vec<FiredAction>| {
            for k in 0..(*t % 3) {
                out.push(action(*t, (*t * 10 + k) as i64));
            }
        };
        for threads in [1, 4] {
            let mut spans = Vec::new();
            let got = run_ordered(&tasks, threads, run, Some(&mut spans));
            assert_eq!(spans.len(), tasks.len(), "threads={threads}");
            for (i, span) in spans.iter().enumerate() {
                assert_eq!(span.index, i);
                assert_eq!(span.fired, i % 3);
            }
            assert_eq!(got.len(), spans.iter().map(|s| s.fired).sum::<usize>());
        }
    }

    #[test]
    fn tagged_unit_buffers_weigh_their_contents() {
        // Shard tasks emit (unit, buffer) pairs; spans must count firings,
        // not units.
        let tasks: Vec<usize> = (0..4).collect();
        let run = |t: &usize, out: &mut Vec<(usize, Vec<FiredAction>)>| {
            let buf: Vec<FiredAction> = (0..*t as i64).map(|k| action(*t, k)).collect();
            out.push((*t, buf));
        };
        for threads in [1, 3] {
            let mut spans = Vec::new();
            let got = run_ordered(&tasks, threads, run, Some(&mut spans));
            assert_eq!(got.len(), tasks.len());
            for (i, span) in spans.iter().enumerate() {
                assert_eq!(span.fired, i, "threads={threads}");
            }
        }
    }

    #[test]
    fn host_parallelism_is_at_least_one() {
        assert!(host_parallelism() >= 1);
    }
}
