//! Evaluation hooks: the one [`LevelFactory`] decorator, [`Hooked`],
//! which runs every `log_density` of a hierarchy through an
//! [`EvalHook`], and the hook both drivers install — per-level
//! [`EvalCounter`]s, the data behind the `t_l` and evaluation-count
//! columns of the paper's Tables 3 and 4. The tracer's `Eval` spans
//! and the simulator's virtual seconds (`uq-parallel`) are two more
//! hooks on the same decorator.

use crate::factory::LevelFactory;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use uq_mcmc::{Proposal, SamplingProblem};

/// Shared evaluation counters (clone-able handle, thread-safe so the
/// parallel scheduler's workers can share one per level).
#[derive(Clone, Debug, Default)]
pub struct EvalCounter {
    inner: Arc<CounterInner>,
}

#[derive(Debug, Default)]
struct CounterInner {
    evaluations: AtomicUsize,
    nanos: AtomicU64,
}

impl EvalCounter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one evaluation of `nanos` wall-clock nanoseconds.
    pub fn record(&self, nanos: u64) {
        self.inner.evaluations.fetch_add(1, Ordering::Relaxed);
        self.inner.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total number of evaluations recorded.
    pub fn evaluations(&self) -> usize {
        self.inner.evaluations.load(Ordering::Relaxed)
    }

    /// Mean evaluation time in milliseconds (`t_l`), or 0 if none.
    pub fn mean_eval_ms(&self) -> f64 {
        let n = self.evaluations();
        if n == 0 {
            0.0
        } else {
            self.inner.nanos.load(Ordering::Relaxed) as f64 / n as f64 / 1.0e6
        }
    }

    /// Total evaluation time in seconds.
    pub fn total_secs(&self) -> f64 {
        self.inner.nanos.load(Ordering::Relaxed) as f64 / 1.0e9
    }
}

/// What a [`Hooked`] hierarchy does around each model evaluation.
pub trait EvalHook: Send + Sync + 'static {
    /// Run `eval` — one `log_density` of a level-`level` problem — and
    /// return its value. `qoi` calls are not evaluations and never come
    /// here.
    fn eval(&self, level: usize, eval: impl FnOnce() -> f64) -> f64;
}

/// Count and time: `self[level]` records every evaluation of `level`.
impl EvalHook for Vec<EvalCounter> {
    fn eval(&self, level: usize, eval: impl FnOnce() -> f64) -> f64 {
        let start = Instant::now();
        let v = eval();
        self[level].record(start.elapsed().as_nanos() as u64);
        v
    }
}

/// `inner` with every `log_density` of every problem it hands out run
/// through `hook`; everything else is `inner`'s.
pub struct Hooked<'a, H> {
    inner: &'a dyn LevelFactory,
    hook: Arc<H>,
}

impl<'a, H: EvalHook> Hooked<'a, H> {
    pub fn new(inner: &'a dyn LevelFactory, hook: H) -> Self {
        Self {
            inner,
            hook: Arc::new(hook),
        }
    }

    pub fn hook(&self) -> &H {
        &self.hook
    }
}

impl<H: EvalHook> LevelFactory for Hooked<'_, H> {
    fn n_levels(&self) -> usize {
        self.inner.n_levels()
    }

    fn problem(&self, level: usize) -> Box<dyn SamplingProblem> {
        Box::new(HookedProblem {
            inner: self.inner.problem(level),
            level,
            hook: Arc::clone(&self.hook),
        })
    }

    fn proposal(&self, level: usize) -> Box<dyn Proposal> {
        self.inner.proposal(level)
    }

    fn subsampling_rate(&self, level: usize) -> usize {
        self.inner.subsampling_rate(level)
    }

    fn starting_point(&self, level: usize) -> Vec<f64> {
        self.inner.starting_point(level)
    }

    fn burn_in(&self, level: usize) -> usize {
        self.inner.burn_in(level)
    }
}

struct HookedProblem<H> {
    inner: Box<dyn SamplingProblem>,
    level: usize,
    hook: Arc<H>,
}

impl<H: EvalHook> SamplingProblem for HookedProblem<H> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn log_density(&mut self, theta: &[f64]) -> f64 {
        let inner = &mut self.inner;
        self.hook.eval(self.level, || inner.log_density(theta))
    }

    fn qoi(&mut self, theta: &[f64]) -> Vec<f64> {
        self.inner.qoi(theta)
    }

    fn qoi_dim(&self) -> usize {
        self.inner.qoi_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::test_support::GaussianHierarchy;
    use std::sync::Mutex;

    fn counters(n: usize) -> Vec<EvalCounter> {
        (0..n).map(|_| EvalCounter::new()).collect()
    }

    #[test]
    fn counter_records_calls() {
        let h = GaussianHierarchy::three_level(2);
        let counted = Hooked::new(&h, counters(3));
        let mut p = counted.problem(1);
        assert_eq!(counted.hook()[1].evaluations(), 0);
        p.log_density(&[0.0, 0.0]);
        p.log_density(&[1.0, 1.0]);
        let evaluations: Vec<usize> = counted.hook().iter().map(|c| c.evaluations()).collect();
        assert_eq!(evaluations, [0, 2, 0]);
        // seconds and the `t_l` column are two views of the same nanos
        let (idle, mid) = (&counted.hook()[0], &counted.hook()[1]);
        assert!(mid.total_secs() >= 0.0);
        assert!((mid.mean_eval_ms() * 2.0 - mid.total_secs() * 1e3).abs() < 1e-9);
        assert_eq!(idle.mean_eval_ms(), 0.0);
    }

    #[test]
    fn qoi_calls_are_not_counted() {
        let h = GaussianHierarchy::three_level(2);
        let counted = Hooked::new(&h, counters(3));
        counted.problem(0).qoi(&[0.5, 0.5]);
        assert_eq!(counted.hook()[0].evaluations(), 0);
    }

    #[test]
    fn shared_counter_aggregates_across_problems() {
        // one counter on every level: clones share their tally
        let h = GaussianHierarchy::three_level(1);
        let counter = EvalCounter::new();
        let counted = Hooked::new(&h, vec![counter.clone(); 3]);
        let mut a = counted.problem(0);
        let mut b = counted.problem(0);
        let mut c = counted.problem(2);
        a.log_density(&[0.0]);
        b.log_density(&[0.0]);
        c.log_density(&[0.0]);
        assert_eq!(counter.evaluations(), 3);
    }

    #[test]
    fn counting_preserves_density_values() {
        let h = GaussianHierarchy::three_level(3);
        let counted = Hooked::new(&h, counters(3));
        let theta = [0.1, -0.2, 0.3];
        for level in 0..3 {
            let (mut plain, mut wrapped) = (h.problem(level), counted.problem(level));
            assert_eq!(plain.log_density(&theta), wrapped.log_density(&theta));
            assert_eq!(plain.qoi(&theta), wrapped.qoi(&theta));
            assert_eq!((wrapped.dim(), wrapped.qoi_dim()), (3, 3));
            // everything but `problem` is the inner factory's
            assert_eq!(counted.subsampling_rate(level), h.subsampling_rate(level));
            assert_eq!(counted.starting_point(level), h.starting_point(level));
            assert_eq!(counted.burn_in(level), h.burn_in(level));
        }
        assert_eq!(counted.n_levels(), 3);
    }

    /// The shape of the two hooks `uq-parallel` installs: the tracer's
    /// wraps the evaluation in a span, the simulator's charges its level
    /// before evaluating.
    struct Script(Mutex<Vec<String>>);

    impl EvalHook for Script {
        fn eval(&self, level: usize, eval: impl FnOnce() -> f64) -> f64 {
            self.0.lock().unwrap().push(format!("enter {level}"));
            let v = eval();
            self.0
                .lock()
                .unwrap()
                .push(format!("leave {level} with {v}"));
            v
        }
    }

    #[test]
    fn a_hook_sees_the_level_and_both_sides_of_the_evaluation() {
        let h = GaussianHierarchy::three_level(1);
        let scripted = Hooked::new(&h, Script(Mutex::new(Vec::new())));
        let at_mode = scripted.problem(2).log_density(&[1.0]);
        scripted.problem(0).qoi(&[1.0]);
        assert_eq!(at_mode, h.problem(2).log_density(&[1.0]));
        assert_eq!(
            *scripted.hook().0.lock().unwrap(),
            ["enter 2".to_string(), format!("leave 2 with {at_mode}")]
        );
    }
}
