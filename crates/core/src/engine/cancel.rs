//! Cooperative cancellation: deadline tokens threaded from the executor
//! into the solver hot loops.
//!
//! The engine's kernels are straight-line sweeps over presorted data; a
//! query that lands on a hardness-walled instance (maximum-weight rectangles
//! are (min,+)-convolution-hard) can otherwise pin a worker for an unbounded
//! time.  A [`CancelToken`] carries an optional wall-clock deadline plus a
//! manual cancel flag; the [`BatchExecutor`](super::BatchExecutor) installs
//! the current request's token into a **thread-local** slot around every
//! task it runs (and [`fan_out`] re-installs it inside the chunked sweeps'
//! scoped workers), so the solver traits keep their signatures — kernels
//! simply ask "[`poll`]?" every [`POLL_MASK`]` + 1` iterations and bail out
//! of their sweep early when the answer is yes.
//!
//! Cost discipline: when no token is installed (every non-deadline call
//! path), [`poll`] is a mask test plus one thread-local boolean read every
//! 1024 iterations — far below the noise floor of the perf gates.  A clock
//! is read only when a deadline is actually armed.
//!
//! A kernel that bails returns its best-so-far **partial** result; the
//! executor detects the expired token after the task returns and converts
//! the answer into a typed
//! [`EngineError::DeadlineExceeded`](super::EngineError::DeadlineExceeded)
//! carrying the partial work counters — a cancelled sweep therefore never
//! masquerades as a complete answer.
//!
//! The same thread-local scope carries the serving layer's **overload
//! degradation** flag (see [`degraded`]): above its overload watermark the
//! server asks the `auto` router to restrict itself to predicted-cheap
//! solvers, without rebuilding any registry state.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Poll stride mask: hot loops check the token on iterations where
/// `i & POLL_MASK == 0` (so once at entry, then every 1024th iteration).
pub const POLL_MASK: usize = 1023;

#[derive(Debug)]
struct CancelInner {
    deadline: Option<Instant>,
    cancelled: AtomicBool,
}

/// A shareable cancellation handle: an optional wall-clock deadline plus a
/// sticky manual cancel flag.  Cloning shares the underlying state.
#[derive(Clone, Debug)]
pub struct CancelToken(Arc<CancelInner>);

impl CancelToken {
    /// A token that trips once `deadline` passes (and stays tripped).
    pub fn with_deadline(deadline: Instant) -> Self {
        Self(Arc::new(CancelInner { deadline: Some(deadline), cancelled: AtomicBool::new(false) }))
    }

    /// A token with no deadline; it only trips via [`Self::cancel`].
    pub fn manual() -> Self {
        Self(Arc::new(CancelInner { deadline: None, cancelled: AtomicBool::new(false) }))
    }

    /// Trips the token (idempotent, visible to every clone).
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::Release);
    }

    /// `true` once the token is tripped — manually or because its deadline
    /// passed.  The deadline check latches into the flag so later calls are
    /// a single atomic load.
    pub fn is_cancelled(&self) -> bool {
        if self.0.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.0.deadline {
            Some(deadline) if Instant::now() >= deadline => {
                self.0.cancelled.store(true, Ordering::Release);
                true
            }
            _ => false,
        }
    }

    /// The wall-clock deadline, if one is armed.
    pub fn deadline(&self) -> Option<Instant> {
        self.0.deadline
    }
}

thread_local! {
    /// Fast-path mirror of "a token is installed": one boolean read keeps
    /// the no-deadline hot path free of `RefCell` traffic.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
    static DEGRADED: Cell<bool> = const { Cell::new(false) };
}

/// RAII scope for an installed token (see [`install`]): restores the
/// previously installed token and degradation flag on drop, so nested
/// executors and re-entrant solver calls compose.
pub struct CancelScope {
    prev: Option<CancelToken>,
    prev_degraded: bool,
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(self.prev.is_some()));
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        DEGRADED.with(|d| d.set(self.prev_degraded));
    }
}

/// Installs `token` (and the overload-degradation flag) as this thread's
/// current cancellation scope until the returned guard drops.
pub fn install(token: Option<CancelToken>, degraded: bool) -> CancelScope {
    ACTIVE.with(|a| a.set(token.is_some()));
    let prev = CURRENT.with(|c| c.replace(token));
    let prev_degraded = DEGRADED.with(|d| d.replace(degraded));
    CancelScope { prev, prev_degraded }
}

/// The token installed on this thread, if any.  [`fan_out`] clones it
/// before spawning and [`install`]s it inside each worker, since
/// thread-locals do not propagate.
pub fn current() -> Option<CancelToken> {
    if !ACTIVE.with(Cell::get) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// `true` while the serving layer runs this thread's work in overload
/// degradation mode (the `auto` router restricts to predicted-cheap
/// solvers; see the module docs).
pub fn degraded() -> bool {
    DEGRADED.with(Cell::get)
}

/// Immediate check: `true` when an installed token has tripped.  Use
/// [`poll`] in hot loops; this form is for coarse loops (per-grid,
/// per-chunk) that iterate a handful of times.
#[inline]
pub fn should_stop() -> bool {
    if !ACTIVE.with(Cell::get) {
        return false;
    }
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// Amortized check for hot loops: `true` when `i` lands on a poll stride
/// **and** an installed token has tripped.  Compiles to a mask test on the
/// off-stride iterations.
#[inline]
pub fn poll(i: usize) -> bool {
    (i & POLL_MASK) == 0 && should_stop()
}

/// Inner-loop steps (strip sites, grid incidences) a chunked sweep gives
/// each chunk at least before it spawns a worker for it.  Spawning and
/// joining a worker took about 60 µs on a 2-vCPU x86-64 box.  There, with
/// no such floor, a second worker made the colored rectangle sweep up to
/// 20× slower on 10–1,000 sites, and 1.2–1.7× faster on a 2,000-point
/// planar set at the benchmark's boxes.
pub const MIN_CHUNK_WORK: usize = 1 << 15;

/// Runs `work` once per item, the first on the calling thread and each
/// other on its own scoped worker, and returns the results in item order.
/// Thread-locals do not cross `spawn`, so every worker re-installs this
/// thread's token and degradation flag first: the chunked sweeps poll the
/// same deadline as the caller.  One item spawns nothing.  A worker's panic
/// resumes on the caller.
pub fn fan_out<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    let token = current();
    let degraded = degraded();
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .map(|item| {
                let token = token.clone();
                scope.spawn(move || {
                    let _scope = install(token, degraded);
                    work(item)
                })
            })
            .collect();
        let mut results = Vec::with_capacity(workers.len() + 1);
        results.push(work(first));
        for worker in workers {
            results.push(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn manual_tokens_trip_once_and_stay_tripped() {
        let token = CancelToken::manual();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled(), "cancellation is shared across clones");
        assert!(token.deadline().is_none());
    }

    #[test]
    fn deadline_tokens_latch_after_expiry() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "the expiry latches");
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn polling_is_inert_without_an_installed_token() {
        assert!(!should_stop());
        assert!(!poll(0));
        assert!(!poll(1024));
        assert!(!degraded());
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        {
            let _outer = install(Some(expired), true);
            assert!(should_stop());
            assert!(poll(0), "stride 0 polls");
            assert!(!poll(1), "off-stride iterations never poll");
            assert!(degraded());
            {
                let _inner = install(None, false);
                assert!(!should_stop(), "the inner scope shadows the outer token");
                assert!(!degraded());
            }
            assert!(should_stop(), "dropping the inner scope restores the outer");
            assert!(degraded());
        }
        assert!(!should_stop());
        assert!(!degraded());
        assert!(current().is_none());
    }

    #[test]
    fn fan_out_keeps_item_order_and_carries_the_token_into_workers() {
        let _scope = install(Some(CancelToken::manual()), true);
        let seen = fan_out(0..4, |k| (k, current().is_some(), degraded()));
        assert_eq!(seen, (0..4).map(|k| (k, true, true)).collect::<Vec<_>>());
        assert!(fan_out(std::iter::empty::<usize>(), |k| k).is_empty());
    }

    #[test]
    fn current_clones_the_installed_token() {
        let token = CancelToken::manual();
        let _scope = install(Some(token.clone()), false);
        let seen = current().expect("a token is installed");
        seen.cancel();
        assert!(token.is_cancelled(), "current() shares state with the installed token");
    }
}
