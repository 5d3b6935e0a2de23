//! The batch executor: answer a batch of queries against one view of a
//! [`VersionedDataset`], build each shared spatial index structure exactly
//! once, and fan the queries out across a worker pool.
//!
//! ## Execution plan
//!
//! 1. **View** — the dataset's current [`VersionedView`] is fetched once and
//!    its [`SharedIndex`] derived (for a changed version: the live sets
//!    materialized and the sorted orders merged, at most once per version).
//!    Every answer of the batch is computed and certified at that version;
//!    a static point set is simply version 1 with an empty delta.
//! 2. **Plan** — queries are grouped by `(problem kind, solver name)` and
//!    every distinct solver is resolved from the [`Registry`] once.  Queries
//!    naming an unknown solver fail individually with
//!    [`EngineError::UnknownSolver`]; they never sink the batch.
//! 3. **Fan out** — solver groups whose descriptor declares
//!    [`BatchCapability::IndexShared`] become one task (the solver amortizes
//!    its build across the group via `solve_all`); independent solvers
//!    contribute one task per query, and a solver declaring `dynamic`
//!    support answers ball queries from the dataset's resident tracker.
//!    Tasks run on `std::thread::scope` workers under one cancel scope and
//!    one deadline guard; nothing outlives the call.
//! 4. **Certify** — optionally, every successful answer is re-evaluated
//!    through the view (Fenwick range sum for 1-D intervals, the delta
//!    overlay on the base generation's grids for `d`-balls, a direct scan
//!    for boxes) and counted in [`BatchStats::certified`].  Solvers report
//!    *certified* values, so a mismatch means a contract violation and is
//!    tallied separately.
//!
//! [`BatchCapability::IndexShared`]: super::BatchCapability::IndexShared

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mrs_geom::{ColoredSite, Point, WeightedPoint};

use super::batch::{BatchAnswer, BatchQuery, BatchReport, BatchStats};
use super::cancel::{self, CancelToken};
use super::index::SharedIndex;
use super::instance::{ColoredInstance, RangeShape, WeightedInstance};
use super::obs::{Phase, QueryTrace, TraceRecorder};
use super::registry::{Registry, SharedColoredSolver, SharedWeightedSolver};
use super::report::{Guarantee, SolveStats, SolverReport};
use super::versioned::{ScriptOutcome, ScriptReport, ScriptStep, VersionedDataset, VersionedView};
use super::{EngineError, EngineResult, PartialWork, ProblemKind, SolverDescriptor};
use crate::config::SamplingConfig;
use crate::input::Placement;

/// Configuration of a [`BatchExecutor`].
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Worker threads to fan out over.  `None` picks the machine's available
    /// parallelism, capped at 8; `Some(1)` forces a serial run.
    pub threads: Option<usize>,
    /// Re-evaluate every successful answer through the batch's view and
    /// count the outcome in [`BatchStats::certified`] /
    /// [`BatchStats::certify_failures`].
    pub certify: bool,
    /// Wall-clock deadline for the whole call.  A [`cancel::CancelToken`]
    /// armed with it is installed around every task; solver hot loops poll
    /// it (amortized) and bail, and any task still running when it trips
    /// has its answers converted to
    /// [`EngineError::DeadlineExceeded`] with partial work counters.
    /// `None` (the default) disables cancellation entirely.
    pub deadline: Option<Instant>,
    /// Overload-degradation flag propagated to the `auto` router via the
    /// same thread-local scope (see [`cancel::degraded`]): when set, `auto`
    /// restricts its candidate set to predicted-cheap solvers and stamps
    /// the restriction into the answer's stats.
    pub degraded: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self { threads: None, certify: true, deadline: None, degraded: false }
    }
}

/// One schedulable unit of work: one `solve_all` call over some of a solver
/// group's shapes (the whole group for an index-sharing solver, one query
/// otherwise), whose answers land at `indices`.
enum Task<const D: usize> {
    Weighted { solver: SharedWeightedSolver<D>, indices: Vec<usize>, shapes: Vec<RangeShape<D>> },
    Colored { solver: SharedColoredSolver<D>, indices: Vec<usize>, shapes: Vec<RangeShape<D>> },
}

/// What every task of one batch runs against: the dataset, the view all
/// answers are computed at, and that view's index.
struct Target<'a, const D: usize> {
    dataset: &'a VersionedDataset<D>,
    view: &'a VersionedView<D>,
    index: &'a SharedIndex<D>,
    sampling: SamplingConfig,
}

impl<const D: usize> Target<'_, D> {
    /// Answers ball queries for a solver declaring `dynamic` support from
    /// the dataset's resident tracker at this batch's view.  `None` falls
    /// through to a fresh solve: another solver or shape, a dataset that
    /// ever held negative weights, or a view a mutation has moved past.
    fn tracker_reads(
        &self,
        solver: &SharedWeightedSolver<D>,
        shapes: &[RangeShape<D>],
    ) -> Option<Vec<EngineResult<SolverReport<Placement<D>>>>> {
        let descriptor = solver.descriptor();
        if !descriptor.dynamic {
            return None;
        }
        shapes
            .iter()
            .map(|shape| {
                let radius = shape.ball_radius()?;
                let start = Instant::now();
                let placement = self.dataset.dynamic_ball_at(self.view, radius, &self.sampling)?;
                Some(Ok(SolverReport {
                    solver: descriptor.name,
                    placement,
                    guarantee: Guarantee::HalfMinusEps { eps: self.sampling.eps },
                    stats: SolveStats { elapsed: start.elapsed(), ..SolveStats::default() },
                }))
            })
            .collect()
    }
}

impl<const D: usize> Task<D> {
    fn run(&self, target: &Target<'_, D>, threads: usize) -> Vec<(usize, BatchAnswer<D>)> {
        let answers: Vec<BatchAnswer<D>> = match self {
            Task::Weighted { solver, shapes, .. } => {
                let base = WeightedInstance::from_shared(target.index.shared_points(), shapes[0]);
                target
                    .tracker_reads(solver, shapes)
                    .unwrap_or_else(|| solver.solve_all(&base, shapes, target.index, threads))
                    .into_iter()
                    .map(|r| r.map_or_else(BatchAnswer::Failed, BatchAnswer::Weighted))
                    .collect()
            }
            Task::Colored { solver, shapes, .. } => {
                let base = ColoredInstance::from_shared(target.index.shared_sites(), shapes[0]);
                solver
                    .solve_all(&base, shapes, target.index, threads)
                    .into_iter()
                    .map(|r| r.map_or_else(BatchAnswer::Failed, BatchAnswer::Colored))
                    .collect()
            }
        };
        let (Task::Weighted { indices, .. } | Task::Colored { indices, .. }) = self;
        indices.iter().copied().zip(answers).collect()
    }
}

/// Executes batches of [`BatchQuery`]s against a [`Registry`].  See the
/// [module docs](self) for the execution plan.
pub struct BatchExecutor<'r> {
    registry: &'r Registry,
    config: ExecutorConfig,
}

impl<'r> BatchExecutor<'r> {
    /// An executor over `registry` with the default configuration.
    pub fn new(registry: &'r Registry) -> Self {
        Self::with_config(registry, ExecutorConfig::default())
    }

    /// An executor with an explicit configuration.
    pub fn with_config(registry: &'r Registry, config: ExecutorConfig) -> Self {
        Self { registry, config }
    }

    /// Answers every query against the dataset's current version: the one
    /// execution path (see the [module docs](self)).  Individual queries
    /// fail with a typed error in their [`BatchAnswer`]; the batch itself
    /// always returns.  The report carries one certification flag per
    /// answer and the version all answers were computed and certified at.
    ///
    /// Every query leaves one phase-timed [`QueryTrace`] in `recorder` (pass
    /// [`TraceRecorder::disabled`] to skip them).  Phase attribution keeps
    /// each trace's sum below the batch wall time: the batch-level plan,
    /// view-derivation and lazy index-build durations are split evenly
    /// across the queries, and each query's solver time is reduced by its
    /// lazy-build share (those builds run inside solver calls; the view
    /// derivation runs before them).
    ///
    /// [`BatchStats::index_builds`] / [`BatchStats::index_build_time`]
    /// count the structures this call built, the view derivation included,
    /// so a warm version reports zero.  They are before/after snapshots of
    /// the index's monotone counters: when several calls share one version
    /// concurrently, a build triggered by one call can land in an
    /// overlapping call's delta too — use [`VersionedDataset::builds`]
    /// (global, exact) for build-exactly-once assertions.
    pub fn execute_versioned_traced<const D: usize>(
        &self,
        dataset: &VersionedDataset<D>,
        queries: &[BatchQuery<D>],
        recorder: &mut TraceRecorder,
    ) -> BatchReport<D> {
        let start = Instant::now();
        let view = dataset.view();
        let (index, seeded, derive_time) = view.derive_index();
        let builds_before = index.builds();
        let build_time_before = index.build_time();
        let mut answers: Vec<Option<BatchAnswer<D>>> = vec![None; queries.len()];
        let plan_start = Instant::now();
        let tasks = self.plan(queries, view.boundary_slack(), &mut answers);
        let plan_time = plan_start.elapsed();

        // The thread *budget* is what the caller configured (or the machine
        // offers); the executor fans at most one worker per task out and
        // grants each task the leftover budget for *internal* chunking, so
        // `--threads` accelerates a single expensive query too (an
        // index-shared group is one task).
        let budget = self.config.threads.unwrap_or_else(machine_threads).max(1);
        let workers = budget.min(tasks.len().max(1));
        let inner_threads = (budget / workers).max(1);
        let target = Target {
            dataset,
            view: &view,
            index: &index,
            sampling: self.registry.config().sampling,
        };

        // One token for the whole call: installed around every task (and
        // re-installed inside chunked kernels' own scoped workers), polled
        // by the solver hot loops.  A task still running when it trips has
        // bailed early; its answers are converted to typed timeouts below.
        let token = self.config.deadline.map(CancelToken::with_deadline);
        if workers <= 1 {
            let _scope = cancel::install(token.clone(), self.config.degraded);
            for task in &tasks {
                let results = task.run(&target, inner_threads);
                let expired = token.as_ref().is_some_and(CancelToken::is_cancelled);
                for (i, answer) in results {
                    answers[i] = Some(deadline_guard(answer, expired));
                }
            }
        } else {
            let next = AtomicUsize::new(0);
            let shared_answers = Mutex::new(&mut answers);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let _scope = cancel::install(token.clone(), self.config.degraded);
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(t) else { break };
                            let results = task.run(&target, inner_threads);
                            let expired = token.as_ref().is_some_and(CancelToken::is_cancelled);
                            let mut answers = shared_answers
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            for (i, answer) in results {
                                answers[i] = Some(deadline_guard(answer, expired));
                            }
                        }
                    });
                }
            });
        }

        let answers: Vec<BatchAnswer<D>> = answers
            .into_iter()
            .map(|a| {
                a.unwrap_or(BatchAnswer::Failed(EngineError::UnknownSolver {
                    name: "<unscheduled>".into(),
                }))
            })
            .collect();

        let mut stats = BatchStats {
            queries: queries.len(),
            failed: answers.iter().filter(|a| !a.is_ok()).count(),
            threads: budget,
            solver_time: answers.iter().map(BatchAnswer::elapsed).sum(),
            candidates_examined: answers
                .iter()
                .filter_map(BatchAnswer::solve_stats)
                .filter_map(|s| s.candidates_examined)
                .sum(),
            grid_cells_visited: answers
                .iter()
                .filter_map(BatchAnswer::solve_stats)
                .filter_map(|s| s.grid_cells_visited)
                .sum(),
            sieve_rejected: answers
                .iter()
                .filter_map(BatchAnswer::solve_stats)
                .filter_map(|s| s.sieve_rejected)
                .sum(),
            auto_picks: answers
                .iter()
                .filter_map(BatchAnswer::solve_stats)
                .filter(|s| s.auto_choice.is_some())
                .count(),
            auto_predicted_work: answers
                .iter()
                .filter_map(BatchAnswer::solve_stats)
                .filter_map(|s| s.auto_predicted_work)
                .sum(),
            auto_actual_work: answers
                .iter()
                .filter_map(BatchAnswer::solve_stats)
                .filter_map(|s| s.auto_actual_work)
                .sum(),
            ..BatchStats::default()
        };
        let mut certified = vec![None; answers.len()];
        let mut certify_times = vec![Duration::ZERO; answers.len()];
        if self.config.certify {
            for (i, (query, answer)) in queries.iter().zip(&answers).enumerate() {
                let t = Instant::now();
                certified[i] = certify_answer(&view, query, answer);
                certify_times[i] = t.elapsed();
            }
            stats.certified = certified.iter().filter(|&&c| c == Some(true)).count();
            stats.certify_failures = certified.iter().filter(|&&c| c == Some(false)).count();
        }
        let lazy_build_time = index.build_time().saturating_sub(build_time_before);
        stats.index_builds = seeded + (index.builds() - builds_before);
        stats.index_build_time = derive_time + lazy_build_time;
        stats.wall = start.elapsed();
        if recorder.is_enabled() {
            let n = queries.len().max(1) as u32;
            let plan_share = plan_time / n;
            let derive_share = derive_time / n;
            let build_share = lazy_build_time / n;
            for (i, (query, answer)) in queries.iter().zip(&answers).enumerate() {
                let mut trace = QueryTrace {
                    query: i,
                    solver: query.solver().to_string(),
                    shape: format!("{:?}", query.shape()),
                    ok: answer.is_ok(),
                    certified: certified[i],
                    version: view.version(),
                    degraded: self.config.degraded,
                    ..QueryTrace::default()
                };
                trace.set_phase(Phase::Plan, plan_share);
                trace.set_phase(Phase::IndexBuild, derive_share + build_share);
                trace.set_phase(Phase::Solve, answer.elapsed().saturating_sub(build_share));
                trace.set_phase(Phase::Certify, certify_times[i]);
                if let Some(s) = answer.solve_stats() {
                    trace.routed = s.auto_choice;
                    trace.candidates_examined = s.candidates_examined.unwrap_or(0);
                    trace.grid_cells_visited = s.grid_cells_visited.unwrap_or(0);
                    trace.sieve_rejected = s.sieve_rejected.unwrap_or(0);
                }
                recorder.record(trace);
            }
        }
        BatchReport { answers, certified, version: view.version(), stats }
    }

    /// Executes an interleaved update/query **script** against a versioned
    /// dataset: each run of consecutive queries is one batch answered at the
    /// then-current version (through [`Self::execute_versioned_traced`], so
    /// every answer is certified against the version it was computed at),
    /// and each mutation bumps the version between runs.  Each trace's
    /// `query` field is the query's **step position** in the script, so
    /// traces line up with the report's outcomes.
    pub fn execute_script<const D: usize>(
        &self,
        dataset: &VersionedDataset<D>,
        steps: &[ScriptStep<D>],
        recorder: &mut TraceRecorder,
    ) -> ScriptReport<D> {
        let mut outcomes: Vec<ScriptOutcome<D>> = Vec::with_capacity(steps.len());
        let mut stats = BatchStats::default();
        let mut updates = 0usize;
        // A mutation is always a run of its own; queries run together.
        let runs =
            steps.chunk_by(|a, b| matches!((a, b), (ScriptStep::Query(_), ScriptStep::Query(_))));
        for run in runs {
            if let [ScriptStep::Mutate(mutation)] = run {
                let report = dataset.apply(std::slice::from_ref(mutation));
                updates += 1;
                outcomes.push(ScriptOutcome::Mutated {
                    version: report.version,
                    outcome: report.outcome,
                    compacted: report.compacted,
                });
                continue;
            }
            let queries: Vec<BatchQuery<D>> = run
                .iter()
                .filter_map(|step| match step {
                    ScriptStep::Query(query) => Some(query.clone()),
                    ScriptStep::Mutate(_) => None,
                })
                .collect();
            let mark = recorder.traces().len();
            let report = self.execute_versioned_traced(dataset, &queries, recorder);
            for trace in &mut recorder.traces_mut()[mark..] {
                trace.query += outcomes.len();
            }
            merge_stats(&mut stats, &report.stats);
            let version = report.version;
            outcomes.extend(
                report.answers.into_iter().zip(report.certified).map(|(answer, certified)| {
                    ScriptOutcome::Answer { version, certified, answer }
                }),
            );
        }
        ScriptReport { outcomes, stats, updates, final_version: dataset.version() }
    }

    /// Groups queries per `(problem, solver)`, resolves each solver once,
    /// fails unknown names and ranges no larger than the view's boundary
    /// `slack` in place, and emits one task per index-sharing group or per
    /// independent query.
    fn plan<const D: usize>(
        &self,
        queries: &[BatchQuery<D>],
        slack: f64,
        answers: &mut [Option<BatchAnswer<D>>],
    ) -> Vec<Task<D>> {
        struct Group<const D: usize> {
            kind: ProblemKind,
            name: String,
            indices: Vec<usize>,
            shapes: Vec<RangeShape<D>>,
        }
        let mut order: Vec<Group<D>> = Vec::new();
        let mut by_key: HashMap<(ProblemKind, String), usize> = HashMap::new();
        for (i, query) in queries.iter().enumerate() {
            if let Err(error) = admit(query, slack) {
                answers[i] = Some(BatchAnswer::Failed(error));
                continue;
            }
            let slot = *by_key.entry((query.problem, query.solver.clone())).or_insert_with(|| {
                order.push(Group {
                    kind: query.problem,
                    name: query.solver.clone(),
                    indices: Vec::new(),
                    shapes: Vec::new(),
                });
                order.len() - 1
            });
            order[slot].indices.push(i);
            order[slot].shapes.push(query.shape);
        }

        let mut tasks: Vec<Task<D>> = Vec::new();
        for group in order {
            // An index-sharing solver answers its whole group in one call; an
            // independent one gets a task per query, so its queries fan out.
            let chunks = |descriptor: &SolverDescriptor| {
                let len = if descriptor.batch.is_shared() { group.indices.len() } else { 1 };
                group
                    .indices
                    .chunks(len)
                    .map(<[_]>::to_vec)
                    .zip(group.shapes.chunks(len).map(<[_]>::to_vec))
            };
            match group.kind {
                ProblemKind::Weighted => match self.registry.weighted::<D>(&group.name) {
                    None => fail_group(answers, &group.indices, &group.name),
                    Some(solver) => {
                        tasks.extend(chunks(solver.descriptor()).map(|(indices, shapes)| {
                            Task::Weighted { solver: Arc::clone(&solver), indices, shapes }
                        }))
                    }
                },
                ProblemKind::Colored => match self.registry.colored::<D>(&group.name) {
                    None => fail_group(answers, &group.indices, &group.name),
                    Some(solver) => {
                        tasks.extend(chunks(solver.descriptor()).map(|(indices, shapes)| {
                            Task::Colored { solver: Arc::clone(&solver), indices, shapes }
                        }))
                    }
                },
            }
        }
        tasks
    }
}

/// The machine's available parallelism, capped at 8.  Read once per
/// process: on Linux the query reads cgroup files (about 24 µs per call on
/// a 2-vCPU x86-64 container), more than a warm tracker read costs.
fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8))
}

/// Refuses a range whose radius, or smallest half-extent, is at most the
/// view's boundary `slack`: no answer at that scale can be certified, and
/// grid cell addresses saturate.
fn admit<const D: usize>(query: &BatchQuery<D>, slack: f64) -> EngineResult<()> {
    let half = match query.shape() {
        RangeShape::Ball { radius } => *radius,
        RangeShape::AxisBox { extents } => {
            extents.iter().fold(f64::INFINITY, |m, e| m.min(e / 2.0))
        }
    };
    if half > slack {
        Ok(())
    } else {
        Err(EngineError::RangeTooSmall { solver: query.solver().to_string() })
    }
}

/// Accumulates one query segment's statistics into a script-level total.
fn merge_stats(total: &mut BatchStats, segment: &BatchStats) {
    total.queries += segment.queries;
    total.failed += segment.failed;
    total.threads = total.threads.max(segment.threads);
    total.index_builds += segment.index_builds;
    total.index_build_time += segment.index_build_time;
    total.wall += segment.wall;
    total.solver_time += segment.solver_time;
    total.certified += segment.certified;
    total.certify_failures += segment.certify_failures;
    total.candidates_examined += segment.candidates_examined;
    total.grid_cells_visited += segment.grid_cells_visited;
    total.sieve_rejected += segment.sieve_rejected;
    total.auto_picks += segment.auto_picks;
    total.auto_predicted_work += segment.auto_predicted_work;
    total.auto_actual_work += segment.auto_actual_work;
}

/// Re-evaluates one answer through `view`: `Some(true)` when the reported
/// value lies within the view's recount bounds, `Some(false)` on a
/// solver-contract violation, `None` for failed answers (nothing to check).
/// The bounds go through the view's delta overlay, so certifying after an
/// update rebuilds nothing; box queries (which have no shared structure)
/// scan the view's live points and sites directly.  This is the only
/// certification route: the executor stamps every answer with it, so one
/// bad answer in a batch cannot mislabel its neighbors.
pub fn certify_answer<const D: usize>(
    view: &VersionedView<D>,
    query: &BatchQuery<D>,
    answer: &BatchAnswer<D>,
) -> Option<bool> {
    let slack = view.boundary_slack();
    Some(match answer {
        BatchAnswer::Failed(_) => return None,
        BatchAnswer::Weighted(report) => {
            let center = &report.placement.center;
            let (lo, hi) = match query.shape() {
                RangeShape::Ball { radius } if D == 1 => {
                    view.interval_weight_bounds(center[0] - radius, center[0] + radius, slack)
                }
                RangeShape::Ball { radius } => view.ball_weight_bounds(center, *radius, slack),
                RangeShape::AxisBox { extents } => {
                    box_weight_bounds(view.points(), center, extents, slack)
                }
            };
            let want = report.placement.value;
            let tol = 1e-6 * (1.0 + want.abs());
            want >= lo - tol && want <= hi + tol
        }
        BatchAnswer::Colored(report) => {
            let center = &report.placement.center;
            let (lo, hi) = match query.shape() {
                RangeShape::Ball { radius } => view.ball_distinct_bounds(center, *radius, slack),
                RangeShape::AxisBox { extents } => {
                    box_distinct_bounds(view.sites(), center, extents, slack)
                }
            };
            let want = report.placement.distinct;
            want >= lo && want <= hi
        }
    })
}

/// Classifies a point against a slack-widened box: `None` when definitely
/// outside, `Some(false)` when definitely inside, `Some(true)` when within
/// `slack` of the boundary.
fn box_membership<const D: usize>(
    point: &Point<D>,
    center: &Point<D>,
    extents: &[f64; D],
    slack: f64,
) -> Option<bool> {
    let mut boundary = false;
    for i in 0..D {
        let d = (point[i] - center[i]).abs();
        let half = extents[i] / 2.0;
        if d > half + slack {
            return None;
        }
        if d > half - slack {
            boundary = true;
        }
    }
    Some(boundary)
}

/// Lower/upper bounds on the weight inside a slack-widened box (direct scan;
/// box queries have no shared index).
fn box_weight_bounds<const D: usize>(
    points: &[WeightedPoint<D>],
    center: &Point<D>,
    extents: &[f64; D],
    slack: f64,
) -> (f64, f64) {
    let mut definite = 0.0;
    let mut neg = 0.0;
    let mut pos = 0.0;
    for wp in points {
        match box_membership(&wp.point, center, extents, slack) {
            None => {}
            Some(false) => definite += wp.weight,
            Some(true) => {
                if wp.weight < 0.0 {
                    neg += wp.weight;
                } else {
                    pos += wp.weight;
                }
            }
        }
    }
    (definite + neg, definite + pos)
}

/// Lower/upper bounds on the distinct colors inside a slack-widened box.
fn box_distinct_bounds<const D: usize>(
    sites: &[ColoredSite<D>],
    center: &Point<D>,
    extents: &[f64; D],
    slack: f64,
) -> (usize, usize) {
    let mut definite: Vec<usize> = Vec::new();
    let mut boundary: Vec<usize> = Vec::new();
    for s in sites {
        match box_membership(&s.point, center, extents, slack) {
            None => {}
            Some(false) => definite.push(s.color),
            Some(true) => boundary.push(s.color),
        }
    }
    definite.sort_unstable();
    definite.dedup();
    let lo = definite.len();
    let mut all = definite;
    all.extend(boundary);
    all.sort_unstable();
    all.dedup();
    (lo, all.len())
}

/// Converts a task's answers into typed timeouts when the call's deadline
/// tripped while the task ran: a kernel that bailed out of its sweep
/// returns a best-so-far *partial* placement, and letting that through as a
/// successful answer would mislabel an incomplete search as a complete one.
/// The partial work counters ride along so callers can see how far the
/// sweep got.  Already-failed answers keep their original error.
fn deadline_guard<const D: usize>(answer: BatchAnswer<D>, expired: bool) -> BatchAnswer<D> {
    if !expired {
        return answer;
    }
    let (solver, stats) = match &answer {
        BatchAnswer::Weighted(report) => (report.solver, &report.stats),
        BatchAnswer::Colored(report) => (report.solver, &report.stats),
        BatchAnswer::Failed(_) => return answer,
    };
    BatchAnswer::Failed(EngineError::DeadlineExceeded {
        solver: solver.to_string(),
        partial: PartialWork {
            candidates_examined: stats.candidates_examined.unwrap_or(0),
            grid_cells_visited: stats.grid_cells_visited.unwrap_or(0),
            elapsed_us: stats.elapsed.as_micros() as u64,
        },
    })
}

fn fail_group<const D: usize>(
    answers: &mut [Option<BatchAnswer<D>>],
    indices: &[usize],
    name: &str,
) {
    for &i in indices {
        answers[i] =
            Some(BatchAnswer::Failed(EngineError::UnknownSolver { name: name.to_string() }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::registry;
    use crate::engine::versioned::Mutation;
    use mrs_geom::Point2;

    fn planar_points() -> Vec<WeightedPoint<2>> {
        vec![
            WeightedPoint::unit(Point2::xy(0.0, 0.0)),
            WeightedPoint::unit(Point2::xy(0.5, 0.0)),
            WeightedPoint::unit(Point2::xy(0.0, 0.5)),
            WeightedPoint::unit(Point2::xy(9.0, 9.0)),
        ]
    }

    fn planar_sites() -> Vec<ColoredSite<2>> {
        vec![
            ColoredSite::new(Point2::xy(0.0, 0.0), 0),
            ColoredSite::new(Point2::xy(0.4, 0.0), 1),
            ColoredSite::new(Point2::xy(0.0, 0.4), 2),
            ColoredSite::new(Point2::xy(9.0, 9.0), 0),
        ]
    }

    /// One untraced batch at the dataset's current version.
    fn run<const D: usize>(
        executor: &BatchExecutor<'_>,
        dataset: &VersionedDataset<D>,
        queries: &[BatchQuery<D>],
    ) -> BatchReport<D> {
        executor.execute_versioned_traced(dataset, queries, &mut TraceRecorder::disabled())
    }

    #[test]
    fn mixed_batch_answers_in_request_order() {
        let dataset = VersionedDataset::new(planar_points(), planar_sites());
        let queries = [
            BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
            BatchQuery::colored("output-sensitive-colored-disk", RangeShape::ball(1.0)),
            BatchQuery::weighted("exact-rect-2d", RangeShape::rect(1.0, 1.0)),
            BatchQuery::weighted("no-such-solver", RangeShape::ball(1.0)),
        ];
        let registry = registry();
        let report = run(&BatchExecutor::new(&registry), &dataset, &queries);

        assert_eq!(report.answers.len(), 4);
        assert_eq!(report.weighted(0).unwrap().placement.value, 3.0);
        assert_eq!(report.colored(1).unwrap().placement.distinct, 3);
        assert_eq!(report.weighted(2).unwrap().placement.value, 3.0);
        assert!(matches!(
            report.answers[3].error(),
            Some(EngineError::UnknownSolver { name }) if name == "no-such-solver"
        ));
        assert_eq!(report.certified, vec![Some(true), Some(true), Some(true), None]);
        assert_eq!(report.version, 1, "a static batch is version 1");
        assert_eq!(report.stats.queries, 4);
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.certified, 3);
        assert_eq!(report.stats.certify_failures, 0);
        assert!(report.stats.queries_per_sec() > 0.0);
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let queries: Vec<BatchQuery<2>> = (0..32)
            .map(|i| BatchQuery::weighted("exact-disk-2d", RangeShape::ball(0.5 + 0.05 * i as f64)))
            .collect();
        let registry = registry();
        let with_threads = |threads| {
            let config = ExecutorConfig { threads: Some(threads), ..ExecutorConfig::default() };
            run(&BatchExecutor::with_config(&registry, config), &dataset, &queries)
        };
        let serial = with_threads(1);
        let parallel = with_threads(4);
        assert_eq!(serial.stats.threads, 1);
        assert_eq!(parallel.stats.threads, 4);
        for i in 0..queries.len() {
            assert_eq!(
                serial.weighted(i).unwrap().placement.value,
                parallel.weighted(i).unwrap().placement.value,
                "query {i} disagrees between serial and parallel runs"
            );
        }
        assert_eq!(parallel.stats.certify_failures, 0);
    }

    #[test]
    fn shape_mismatches_fail_per_query_not_per_batch() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let queries = [
            BatchQuery::weighted("exact-disk-2d", RangeShape::rect(1.0, 1.0)),
            BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
        ];
        let registry = registry();
        let report = run(&BatchExecutor::new(&registry), &dataset, &queries);
        assert!(matches!(report.answers[0].error(), Some(EngineError::UnsupportedShape { .. })));
        assert_eq!(report.weighted(1).unwrap().placement.value, 3.0);
        assert_eq!(report.stats.failed, 1);
    }

    #[test]
    fn certification_survives_large_coordinate_magnitudes() {
        // UTM/timestamp-scale coordinates: the reported center's rounding is
        // relative to ~1e6, far above any radius-relative tolerance.  The
        // optimal disk boundary passes through input points, so a
        // magnitude-blind recount drops them and flags exact answers.
        let base = 1.0e6;
        let points: Vec<WeightedPoint<2>> = [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (4.0, 4.0)]
            .iter()
            .map(|&(x, y)| WeightedPoint::unit(Point2::xy(base + x, base + y)))
            .collect();
        let dataset = VersionedDataset::new(points, Vec::new());
        let queries: Vec<BatchQuery<2>> = (0..50)
            .map(|i| BatchQuery::weighted("exact-disk-2d", RangeShape::ball(0.5 + 0.01 * i as f64)))
            .collect();
        let registry = registry();
        let report = run(&BatchExecutor::new(&registry), &dataset, &queries);
        assert!(report.all_ok());
        assert_eq!(
            report.stats.certify_failures, 0,
            "certification must tolerate magnitude-relative center rounding"
        );
        assert_eq!(report.stats.certified, 50);
    }

    #[test]
    fn empty_batch_reports_cleanly() {
        let dataset = VersionedDataset::<2>::new(Vec::new(), Vec::new());
        let registry = registry();
        let report = run(&BatchExecutor::new(&registry), &dataset, &[]);
        assert!(report.answers.is_empty());
        assert!(report.all_ok());
        assert_eq!(report.stats.queries, 0);
    }

    #[test]
    fn scripts_interleave_updates_and_certified_queries() {
        let dataset = VersionedDataset::new(planar_points(), planar_sites());
        let registry = registry();
        let executor = BatchExecutor::new(&registry);
        let steps = vec![
            ScriptStep::Query(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0))),
            ScriptStep::Mutate(Mutation::Insert {
                point: WeightedPoint::new(Point2::xy(0.25, 0.25), 5.0),
                color: Some(3),
            }),
            ScriptStep::Query(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0))),
            ScriptStep::Query(BatchQuery::colored(
                "output-sensitive-colored-disk",
                RangeShape::ball(1.0),
            )),
            ScriptStep::Mutate(Mutation::Delete { point: Point2::xy(0.25, 0.25) }),
            ScriptStep::Query(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0))),
        ];
        let report = executor.execute_script(&dataset, &steps, &mut TraceRecorder::disabled());
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.updates, 2);
        assert_eq!(report.final_version, 3);
        assert!(report.all_ok());
        // Every answer is certified against the version it was computed at.
        let versions: Vec<u64> = report.outcomes.iter().map(|o| o.version()).collect();
        assert_eq!(versions, vec![1, 2, 2, 2, 3, 3]);
        for outcome in &report.outcomes {
            if outcome.answer().is_some() {
                assert_eq!(outcome.certified(), Some(true), "{outcome:?}");
            }
        }
        // The insert raised the disk optimum from 3 to 8; the delete
        // restored it.
        let values: Vec<f64> = report
            .outcomes
            .iter()
            .filter_map(ScriptOutcome::answer)
            .filter_map(BatchAnswer::weighted)
            .map(|r| r.placement.value)
            .collect();
        assert_eq!(values, vec![3.0, 8.0, 3.0]);
        // The colored query saw the inserted site (colors 0,1,2,3).
        let colored = report
            .outcomes
            .iter()
            .filter_map(ScriptOutcome::answer)
            .find_map(BatchAnswer::colored)
            .expect("one colored answer");
        assert_eq!(colored.placement.distinct, 4);
        assert_eq!(report.stats.certify_failures, 0);
        assert_eq!(report.stats.certified, 4);
    }

    #[test]
    fn ranges_within_the_boundary_slack_fail_alone_and_never_hang() {
        // Coordinates up to 100 put the boundary slack near 1e-7.  Smaller
        // ranges saturate grid cell addresses and cannot be certified, so
        // each must fail on its own before any solver runs, and the
        // ordinary query beside them must still answer certified.
        let points: Vec<WeightedPoint<2>> = (0..200)
            .map(|i| {
                WeightedPoint::unit(Point2::xy((i * 37 % 100) as f64, (i * 61 % 100) as f64 + 0.5))
            })
            .collect();
        let mut queries = Vec::new();
        for radius in [1e-300, 1e-18] {
            queries.push(BatchQuery::weighted("approx-static-ball", RangeShape::ball(radius)));
            queries.push(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(radius)));
        }
        queries.push(BatchQuery::weighted("exact-rect-2d", RangeShape::rect(1.0, 1e-18)));
        queries.push(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)));
        // A spawned thread and a timed receive, so a walk that never ends
        // fails this test instead of hanging the run.
        let (tx, rx) = std::sync::mpsc::channel();
        let batch = std::thread::spawn(move || {
            let dataset = VersionedDataset::new(points, Vec::new());
            let registry = registry();
            let _ = tx.send(run(&BatchExecutor::new(&registry), &dataset, &queries));
        });
        let report = rx.recv_timeout(Duration::from_secs(5)).expect("the batch answers within 5 s");
        batch.join().expect("the batch thread ends cleanly");
        for answer in &report.answers[..5] {
            assert!(
                matches!(answer, BatchAnswer::Failed(EngineError::RangeTooSmall { .. })),
                "{answer:?}"
            );
        }
        assert_eq!(report.stats.failed, 5);
        assert!(report.answers[5].is_ok());
        assert_eq!(report.certified[5], Some(true));
    }

    #[test]
    fn dynamic_solver_routes_through_the_maintained_tracker() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let registry = registry();
        let executor = BatchExecutor::new(&registry);
        let steps = vec![
            ScriptStep::Query(BatchQuery::weighted("dynamic-ball", RangeShape::ball(1.0))),
            ScriptStep::Mutate(Mutation::Insert {
                point: WeightedPoint::new(Point2::xy(9.1, 9.0), 10.0),
                color: None,
            }),
            ScriptStep::Query(BatchQuery::weighted("dynamic-ball", RangeShape::ball(1.0))),
        ];
        let report = executor.execute_script(&dataset, &steps, &mut TraceRecorder::disabled());
        assert!(report.all_ok());
        let values: Vec<f64> = report
            .outcomes
            .iter()
            .filter_map(ScriptOutcome::answer)
            .filter_map(BatchAnswer::weighted)
            .map(|r| r.placement.value)
            .collect();
        // The tracker follows the update: the heavy insert near (9, 9)
        // makes that cluster the best (10 + 1 = 11) under the (1/2 − ε)
        // guarantee; values are exact recounts of the returned center.
        assert_eq!(values.len(), 2);
        assert!(values[1] >= values[0], "{values:?}");
        assert!(values[1] >= 0.25 * 11.0, "{values:?}");
        for outcome in &report.outcomes {
            if outcome.answer().is_some() {
                assert_eq!(outcome.certified(), Some(true));
            }
        }
        // A tracker-only batch still reports the thread budget it ran under.
        assert!(report.stats.threads >= 1);
    }

    #[test]
    fn traced_batches_yield_one_bounded_trace_per_query() {
        let dataset = VersionedDataset::new(planar_points(), planar_sites());
        let queries = [
            BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
            BatchQuery::colored("output-sensitive-colored-disk", RangeShape::ball(1.0)),
            BatchQuery::weighted("auto", RangeShape::ball(0.7)),
            BatchQuery::weighted("no-such-solver", RangeShape::ball(1.0)),
        ];
        let registry = registry();
        let executor = BatchExecutor::new(&registry);
        let mut recorder = TraceRecorder::new();
        let report = executor.execute_versioned_traced(&dataset, &queries, &mut recorder);

        assert_eq!(recorder.traces().len(), queries.len(), "one trace per query");
        for (i, trace) in recorder.traces().iter().enumerate() {
            assert_eq!(trace.query, i);
            assert_eq!(trace.solver, queries[i].solver());
            assert!(
                trace.phase_total() <= report.stats.wall,
                "query {i}: phases {:?} exceed wall {:?}",
                trace.phase_total(),
                report.stats.wall
            );
        }
        assert!(recorder.traces()[0].ok && recorder.traces()[0].certified == Some(true));
        assert!(recorder.traces()[2].routed.is_some(), "auto query records its routing");
        assert!(!recorder.traces()[3].ok);
        assert_eq!(recorder.traces()[3].certified, None);

        // The untraced call is behaviorally identical.
        let untraced = run(&executor, &dataset, &queries);
        assert_eq!(untraced.stats.certified, report.stats.certified);
        assert_eq!(untraced.stats.failed, report.stats.failed);
    }

    #[test]
    fn traced_scripts_key_traces_by_step_position() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let registry = registry();
        let executor = BatchExecutor::new(&registry);
        let steps = vec![
            ScriptStep::Query(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0))),
            ScriptStep::Query(BatchQuery::weighted("dynamic-ball", RangeShape::ball(1.0))),
            ScriptStep::Mutate(Mutation::Insert {
                point: WeightedPoint::new(Point2::xy(0.25, 0.25), 5.0),
                color: None,
            }),
            ScriptStep::Query(BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0))),
        ];
        let mut recorder = TraceRecorder::new();
        let report = executor.execute_script(&dataset, &steps, &mut recorder);
        assert!(report.all_ok());

        // Every query step has a trace keyed by its step position, stamped
        // with the version its answer was computed at, and its phase sum is
        // bounded by the script's accumulated wall time.
        let mut positions: Vec<usize> = recorder.traces().iter().map(|t| t.query).collect();
        positions.sort_unstable();
        assert_eq!(positions, vec![0, 1, 3]);
        for trace in recorder.traces() {
            let outcome = &report.outcomes[trace.query];
            assert_eq!(Some(trace.version), Some(outcome.version()));
            assert_eq!(trace.certified, outcome.certified());
            assert!(trace.phase_total() <= report.stats.wall);
        }
    }

    #[test]
    fn resident_index_amortizes_builds_across_calls() {
        // The serving path: one dataset, many requests.  The first call
        // builds the radius-1 grids; every later call over the same shapes
        // reports zero new builds and identical answers.
        let dataset = VersionedDataset::new(planar_points(), planar_sites());
        let queries = [
            BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
            BatchQuery::colored("output-sensitive-colored-disk", RangeShape::ball(1.0)),
        ];
        let registry = registry();
        let executor = BatchExecutor::new(&registry);
        let first = run(&executor, &dataset, &queries);
        assert!(first.all_ok());
        assert!(first.stats.index_builds > 0, "first call must build the shared structures");
        let builds_after_first = dataset.builds();

        for _ in 0..5 {
            let again = run(&executor, &dataset, &queries);
            assert!(again.all_ok());
            assert_eq!(again.stats.index_builds, 0, "warm index must not rebuild");
            assert_eq!(
                again.weighted(0).unwrap().placement.value,
                first.weighted(0).unwrap().placement.value
            );
            assert_eq!(
                again.colored(1).unwrap().placement.distinct,
                first.colored(1).unwrap().placement.distinct
            );
        }
        assert_eq!(dataset.builds(), builds_after_first, "structures were built exactly once");
    }

    #[test]
    fn post_write_index_derivation_is_counted_and_timed() {
        // Deriving a changed version's index (live sets plus the merged
        // sorted line) runs before any solver call; it must still show up
        // as index builds and as each query's index-build phase.
        let points: Vec<WeightedPoint<1>> = (0..50_000)
            .map(|i| WeightedPoint::new(Point::new([(i % 977) as f64 * 0.5]), 1.0))
            .collect();
        let dataset = VersionedDataset::new(points, Vec::new());
        let query = BatchQuery::weighted("exact-interval-1d", RangeShape::interval(3.0));
        let registry = registry();
        let executor = BatchExecutor::new(&registry);
        dataset.apply(&[Mutation::Insert {
            point: WeightedPoint::new(Point::new([7.25]), 2.0),
            color: None,
        }]);
        let mut recorder = TraceRecorder::new();
        let report = executor.execute_versioned_traced(
            &dataset,
            std::slice::from_ref(&query),
            &mut recorder,
        );
        assert!(report.all_ok());
        assert_eq!(report.certified, vec![Some(true)]);
        assert!(report.stats.index_builds >= 1, "{:?}", report.stats);
        assert!(report.stats.index_build_time > Duration::ZERO);
        let trace = &recorder.traces()[0];
        assert!(trace.phase(Phase::IndexBuild) > Duration::ZERO, "{trace:?}");
        assert!(trace.phase_total() <= report.stats.wall);
        // The next read of the same version derives nothing.
        let again = run(&executor, &dataset, std::slice::from_ref(&query));
        assert_eq!(again.stats.index_builds, 0);
    }

    #[test]
    fn expired_deadlines_yield_typed_timeouts_with_partial_work() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let queries = [
            BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0)),
            BatchQuery::weighted("exact-rect-2d", RangeShape::rect(1.0, 1.0)),
            // Tracker reads run under the same deadline guard as solves.
            BatchQuery::weighted("dynamic-ball", RangeShape::ball(1.0)),
        ];
        let registry = registry();
        let executor = BatchExecutor::with_config(
            &registry,
            ExecutorConfig {
                deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
                ..ExecutorConfig::default()
            },
        );
        let report = run(&executor, &dataset, &queries);
        assert_eq!(report.stats.failed, 3, "every answer under an expired deadline fails");
        assert_eq!(report.certified, vec![None; 3], "timeouts are never certified");
        for answer in &report.answers {
            match answer.error() {
                Some(EngineError::DeadlineExceeded { solver, partial }) => {
                    assert!(!solver.is_empty());
                    let message = answer.error().unwrap().to_string();
                    assert!(message.contains("exceeded its deadline"), "{message}");
                    let _ = partial; // counters may be zero: the sweep bailed at entry
                }
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
    }

    #[test]
    fn unexpired_deadlines_leave_answers_intact() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let queries = [BatchQuery::weighted("exact-disk-2d", RangeShape::ball(1.0))];
        let registry = registry();
        let executor = BatchExecutor::with_config(
            &registry,
            ExecutorConfig {
                deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
                ..ExecutorConfig::default()
            },
        );
        let report = run(&executor, &dataset, &queries);
        assert!(report.all_ok(), "a generous deadline changes nothing");
        assert_eq!(report.weighted(0).unwrap().placement.value, 3.0);
    }

    #[test]
    fn degraded_executor_routes_auto_away_from_exact_solvers() {
        let dataset = VersionedDataset::new(planar_points(), Vec::new());
        let queries = [BatchQuery::weighted("auto", RangeShape::ball(1.0))];
        let registry = registry();
        let normal = run(&BatchExecutor::new(&registry), &dataset, &queries);
        assert!(normal.weighted(0).unwrap().stats.auto_choice.is_some());
        assert!(!normal.weighted(0).unwrap().stats.degraded);

        let config = ExecutorConfig { degraded: true, ..ExecutorConfig::default() };
        let degraded = run(&BatchExecutor::with_config(&registry, config), &dataset, &queries);
        let report = degraded.weighted(0).unwrap();
        let choice = report.stats.auto_choice.unwrap();
        let routed = registry.weighted::<2>(choice).expect("the routed solver is registered");
        assert!(
            !routed.descriptor().guarantee.is_exact(),
            "degraded auto avoids the exact tier, got {choice}"
        );
        assert!(report.stats.degraded, "degradation is stamped into the stats");
    }

    #[test]
    fn degraded_colored_auto_drops_the_exact_tier_only_while_an_approximation_is_capable() {
        let dataset = VersionedDataset::new(planar_points(), planar_sites());
        let queries = [
            BatchQuery::colored("auto", RangeShape::ball(1.0)),
            BatchQuery::colored("auto", RangeShape::rect(1.0, 1.0)),
        ];
        let registry = registry();
        let config = ExecutorConfig { degraded: true, ..ExecutorConfig::default() };
        let report = run(&BatchExecutor::with_config(&registry, config), &dataset, &queries);
        assert_eq!(report.certified, vec![Some(true), Some(true)]);
        // Balls have approximate colored solvers, so the exact tier goes.
        let ball = report.colored(0).unwrap();
        let choice = ball.stats.auto_choice.unwrap();
        let routed = registry.colored::<2>(choice).expect("the routed solver is registered");
        assert!(
            !routed.descriptor().guarantee.is_exact(),
            "degraded auto avoids the exact tier, got {choice}"
        );
        assert!(ball.stats.degraded);
        // Only the exact sweep answers boxes, so degradation keeps it.
        let rect = report.colored(1).unwrap();
        assert_eq!(rect.stats.auto_choice, Some("exact-colored-rect-2d"));
        assert!(rect.stats.degraded);
    }
}
