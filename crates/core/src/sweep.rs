//! The parallel sweep executor: fans the (cell × seed) jobs of an
//! experiment grid out over a thread pool and collects the histories back
//! in **deterministic grid order**, bit-identical to the serial loop.
//!
//! The paper's evidence is a large cross-product of
//! (GAR × attack × mechanism × batch × seed) cells, every one an
//! independent [`Experiment`] run — embarrassingly parallel work. The
//! executor exploits that: a shared `crossbeam` job queue feeds
//! `std::thread` workers that pull the next job as soon as they finish
//! the last (a work-sharing pool: fast cells never wait on slow ones),
//! while results are placed by (cell, seed) index so the output never
//! depends on completion order.
//!
//! Each job runs on the zero-copy round engine: the trainer a job builds
//! keeps its round buffers (worker outputs, submission set, GAR scratch)
//! alive for the whole run, so a `(cell, seed)` job allocates its working
//! set once and then streams rounds allocation-free. The executor
//! multiplies throughput by cores; the buffer-reusing hot path multiplies
//! it per core.
//!
//! ```
//! use dpbyz_core::sweep::SweepBuilder;
//! use dpbyz_core::Experiment;
//!
//! let results = SweepBuilder::over(
//!     Experiment::builder()
//!         .steps(5)
//!         .dataset_size(200)
//!         .gar("mda")
//!         .attack("alie"),
//! )
//! .epsilons(&[0.2, 0.4])
//! .batch_sizes(&[10, 20])
//! .seeds(&[1, 2])
//! .run()
//! .unwrap();
//! // Grid order: epsilon-major, batch-minor — independent of which
//! // worker finished first.
//! let labels: Vec<&str> = results.cells.iter().map(|c| c.label.as_str()).collect();
//! assert_eq!(labels, ["eps0.2/b10", "eps0.2/b20", "eps0.4/b10", "eps0.4/b20"]);
//! assert_eq!(results.cells[0].histories.len(), 2);
//! ```

use crate::builder::ExperimentBuilder;
use crate::pack::PackCell;
use crate::pipeline::{check_seeds, Experiment, PipelineError};
use crate::registry::ComponentSpec;
use crossbeam::channel;
use dpbyz_server::{RunHistory, RunObserver, RunScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

/// Identity of one (cell, seed) job inside a sweep.
#[derive(Debug, Clone, Copy)]
pub struct JobInfo<'a> {
    /// Index of the cell in grid order.
    pub cell: usize,
    /// The cell's label.
    pub label: &'a str,
    /// The seed this job runs.
    pub seed: u64,
}

/// A progress event, delivered on the calling thread each time a job
/// completes. Events arrive in completion order — `completed` is
/// monotonic, the jobs are not — so treat them as telemetry, not as the
/// result stream (results come back grid-ordered from
/// [`SweepBuilder::run`]). Once a job has errored, grid-later jobs that
/// were never started are skipped and emit **no** event, so an erroring
/// sweep can finish with fewer than `total` events.
#[derive(Debug, Clone, Copy)]
pub struct SweepEvent<'a> {
    /// Jobs completed so far, including this one.
    pub completed: usize,
    /// Total jobs in the sweep (`cells × seeds`).
    pub total: usize,
    /// The job that completed.
    pub job: JobInfo<'a>,
}

/// Factory producing one streaming [`RunObserver`] per job. Invoked on
/// the worker thread that executes the job, so it must be `Send + Sync`;
/// observation is passive (see [`RunObserver`]), so attaching observers
/// never perturbs the histories.
pub type ObserverFactory = Arc<dyn Fn(&JobInfo<'_>) -> Box<dyn RunObserver> + Send + Sync>;

type ProgressFn = Box<dyn FnMut(&SweepEvent<'_>)>;

/// Indices of [`SweepBuilder`]'s grid axes, outer to inner.
const GARS: usize = 0;
const ATTACKS: usize = 1;
const MECHANISMS: usize = 2;
const EPSILONS: usize = 3;
const BATCHES: usize = 4;

/// A grid-axis cell pinning a component with `pin`, labelled by its id.
fn by_id(spec: ComponentSpec, pin: fn(PackCell, ComponentSpec) -> PackCell) -> PackCell {
    pin(PackCell::new(spec.id.clone()), spec)
}

/// One labelled cell of a sweep: a fully assembled experiment plus the
/// label it reports under.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Human-readable label (for grid cells: the swept axis values joined
    /// by `/`, e.g. `"mda/alie/eps0.2/b50"`).
    pub label: String,
    /// The experiment this cell runs.
    pub experiment: Experiment,
}

/// One cell's outcome: its label, the experiment that ran, and one
/// history per seed (in seed order).
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's label.
    pub label: String,
    /// The experiment that ran.
    pub experiment: Experiment,
    /// Histories in the same order as the sweep's seed list; each is
    /// bit-identical to what `experiment.run(seed)` returns serially.
    pub histories: Vec<RunHistory>,
}

/// Every cell of a completed sweep, in deterministic grid order.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// The seeds every cell ran with.
    pub seeds: Vec<u64>,
    /// Cells in grid order (axes expanded outer-to-inner in the order
    /// documented on [`SweepBuilder`], explicit cells appended last).
    pub cells: Vec<CellRun>,
}

impl SweepResults {
    /// The first cell carrying `label`, if any.
    pub fn get(&self, label: &str) -> Option<&CellRun> {
        self.cells.iter().find(|c| c.label == label)
    }
}

/// Builder for a parallel experiment sweep.
///
/// A sweep is a grid of cells crossed with a seed list. Cells come from
/// three sources, freely combined:
///
/// * **axes** over a base [`ExperimentBuilder`] — GARs, attacks,
///   mechanisms, privacy budgets, batch sizes. The grid is their cross
///   product, expanded outer-to-inner in the fixed order *gars → attacks
///   → mechanisms → epsilons → batch sizes* (elements in the order they
///   were added to each axis);
/// * **scenario packs** ([`SweepBuilder::with_pack`]) — registered,
///   labelled cell bundles expanded over the base, after the grid cells;
/// * **explicit cells** ([`SweepBuilder::cell`]) for anything the axes
///   cannot express (per-cell worker counts, mutated configs, different
///   workloads). Explicit cells run last.
///
/// If no axis is set, no pack is named, and no explicit cell is added,
/// the base builder itself is the single cell. Seeds default to the
/// paper's [`Experiment::PAPER_SEEDS`].
///
/// Determinism: results are keyed by (cell, seed) index, so
/// [`SweepBuilder::run`] returns the exact histories — bit for bit — that
/// the equivalent serial `run_seeds` loop produces, at any pool size.
pub struct SweepBuilder {
    base: ExperimentBuilder,
    /// The grid axes, outer to inner ([`GARS`] … [`BATCHES`]): each
    /// element is a labelled [`PackCell`] pinning that axis's value.
    axes: [Vec<PackCell>; 5],
    packs: Vec<String>,
    explicit: Vec<SweepCell>,
    seeds: Option<Vec<u64>>,
    pool_size: Option<usize>,
    observer_factory: Option<ObserverFactory>,
    progress: Option<ProgressFn>,
}

impl Default for SweepBuilder {
    fn default() -> Self {
        Self::over(Experiment::builder())
    }
}

impl SweepBuilder {
    /// Starts a sweep over the default paper-protocol base experiment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a sweep over an explicit base: every grid cell is `base`
    /// with the cell's axis values applied on top.
    pub fn over(base: ExperimentBuilder) -> Self {
        SweepBuilder {
            base,
            axes: Default::default(),
            packs: Vec::new(),
            explicit: Vec::new(),
            seeds: None,
            pool_size: None,
            observer_factory: None,
            progress: None,
        }
    }

    /// Adds aggregation rules to the GAR axis (registry ids or full
    /// specs), each labelled by its id.
    #[must_use]
    pub fn gars<I>(mut self, gars: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<ComponentSpec>,
    {
        self.axes[GARS].extend(gars.into_iter().map(|g| by_id(g.into(), PackCell::gar)));
        self
    }

    /// Adds armed attacks to the attack axis, each labelled by its id.
    #[must_use]
    pub fn attacks<I>(mut self, attacks: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<ComponentSpec>,
    {
        let cells = attacks
            .into_iter()
            .map(|a| by_id(a.into(), PackCell::attack));
        self.axes[ATTACKS].extend(cells);
        self
    }

    /// Adds noise mechanisms to the mechanism axis, each labelled by its
    /// id.
    #[must_use]
    pub fn mechanisms<I>(mut self, mechanisms: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<ComponentSpec>,
    {
        let cells = mechanisms
            .into_iter()
            .map(|m| by_id(m.into(), PackCell::mechanism));
        self.axes[MECHANISMS].extend(cells);
        self
    }

    /// Adds privacy budgets (per-step ε, with the base builder's δ) to
    /// the DP axis, labelled `eps{ε}`. A swept ε replaces any budget the
    /// base carries, a full [`budget`](ExperimentBuilder::budget) too.
    /// Combine with [`SweepBuilder::with_no_dp`] for a noise-free control
    /// cell.
    #[must_use]
    pub fn epsilons(mut self, epsilons: &[f64]) -> Self {
        let cells = epsilons
            .iter()
            .map(|&e| PackCell::new(format!("eps{e}")).epsilon(e));
        self.axes[EPSILONS].extend(cells);
        self
    }

    /// Adds a no-DP element to the DP axis (labelled `nodp`), at the
    /// position of this call relative to [`SweepBuilder::epsilons`]. The
    /// cell clears any budget the base carries, so it runs noise-free.
    #[must_use]
    pub fn with_no_dp(mut self) -> Self {
        self.axes[EPSILONS].push(PackCell::new("nodp").no_dp());
        self
    }

    /// Adds batch sizes to the batch axis, labelled `b{size}`.
    #[must_use]
    pub fn batch_sizes(mut self, batch_sizes: &[usize]) -> Self {
        let cells = batch_sizes
            .iter()
            .map(|&b| PackCell::new(format!("b{b}")).batch_size(b));
        self.axes[BATCHES].extend(cells);
        self
    }

    /// Expands a registered [`ScenarioPack`](crate::pack::ScenarioPack)
    /// over the base: every cell of the pack is the base builder with the
    /// cell's pinned components/axis values applied, labelled
    /// `"{pack}/{cell}"`. Pack cells run after the grid cells (in
    /// `with_pack` call order) and before explicit cells. The id resolves
    /// when the sweep expands — [`SweepBuilder::cells`] or
    /// [`SweepBuilder::run`] — so an unknown pack fails there, listing
    /// every registered pack.
    #[must_use]
    pub fn with_pack(mut self, id: impl Into<String>) -> Self {
        self.packs.push(id.into());
        self
    }

    /// Appends an explicit, fully assembled cell (run after every grid
    /// and pack cell, in insertion order).
    #[must_use]
    pub fn cell(mut self, label: impl Into<String>, experiment: Experiment) -> Self {
        self.explicit.push(SweepCell {
            label: label.into(),
            experiment,
        });
        self
    }

    /// Sets the seeds every cell runs with (unset:
    /// [`Experiment::PAPER_SEEDS`]; explicitly empty: rejected at run).
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = Some(seeds.to_vec());
        self
    }

    /// Sets the worker-thread count (default: the machine's available
    /// parallelism, clamped to the job count; 1 degenerates to a serial
    /// loop on a worker thread).
    #[must_use]
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = Some(pool_size);
        self
    }

    /// Installs a per-job [`RunObserver`] factory: each (cell, seed) run
    /// streams its per-step metrics into a fresh observer from `factory`.
    /// Built on the engines' observer plumbing, so attaching one never
    /// changes the histories.
    #[must_use]
    pub fn observe_with<F>(mut self, factory: F) -> Self
    where
        F: Fn(&JobInfo<'_>) -> Box<dyn RunObserver> + Send + Sync + 'static,
    {
        self.observer_factory = Some(Arc::new(factory));
        self
    }

    /// Installs a progress callback, invoked on the calling thread once
    /// per completed job (see [`SweepEvent`]).
    #[must_use]
    pub fn progress<F>(mut self, callback: F) -> Self
    where
        F: FnMut(&SweepEvent<'_>) + 'static,
    {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Expands the axes and packs over the base, then the explicit cells,
    /// without running it. Cell experiments are validated here, so a bad
    /// id or an intolerable Byzantine count fails before any thread spawns.
    ///
    /// # Errors
    ///
    /// Any [`PipelineError`] the base builder surfaces for a grid cell.
    pub fn cells(&self) -> Result<Vec<SweepCell>, PipelineError> {
        // Every cell — grid point or pack cell — is the base with a list of
        // pack cells applied in order.
        let expand = |pinned: &[&PackCell]| {
            pinned
                .iter()
                .fold(self.base.clone(), |builder, cell| cell.apply(builder))
                .build()
        };
        let mut cells = Vec::new();
        let has_axes = self.axes.iter().any(|axis| !axis.is_empty());
        if has_axes || (self.explicit.is_empty() && self.packs.is_empty()) {
            // The cross product of the set axes, outer to inner; an unset
            // axis contributes nothing (the base's value stands).
            let mut points: Vec<Vec<&PackCell>> = vec![Vec::new()];
            for axis in self.axes.iter().filter(|axis| !axis.is_empty()) {
                points = points
                    .iter()
                    .flat_map(|point| axis.iter().map(move |cell| [&point[..], &[cell]].concat()))
                    .collect();
            }
            for point in points {
                let labels: Vec<&str> = point.iter().map(|c| c.label.as_str()).collect();
                let label = if labels.is_empty() {
                    "base".into()
                } else {
                    labels.join("/")
                };
                let experiment = expand(&point)?;
                cells.push(SweepCell { label, experiment });
            }
        }
        for pack_id in &self.packs {
            let pack = crate::pack::scenario_pack(pack_id)?;
            for cell in &pack.cells {
                // Labelled with the id the caller swept, not the pack's
                // self-declared one: `results.get("{id}/…")` must find
                // the cells even if a factory's pack carries a different
                // internal id.
                let label = format!("{pack_id}/{}", cell.label);
                let experiment = expand(&[cell]).map_err(|e| {
                    // Name the failing cell: in a ~100-cell pack a bare
                    // build error is unactionable.
                    PipelineError::Spec(format!("pack cell `{label}` failed to build: {e}"))
                })?;
                cells.push(SweepCell { label, experiment });
            }
        }
        cells.extend(self.explicit.iter().cloned());
        Ok(cells)
    }

    /// Expands the grid and runs every (cell, seed) job on the pool.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] on an empty seed list; any cell-build
    /// error before execution; otherwise the error of the **grid-first**
    /// failing job (deterministic regardless of completion order — once
    /// an error is recorded, not-yet-started grid-later jobs are skipped
    /// rather than run, since only grid-earlier jobs could displace it).
    pub fn run(mut self) -> Result<SweepResults, PipelineError> {
        let cells = self.cells()?;
        let seeds = self
            .seeds
            .take()
            .unwrap_or_else(|| Experiment::PAPER_SEEDS.to_vec());
        let histories = execute(
            &cells,
            &seeds,
            self.pool_size,
            self.observer_factory.as_ref(),
            self.progress.as_mut(),
        )?;
        Ok(SweepResults {
            seeds,
            cells: cells
                .into_iter()
                .zip(histories)
                .map(|(cell, histories)| CellRun {
                    label: cell.label,
                    experiment: cell.experiment,
                    histories,
                })
                .collect(),
        })
    }
}

/// The single-cell fast path behind [`Experiment::run_seeds_parallel`].
pub(crate) fn run_one_parallel(
    experiment: &Experiment,
    seeds: &[u64],
    pool_size: Option<usize>,
) -> Result<Vec<RunHistory>, PipelineError> {
    let cells = [SweepCell {
        label: "cell".into(),
        experiment: experiment.clone(),
    }];
    let mut grid = execute(&cells, seeds, pool_size, None, None)?;
    Ok(grid.pop().expect("one cell in, one row out")) // lint:allow(panic-unwrap, reason = "one cell in, one row out: the grid passed above is a singleton")
}

fn default_pool_size() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

struct Job {
    cell: usize,
    slot: usize,
    seed: u64,
}

enum JobOutcome {
    /// Boxed: a sealed history (with its churn ledger) dwarfs the other
    /// variants, and every outcome rides a channel.
    Done(Box<RunHistory>),
    Failed(PipelineError),
    /// The job was grid-later than an already-recorded error and was
    /// never run (its history would be discarded anyway).
    Skipped,
}

type JobDone = (usize, usize, u64, JobOutcome);

/// Runs `cells × seeds` jobs on `pool_size` workers; returns one history
/// row per cell, in cell order, each row in seed order.
fn execute(
    cells: &[SweepCell],
    seeds: &[u64],
    pool_size: Option<usize>,
    observer_factory: Option<&ObserverFactory>,
    mut progress: Option<&mut ProgressFn>,
) -> Result<Vec<Vec<RunHistory>>, PipelineError> {
    check_seeds(seeds)?;
    if cells.is_empty() {
        return Err(PipelineError::Spec(
            "sweep has no cells: set an axis or add explicit cells".into(),
        ));
    }
    let total = cells.len() * seeds.len();
    let pool_size = pool_size.unwrap_or_else(default_pool_size).clamp(1, total);

    // The shared job queue: workers pull the next (cell, seed) as soon as
    // they free up, so a slow cell never serializes the rest of the grid.
    let (job_tx, job_rx) = channel::unbounded::<Job>();
    for cell in 0..cells.len() {
        for (slot, &seed) in seeds.iter().enumerate() {
            job_tx
                .send(Job { cell, slot, seed })
                .expect("job queue receiver alive"); // lint:allow(panic-unwrap, reason = "a send fails only when the worker pool hung up, which requires a worker panic; propagating is correct")
        }
    }
    drop(job_tx); // Workers drain the queue, then see the disconnect.

    let (done_tx, done_rx) = channel::unbounded::<JobDone>();
    let mut grid: Vec<Vec<Option<RunHistory>>> =
        (0..cells.len()).map(|_| vec![None; seeds.len()]).collect();
    // First error in (cell, slot) order — deterministic even though jobs
    // complete in scheduler order.
    let mut first_error: Option<(usize, usize, PipelineError)> = None;
    // Flat job order of the grid-first error so far (u64::MAX = none):
    // once set, workers skip grid-*later* jobs instead of running them —
    // their results would be discarded anyway, and only grid-earlier
    // jobs can displace the recorded error, so determinism is preserved.
    let error_watermark = AtomicU64::new(u64::MAX);
    let flat = |cell: usize, slot: usize| (cell * seeds.len() + slot) as u64;

    thread::scope(|scope| {
        for _ in 0..pool_size {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let error_watermark = &error_watermark;
            scope.spawn(move || {
                // One engine scratch per pool worker, reused across every
                // (cell × seed) job this worker pulls: consecutive jobs
                // recycle the round buffers, output slots, and (on leased
                // shapes) worker threads instead of rebuilding them per job. Reuse
                // is bit-invisible, so results stay identical to fresh
                // per-job construction at any pool size.
                let mut scratch = RunScratch::new();
                while let Ok(job) = job_rx.recv() {
                    let outcome =
                        if flat(job.cell, job.slot) > error_watermark.load(Ordering::Relaxed) {
                            JobOutcome::Skipped
                        } else {
                            let cell = &cells[job.cell];
                            let observer = observer_factory.map(|factory| {
                                let info = JobInfo {
                                    cell: job.cell,
                                    label: &cell.label,
                                    seed: job.seed,
                                };
                                factory(&info)
                            });
                            match cell.experiment.run_inner(job.seed, observer, &mut scratch) {
                                Ok(history) => JobOutcome::Done(Box::new(history)),
                                Err(error) => JobOutcome::Failed(error),
                            }
                        };
                    if done_tx
                        .send((job.cell, job.slot, job.seed, outcome))
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(done_tx);
        drop(job_rx);

        let mut completed = 0;
        for _ in 0..total {
            let (cell, slot, seed, outcome) =
                done_rx.recv().expect("a sweep worker thread panicked"); // lint:allow(panic-unwrap, reason = "a recv fails only when every worker vanished, which requires a worker panic; propagating is correct")
            match outcome {
                JobOutcome::Done(history) => grid[cell][slot] = Some(*history),
                JobOutcome::Failed(error) => {
                    if first_error
                        .as_ref()
                        .is_none_or(|(c, s, _)| (cell, slot) < (*c, *s))
                    {
                        first_error = Some((cell, slot, error));
                        error_watermark.fetch_min(flat(cell, slot), Ordering::Relaxed);
                    }
                }
                // Never executed (grid-later than a recorded error): not a
                // completion, so no progress event for it.
                JobOutcome::Skipped => continue,
            }
            completed += 1;
            if let Some(callback) = progress.as_deref_mut() {
                callback(&SweepEvent {
                    completed,
                    total,
                    job: JobInfo {
                        cell,
                        label: &cells[cell].label,
                        seed,
                    },
                });
            }
        }
    });

    if let Some((_, _, error)) = first_error {
        return Err(error);
    }
    Ok(grid
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|h| h.expect("every job completed")) // lint:allow(panic-unwrap, reason = "a vacant slot means a job never completed, which requires a worker panic; propagating is correct")
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn quick_base() -> ExperimentBuilder {
        Experiment::builder().steps(4).dataset_size(200)
    }

    #[test]
    fn grid_order_is_axis_major_and_labels_compose() {
        let cells = SweepBuilder::over(quick_base().gar("mda").attack("alie"))
            .with_no_dp()
            .epsilons(&[0.2])
            .batch_sizes(&[10, 20])
            .cells()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["nodp/b10", "nodp/b20", "eps0.2/b10", "eps0.2/b20"]);
        assert_eq!(cells[3].experiment.config.batch_size, 20);
        assert!(cells[3].experiment.budget.is_some());
        assert!(cells[0].experiment.budget.is_none());
    }

    #[test]
    fn axis_free_builder_is_a_single_base_cell() {
        let cells = SweepBuilder::over(quick_base()).cells().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "base");
    }

    #[test]
    fn explicit_cells_replace_the_grid_when_no_axis_set() {
        let exp = quick_base().build().unwrap();
        let cells = SweepBuilder::new().cell("only", exp).cells().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "only");
    }

    #[test]
    fn gar_and_attack_axes_expand() {
        let cells = SweepBuilder::over(quick_base())
            .gars(["mda", "median"])
            .attacks(["alie", "foe"])
            .cells()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, ["mda/alie", "mda/foe", "median/alie", "median/foe"]);
    }

    #[test]
    fn invalid_grid_cell_fails_before_running() {
        // Averaging cannot host an armed attack: the cell build rejects
        // the sweep before any thread spawns.
        let err = SweepBuilder::over(quick_base())
            .gars(["average"])
            .attacks(["alie"])
            .seeds(&[1])
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Spec(_)));
    }

    #[test]
    fn parallel_results_match_serial_in_grid_order() {
        let base = quick_base().gar("mda").attack("alie");
        let seeds = [1u64, 2];
        let results = SweepBuilder::over(base.clone())
            .with_no_dp()
            .epsilons(&[0.2])
            .batch_sizes(&[10, 20])
            .seeds(&seeds)
            .pool_size(4)
            .run()
            .unwrap();
        let serial_cells = SweepBuilder::over(base)
            .with_no_dp()
            .epsilons(&[0.2])
            .batch_sizes(&[10, 20])
            .cells()
            .unwrap();
        for (run, cell) in results.cells.iter().zip(&serial_cells) {
            assert_eq!(run.label, cell.label);
            let serial = cell.experiment.run_seeds(&seeds).unwrap();
            assert_eq!(run.histories, serial, "cell {}", run.label);
        }
        assert_eq!(results.cells.len() * results.seeds.len(), 8);
        assert!(results.get("eps0.2/b20").is_some());
        assert!(results.get("nonexistent").is_none());
    }

    #[test]
    fn with_pack_expands_over_the_base_with_prefixed_labels() {
        let cells = SweepBuilder::over(quick_base())
            .with_pack("paper-core")
            .cells()
            .unwrap();
        let labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "paper-core/clean/nodp",
                "paper-core/clean/dp",
                "paper-core/mda/alie/nodp",
                "paper-core/mda/alie/dp",
                "paper-core/mda/foe/nodp",
                "paper-core/mda/foe/dp",
            ]
        );
        // Pack cells inherit the base's quick scale…
        assert_eq!(cells[0].experiment.config.steps, 4);
        // …and pin their own components/axis values on top.
        assert!(cells[0].experiment.budget.is_none());
        assert_eq!(cells[1].experiment.budget.unwrap().epsilon(), 0.2);
        assert_eq!(cells[2].experiment.gar.id, "mda");
        assert_eq!(cells[2].experiment.config.n_byzantine, 5);
    }

    #[test]
    fn packs_combine_with_grid_and_explicit_cells_in_order() {
        let explicit = quick_base().build().unwrap();
        let cells = SweepBuilder::over(quick_base())
            .batch_sizes(&[10])
            .with_pack("clipping-study")
            .cell("tail", explicit)
            .cells()
            .unwrap();
        assert_eq!(cells[0].label, "b10"); // grid first
        assert!(cells[1].label.starts_with("clipping-study/")); // packs next
        assert_eq!(cells.last().unwrap().label, "tail"); // explicit last
        assert_eq!(cells.len(), 1 + 9 + 1);
    }

    #[test]
    fn pack_labels_use_the_swept_id_even_if_the_factory_disagrees() {
        // A factory may (wrongly) produce a pack whose self-declared id
        // differs from its registered one; result labels must still be
        // findable under the id the caller swept.
        crate::pack::register_scenario_pack_with("sweep-alias-v2", |_| {
            Ok(std::sync::Arc::new(
                crate::pack::ScenarioPack::new("sweep-alias", "internal id differs")
                    .cell(crate::pack::PackCell::new("only").gar("median")),
            ))
        })
        .unwrap();
        let cells = SweepBuilder::over(quick_base())
            .with_pack("sweep-alias-v2")
            .cells()
            .unwrap();
        assert_eq!(cells[0].label, "sweep-alias-v2/only");
    }

    #[test]
    fn unknown_pack_id_fails_at_expansion_listing_available() {
        let err = SweepBuilder::over(quick_base())
            .with_pack("no-such-pack")
            .cells()
            .unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("no-such-pack") && message.contains("paper-core"),
            "{message}"
        );
    }

    #[test]
    fn pack_runs_end_to_end_bit_identically_across_pool_sizes() {
        let base = quick_base();
        let run = |pool: usize| {
            SweepBuilder::over(base.clone())
                .with_pack("paper-core")
                .seeds(&[1, 2])
                .pool_size(pool)
                .run()
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.histories, b.histories, "cell {}", a.label);
        }
    }

    #[test]
    fn empty_seed_list_is_rejected() {
        let err = SweepBuilder::over(quick_base())
            .seeds(&[])
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Spec(_)));
    }

    #[test]
    fn progress_fires_once_per_job_and_observers_stream() {
        let events: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = events.clone();
        let observed_steps = Arc::new(Mutex::new(0usize));
        let counter = observed_steps.clone();
        let results = SweepBuilder::over(quick_base())
            .batch_sizes(&[10, 20])
            .seeds(&[1, 2, 3])
            .pool_size(2)
            .progress(move |e| sink.lock().unwrap().push((e.completed, e.total)))
            .observe_with(move |_job| {
                let counter = counter.clone();
                Box::new(dpbyz_server::FnObserver::new(move |_m| {
                    *counter.lock().unwrap() += 1;
                }))
            })
            .run()
            .unwrap();
        let events = events.lock().unwrap();
        assert_eq!(events.len(), 6);
        assert_eq!(events.first(), Some(&(1, 6)));
        assert_eq!(events.last(), Some(&(6, 6)));
        // 2 cells × 3 seeds × 4 steps streamed through the observers.
        assert_eq!(*observed_steps.lock().unwrap(), 24);
        // Observation is passive: histories still match the serial runs.
        let serial = results.cells[0]
            .experiment
            .run_seeds(&results.seeds)
            .unwrap();
        assert_eq!(results.cells[0].histories, serial);
    }

    #[test]
    fn runtime_error_is_grid_first_deterministic() {
        // A cell that fails at *run* time (not build time): hand-assemble
        // an experiment whose GAR rejects its Byzantine count on step 1.
        let good = quick_base().build().unwrap();
        let mut bad = quick_base().build().unwrap();
        bad.config.n_byzantine = 2;
        bad.attack = Some("alie".into());
        let err = SweepBuilder::new()
            .cell("good", good)
            .cell("bad", bad)
            .seeds(&[1, 2])
            .pool_size(4)
            .run()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Gar(_)), "{err}");
    }

    #[test]
    fn no_dp_cell_clears_a_base_epsilon() {
        let cells = SweepBuilder::over(quick_base().epsilon(0.2))
            .with_no_dp()
            .cells()
            .unwrap();
        assert_eq!(cells[0].label, "nodp");
        assert!(cells[0].experiment.budget.is_none());
    }

    #[test]
    fn clean_cell_disarms_a_base_attack() {
        let cells = SweepBuilder::over(quick_base().attack("alie"))
            .with_pack("paper-core")
            .cells()
            .unwrap();
        assert_eq!(cells[0].label, "paper-core/clean/nodp");
        assert!(cells[0].experiment.attack.is_none());
        assert_eq!(cells[0].experiment.config.n_byzantine, 0);
    }

    #[test]
    fn swept_epsilon_replaces_a_base_budget() {
        let base = quick_base().budget(dpbyz_dp::PrivacyBudget::new(0.2, 1e-6).unwrap());
        let cells = SweepBuilder::over(base).epsilons(&[0.4]).cells().unwrap();
        assert_eq!(cells[0].label, "eps0.4");
        assert_eq!(cells[0].experiment.budget.unwrap().epsilon(), 0.4);
    }
}
