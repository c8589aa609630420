//! The two sweep workloads: `sweep16_corpus` (the Figure 3 lineup over a compressed
//! 16-core corpus, flat memory system) and `manycore64_frfcfs` (TA-DRRIP and
//! ADAPT_bp32 over live synthetic 64-core mixes on FR-FCFS + NUCA).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cache_sim::config::SystemConfig;
use experiments::runner::{
    sweep_policies_on_corpus_with, sweep_policies_on_sources_with, synthetic_capture_budget,
    warm_alone_cache, MixEvaluation, MixSource, ReplayConfig, SweepOutcome,
};
use experiments::{ExperimentScale, MemSystem, PolicyKind};
use sweep_serve::memo::{MemoKey, MemoStore};
use trace_io::Corpus;
use workloads::{generate_mixes, StudyKind, WorkloadMix};

use crate::cells::{self, DirectCell};
use crate::common::{peak_rss_mb, secs, timer_overhead_ns, Report};
use crate::layers::{self, LayerTotals, SourceLayer, TracedPolicy, TracedSource};

/// Mixes and per-core instruction budget of `sweep16_corpus`.
const SWEEP16_MIXES: usize = 2;
const SWEEP16_INSTRUCTIONS: u64 = 300_000;
/// Mixes and per-core instruction budget of `manycore64_frfcfs`.
const MANY64_MIXES: usize = 2;
const MANY64_INSTRUCTIONS: u64 = 200_000;

/// Seed of the mix compositions. Which benchmarks share a mix sets most of a cell's
/// cost, so the compositions stay fixed and `--seed` seeds the access streams: runs
/// with different seeds then differ in their inputs, not in how much work they do.
pub const MIX_SEED: u64 = 0xADA9_7000;
/// Timed samples per round for the hot-answer figures of a sweep workload, and memo
/// lookups per sample (one lookup is far below the clock's resolution).
const HOT_SAMPLES: usize = 200;
const LOOKUPS_PER_SAMPLE: usize = 1000;

/// Everything one sweep workload evaluates, rebuilt identically in every process.
pub struct SweepSpec {
    corpus: bool,
    config: SystemConfig,
    policies: Vec<PolicyKind>,
    instructions: u64,
    seed: u64,
    sources: Vec<MixSource>,
    replay: ReplayConfig,
    corpus_dir: PathBuf,
}

fn corpus_dir(work: &Path) -> PathBuf {
    work.join("corpus16")
}

fn sweep16_config() -> SystemConfig {
    ExperimentScale::Scaled.system_config(StudyKind::Cores16)
}

/// Capture the compressed 16-core corpus `sweep16_corpus` replays (input generation,
/// done once per run before anything is timed).
pub fn make_inputs(workload: &str, seed: u64, work: &Path) -> Result<(), String> {
    if workload != "sweep16_corpus" {
        return Ok(());
    }
    let mixes = generate_mixes(StudyKind::Cores16, SWEEP16_MIXES, MIX_SEED);
    Corpus::materialize_compressed(
        corpus_dir(work),
        "perfbench 16-core corpus",
        &mixes,
        sweep16_config().llc.geometry.num_sets(),
        seed,
        synthetic_capture_budget(SWEEP16_INSTRUCTIONS),
    )
    .map(|_| ())
    .map_err(|e| format!("capturing the 16-core corpus: {e}"))
}

impl SweepSpec {
    pub fn new(workload: &str, seed: u64, work: &Path) -> Result<SweepSpec, String> {
        match workload {
            "sweep16_corpus" => {
                let dir = corpus_dir(work);
                let corpus = Corpus::load(&dir).map_err(|e| format!("loading corpus: {e}"))?;
                let sources = corpus
                    .entries()
                    .iter()
                    .map(|e| MixSource::replayed_with_id(corpus.path_for(e), e.mix_id))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("opening corpus mix: {e}"))?;
                let mut policies = vec![PolicyKind::TaDrrip];
                policies.extend(PolicyKind::figure3_lineup());
                Ok(SweepSpec {
                    corpus: true,
                    config: sweep16_config(),
                    policies,
                    instructions: SWEEP16_INSTRUCTIONS,
                    seed: corpus.meta().seed,
                    sources,
                    // Below the decoded size of a mix, so mixes stream from the mapping
                    // with prefetch, as a full-scale corpus does under the default budget.
                    replay: ReplayConfig {
                        arena_budget_bytes: 64 << 20,
                        ..ReplayConfig::default()
                    },
                    corpus_dir: dir,
                })
            }
            "manycore64_frfcfs" => Ok(SweepSpec {
                corpus: false,
                config: ExperimentScale::Scaled.scaling_config_memsys(64, MemSystem::FrFcfsNuca),
                policies: vec![PolicyKind::TaDrrip, PolicyKind::AdaptBp32],
                instructions: MANY64_INSTRUCTIONS,
                seed,
                sources: generate_mixes(StudyKind::Cores64, MANY64_MIXES, MIX_SEED)
                    .into_iter()
                    .map(MixSource::synthetic)
                    .collect(),
                replay: ReplayConfig::default(),
                corpus_dir: PathBuf::new(),
            }),
            other => Err(format!("{other:?} is not a sweep workload")),
        }
    }

    fn mixes(&self) -> Vec<WorkloadMix> {
        self.sources.iter().map(|s| s.mix().clone()).collect()
    }

    fn cores(&self) -> usize {
        self.config.num_cores
    }

    fn llc_sets(&self) -> usize {
        self.config.llc.geometry.num_sets()
    }

    fn layer(&self) -> SourceLayer {
        if self.corpus {
            SourceLayer::TraceIo
        } else {
            SourceLayer::Workloads
        }
    }

    /// The sweep call a user makes: `repro sweep`'s engine over the whole grid.
    fn sweep(&self) -> Result<SweepOutcome, String> {
        let replay = &self.replay;
        let outcome = if self.corpus {
            let corpus = Corpus::load(&self.corpus_dir).map_err(|e| e.to_string())?;
            sweep_policies_on_corpus_with(
                &self.config,
                &corpus,
                &self.policies,
                self.instructions,
                replay,
            )
        } else {
            sweep_policies_on_sources_with(
                &self.config,
                &self.sources,
                &self.policies,
                self.instructions,
                self.seed,
                replay,
            )
        };
        outcome.map_err(|e| format!("sweep failed: {e}"))
    }

    /// Shared-run instructions simulated by `cells` cells.
    fn instructions_of(&self, cells: usize) -> f64 {
        (self.cores() as u64 * self.instructions * cells as u64) as f64
    }

    /// One cell, from materialization on, simulated directly on a single thread.
    fn direct_cell(&self, mix: usize, policy: PolicyKind) -> Result<DirectCell, String> {
        let prepared = self.sources[mix]
            .materialize_with(self.llc_sets(), self.seed, &self.replay)
            .map_err(|e| format!("materializing mix {mix}: {e}"))?;
        Ok(self.simulate_prepared(&prepared, policy, None))
    }

    fn simulate_prepared(
        &self,
        prepared: &experiments::runner::MaterializedMixStreams,
        policy: PolicyKind,
        traced: Option<&layers::Shared>,
    ) -> DirectCell {
        let built = policy.build_dispatch(&self.config, &prepared.mix().thrashing_slots());
        let (i, s) = (self.instructions, self.seed);
        match traced {
            None => cells::simulate(
                &self.config,
                prepared,
                policy,
                built,
                prepared.sources(),
                i,
                s,
            ),
            Some(totals) => {
                let policy_adapter = TracedPolicy::new(built, &policy.label(), totals);
                let sources = TracedSource::wrap(prepared.sources(), self.layer(), totals);
                cells::simulate(
                    &self.config,
                    prepared,
                    policy,
                    policy_adapter,
                    sources,
                    i,
                    s,
                )
            }
        }
    }
}

/// Compare a directly simulated cell with the sweep's result for it.
fn check_rerun(evals: &[MixEvaluation], d: &DirectCell, errors: &mut Vec<String>) {
    let cell = format!("mix {} {}", d.eval.mix_id, d.eval.policy_label);
    match evals
        .iter()
        .find(|e| e.mix_id == d.eval.mix_id && e.policy == d.eval.policy)
    {
        Some(e) if cells::digest(e) == cells::digest(&d.eval) => {}
        Some(_) => errors.push(format!(
            "{cell}: single-worker rerun differs from the sweep"
        )),
        None => errors.push(format!("{cell}: missing from the sweep")),
    }
}

/// Set-up of a sweep in a fresh process: open the inputs, materialize every mix and
/// run the alone baselines — the engine's work before its first cell.
pub fn child_setup(spec: &SweepSpec) -> Result<Report, String> {
    let t = Instant::now();
    for source in &spec.sources {
        source
            .materialize_with(spec.llc_sets(), spec.seed, &spec.replay)
            .map_err(|e| format!("materializing: {e}"))?;
    }
    warm_alone_cache(&spec.config, &spec.mixes(), spec.instructions, spec.seed);
    let mut r = Report::default();
    r.push("setup_s", secs(t));
    Ok(r)
}

/// One measured round in a fresh process: the timed sweep, its output checks, two
/// sampled cells rerun on one thread (the first alone, the second beside timed memo
/// lookups), and the peak RSS.
pub fn child_round(spec: &SweepSpec) -> Result<Report, String> {
    let mut r = Report::default();
    let mut errors = Vec::new();
    let t = Instant::now();
    let outcome = spec.sweep()?;
    let wall = secs(t);
    let evals = &outcome.evaluations;
    let cells = evals.len();
    if cells != spec.sources.len() * spec.policies.len() {
        errors.push(format!("sweep returned {cells} cells"));
    }
    if outcome.total_replay_wraps() != 0 {
        errors.push("corpus replay wrapped".into());
    }
    for e in evals {
        cells::check_eval(e, spec.cores(), &mut errors);
    }
    r.push("sweep_s", wall);
    r.push("sim_mips", spec.instructions_of(cells) / wall / 1e6);
    r.push("digest", format!("{:016x}", cells::grid_digest(evals)));

    // The sampled cells are the same in every round and run, so their latencies are
    // comparable; the traced run reruns every cell.
    let (mix, p1, p2) = (0, spec.policies[0], spec.policies[1]);
    let t = Instant::now();
    let first = spec.direct_cell(mix, p1)?;
    r.push("eval_cold_ms", secs(t) * 1e3);
    cells::check_direct(&first, &spec.config, spec.instructions, &mut errors);
    check_rerun(evals, &first, &mut errors);

    let memo = MemoStore::new();
    let keys: Vec<MemoKey> = evals
        .iter()
        .map(|e| cells::memo_key(&spec.config, spec.instructions, spec.seed, e))
        .collect();
    for (key, e) in keys.iter().zip(evals) {
        memo.insert(key.clone(), Arc::new(sweep_serve::json::evaluation_json(e)));
    }
    // Milliseconds per lookup, timed over a batch of lookups.
    let lookup = |i: usize| -> Result<f64, String> {
        let t = Instant::now();
        for j in 0..LOOKUPS_PER_SAMPLE {
            let key = &keys[(i * LOOKUPS_PER_SAMPLE + j) % keys.len()];
            memo.lookup(key)
                .ok_or_else(|| "memo lost a cell".to_string())?;
        }
        Ok(secs(t) * 1e3 / LOOKUPS_PER_SAMPLE as f64)
    };
    for i in 0..HOT_SAMPLES {
        r.push("eval_hot_ms", lookup(i)?);
    }
    let done = AtomicBool::new(false);
    let second = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let cell = spec.direct_cell(mix, p2);
            done.store(true, Ordering::Release);
            cell
        });
        let mut i = 0;
        let mut loaded = Ok(());
        while loaded.is_ok() && !done.load(Ordering::Acquire) {
            loaded = lookup(i).map(|ms| r.push("eval_hot_loaded_ms", ms));
            i += 1;
        }
        let cell = worker
            .join()
            .map_err(|_| "sampled cell panicked".to_string())?;
        loaded.and(cell)
    })?;
    cells::check_direct(&second, &spec.config, spec.instructions, &mut errors);
    check_rerun(evals, &second, &mut errors);

    r.push("cells", cells + 2);
    r.push("peak_rss_mb", peak_rss_mb("self"));
    for e in errors {
        r.push("error", e.replace('\n', " "));
    }
    Ok(r)
}

/// The traced run, in a fresh process, all on one thread: the alone runs, the grid
/// untraced, every cell through the layer adapters, the grid untraced again (the
/// one-worker time for the overhead ratio and the parallel efficiency), and the first
/// policy on every mix twice more, sampled and fully timed, to check the sampled
/// estimates.
pub fn child_traced(spec: &SweepSpec) -> Result<Report, String> {
    let timer_ns = timer_overhead_ns();
    let totals = LayerTotals::shared(layers::MEAN_GAP);
    let mut errors = Vec::new();
    let mut r = Report::default();
    let (traced, untraced) = rayon::with_worker_limit(1, || -> Result<_, String> {
        let t = Instant::now();
        warm_alone_cache(&spec.config, &spec.mixes(), spec.instructions, spec.seed);
        let alone_s = secs(t);
        // An untraced pass first, so the traced pass and the untraced pass it is
        // compared with both run on a warmed allocator.
        let untraced = spec.sweep()?;
        let t_traced = Instant::now();
        let mut materialize_s = 0.0;
        let mut direct = Vec::new();
        for source in &spec.sources {
            let t = Instant::now();
            let prepared = source
                .materialize_with(spec.llc_sets(), spec.seed, &spec.replay)
                .map_err(|e| e.to_string())?;
            materialize_s += secs(t);
            for &policy in &spec.policies {
                direct.push(spec.simulate_prepared(&prepared, policy, Some(&totals)));
            }
        }
        let traced_s = secs(t_traced);
        let t = Instant::now();
        spec.sweep()?;
        let untraced_s = secs(t);
        Ok((
            (direct, alone_s, materialize_s, traced_s),
            (untraced, untraced_s),
        ))
    })?;
    let (direct, alone_s, materialize_s, traced_s) = traced;
    let (untraced, untraced_s) = untraced;

    for d in &direct {
        cells::check_eval(&d.eval, spec.cores(), &mut errors);
        cells::check_direct(d, &spec.config, spec.instructions, &mut errors);
    }
    let traced_digest = cells::grid_digest(direct.iter().map(|d| &d.eval));
    if traced_digest != cells::grid_digest(&untraced.evaluations) {
        errors.push("traced cells differ from the untraced sweep".into());
    }
    r.push("digest", format!("{traced_digest:016x}"));

    // The first policy on every mix, each mix freshly materialized so both passes
    // make the same chunk generations and batch refills.
    let mut check = Vec::new();
    for mean_gap in [layers::MEAN_GAP, 1] {
        let check_totals = LayerTotals::shared(mean_gap);
        for source in &spec.sources {
            let prepared = source
                .materialize_with(spec.llc_sets(), spec.seed, &spec.replay)
                .map_err(|e| e.to_string())?;
            spec.simulate_prepared(&prepared, spec.policies[0], Some(&check_totals));
        }
        check.push(check_totals);
    }
    check[0]
        .lock()
        .unwrap()
        .report_sample_error(&check[1].lock().unwrap(), &mut r, timer_ns);

    let run_s: f64 = direct.iter().map(|d| d.run_s).sum();
    totals.lock().unwrap().report(&mut r, timer_ns, run_s);
    r.push("runner.alone_runs", cells::alone_runs(&spec.mixes()));
    r.push("runner.alone_s", alone_s);
    r.push("runner.materialize_s", materialize_s);
    cells::push_sim_counts(&mut r, &direct);
    // The whole grid untraced on one worker, alone runs included: the parent divides
    // it by the worker-seconds of its untraced parallel sweep.
    r.push("serial_s", alone_s + untraced_s);
    r.push("trace.overhead_ratio", traced_s / untraced_s);
    r.push("trace.wall_s", alone_s + traced_s);
    r.push("trace.unexplained_s", traced_s - (materialize_s + run_s));
    let corpus_files = spec.sources.iter().filter_map(|s| match s {
        MixSource::Replayed { path, .. } => Some(path.as_path()),
        MixSource::Synthetic(_) => None,
    });
    r.push("trace_io.decode_mrps", layers::decode_mrps(corpus_files)?);
    for e in errors {
        r.push("error", e.replace('\n', " "));
    }
    Ok(r)
}
