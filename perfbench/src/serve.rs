//! The `sweepd_eval` workload: the real `sweepd` binary as a child process serving an
//! uncompressed 16-core corpus at smoke scale, driven by closed-loop keep-alive clients
//! in three phases (cold cells, hot cells, hot cells beside cold ones).

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use experiments::runner::{
    evaluate_prepared, synthetic_capture_budget, warm_alone_cache, MaterializedMixStreams,
    MixSource, ReplayConfig,
};
use experiments::{ExperimentScale, PolicyKind};
use sweep_serve::json::evaluation_json;
use sweep_serve::memo::{MemoKey, MemoStore, PROGRESS_FILE};
use sweep_serve::Client;
use trace_io::Corpus;
use workloads::{generate_mixes, StudyKind};

use crate::cells;
use crate::common::{link_dir, median, nproc, peak_rss_mb, secs, timer_overhead_ns, Report};
use crate::layers::{self, LayerTotals, SourceLayer, TracedPolicy, TracedSource};

/// Mixes in the served corpus.
const MIXES: usize = 8;
/// Hot `/eval`s per connection and round in phase 2.
const HOT_REQUESTS: usize = 1500;
/// `/healthz` probes timed by the traced run.
const HEALTHZ_PROBES: usize = 300;
const CORPUS: &str = "bench";
const SCALE: ExperimentScale = ExperimentScale::Smoke;

/// Policies whose cells phases 1 and 2 serve: TA-DRRIP and the Figure 3 lineup. Cold
/// cells are the noisiest figure, so phase 1 is the larger part of a round.
fn set_a() -> [PolicyKind; 6] {
    [
        PolicyKind::TaDrrip,
        PolicyKind::AdaptBp32,
        PolicyKind::AdaptIns,
        PolicyKind::Lru,
        PolicyKind::Ship,
        PolicyKind::Eaf,
    ]
}

/// Policies whose cells phase 3 evaluates cold beside the hot load.
fn set_b() -> [PolicyKind; 3] {
    [PolicyKind::Srrip, PolicyKind::Brrip, PolicyKind::Drrip]
}

fn src_dir(work: &Path) -> PathBuf {
    work.join("serve_corpus")
}

/// The served corpus uses other streams and mixes than `sweep16_corpus`'s.
fn corpus_seed(seed: u64) -> u64 {
    seed.wrapping_add(1_000_003)
}

fn config() -> cache_sim::config::SystemConfig {
    SCALE.system_config(StudyKind::Cores16)
}

/// Capture the served corpus (uncompressed v2) once per run.
pub fn make_inputs(seed: u64, work: &Path) -> Result<(), String> {
    let seed = corpus_seed(seed);
    let mixes = generate_mixes(StudyKind::Cores16, MIXES, crate::sweeps::MIX_SEED + 1);
    Corpus::materialize(
        src_dir(work),
        "perfbench served corpus",
        &mixes,
        config().llc.geometry.num_sets(),
        seed,
        synthetic_capture_budget(SCALE.instructions_per_core()),
    )
    .map(|_| ())
    .map_err(|e| format!("capturing the served corpus: {e}"))
}

/// One `(policy, mix)` cell of the served grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell {
    policy: PolicyKind,
    mix: usize,
}

impl Cell {
    fn body(&self) -> String {
        format!(
            "{{\"corpus\":\"{CORPUS}\",\"policy\":\"{}\",\"mix_id\":{}}}",
            self.policy.label(),
            self.mix
        )
    }
}

fn grid(policies: &[PolicyKind]) -> Vec<Cell> {
    (0..MIXES)
        .flat_map(|mix| policies.iter().map(move |&policy| Cell { policy, mix }))
        .collect()
}

/// Cells whose served bodies are compared with a direct library evaluation.
fn sampled(seed: u64) -> Vec<Cell> {
    let s = seed as usize;
    let (a, b) = (set_a(), set_b());
    vec![
        Cell {
            policy: a[s % a.len()],
            mix: s % MIXES,
        },
        Cell {
            policy: a[(s + 1) % a.len()],
            mix: (s + 3) % MIXES,
        },
        Cell {
            policy: b[s % b.len()],
            mix: (s + 1) % MIXES,
        },
        Cell {
            policy: b[(s + 2) % b.len()],
            mix: (s + 5) % MIXES,
        },
    ]
}

/// The served corpus loaded in this process the way `sweepd` loads it.
struct Resident {
    config: cache_sim::config::SystemConfig,
    seed: u64,
    prepared: Vec<MaterializedMixStreams>,
}

impl Resident {
    /// Load the corpus; also returns the seconds spent in the corpus hash, in
    /// `materialize_with` and in the alone runs.
    fn load(dir: &Path) -> Result<(Resident, [f64; 3]), String> {
        let corpus = Corpus::load(dir).map_err(|e| format!("loading corpus: {e}"))?;
        let t = Instant::now();
        sweep_serve::registry::corpus_hash(&corpus).map_err(|e| e.to_string())?;
        let hash_s = secs(t);
        let config = config();
        let seed = corpus.meta().seed;
        let mut prepared = Vec::new();
        let mut materialize_s = 0.0;
        for entry in corpus.entries() {
            let source = MixSource::replayed_with_id(corpus.path_for(entry), entry.mix_id)
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let mat = source
                .materialize_with(
                    config.llc.geometry.num_sets(),
                    seed,
                    &ReplayConfig::default(),
                )
                .map_err(|e| e.to_string())?;
            materialize_s += secs(t);
            prepared.push(mat);
        }
        let t = Instant::now();
        let mixes: Vec<_> = prepared.iter().map(|p| p.mix().clone()).collect();
        warm_alone_cache(&config, &mixes, SCALE.instructions_per_core(), seed);
        let alone_s = secs(t);
        Ok((
            Resident {
                config,
                seed,
                prepared,
            },
            [hash_s, materialize_s, alone_s],
        ))
    }

    fn prepared(&self, mix: usize) -> &MaterializedMixStreams {
        self.prepared
            .iter()
            .find(|p| p.mix().id == mix)
            .expect("mix ids are 0..MIXES")
    }

    /// `LoadedCorpus::evaluate`'s computation: the body a cold `/eval` must serve.
    fn evaluate(&self, cell: Cell) -> experiments::runner::MixEvaluation {
        let mat = self.prepared(cell.mix);
        let built = cell
            .policy
            .build_dispatch(&self.config, &mat.mix().thrashing_slots());
        evaluate_prepared(
            &self.config,
            mat,
            cell.policy,
            built,
            SCALE.instructions_per_core(),
            self.seed,
        )
    }
}

/// Reference bodies of the sampled cells, evaluated directly through the library.
pub fn reference_bodies(seed: u64, work: &Path) -> Result<HashMap<Cell, String>, String> {
    let (resident, _) = Resident::load(&src_dir(work))?;
    Ok(sampled(seed)
        .into_iter()
        .map(|cell| (cell, evaluation_json(&resident.evaluate(cell))))
        .collect())
}

/// A running daemon, shut down (or killed) and reaped on drop.
struct Daemon {
    child: Child,
    /// Kept open so the daemon's last log line does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl Daemon {
    /// Start `sweepd` on a fresh directory linking the corpus files; returns it with
    /// the seconds from spawn until `/healthz` answered.
    fn start(sweepd: &Path, work: &Path) -> Result<(Daemon, f64), String> {
        let dir = work.join("serve_round");
        link_dir(&src_dir(work), &dir).map_err(|e| format!("linking corpus: {e}"))?;
        if dir.join(PROGRESS_FILE).exists() {
            return Err("served corpus starts with a progress file".into());
        }
        let t = Instant::now();
        let mut child = Command::new(sweepd)
            .arg("--corpus")
            .arg(format!("{CORPUS}={}", dir.display()))
            .args(["--addr", "127.0.0.1:0", "--smoke", "--workers"])
            .arg(nproc().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", sweepd.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("sweepd listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("sweepd did not start: {line:?}"));
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
            dir,
        };
        let health =
            sweep_serve::client::get(addr, "/healthz").map_err(|e| format!("/healthz: {e}"))?;
        let setup_s = secs(t);
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        Ok((daemon, setup_s))
    }

    fn connect(&self, id: &str) -> Result<Client, String> {
        Client::connect(self.addr, Some(id)).map_err(|e| format!("connecting: {e}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = sweep_serve::client::post(self.addr, "/shutdown", "{}", None);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one client saw: counts by `X-Memo`, failures and the bodies served per cell.
#[derive(Default)]
struct Seen {
    requests: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    bodies: HashMap<Cell, String>,
    errors: Vec<String>,
}

impl Seen {
    /// One `/eval` on `client`; returns its latency in ms. `cold` says which `X-Memo`
    /// answer the request must get; a hot body must equal the cold body served before.
    fn eval(&mut self, client: &mut Client, cell: Cell, cold: bool) -> f64 {
        self.requests += 1;
        let t = Instant::now();
        let resp = client.post("/eval", &cell.body());
        let ms = secs(t) * 1e3;
        let resp = match resp {
            Ok(resp) if resp.status == 200 => resp,
            Ok(resp) => {
                self.failed += 1;
                self.errors
                    .push(format!("{cell:?}: status {}", resp.status));
                return ms;
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("{cell:?}: {e}"));
                return ms;
            }
        };
        match resp.header("x-memo") {
            Some("hit") => self.hits += 1,
            Some("miss") => self.misses += 1,
            other => self.errors.push(format!("{cell:?}: X-Memo {other:?}")),
        }
        let expected = if cold { "miss" } else { "hit" };
        if resp.header("x-memo") != Some(expected) {
            self.errors
                .push(format!("{cell:?}: expected a memo {expected}"));
        }
        match self.bodies.get(&cell) {
            Some(body) if *body != resp.body => self
                .errors
                .push(format!("{cell:?}: hot body differs from cold body")),
            Some(_) => {}
            None => {
                self.bodies.insert(cell, resp.body);
            }
        }
        ms
    }

    fn merge(&mut self, other: Seen) {
        self.requests += other.requests;
        self.failed += other.failed;
        self.hits += other.hits;
        self.misses += other.misses;
        self.bodies.extend(other.bodies);
        self.errors.extend(other.errors);
    }
}

/// Run `work(seen, client, k)` for k = 0 and 1 as two closed loops at once, each on
/// its own thread and connection; with one CPU, one after the other on one connection.
/// Returns both loops' latencies.
fn two_loops<F>(daemon: &Daemon, seen: &mut Seen, work: F) -> Result<Vec<f64>, String>
where
    F: Fn(&mut Seen, &mut Client, usize) -> Vec<f64> + Sync,
{
    if nproc() < 2 {
        let mut client = daemon.connect("bench-a")?;
        let mut ms = work(seen, &mut client, 0);
        ms.extend(work(seen, &mut client, 1));
        return Ok(ms);
    }
    // Each loop checks its hot bodies against the cold bodies served before.
    let bodies = &seen.bodies;
    let loops = std::thread::scope(|scope| {
        let handles: Vec<_> = ["bench-a", "bench-h"]
            .into_iter()
            .enumerate()
            .map(|(k, id)| {
                let work = &work;
                scope.spawn(move || -> Result<(Seen, Vec<f64>), String> {
                    let mut own = Seen {
                        bodies: bodies.clone(),
                        ..Seen::default()
                    };
                    let mut client = daemon.connect(id)?;
                    let ms = work(&mut own, &mut client, k);
                    Ok((own, ms))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client loop panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut all = Vec::new();
    for (own, ms) in loops {
        seen.merge(own);
        all.extend(ms);
    }
    Ok(all)
}

/// One measured round: start the daemon on a fresh corpus directory, run the three phases,
/// check every answer, read `/stats` and the daemon's peak RSS, shut it down.
pub fn round(
    sweepd: &Path,
    work: &Path,
    reference: &HashMap<Cell, String>,
    r: &mut Report,
) -> Result<(), String> {
    let (daemon, setup_s) = Daemon::start(sweepd, work)?;
    r.push("setup_s", setup_s);
    let mut seen = Seen::default();

    // Phase 1: every set-A cell once, cold, two at a time: two closed loops take the
    // next cell from one list. A lone loop leaves a CPU idle, and on a shared VM host
    // a request then runs at whatever speed the host gives that one CPU.
    let cold_cells = grid(&set_a());
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let cold_ms = two_loops(&daemon, &mut seen, |seen, client, _| {
        let mut ms = Vec::new();
        while let Some(&cell) = cold_cells.get(next.fetch_add(1, Ordering::Relaxed)) {
            ms.push(seen.eval(client, cell, true));
        }
        ms
    })?;
    r.push("cold_wall_s", secs(t));
    for ms in cold_ms {
        r.push("eval_cold_ms", ms);
    }
    // Phase 2: hot cells over the filled memo, in two closed loops at once. A lone
    // loop leaves a CPU idle, and a hot answer then waits on the hypervisor waking it.
    let hot_ms = two_loops(&daemon, &mut seen, |seen, client, k| {
        (0..HOT_REQUESTS)
            .map(|i| {
                let cell = cold_cells[(i + k * cold_cells.len() / 2) % cold_cells.len()];
                seen.eval(client, cell, false)
            })
            .collect()
    })?;
    for ms in hot_ms {
        r.push("eval_hot_ms", ms);
    }
    let mut a = daemon.connect("bench-a")?;
    // Phase 3: hot cells on one connection while another keeps one cold set-B cell in
    // flight. With a single CPU the two alternate on one connection instead.
    let cold_b = grid(&set_b());
    if nproc() >= 2 {
        let done = AtomicBool::new(false);
        let other = std::thread::scope(|scope| -> Result<Seen, String> {
            let worker = scope.spawn(|| -> Result<Seen, String> {
                let mut seen_b = Seen::default();
                let result = daemon.connect("bench-b").map(|mut b| {
                    for &cell in &cold_b {
                        seen_b.eval(&mut b, cell, true);
                    }
                });
                done.store(true, Ordering::Release);
                result.map(|_| seen_b)
            });
            let mut i = 0;
            while !done.load(Ordering::Acquire) {
                let ms = seen.eval(&mut a, cold_cells[i % cold_cells.len()], false);
                r.push("eval_hot_loaded_ms", ms);
                i += 1;
            }
            worker
                .join()
                .map_err(|_| "phase-3 client panicked".to_string())?
        })?;
        seen.merge(other);
    } else {
        for (i, &cell) in cold_b.iter().enumerate() {
            seen.eval(&mut a, cell, true);
            let ms = seen.eval(&mut a, cold_cells[i % cold_cells.len()], false);
            r.push("eval_hot_loaded_ms", ms);
        }
    }

    for (cell, body) in reference {
        match seen.bodies.get(cell) {
            Some(served) if served == body => {}
            Some(_) => seen.errors.push(format!(
                "{cell:?}: served body differs from evaluation_json"
            )),
            None => seen.errors.push(format!("{cell:?}: never served")),
        }
    }
    let stats = a.get("/stats").map_err(|e| format!("/stats: {e}"))?;
    seen.requests += 1;
    let stats = sim_obs::JsonValue::parse(&stats.body).map_err(|e| format!("/stats: {e:?}"))?;
    let field = |group: &str, name: &str| {
        stats
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(|v| v.as_number())
            .unwrap_or(-1.0)
    };
    let (hits, misses) = (field("memo", "hits"), field("memo", "misses"));
    if hits != seen.hits as f64 || misses != seen.misses as f64 {
        seen.errors.push(format!(
            "/stats memo {hits} hits {misses} misses, clients saw {} and {}",
            seen.hits, seen.misses
        ));
    }
    if field("jobs", "rejected") != 0.0 {
        seen.errors
            .push("the daemon rejected a request (429)".into());
    }
    r.push("memo_hits", hits);
    r.push("memo_misses", misses);
    r.push("peak_rss_mb", peak_rss_mb(&daemon.child.id().to_string()));
    r.push(
        "cold_instructions",
        (cold_cells.len() as u64 * 16 * SCALE.instructions_per_core()) as f64,
    );
    let mut digest = crate::common::Fnv::new();
    for cell in grid(&set_a()).iter().chain(&cold_b) {
        digest.str(seen.bodies.get(cell).map_or("", String::as_str));
    }
    r.push("digest", format!("{:016x}", digest.finish()));
    r.push("requests", seen.requests);
    r.push("failed", seen.failed);
    for e in seen.errors {
        r.push("error", e);
    }
    drop(daemon);
    Ok(())
}

/// `/healthz` round trips on one keep-alive connection, in microseconds.
pub fn healthz_probe(sweepd: &Path, work: &Path, r: &mut Report) -> Result<(), String> {
    let (daemon, _) = Daemon::start(sweepd, work)?;
    let mut c = daemon.connect("bench-probe")?;
    let mut samples = Vec::with_capacity(HEALTHZ_PROBES);
    for _ in 0..HEALTHZ_PROBES {
        let t = Instant::now();
        let resp = c.get("/healthz").map_err(|e| format!("/healthz: {e}"))?;
        samples.push(secs(t) * 1e6);
        if resp.status != 200 {
            r.push("error", format!("/healthz answered {}", resp.status));
        }
    }
    r.push("sweep_serve.healthz_p50_us", median(&samples));
    r.push("requests", HEALTHZ_PROBES);
    Ok(())
}

/// The traced run's library half, in a fresh process: load the corpus as `sweepd`
/// does, evaluate the set-A cells directly (untraced, then through the layer
/// adapters), serialize the traced results, and time the memo. The first policy's
/// cells run twice more, sampled and fully timed, to check the sampled estimates.
///
/// `trace.wall_s` is the load, the traced pass and the serialization; the untraced
/// pass, a warm-up and the reference for the overhead ratio, is cut out of it.
/// `trace.unexplained_s` is that wall less the timed layer calls: the corpus hash,
/// `materialize_with`, the alone runs, `MultiCoreSystem::run` and `evaluation_json`.
pub fn child_traced(work: &Path) -> Result<Report, String> {
    let timer_ns = timer_overhead_ns();
    let mut r = Report::default();
    let mut errors = Vec::new();
    let t_wall = Instant::now();
    let (resident, [hash_s, materialize_s, alone_s]) = Resident::load(&src_dir(work))?;
    let cells_a = grid(&set_a());
    let t_untraced = Instant::now();
    let mut direct_ms = Vec::new();
    let mut untraced = Vec::new();
    for &cell in &cells_a {
        let t = Instant::now();
        untraced.push(resident.evaluate(cell));
        direct_ms.push(secs(t) * 1e3);
    }
    let untraced_wall = secs(t_untraced);
    let totals = LayerTotals::shared(layers::MEAN_GAP);
    let instructions = SCALE.instructions_per_core();
    let simulate = |cell: Cell, totals: &layers::Shared| {
        let mat = resident.prepared(cell.mix);
        let built = cell
            .policy
            .build_dispatch(&resident.config, &mat.mix().thrashing_slots());
        let policy = TracedPolicy::new(built, &cell.policy.label(), totals);
        let sources = TracedSource::wrap(mat.sources(), SourceLayer::TraceIo, totals);
        cells::simulate(
            &resident.config,
            mat,
            cell.policy,
            policy,
            sources,
            instructions,
            resident.seed,
        )
    };
    let mut traced = Vec::new();
    let t_traced = Instant::now();
    for &cell in &cells_a {
        let d = simulate(cell, &totals);
        cells::check_eval(&d.eval, 16, &mut errors);
        cells::check_direct(&d, &resident.config, instructions, &mut errors);
        traced.push(d);
    }
    let traced_s = secs(t_traced);
    let mut json_us = Vec::new();
    for d in &traced {
        let t = Instant::now();
        let body = evaluation_json(&d.eval);
        json_us.push(secs(t) * 1e6);
        std::hint::black_box(body);
    }
    let wall = secs(t_wall) - untraced_wall;
    if cells::grid_digest(&untraced) != cells::grid_digest(traced.iter().map(|d| &d.eval)) {
        errors.push("traced cells differ from untraced cells".into());
    }

    let check: Vec<_> = [layers::MEAN_GAP, 1]
        .into_iter()
        .map(|mean_gap| {
            let check_totals = LayerTotals::shared(mean_gap);
            for &cell in cells_a.iter().filter(|c| c.policy == set_a()[0]) {
                simulate(cell, &check_totals);
            }
            check_totals
        })
        .collect();
    check[0]
        .lock()
        .unwrap()
        .report_sample_error(&check[1].lock().unwrap(), &mut r, timer_ns);

    let memo = MemoStore::new();
    let keys: Vec<MemoKey> = untraced
        .iter()
        .map(|e| cells::memo_key(&resident.config, instructions, resident.seed, e))
        .collect();
    for (k, e) in keys.iter().zip(&untraced) {
        memo.insert(k.clone(), Arc::new(evaluation_json(e)));
    }
    let mut lookup_ns = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        for k in &keys {
            std::hint::black_box(memo.lookup(k));
        }
        lookup_ns.push(secs(t) * 1e9 / keys.len() as f64);
    }

    let files: Vec<PathBuf> = (0..MIXES)
        .map(|mix| src_dir(work).join(format!("mix{mix:04}.atrc")))
        .collect();
    r.push(
        "trace_io.decode_mrps",
        layers::decode_mrps(files.iter().map(PathBuf::as_path))?,
    );

    let run_s: f64 = traced.iter().map(|d| d.run_s).sum();
    totals.lock().unwrap().report(&mut r, timer_ns, run_s);
    let mixes: Vec<_> = resident.prepared.iter().map(|p| p.mix().clone()).collect();
    r.push("runner.alone_runs", cells::alone_runs(&mixes));
    r.push("runner.alone_s", alone_s);
    r.push("runner.materialize_s", materialize_s);
    cells::push_sim_counts(&mut r, &traced);
    let json_s: f64 = json_us.iter().sum::<f64>() / 1e6;
    r.push("sweep_serve.corpus_hash_s", hash_s);
    r.push("sweep_serve.eval_json_us", median(&json_us));
    r.push("sweep_serve.memo_lookup_ns", median(&lookup_ns));
    r.push("sweep_serve.direct_eval_p50_ms", median(&direct_ms));
    r.push("trace.overhead_ratio", traced_s / untraced_wall);
    let explained = hash_s + materialize_s + alone_s + run_s + json_s;
    r.push("trace.unexplained_s", wall - explained);
    r.push("trace.wall_s", wall);
    for e in errors {
        r.push("error", e);
    }
    Ok(r)
}
