//! `perfbench` — the repository's benchmark: three workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --sweepd PATH --work DIR
//! perfbench child setup|round|traced --workload W --seed N --work DIR
//! ```
//!
//! `run` generates the workload's inputs from the seed, then measures whole rounds
//! until `--seconds` have passed. Every round runs its measured process fresh — a
//! child `perfbench` for the sweeps (the runner memoizes alone runs process-wide), a
//! new `sweepd` for `sweepd_eval` — and the last stdout line is the JSON result.
//! `perfbench/run.py` builds everything and is the command to use.

mod cells;
mod common;
mod layers;
mod serve;
mod sweeps;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use common::{median, nproc, provenance, quantile, run_child, Report};

const WORKLOADS: [&str; 3] = ["sweep16_corpus", "manycore64_frfcfs", "sweepd_eval"];

/// End-to-end metrics, reported by untraced runs of every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("sim_mips", "MIPS"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("eval_cold_p50_ms", "ms"),
    ("eval_hot_p50_ms", "ms"),
    ("eval_hot_p90_ms", "ms"),
    ("eval_hot_loaded_p50_ms", "ms"),
];

/// Per-layer metrics, reported by traced runs of every workload (0 where a layer does
/// no work on that workload).
const PER_LAYER: [(&str, &str); 55] = [
    ("trace_io.records", "count"),
    ("trace_io.next_access_s", "s"),
    ("trace_io.decode_mrps", "Mrec/s"),
    ("workloads.records", "count"),
    ("workloads.next_access_s", "s"),
    ("runner.alone_runs", "count"),
    ("runner.alone_s", "s"),
    ("runner.materialize_s", "s"),
    ("runner.parallel_efficiency", "ratio"),
    ("cache_sim.run_s", "s"),
    ("cache_sim.self_s", "s"),
    ("cache_sim.ns_per_access", "ns"),
    ("cache_sim.accesses", "count"),
    ("cache_sim.l1d_misses", "count"),
    ("cache_sim.l2_misses", "count"),
    ("cache_sim.llc_demand_accesses", "count"),
    ("cache_sim.llc_demand_misses", "count"),
    ("cache_sim.llc_bypassed_fills", "count"),
    ("cache_sim.llc_writebacks_in", "count"),
    ("cache_sim.dram_reads", "count"),
    ("cache_sim.dram_writes", "count"),
    ("cache_sim.sim_cycles", "cycles"),
    ("cache_sim.bank_requests", "count"),
    ("cache_sim.bank_queue_cycles", "cycles"),
    ("cache_sim.bank_admission_stall_cycles", "cycles"),
    ("cache_sim.mshr_stall_cycles", "cycles"),
    ("cache_sim.dram_row_hits", "count"),
    ("cache_sim.dram_row_conflicts", "count"),
    ("cache_sim.starvation_pins", "count"),
    ("cache_sim.nuca_cycles", "cycles"),
    ("llc_policies.hook_calls", "count"),
    ("llc_policies.bypasses", "count"),
    ("llc_policies.hook_s", "s"),
    ("llc_policies.hook_s.TA-DRRIP", "s"),
    ("llc_policies.hook_s.ADAPT_bp32", "s"),
    ("llc_policies.hook_s.ADAPT_ins", "s"),
    ("llc_policies.hook_s.LRU", "s"),
    ("llc_policies.hook_s.SHiP", "s"),
    ("llc_policies.hook_s.EAF", "s"),
    ("sweep_serve.corpus_hash_s", "s"),
    ("sweep_serve.healthz_p50_us", "us"),
    ("sweep_serve.memo_lookup_ns", "ns"),
    ("sweep_serve.eval_json_us", "us"),
    ("sweep_serve.direct_eval_p50_ms", "ms"),
    ("sweep_serve.memo_hits", "count"),
    ("sweep_serve.memo_misses", "count"),
    ("sweep_serve.http_cold_p50_ms", "ms"),
    ("sweep_serve.http_hot_p50_ms", "ms"),
    ("sweep_serve.serve_overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unexplained_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unexplained_share", "ratio"),
    ("trace.sample_error.sources", "ratio"),
    ("trace.sample_error.hooks", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sweepd: PathBuf,
    work: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sweepd: PathBuf::new(),
        work: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value != "0",
            "--sweepd" => a.sweepd = PathBuf::from(value),
            "--work" => a.work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn child_args(mode: &str, a: &Args) -> Vec<String> {
    [
        "child",
        mode,
        "--workload",
        &a.workload,
        "--seed",
        &a.seed.to_string(),
        "--work",
        &a.work.display().to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn child(mode: &str, a: &Args) -> Result<(), String> {
    let report = if a.workload == "sweepd_eval" {
        match mode {
            "traced" => serve::child_traced(&a.work)?,
            _ => return Err(format!("sweepd_eval has no child mode {mode:?}")),
        }
    } else {
        let spec = sweeps::SweepSpec::new(&a.workload, a.seed, &a.work)?;
        match mode {
            "setup" => sweeps::child_setup(&spec)?,
            "round" => sweeps::child_round(&spec)?,
            "traced" => sweeps::child_traced(&spec)?,
            other => return Err(format!("unknown child mode {other:?}")),
        }
    };
    print!("{}", report.render());
    Ok(())
}

/// Rounds until `seconds` have passed (at least two), each adding to one report;
/// `round` is given the round's index.
fn rounds(
    seconds: f64,
    mut round: impl FnMut(&mut Report, usize) -> Result<(), String>,
) -> Result<Report, String> {
    let mut total = Report::default();
    let t = Instant::now();
    let mut k = 0;
    while k < 2 || t.elapsed().as_secs_f64() < seconds {
        round(&mut total, k)?;
        k += 1;
    }
    eprintln!("perfbench: {k} rounds in {:.1}s", t.elapsed().as_secs_f64());
    Ok(total)
}

/// Reference bodies for `sweepd_eval`'s served-vs-direct check (none for the sweeps).
fn reference(a: &Args) -> Result<HashMap<serve::Cell, String>, String> {
    if a.workload == "sweepd_eval" {
        serve::reference_bodies(a.seed, &a.work)
    } else {
        Ok(HashMap::new())
    }
}

fn end_to_end(a: &Args) -> Result<(Report, Vec<(String, f64)>), String> {
    let sweep = a.workload != "sweepd_eval";
    let reference = reference(a)?;
    let r = rounds(a.seconds, |r, k| {
        let mut round = Report::default();
        if sweep {
            round.extend(&run_child(&child_args("setup", a))?);
            round.extend(&run_child(&child_args("round", a))?);
            round.push("requests", round.first("cells"));
        } else {
            serve::round(&a.sweepd, &a.work, &reference, &mut round)?;
            let mips = round.first("cold_instructions") / round.first("cold_wall_s") / 1e6;
            round.push("sim_mips", mips);
        }
        // Every latency figure is taken per round and its median over rounds reported,
        // so a burst of host noise in one round moves it little.
        let hot = round.all("eval_hot_ms");
        round.push("eval_cold_p50_ms", median(&round.all("eval_cold_ms")));
        round.push("eval_hot_p50_ms", median(&hot));
        round.push("eval_hot_p90_ms", quantile(&hot, 0.9));
        round.push(
            "eval_hot_loaded_p50_ms",
            median(&round.all("eval_hot_loaded_ms")),
        );
        eprintln!(
            "perfbench: round {}",
            END_TO_END
                .iter()
                .map(|(name, _)| format!("{name}={}", round.first(name)))
                .collect::<Vec<_>>()
                .join(" ")
        );
        // The first round runs on inputs just written, with cold caches; it is checked
        // and counted, but its figures are left out: in some runs it ran up to twice
        // as slow as the rounds after it.
        if k == 0 {
            for (name, _) in END_TO_END {
                round.remove(name);
            }
        }
        r.extend(&round);
        Ok(())
    })?;
    let metrics = END_TO_END
        .iter()
        .map(|(name, _)| (name.to_string(), median(&r.all(name))))
        .collect();
    Ok((r, metrics))
}

fn per_layer(a: &Args) -> Result<(Report, Vec<(String, f64)>), String> {
    let sweep = a.workload != "sweepd_eval";
    let reference = reference(a)?;
    let mut r = rounds(a.seconds, |r, _| {
        if sweep {
            let untraced = run_child(&child_args("round", a))?;
            let traced = run_child(&child_args("traced", a))?;
            if untraced.text("digest") != traced.text("digest") {
                r.push("error", "traced digest differs from the untraced run");
            }
            let efficiency =
                traced.first("serial_s") / (nproc() as f64 * untraced.first("sweep_s"));
            r.push("runner.parallel_efficiency", efficiency);
            r.push("requests", untraced.first("cells"));
            r.extend(&traced);
            for e in untraced.text("error") {
                r.push("error", e);
            }
        } else {
            let traced = run_child(&child_args("traced", a))?;
            r.extend(&traced);
            let mut round = Report::default();
            serve::round(&a.sweepd, &a.work, &reference, &mut round)?;
            serve::healthz_probe(&a.sweepd, &a.work, &mut round)?;
            r.push("sweep_serve.memo_hits", round.first("memo_hits"));
            r.push("sweep_serve.memo_misses", round.first("memo_misses"));
            r.push(
                "sweep_serve.healthz_p50_us",
                round.first("sweep_serve.healthz_p50_us"),
            );
            // The same cells timed client-side over HTTP: the gap from the direct
            // library evaluation to a cold `/eval` is the serving overhead.
            let cold = median(&round.all("eval_cold_ms"));
            r.push("sweep_serve.http_cold_p50_ms", cold);
            r.push(
                "sweep_serve.http_hot_p50_ms",
                median(&round.all("eval_hot_ms")),
            );
            r.push(
                "sweep_serve.serve_overhead_ms",
                cold - traced.first("sweep_serve.direct_eval_p50_ms"),
            );
            for key in ["requests", "failed", "error", "digest"] {
                for v in round.text(key) {
                    r.push(key, v);
                }
            }
        }
        Ok(())
    })?;
    if sweep {
        // Counts repeat exactly from round to round; anything else is a fault.
        for (name, unit) in PER_LAYER {
            let v = r.all(name);
            if matches!(unit, "count" | "cycles") && v.iter().any(|x| *x != v[0]) {
                r.push("error", format!("{name} differs between rounds"));
            }
        }
    }
    let share = median(&r.all("trace.unexplained_s")) / median(&r.all("trace.wall_s"));
    r.push("trace.unexplained_share", share);
    let metrics = PER_LAYER
        .iter()
        .map(|(name, _)| (name.to_string(), median(&r.all(name))))
        .collect();
    Ok((r, metrics))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(a: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    for (k, v) in provenance(&root) {
        println!("provenance {k} {v}");
    }
    let t = Instant::now();
    if a.workload == "sweepd_eval" {
        serve::make_inputs(a.seed, &a.work)?;
    } else {
        sweeps::make_inputs(&a.workload, a.seed, &a.work)?;
    }
    eprintln!(
        "perfbench: inputs ready in {:.2}s",
        t.elapsed().as_secs_f64()
    );
    let (report, metrics) = if a.trace {
        per_layer(a)?
    } else {
        end_to_end(a)?
    };
    let units: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = report.text("error");
    for (name, value) in &metrics {
        if !value.is_finite() {
            errors.push(format!("{name} is not finite"));
        }
    }
    let digests = report.text("digest");
    if digests.iter().any(|d| *d != digests[0]) {
        errors.push("simulated statistics differ between rounds".into());
    }
    if let Some(d) = digests.first() {
        println!("digest {} {d}", a.workload);
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let attempted = report.sum("requests") as u64;
    let failed = report.sum("failed") as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |u| u.1);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let correct = errors.is_empty() && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.first().map(String::as_str) {
        Some("run") => ("run", &argv[1..]),
        Some("child") if argv.len() > 1 => (argv[1].as_str(), &argv[2..]),
        _ => {
            eprintln!("usage: perfbench run|child MODE --workload W --seed N ...");
            return ExitCode::from(2);
        }
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if mode != "run" {
        return match child(mode, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench child {mode}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work = args.work.clone();
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|_| run(&args));
    let _ = std::fs::remove_dir_all(Path::new(&work));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
