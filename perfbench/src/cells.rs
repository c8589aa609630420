//! One (policy, mix) cell evaluated directly through the simulator's public API, the
//! simulated-statistics digest, and the output checks every workload runs.

use std::time::Instant;

use cache_sim::bank::BankStats;
use cache_sim::config::SystemConfig;
use cache_sim::replacement::LlcReplacementPolicy;
use cache_sim::stats::SystemResults;
use cache_sim::system::MultiCoreSystem;
use cache_sim::trace::TraceSource;
use experiments::runner::{alone_ipc, MaterializedMixStreams, MixEvaluation, PerAppOutcome};
use experiments::PolicyKind;
use mc_metrics::MulticoreMetrics;
use workloads::benchmark_by_name;

use sweep_serve::memo::MemoKey;
use workloads::WorkloadMix;

use crate::common::{Fnv, Report};

/// A cell simulated directly with `MultiCoreSystem::run`: the evaluation the runner
/// would build from it, plus what `MixEvaluation` leaves out.
pub struct DirectCell {
    pub eval: MixEvaluation,
    pub results: SystemResults,
    pub dram_banks: Vec<BankStats>,
    /// Wall time of `MultiCoreSystem::run` alone.
    pub run_s: f64,
}

/// Simulate `policy` on `prepared` with the given (possibly wrapped) sources and policy,
/// and summarize exactly as the runner does: per-app IPC against the memoized alone
/// runs, metrics from `mc-metrics`.
pub fn simulate<P: LlcReplacementPolicy>(
    config: &SystemConfig,
    prepared: &MaterializedMixStreams,
    policy: PolicyKind,
    built: P,
    sources: Vec<Box<dyn TraceSource>>,
    instructions: u64,
    seed: u64,
) -> DirectCell {
    let policy_label = built.name();
    let mut system = MultiCoreSystem::new(config.clone(), sources, built);
    let t = Instant::now();
    let results = system.run(instructions);
    let run_s = t.elapsed().as_secs_f64();
    let dram_banks = system.dram().bank_stats().to_vec();
    drop(system);
    let mix = prepared.mix();
    let per_app: Vec<PerAppOutcome> = results
        .per_core
        .iter()
        .zip(&mix.benchmarks)
        .map(|(core, name)| PerAppOutcome {
            name: name.clone(),
            core_id: core.core_id,
            ipc: core.ipc(),
            ipc_alone: alone_ipc(config, name, instructions, seed),
            l2_mpki: core.l2_mpki(),
            llc_mpki: core.llc_mpki(),
            is_thrashing: benchmark_by_name(name).is_some_and(|b| b.is_thrashing()),
        })
        .collect();
    let shared: Vec<f64> = per_app.iter().map(|a| a.ipc).collect();
    let alone: Vec<f64> = per_app.iter().map(|a| a.ipc_alone).collect();
    let eval = MixEvaluation {
        mix_id: mix.id,
        policy,
        policy_label,
        per_app,
        metrics: MulticoreMetrics::compute(&shared, &alone),
        llc_global: results.llc_global,
        llc_banks: results.llc_banks.clone(),
        core_stalls: results.core_stalls.clone(),
        final_cycle: results.final_cycle,
    };
    DirectCell {
        eval,
        results,
        dram_banks,
        run_s,
    }
}

/// Digest of every simulated statistic of a cell. `Debug` prints every field, floats
/// in shortest round-trip form, so equal digests mean bit-identical evaluations.
pub fn digest(eval: &MixEvaluation) -> u64 {
    let mut h = Fnv::new();
    h.str(&format!("{eval:?}"));
    h.finish()
}

/// Digest of a whole grid, in the order given.
pub fn grid_digest<'a>(evals: impl IntoIterator<Item = &'a MixEvaluation>) -> u64 {
    let mut h = Fnv::new();
    for e in evals {
        h.u64(digest(e));
    }
    h.finish()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Checks that hold for every evaluation the runner returns: metrics recomputed here
/// from the per-app fields (not through `mc-metrics`) and stall conservation.
pub fn check_eval(e: &MixEvaluation, cores: usize, errors: &mut Vec<String>) {
    let cell = format!("mix {} {}", e.mix_id, e.policy_label);
    if e.per_app.len() != cores {
        errors.push(format!(
            "{cell}: {} apps for {cores} cores",
            e.per_app.len()
        ));
    }
    let normalized: Vec<f64> = e
        .per_app
        .iter()
        .map(|a| {
            if a.ipc_alone > 0.0 {
                a.ipc / a.ipc_alone
            } else {
                0.0
            }
        })
        .collect();
    if e.per_app
        .iter()
        .any(|a| !(a.ipc > 0.0 && a.ipc_alone > 0.0))
    {
        errors.push(format!("{cell}: a non-positive IPC"));
    }
    let ws: f64 = normalized.iter().sum();
    if !close(ws, e.metrics.weighted_speedup) {
        errors.push(format!(
            "{cell}: weighted speedup {} but per-app fields give {ws}",
            e.metrics.weighted_speedup
        ));
    }
    let max = normalized.iter().cloned().fold(0.0, f64::max);
    let min = normalized.iter().cloned().fold(f64::INFINITY, f64::min);
    let fairness = if max > 0.0 { min / max } else { 0.0 };
    if !close(fairness, e.metrics.fairness) {
        errors.push(format!(
            "{cell}: fairness {} but per-app fields give {fairness}",
            e.metrics.fairness
        ));
    }
    let sum = |f: fn(&cache_sim::stats::CoreStallAttribution) -> u64| -> u64 {
        e.core_stalls.iter().map(f).sum()
    };
    let g = &e.llc_global;
    for (name, per_core, global) in [
        (
            "LLC bank queue",
            sum(|c| c.llc_queue_cycles),
            g.bank_queue_cycles,
        ),
        (
            "LLC admission",
            sum(|c| c.llc_admission_cycles),
            g.bank_admission_stall_cycles,
        ),
        ("MSHR", sum(|c| c.mshr_stall_cycles), g.mshr_stall_cycles),
    ] {
        if per_core != global {
            errors.push(format!(
                "{cell}: per-core {name} stalls sum to {per_core}, global {global}"
            ));
        }
    }
}

/// Checks that need the full simulator output: per-level hit/miss conservation,
/// retirement, DRAM stall attribution and FR-FCFS row accounting.
pub fn check_direct(
    d: &DirectCell,
    config: &SystemConfig,
    instructions: u64,
    errors: &mut Vec<String>,
) {
    let cell = format!("mix {} {}", d.eval.mix_id, d.eval.policy_label);
    for core in &d.results.per_core {
        for (level, hits, misses, accesses) in [
            ("L1D", core.l1d.hits, core.l1d.misses, core.l1d.accesses),
            ("L2", core.l2.hits, core.l2.misses, core.l2.accesses),
            (
                "LLC",
                core.llc.demand_hits,
                core.llc.demand_misses,
                core.llc.demand_accesses,
            ),
        ] {
            if hits + misses != accesses {
                errors.push(format!(
                    "{cell} core {}: {level} hits {hits} + misses {misses} != accesses {accesses}",
                    core.core_id
                ));
            }
        }
        if core.instructions < instructions {
            errors.push(format!(
                "{cell} core {}: retired {} < budget {instructions}",
                core.core_id, core.instructions
            ));
        }
    }
    let dram_attributed: u64 = d
        .results
        .core_stalls
        .iter()
        .map(|c| c.dram_queue_cycles + c.dram_admission_cycles)
        .sum();
    if dram_attributed != d.results.dram.queue_cycles {
        errors.push(format!(
            "{cell}: per-core DRAM stalls sum to {dram_attributed}, global {}",
            d.results.dram.queue_cycles
        ));
    }
    let rm = &config.dram.row_model;
    if rm.enabled {
        let requests: u64 = d.dram_banks.iter().map(|b| b.requests).sum();
        let classified: u64 = d
            .dram_banks
            .iter()
            .map(|b| b.row_hits + b.row_misses + b.row_conflicts)
            .sum();
        if classified != requests {
            errors.push(format!(
                "{cell}: DRAM row hits+misses+conflicts {classified} != requests {requests}"
            ));
        }
        let max_bypass = d.dram_banks.iter().map(|b| b.max_bypass).max().unwrap_or(0);
        if max_bypass > rm.starvation_cap {
            errors.push(format!(
                "{cell}: a DRAM request was bypassed {max_bypass} times, cap {}",
                rm.starvation_cap
            ));
        }
    }
}

/// The exact simulated counts, summed over `direct` cells.
pub fn push_sim_counts(r: &mut Report, direct: &[DirectCell]) {
    let mut c = [0u64; 18];
    for d in direct {
        let res = &d.results;
        for core in &res.per_core {
            c[0] += core.l1d.accesses;
            c[1] += core.l1d.misses;
            c[2] += core.l2.misses;
            c[3] += core.llc.demand_accesses;
            c[4] += core.llc.demand_misses;
            c[5] += core.llc.bypassed_fills;
            c[6] += core.llc.writebacks_in;
        }
        c[7] += res.dram.reads;
        c[8] += res.dram.writes;
        c[9] += res.final_cycle;
        c[10] += res.llc_banks.iter().map(|b| b.requests).sum::<u64>();
        c[11] += res.llc_global.bank_queue_cycles;
        c[12] += res.llc_global.bank_admission_stall_cycles;
        c[13] += res.llc_global.mshr_stall_cycles;
        c[14] += d.dram_banks.iter().map(|b| b.row_hits).sum::<u64>();
        c[15] += d.dram_banks.iter().map(|b| b.row_conflicts).sum::<u64>();
        c[16] += d.dram_banks.iter().map(|b| b.starvation_pins).sum::<u64>();
        c[17] += res.llc_global.nuca_cycles;
    }
    let names = [
        "accesses",
        "l1d_misses",
        "l2_misses",
        "llc_demand_accesses",
        "llc_demand_misses",
        "llc_bypassed_fills",
        "llc_writebacks_in",
        "dram_reads",
        "dram_writes",
        "sim_cycles",
        "bank_requests",
        "bank_queue_cycles",
        "bank_admission_stall_cycles",
        "mshr_stall_cycles",
        "dram_row_hits",
        "dram_row_conflicts",
        "starvation_pins",
        "nuca_cycles",
    ];
    for (name, v) in names.iter().zip(c) {
        r.push(&format!("cache_sim.{name}"), v);
    }
}

/// Distinct benchmarks of `mixes`: the alone runs a fresh process makes for them.
pub fn alone_runs(mixes: &[WorkloadMix]) -> usize {
    let mut names: Vec<&String> = mixes.iter().flat_map(|m| &m.benchmarks).collect();
    names.sort();
    names.dedup();
    names.len()
}

/// The memo key `sweepd` would give cell `e` (with a placeholder corpus hash).
pub fn memo_key(config: &SystemConfig, instructions: u64, seed: u64, e: &MixEvaluation) -> MemoKey {
    MemoKey {
        corpus_hash: 0,
        policy: e.policy_label.clone(),
        llc_sets: config.llc.geometry.num_sets() as u32,
        cores: config.num_cores as u32,
        instructions,
        seed,
        mix_id: e.mix_id,
    }
}
