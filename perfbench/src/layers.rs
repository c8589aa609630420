//! Outside-in layer timing: adapters around the simulator's two extension traits.
//!
//! Every core's `TraceSource` and the `LlcReplacementPolicy` built by
//! `PolicyKind::build_dispatch` are wrapped. An adapter counts every call and times a
//! sample of them, so the busy time of a layer is estimated without putting a clock read
//! on every access. The gaps between timed calls are drawn at random (mean `MEAN_GAP`):
//! sources refill power-of-two chunks and batches on a fixed period, and a fixed stride
//! sharing a factor with that period would never time a refill. Adapters only forward
//! calls, so the simulation they wrap is unchanged; the traced run checks that by digest.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cache_sim::replacement::{AccessContext, InsertionDecision, LineView, LlcReplacementPolicy};
use cache_sim::trace::{MemAccess, TraceSource};
use trace_io::{MappedStreamDecoder, MappedTrace};

use crate::common::{secs, Report};

/// Mean number of calls between two timed ones in a sampled pass.
pub const MEAN_GAP: u64 = 8;

/// Calls made, and the time of the sampled ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: u64,
    /// Calls left until the next timed one.
    countdown: u64,
    /// Mean gap between timed calls; 1 times every call.
    mean_gap: u64,
    /// xorshift64 state drawing the gaps (fixed seeds, so counts repeat run to run).
    rng: u64,
}

impl Tally {
    fn sampler(mean_gap: u64, stream: u64) -> Tally {
        let mut t = Tally {
            mean_gap,
            rng: 0x9E37_79B9_7F4A_7C15 ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
            ..Tally::default()
        };
        t.countdown = t.next_gap();
        t
    }

    /// A gap drawn uniformly from `1..=2 * mean_gap - 1`.
    fn next_gap(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        1 + self.rng % (2 * self.mean_gap - 1)
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.next_gap();
            let t = Instant::now();
            let r = f();
            self.sampled_ns += t.elapsed().as_nanos() as u64;
            self.sampled += 1;
            r
        } else {
            f()
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Estimated seconds spent in all calls: mean sampled call time, less the timer's
    /// own cost, times the number of calls.
    pub fn est_s(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns as f64 / self.sampled as f64 - timer_ns).max(0.0);
        per_call * self.calls as f64 / 1e9
    }
}

/// Totals collected by the adapters of one traced run.
#[derive(Debug)]
pub struct LayerTotals {
    /// Mean gap between timed calls of the adapters that report here.
    mean_gap: u64,
    /// Adapters created so far; each draws its gaps from its own stream.
    adapters: u64,
    /// `next_access` calls on corpus-backed (trace-io) sources.
    pub trace_io: Tally,
    /// `next_access` calls on live synthetic (workloads) sources.
    pub workloads: Tally,
    /// Policy hook calls, per policy label.
    pub hooks: BTreeMap<String, Tally>,
    /// Insertion decisions that bypassed the LLC.
    pub bypasses: u64,
}

pub type Shared = Arc<Mutex<LayerTotals>>;

impl LayerTotals {
    /// Totals for adapters that time one call in `mean_gap` on average (1: every call).
    pub fn shared(mean_gap: u64) -> Shared {
        Arc::new(Mutex::new(LayerTotals {
            mean_gap,
            adapters: 0,
            trace_io: Tally::default(),
            workloads: Tally::default(),
            hooks: BTreeMap::new(),
            bypasses: 0,
        }))
    }

    fn tally(totals: &Shared) -> Tally {
        let mut t = totals.lock().unwrap();
        t.adapters += 1;
        Tally::sampler(t.mean_gap, t.adapters)
    }

    /// Estimated seconds in sources (both layers) and in policy hooks.
    fn source_and_hook_s(&self, timer_ns: f64) -> (f64, f64) {
        let sources = self.trace_io.est_s(timer_ns) + self.workloads.est_s(timer_ns);
        let hooks = self.hooks.values().map(|t| t.est_s(timer_ns)).sum();
        (sources, hooks)
    }

    /// Relative error of a sampled pass's source and hook estimates against a fully
    /// timed pass over the same cells: `trace.sample_error.sources` and `.hooks`.
    pub fn report_sample_error(&self, full: &LayerTotals, r: &mut Report, timer_ns: f64) {
        let (sources, hooks) = self.source_and_hook_s(timer_ns);
        let (full_sources, full_hooks) = full.source_and_hook_s(timer_ns);
        let error = |est: f64, exact: f64| (est / exact - 1.0).abs();
        r.push("trace.sample_error.sources", error(sources, full_sources));
        r.push("trace.sample_error.hooks", error(hooks, full_hooks));
    }

    /// Report the source and policy layers, and `cache_sim`'s own time: the summed
    /// `run_s` of the traced cells less the time spent in sources and hooks.
    pub fn report(&self, r: &mut Report, timer_ns: f64, run_s: f64) {
        let trace_io_s = self.trace_io.est_s(timer_ns);
        let workloads_s = self.workloads.est_s(timer_ns);
        let hook_s: f64 = self.hooks.values().map(|t| t.est_s(timer_ns)).sum();
        let self_s = run_s - trace_io_s - workloads_s - hook_s;
        let accesses = self.trace_io.calls + self.workloads.calls;
        r.push("trace_io.records", self.trace_io.calls);
        r.push("trace_io.next_access_s", trace_io_s);
        r.push("workloads.records", self.workloads.calls);
        r.push("workloads.next_access_s", workloads_s);
        r.push("cache_sim.run_s", run_s);
        r.push("cache_sim.self_s", self_s);
        r.push(
            "cache_sim.ns_per_access",
            self_s * 1e9 / accesses.max(1) as f64,
        );
        let calls: u64 = self.hooks.values().map(|t| t.calls).sum();
        r.push("llc_policies.hook_calls", calls);
        r.push("llc_policies.bypasses", self.bypasses);
        r.push("llc_policies.hook_s", hook_s);
        for (label, tally) in &self.hooks {
            r.push(
                &format!("llc_policies.hook_s.{label}"),
                tally.est_s(timer_ns),
            );
        }
    }
}

/// Millions of records per second of a standalone pass that drains every core of
/// every file through the zero-copy decoder, with no simulation (0 with no files).
pub fn decode_mrps<'a>(paths: impl IntoIterator<Item = &'a Path>) -> Result<f64, String> {
    let mut records = 0u64;
    let t = Instant::now();
    for path in paths {
        let trace = Arc::new(MappedTrace::open(path).map_err(|e| e.to_string())?);
        let mut arena = Vec::new();
        for core in 0..trace.header().cores.len() {
            let mut decoder = MappedStreamDecoder::new(trace.clone(), core, 1 << 16)
                .map_err(|e| e.to_string())?;
            loop {
                let end = decoder.try_fill(&mut arena).map_err(|e| e.to_string())?;
                records += arena.len() as u64;
                if end {
                    break;
                }
            }
        }
    }
    if records == 0 {
        return Ok(0.0);
    }
    Ok(records as f64 / secs(t) / 1e6)
}

/// Which layer a wrapped source belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceLayer {
    TraceIo,
    Workloads,
}

pub struct TracedSource {
    inner: Box<dyn TraceSource>,
    layer: SourceLayer,
    tally: Tally,
    totals: Shared,
}

impl TracedSource {
    pub fn wrap(
        sources: Vec<Box<dyn TraceSource>>,
        layer: SourceLayer,
        totals: &Shared,
    ) -> Vec<Box<dyn TraceSource>> {
        sources
            .into_iter()
            .map(|inner| {
                Box::new(TracedSource {
                    inner,
                    layer,
                    tally: LayerTotals::tally(totals),
                    totals: totals.clone(),
                }) as Box<dyn TraceSource>
            })
            .collect()
    }
}

impl TraceSource for TracedSource {
    #[inline]
    fn next_access(&mut self) -> MemAccess {
        let inner = &mut self.inner;
        self.tally.time(|| inner.next_access())
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        let mut totals = self.totals.lock().unwrap();
        match self.layer {
            SourceLayer::TraceIo => totals.trace_io.add(&self.tally),
            SourceLayer::Workloads => totals.workloads.add(&self.tally),
        }
    }
}

pub struct TracedPolicy<P: LlcReplacementPolicy> {
    inner: P,
    label: String,
    tally: Tally,
    bypasses: u64,
    totals: Shared,
}

impl<P: LlcReplacementPolicy> TracedPolicy<P> {
    pub fn new(inner: P, label: &str, totals: &Shared) -> Self {
        TracedPolicy {
            inner,
            label: label.to_string(),
            tally: LayerTotals::tally(totals),
            bypasses: 0,
            totals: totals.clone(),
        }
    }
}

impl<P: LlcReplacementPolicy> LlcReplacementPolicy for TracedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    #[inline]
    fn on_access(&mut self, ctx: &AccessContext) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.on_access(ctx))
    }

    #[inline]
    fn on_hit(&mut self, ctx: &AccessContext, way: usize) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.on_hit(ctx, way))
    }

    #[inline]
    fn insertion_decision(&mut self, ctx: &AccessContext) -> InsertionDecision {
        let inner = &mut self.inner;
        let decision = self.tally.time(|| inner.insertion_decision(ctx));
        if decision.is_bypass() {
            self.bypasses += 1;
        }
        decision
    }

    #[inline]
    fn choose_victim(&mut self, ctx: &AccessContext, lines: &[LineView]) -> usize {
        let inner = &mut self.inner;
        self.tally.time(|| inner.choose_victim(ctx, lines))
    }

    #[inline]
    fn on_evict(&mut self, ctx: &AccessContext, evicted_block: u64, owner: usize) {
        let inner = &mut self.inner;
        self.tally
            .time(|| inner.on_evict(ctx, evicted_block, owner))
    }

    #[inline]
    fn on_fill(&mut self, ctx: &AccessContext, way: usize, decision: &InsertionDecision) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.on_fill(ctx, way, decision))
    }

    fn on_interval(&mut self) {
        let inner = &mut self.inner;
        self.tally.time(|| inner.on_interval())
    }
}

impl<P: LlcReplacementPolicy> Drop for TracedPolicy<P> {
    fn drop(&mut self) {
        let mut totals = self.totals.lock().unwrap();
        totals
            .hooks
            .entry(self.label.clone())
            .or_default()
            .add(&self.tally);
        totals.bypasses += self.bypasses;
    }
}
