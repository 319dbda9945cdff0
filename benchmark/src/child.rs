//! One measuring process. The controller starts a fresh child for every
//! round of a workload, so each round begins with cold caches and has its
//! own peak RSS; cold figures never come from a cache-clear call. The child
//! sets the workload up, runs its unit operation for the time it was given,
//! checks every output, and prints its report as JSON for the controller.

use crate::common::{peak_rss_mb, unix_ns};
use crate::rng::SplitMix64;
use crate::stats::quietest;
use crate::trace::Tracer;
use crate::workloads::{self, Workload};
use inl_obs::Json;
use std::collections::BTreeMap;

/// What a child was asked to do (its command line, parsed).
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: TraceMode,
    pub smoke: bool,
    /// `sched_deep` only: the one program this child schedules.
    pub program: Option<String>,
    /// Controller's wall clock just before the spawn.
    pub spawned_at_ns: u128,
}

/// How much of a child's run is traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceMode {
    /// Tracing off throughout: the run end-to-end metrics come from.
    Off,
    /// Ops alternately untraced and traced, in one warm process; the
    /// difference of the two is the tracing overhead.
    Both,
    /// Traced from the first instruction, set-up included. For operations
    /// that are cold by design and so cannot run twice in one process.
    Whole,
}

/// State a workload sees while it runs.
pub struct Ctx {
    pub trace: bool,
    pub smoke: bool,
    pub program: Option<String>,
    pub rng: SplitMix64,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failed checks, for the human reading the output.
    pub failures: Vec<String>,
}

impl Ctx {
    /// Count one checked operation; `result` says whether its output was right.
    pub fn check(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{}: {why}", what()));
            }
        }
    }
}

/// What one unit operation reports back to the timing loop.
pub struct OpTiming {
    /// Wall time of the operation, excluding its output checks.
    pub wall_s: f64,
    /// (part, ms): one sample per part of a pass-shaped op (each program
    /// scheduled, order compiled, kernel run). A serve op is one batch of
    /// requests; its parts are the distinct requests of the mix, and every
    /// round trip of the batch is a sample of its request.
    pub samples: Vec<(usize, f64)>,
}

/// A workload as the timing loop drives it.
pub trait Load {
    /// Names of the op's parts; `OpTiming::samples` indexes into this.
    fn parts(&self) -> Vec<String>;
    /// One unit operation, timed and checked.
    fn op(&mut self, ctx: &mut Ctx) -> OpTiming;
    /// Size of the generated code (or response payload) of one op; exact.
    fn code_bytes(&self) -> u64;
    /// Fingerprint of every output that must repeat bit for bit.
    fn digest(&self) -> String;
    /// Per-layer metrics of the traced phase, plus the probes of single
    /// layers that no operation isolates.
    fn layers(&mut self, ctx: &mut Ctx, out: &mut BTreeMap<String, f64>);
    /// Stop what set-up started (the server) and wait for it.
    fn finish(self: Box<Self>) {}
}

/// Samples of one phase, per part.
struct Phase {
    parts: Vec<Vec<f64>>,
    ops: usize,
    /// `VmHWM` when the phase's first op had ended: the peak after a fixed
    /// amount of work. Read at the end of the run it would grow with the
    /// number of ops the time allowed, 22 or 26 MB on `sched_shallow`.
    rss_mb: f64,
}

impl Phase {
    fn new(nparts: usize) -> Phase {
        Phase {
            parts: vec![Vec::new(); nparts],
            ops: 0,
            rss_mb: 0.0,
        }
    }

    fn add(&mut self, t: OpTiming) {
        for (part, ms) in t.samples {
            self.parts[part].push(ms);
        }
        if self.ops == 0 {
            self.rss_mb = peak_rss_mb();
        }
        self.ops += 1;
    }

    /// The op time the run reports: the sum over parts of each part's
    /// quietest sample (see `stats::quietest`). A burst of outside noise
    /// lengthens some parts of some passes; taking each part where it ran
    /// undisturbed drops the burst, where any statistic of whole-pass times
    /// would keep every pass a burst touched.
    fn op_ms(&self) -> f64 {
        self.parts
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| quietest(p))
            .sum()
    }
}

/// Repeat the op until the time is used up. A further op starts only if the
/// longest one so far still fits, so a phase does not overrun by a whole
/// pass; at least one op always runs.
fn run_phase(load: &mut dyn Load, ctx: &mut Ctx, seconds: f64) -> Phase {
    let mut phase = Phase::new(load.parts().len());
    let (mut used, mut longest) = (0.0f64, 0.0f64);
    while phase.ops == 0 || used + longest <= seconds {
        let t = load.op(ctx);
        used += t.wall_s;
        longest = longest.max(t.wall_s);
        phase.add(t);
    }
    phase
}

/// The child's report.
pub struct ChildReport {
    pub setup_s: f64,
    /// Per part, its time in the first op of this process, in ms.
    pub cold: BTreeMap<String, f64>,
    /// Per part, its samples in ms.
    pub parts: BTreeMap<String, Vec<f64>>,
    pub rss_mb: f64,
    pub code_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: String,
    pub layers: BTreeMap<String, f64>,
    pub spans: Json,
}

pub fn run(args: ChildArgs) -> ChildReport {
    let whole = args.trace == TraceMode::Whole;
    if whole {
        inl_obs::set_enabled(true);
    }
    let mut ctx = Ctx {
        trace: args.trace != TraceMode::Off,
        smoke: args.smoke,
        program: args.program,
        rng: SplitMix64::new(args.seed),
        tracer: Tracer::new(whole),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let (mut load, cold) = workloads::set_up(args.workload, &mut ctx);
    let setup_s = unix_ns().saturating_sub(args.spawned_at_ns) as f64 / 1e9;
    let names = load.parts();

    let mut layers = BTreeMap::new();
    let phase = if args.trace == TraceMode::Both {
        // Same process, same warm state, ops taken in turn: one untraced,
        // one with the harness spans and the program's own telemetry on, so
        // that both sides meet the same weather. The difference is what
        // tracing costs on this workload.
        let mut plain = Phase::new(names.len());
        let mut traced = Phase::new(names.len());
        ctx.tracer = Tracer::new(true);
        let (mut used, mut longest) = (0.0f64, 0.0f64);
        while traced.ops == 0 || used + 2.0 * longest <= args.seconds {
            for on in [false, true] {
                ctx.tracer.set_on(on);
                inl_obs::set_enabled(on);
                let t = load.op(&mut ctx);
                used += t.wall_s;
                longest = longest.max(t.wall_s);
                if on { &mut traced } else { &mut plain }.add(t);
            }
        }
        layers.insert(
            format!("obs.trace_overhead_pct.{}", args.workload.name()),
            (traced.op_ms() - plain.op_ms()) / plain.op_ms() * 100.0,
        );
        traced
    } else {
        run_phase(load.as_mut(), &mut ctx, args.seconds)
    };
    let cache = inl_poly::cache::stats();
    if ctx.trace {
        load.layers(&mut ctx, &mut layers);
        inl_obs::set_enabled(false);
        layers.insert("poly.cache.hit_rate".into(), cache.hit_rate());
        layers.insert(
            "poly.cache.lookups".into(),
            (cache.hits + cache.misses) as f64,
        );
        layers.insert("poly.cache.entries".into(), cache.entries as f64);
    }
    let by_name = |values: Vec<Vec<f64>>| -> BTreeMap<String, Vec<f64>> {
        names
            .iter()
            .cloned()
            .zip(values)
            .filter(|(_, v)| !v.is_empty())
            .collect()
    };
    let rss_mb = phase.rss_mb;
    let parts = by_name(phase.parts);
    // A workload whose every op is cold has no separate cold pass: its
    // first (and only) op is the cold figure.
    let cold: BTreeMap<String, f64> = match cold {
        Some(t) => {
            let mut first = Phase::new(names.len());
            first.add(t);
            by_name(first.parts)
                .into_iter()
                .map(|(k, v)| (k, v.iter().sum()))
                .collect()
        }
        None => parts.iter().map(|(k, v)| (k.clone(), v[0])).collect(),
    };
    let code_bytes = load.code_bytes();
    let digest = load.digest();
    load.finish();
    ChildReport {
        setup_s,
        cold,
        parts,
        rss_mb,
        code_bytes,
        attempted: ctx.attempted,
        failed: ctx.failed,
        failures: ctx.failures,
        digest,
        layers,
        spans: ctx.tracer.to_json(),
    }
}

fn floats(v: &[f64]) -> Json {
    Json::Array(v.iter().map(|&x| Json::Float(x)).collect())
}

pub fn num(j: &Json) -> Option<f64> {
    match j {
        Json::Int(n) => Some(*n as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

impl ChildReport {
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.insert("setup_s", Json::Float(self.setup_s));
        let mut cold = Json::object();
        for (k, v) in &self.cold {
            cold.insert(k.clone(), Json::Float(*v));
        }
        o.insert("cold", cold);
        let mut parts = Json::object();
        for (k, v) in &self.parts {
            parts.insert(k.clone(), floats(v));
        }
        o.insert("parts", parts);
        o.insert("rss_mb", Json::Float(self.rss_mb));
        o.insert("code_bytes", Json::Int(self.code_bytes));
        o.insert("attempted", Json::Int(self.attempted));
        o.insert("failed", Json::Int(self.failed));
        o.insert(
            "failures",
            Json::Array(self.failures.iter().cloned().map(Json::Str).collect()),
        );
        o.insert("digest", Json::Str(self.digest.clone()));
        let mut layers = Json::object();
        for (k, v) in &self.layers {
            layers.insert(k.clone(), Json::Float(*v));
        }
        o.insert("layers", layers);
        o.insert("spans", self.spans.clone());
        o
    }

    pub fn from_json(j: &Json) -> Result<ChildReport, String> {
        let f = |k: &str| {
            j.get(k)
                .and_then(num)
                .ok_or_else(|| format!("child report lacks number '{k}'"))
        };
        let list = |k: &str| match j.get(k) {
            Some(Json::Array(items)) => Ok(items),
            _ => Err(format!("child report lacks list '{k}'")),
        };
        let map = |k: &str| match j.get(k) {
            Some(Json::Object(m)) => Ok(m),
            _ => Err(format!("child report lacks object '{k}'")),
        };
        let numbers = |j: &Json| match j {
            Json::Array(items) => items.iter().filter_map(num).collect(),
            _ => Vec::new(),
        };
        Ok(ChildReport {
            setup_s: f("setup_s")?,
            cold: map("cold")?
                .iter()
                .map(|(k, v)| (k.clone(), num(v).unwrap_or(0.0)))
                .collect(),
            parts: map("parts")?
                .iter()
                .map(|(k, v)| (k.clone(), numbers(v)))
                .collect(),
            rss_mb: f("rss_mb")?,
            code_bytes: f("code_bytes")? as u64,
            attempted: f("attempted")? as u64,
            failed: f("failed")? as u64,
            failures: list("failures")?
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect(),
            digest: j
                .get("digest")
                .and_then(Json::as_str)
                .ok_or("child report lacks 'digest'")?
                .to_string(),
            layers: map("layers")?
                .iter()
                .map(|(k, v)| (k.clone(), num(v).unwrap_or(0.0)))
                .collect(),
            spans: j.get("spans").cloned().unwrap_or(Json::Array(Vec::new())),
        })
    }
}
