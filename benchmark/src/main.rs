//! `inl-benchmark`: one benchmark for the whole system.
//!
//! ```sh
//! benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//! benchmark/run.sh --traced            # every workload, untraced then traced
//! benchmark/run.sh --check-repeat      # two untraced sets must agree
//! benchmark/run.sh --spread 10         # run-to-run spread of every metric
//! ```
//!
//! This process is the controller. It never measures anything itself: it
//! starts one child process per round of a workload (`child.rs`), collects
//! their reports, and turns them into the metrics listed in `metrics.rs`.

mod child;
mod common;
mod metrics;
mod rng;
mod stats;
mod trace;
mod workloads;

use child::{ChildArgs, ChildReport, TraceMode};
use inl_obs::Json;
use stats::{median, quietest};
use std::collections::BTreeMap;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

const DEFAULT_SEED: u64 = 20_260_928;
const DEFAULT_SECONDS: f64 = 8.0;

/// Refuse to run with any `INL_*` variable set. About twenty are read ad
/// hoc across obs, poly, vm, exec, sched and serve, and each would quietly
/// reconfigure the run being measured.
fn inl_env_guard(vars: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = vars.filter(|k| k.starts_with("INL_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with {} set: INL_* variables reconfigure the program under test; unset them",
            set.join(", ")
        ))
    }
}

struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    check_repeat: bool,
    spread: Option<usize>,
    smoke: bool,
    out: String,
    child: Option<ChildArgs>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        traced: false,
        check_repeat: false,
        spread: None,
        smoke: false,
        out: "target/benchmark".to_string(),
        child: None,
    };
    let (mut child, mut mode, mut program, mut spawned) = (None, TraceMode::Off, None, 0u128);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let workload = |v: &String| {
            Workload::from_name(v).ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("no workload '{v}'; the workloads are {}", names.join(", "))
            })
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(workload(value()?)?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                // 0 is what the controller gives a child that runs one op only
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => o.traced = true,
            "--check-repeat" => o.check_repeat = true,
            "--spread" => {
                let n: usize = value()?.parse().map_err(|e| format!("--spread: {e}"))?;
                if n < 2 {
                    return Err("--spread needs at least 2 runs".into());
                }
                o.spread = Some(n);
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = value()?.clone(),
            // the controller's private line to its children
            "--child" => child = Some(workload(value()?)?),
            "--child-trace" => {
                mode = match value()?.as_str() {
                    "off" => TraceMode::Off,
                    "both" => TraceMode::Both,
                    "whole" => TraceMode::Whole,
                    other => return Err(format!("--child-trace: '{other}'")),
                }
            }
            "--program" => program = Some(value()?.clone()),
            "--spawned-at" => {
                spawned = value()?.parse().map_err(|e| format!("--spawned-at: {e}"))?
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    o.child = child.map(|workload| ChildArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        trace: mode,
        smoke: o.smoke,
        program,
        spawned_at_ns: spawned,
    });
    Ok(o)
}

/// Start one child.
fn start(
    w: Workload,
    seed: u64,
    seconds: f64,
    mode: TraceMode,
    smoke: bool,
    program: Option<&str>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args([
            "--child-trace",
            match mode {
                TraceMode::Off => "off",
                TraceMode::Both => "both",
                TraceMode::Whole => "whole",
            },
        ]);
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(p) = program {
        cmd.args(["--program", p]);
    }
    cmd.args(["--spawned-at", &common::unix_ns().to_string()]);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("start child: {e}"))
}

/// Wait for a child to end and parse its report.
fn collect(w: Workload, child: Child) -> Result<ChildReport, String> {
    let out = child
        .wait_with_output()
        .map_err(|e| format!("wait for child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} child ended with {}", w.name(), out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))?;
    ChildReport::from_json(&Json::parse(&text)?)
}

/// Start one child, wait for it, and parse its report.
fn spawn(
    w: Workload,
    seed: u64,
    seconds: f64,
    mode: TraceMode,
    smoke: bool,
    program: Option<&str>,
) -> Result<ChildReport, String> {
    collect(w, start(w, seed, seconds, mode, smoke, program)?)
}

/// Untraced children, one per seed, all running at the same time.
fn spawn_together(
    w: Workload,
    seeds: impl Iterator<Item = u64>,
    seconds: f64,
    smoke: bool,
    program: Option<&str>,
) -> Result<Vec<ChildReport>, String> {
    let children: Vec<Result<Child, String>> = seeds
        .map(|seed| start(w, seed, seconds, TraceMode::Off, smoke, program))
        .collect();
    // wait for every child that started, whatever became of the others
    let reports: Vec<Result<ChildReport, String>> = children
        .into_iter()
        .map(|c| c.and_then(|c| collect(w, c)))
        .collect();
    reports.into_iter().collect()
}

/// One run of one workload, as reported.
struct RunResult {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// End-to-end metrics in `metrics::end_to_end()` order.
    end_to_end: Vec<f64>,
    layers: BTreeMap<String, f64>,
    spans: Vec<Json>,
    /// Sample counts, for the human reading the output.
    notes: Vec<String>,
    failures: Vec<String>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn deep_programs(smoke: bool) -> [&'static str; 3] {
    if smoke {
        ["simple_cholesky", "perfect_nest", "running_example"]
    } else {
        common::DEEP
    }
}

/// Run the children of one workload. Each inner list is one *group*: the
/// three one-program children of a `sched_deep` pass, or a single child (one
/// round of any other workload). A group is one complete set-up of the
/// workload.
fn run_children(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Vec<Vec<ChildReport>>, String> {
    let mut groups = Vec::new();
    // Where a child keeps to one CPU, two fresh processes run at a time, one
    // per CPU. The outside noise is a CPU's own (the slow spells of the two do
    // not coincide) and the processes share nothing, so the same wall time
    // holds twice the samples, and twice the chances that each part was seen
    // undisturbed: three cold schedules of `lu_kij` one after another came
    // out 5.9 % apart over twelve tries, three pairs 2.8 %, at the same
    // median.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let together = if w.two_at_a_time() { cpus.min(2) } else { 1 };
    if w == Workload::SchedDeep {
        let programs = deep_programs(smoke);
        if trace {
            let mut group = Vec::new();
            for p in programs {
                group.push(spawn(w, seed, 0.0, TraceMode::Whole, smoke, Some(p))?);
            }
            // A cold schedule cannot run twice in one process, so the
            // untraced side of the overhead figure is one more fresh
            // process, for the last program only.
            let last = programs[2];
            let plain = spawn(w, seed, 0.0, TraceMode::Off, smoke, Some(last))?;
            let (traced_ms, plain_ms) = (group[2].cold[last], plain.cold[last]);
            group[2].layers.insert(
                "obs.trace_overhead_pct.sched_deep".into(),
                (traced_ms - plain_ms) / plain_ms * 100.0,
            );
            groups.push(group);
            return Ok(groups);
        }
        // Whole passes while the longest pass so far still fits, and never
        // fewer than three: a cold schedule is one opaque call of seconds, so
        // another fresh process is the only way to see it undisturbed (ten
        // runs of two or three passes of single processes spread by 7 to
        // 21 %).
        let started = Instant::now();
        let (mut passes, mut longest) = (0u64, 0.0f64);
        while passes < 3 || started.elapsed().as_secs_f64() + longest <= seconds {
            let pass = Instant::now();
            let mut pass_groups: Vec<Vec<ChildReport>> =
                (0..together).map(|_| Vec::new()).collect();
            for p in programs {
                let seeds = std::iter::repeat_n(seed.wrapping_add(passes), together);
                let reports = spawn_together(w, seeds, 0.0, smoke, Some(p))?;
                for (group, report) in pass_groups.iter_mut().zip(reports) {
                    group.push(report);
                }
            }
            groups.extend(pass_groups);
            passes += 1;
            longest = longest.max(pass.elapsed().as_secs_f64());
        }
    } else if trace {
        groups.push(vec![spawn(w, seed, seconds, TraceMode::Both, smoke, None)?]);
    } else {
        // the measuring time is split among the rounds; those that run at
        // the same time share their part of it
        let rounds: Vec<u64> = (0..w.rounds() as u64).collect();
        let share = seconds * together as f64 / rounds.len() as f64;
        for chunk in rounds.chunks(together) {
            let seeds = chunk.iter().map(|round| seed.wrapping_add(*round));
            for report in spawn_together(w, seeds, share, smoke, None)? {
                groups.push(vec![report]);
            }
        }
    }
    Ok(groups)
}

/// Sum over the parts of each part's quietest pooled sample: the estimate
/// of one whole op that outside noise moves least (see `stats::quietest`).
fn sum_of_quietest(pools: &BTreeMap<String, Vec<f64>>) -> f64 {
    pools.values().map(|v| quietest(v)).sum()
}

fn run_workload(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let groups = run_children(w, seed, seconds, trace, smoke)?;
    let per_group = |f: fn(&ChildReport) -> f64| -> Vec<f64> {
        groups.iter().map(|g| g.iter().map(f).sum()).collect()
    };
    let children = || groups.iter().flatten();

    // pool every part's samples, and its cold time, over all the children
    let mut parts: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut cold: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for c in children() {
        for (name, samples) in &c.parts {
            parts.entry(name.clone()).or_default().extend(samples);
        }
        for (name, ms) in &c.cold {
            cold.entry(name.clone()).or_default().push(*ms);
        }
    }
    let op_ms = sum_of_quietest(&parts);
    // part by part, or whole from the child where it ran quietest
    let cold_ms = if w.parts_independent() {
        sum_of_quietest(&cold)
    } else {
        quietest(
            &children()
                .map(|c| c.cold.values().sum())
                .collect::<Vec<f64>>(),
        )
    };
    // per set-up, the largest of its processes
    let rss: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|c| c.rss_mb).fold(0.0, f64::max))
        .collect();
    let code_bytes = per_group(|c| c.code_bytes as f64);

    let mut attempted: u64 = children().map(|c| c.attempted).sum();
    let mut failed: u64 = children().map(|c| c.failed).sum();
    let mut failures: Vec<String> = children()
        .flat_map(|c| c.failures.iter().cloned())
        .collect();
    // determinism across processes: every group must have produced the same
    // outputs, byte for byte
    let digests: Vec<String> = groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|c| c.digest.as_str())
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    if groups.len() > 1 {
        attempted += 1;
        if digests.iter().any(|d| *d != digests[0])
            || code_bytes.iter().any(|b| *b != code_bytes[0])
        {
            failed += 1;
            failures.push("outputs differ between fresh processes".to_string());
        }
    }

    let end_to_end = vec![
        op_ms,
        // The quietest set-up, not the median one: a fresh process runs
        // wholly inside or outside a burst of outside noise (1.45 times
        // apart on `compile_orders`), so the median of a few set-ups flips
        // between the two with the share of time the host is noisy.
        // (Process by process: the three of a `sched_deep` pass share nothing.)
        (0..groups[0].len())
            .map(|i| quietest(&groups.iter().map(|g| g[i].setup_s).collect::<Vec<f64>>()))
            .sum(),
        quietest(&rss),
        code_bytes[0],
    ];
    let counts: Vec<usize> = parts.values().map(Vec::len).collect();
    let notes = vec![
        format!(
            "op = {}; op_ms sums, over its {} part(s), each part's quietest of {} to {} samples; the median of each part sums to {:.4} ms",
            w.op(),
            parts.len(),
            counts.iter().min().unwrap_or(&0),
            counts.iter().max().unwrap_or(&0),
            parts.values().map(|v| median(v)).sum::<f64>(),
        ),
        format!(
            "setup_s and peak_rss_mb are the quietest of {} fresh set-up(s)",
            groups.len(),
        ),
    ];

    // layer metrics: the mean over the children that reported each
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if trace {
        let mut seen: BTreeMap<String, (f64, u32)> = BTreeMap::new();
        for c in children() {
            for (k, v) in &c.layers {
                let e = seen.entry(k.clone()).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            }
        }
        layers = seen
            .into_iter()
            .map(|(k, (total, n))| (k, total / n as f64))
            .collect();
        layers.insert("cold.op_ms".to_string(), cold_ms);
    }
    let spans = children()
        .flat_map(|c| match &c.spans {
            Json::Array(items) => items.clone(),
            _ => Vec::new(),
        })
        .collect();
    Ok(RunResult {
        workload: w,
        attempted,
        failed,
        end_to_end,
        layers,
        spans,
        notes,
        failures,
    })
}

/// The metrics this run reports: end-to-end untraced, per-layer traced,
/// each as (name, value, unit).
fn reported(r: &RunResult, trace: bool) -> Vec<(String, f64, &'static str)> {
    if trace {
        metrics::per_layer()
            .into_iter()
            .map(|m| {
                let v = r
                    .layers
                    .get(&m.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (m.name, v, m.unit)
            })
            .collect()
    } else {
        metrics::end_to_end()
            .into_iter()
            .zip(&r.end_to_end)
            .map(|(m, &v)| (m.name, v, m.unit))
            .collect()
    }
}

/// `reported` without the padding: a traced run measures only the layers
/// its workload exercises; the zeros are for the driver's result line.
fn measured(r: &RunResult, trace: bool) -> Vec<(String, f64, &'static str)> {
    let mut all = reported(r, trace);
    all.retain(|(name, ..)| !trace || r.layers.contains_key(name));
    all
}

fn print_run(r: &RunResult, trace: bool) {
    let w = r.workload.name();
    println!(
        "== {w} ({})",
        if trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    );
    for (name, value, unit) in measured(r, trace) {
        println!("{w:<15} {name:<46} {value:>16.4} {unit}");
    }
    let share = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{w:<15} {:<46} {share:>16.4} ({} of {} checked ops)",
        "failed_share", r.failed, r.attempted
    );
    for note in &r.notes {
        println!("   {note}");
    }
    for f in &r.failures {
        println!("   FAILED {f}");
    }
}

/// The result line the driver reads: one JSON object on one line.
fn contract_line(r: &RunResult, trace: bool) -> String {
    let metrics: Vec<String> = reported(r, trace)
        .into_iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn host_json(seed: u64, seconds: f64) -> Json {
    let mut o = Json::object();
    o.insert("seed", Json::Int(seed));
    o.insert("default_seed", Json::Int(DEFAULT_SEED));
    o.insert("seconds", Json::Float(seconds));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.insert("nproc", Json::Int(nproc as u64));
    o.insert("rustc", Json::Str(command_line("rustc", &["--version"])));
    o.insert(
        "commit",
        Json::Str(command_line("git", &["rev-parse", "HEAD"])),
    );
    o.insert(
        "unix_time",
        Json::Int((common::unix_ns() / 1_000_000_000) as u64),
    );
    o
}

fn write_json(dir: &str, file: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    let path = format!("{dir}/{file}");
    std::fs::write(&path, doc.to_pretty_string()).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn results_json(results: &[RunResult], trace: bool) -> Json {
    let mut o = Json::object();
    for r in results {
        let mut w = Json::object();
        w.insert("correct", Json::Bool(r.correct()));
        w.insert("attempted", Json::Int(r.attempted));
        w.insert("failed", Json::Int(r.failed));
        let mut m = Json::object();
        for (name, value, unit) in measured(r, trace) {
            let mut entry = Json::object();
            entry.insert("value", Json::Float(value));
            entry.insert("unit", Json::Str(unit.to_string()));
            m.insert(name, entry);
        }
        w.insert("metrics", m);
        o.insert(r.workload.name(), w);
    }
    o
}

/// Run the chosen workloads once, print them, and write the result files.
fn run_set(o: &Options, seed: u64, trace: bool) -> Result<Vec<RunResult>, String> {
    let chosen: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    for w in chosen {
        let r = run_workload(w, seed, o.seconds, trace, o.smoke)?;
        print_run(&r, trace);
        if trace {
            write_json(
                &o.out,
                &format!("trace-{}.json", w.name()),
                &Json::Array(r.spans.clone()),
            )?;
        }
        results.push(r);
    }
    let mut doc = Json::object();
    doc.insert("host", host_json(seed, o.seconds));
    doc.insert("workloads", results_json(&results, trace));
    write_json(
        &o.out,
        if trace { "layers.json" } else { "result.json" },
        &doc,
    )?;
    Ok(results)
}

/// Bounds of the end-to-end metrics, read from `BENCHMARK.json` in the
/// current directory (the repository root).
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text)?;
    let Some(Json::Array(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json lacks end_to_end".into());
    };
    Ok(items
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                child::num(m.get("bound")?)?,
            ))
        })
        .collect())
}

/// Two untraced sets of runs of the same code must agree: every end-to-end
/// metric within its own bound, exact counts and failures exactly.
fn check_repeat(o: &Options) -> Result<bool, String> {
    let bounds = bounds()?;
    let first = run_set(o, o.seed, false)?;
    let second = run_set(o, o.seed, false)?;
    let mut ok = true;
    println!("== repeat check: two sets of runs of the same code");
    println!(
        "{:<15} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "apart", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for (i, m) in metrics::end_to_end().iter().enumerate() {
            let (x, y) = (a.end_to_end[i], b.end_to_end[i]);
            let apart = (x - y).abs() / x.min(y);
            let bound = *bounds
                .get(&m.name)
                .ok_or_else(|| format!("no bound for {}", m.name))?;
            let agrees = if m.unit == "count" {
                x == y
            } else {
                apart <= bound
            };
            ok &= agrees;
            println!(
                "{:<15} {:<12} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{}",
                a.workload.name(),
                m.name,
                apart * 100.0,
                bound * 100.0,
                if agrees { "" } else { "  DISAGREE" }
            );
        }
        if a.failed != 0 || b.failed != 0 {
            ok = false;
            println!(
                "{:<15} failed checks: {} and {}",
                a.workload.name(),
                a.failed,
                b.failed
            );
        }
    }
    Ok(ok)
}

/// Run the untraced benchmark `n` times, each with another seed, and print
/// for every end-to-end metric its median and its spread: the distance
/// between the first and third quartile of the `n` values as a share of
/// their median, computed as the driver computes it. The bounds in
/// `BENCHMARK.json` were set from this table; a spread above a third of its
/// bound is marked.
fn spread_table(o: &Options, n: usize) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut sets = Vec::new();
    for i in 0..n {
        sets.push(run_set(o, o.seed.wrapping_add(1000 * i as u64), false)?);
    }
    println!("== spread of {n} runs, each with another seed");
    println!(
        "{:<15} {:<12} {:>14} {:>9} {:>7}",
        "workload", "metric", "median", "spread", "bound"
    );
    for (w, first) in sets[0].iter().enumerate() {
        for (i, m) in metrics::end_to_end().iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|set| set[w].end_to_end[i]).collect();
            let spread = stats::spread(&values);
            let bound = *bounds
                .get(&m.name)
                .ok_or_else(|| format!("no bound for {}", m.name))?;
            println!(
                "{:<15} {:<12} {:>14.4} {:>8.2}% {:>6.0}%{}",
                first.workload.name(),
                m.name,
                median(&values),
                spread * 100.0,
                bound * 100.0,
                if spread > bound / 3.0 {
                    "  above a third of the bound"
                } else {
                    ""
                }
            );
        }
    }
    Ok(sets.iter().flatten().all(RunResult::correct))
}

fn real_main() -> Result<bool, String> {
    inl_env_guard(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()))?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = parse(&args)?;
    if let Some(child) = o.child {
        print!("{}", child::run(child).to_json().to_pretty_string());
        return Ok(true);
    }
    println!(
        "inl-benchmark: seed {} (default {DEFAULT_SEED}), {} s per workload{}",
        o.seed,
        o.seconds,
        if o.smoke { ", smoke scale" } else { "" }
    );
    if o.check_repeat {
        return check_repeat(&o);
    }
    if let Some(n) = o.spread {
        return spread_table(&o, n);
    }
    let mut results = run_set(&o, o.seed, o.trace)?;
    if o.traced && !o.trace {
        results.extend(run_set(&o, o.seed, true)?);
    }
    let correct = results.iter().all(RunResult::correct);
    // asked for one workload in one mode: end with the driver's result line
    if let (Some(_), false) = (o.workload, o.traced) {
        println!("{}", contract_line(&results[0], o.trace));
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("inl-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_inl_variable_stops_the_run() {
        let env = |names: &[&str]| {
            names
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(inl_env_guard(env(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
        assert!(inl_env_guard(env(&["XINL_OBS", "inl_obs"])).is_ok());
        let err = inl_env_guard(env(&["PATH", "INL_POLY_CACHE", "INL_SCHED_THREADS"])).unwrap_err();
        assert!(
            err.contains("INL_POLY_CACHE") && err.contains("INL_SCHED_THREADS"),
            "{err}"
        );
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload serve_light --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::ServeLight));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 2.5, true));
        assert_eq!(parse(&[]).unwrap().seed, DEFAULT_SEED);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }
}
