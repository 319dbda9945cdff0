//! `inl-sched` — run the auto-scheduler over the zoo (or one program)
//! and print what it chose and why it was cheap to find.
//!
//! ```text
//! inl-sched                                # sweep the whole zoo, print the table
//! inl-sched --program matmul --show       # one program: chosen pseudocode, the regret report
//! inl-sched --json target/BENCH_sched.json # also write the CI gate document
//! inl-sched --explain-json target/sched-explain.json  # decision provenance
//! ```
//!
//! The search runs with `SchedConfig::default()`; `--budget` is the only
//! way to move a default, `--reps` (default 3) is the sweep's timed runs
//! per variant (no environment variable is read), and a flag whose value
//! is missing or unparsable prints the usage line and exits 2. A program
//! whose sweep fails is skipped — the table and JSON cover the rest, with
//! the failure recorded as an `errors` row — and the run exits 1 at the
//! end, as it does when any chosen variant fails the bitwise-equivalence
//! check against its source program.

use inl_linalg::InlError;
use inl_sched::sweep::{bench_json, render_regret, render_table, sweep_program, sweep_targets};
use inl_sched::SchedConfig;
use std::process::ExitCode;

const USAGE: &str = "usage: inl-sched [--program NAME] [--json PATH] \
                     [--explain-json PATH] [--budget N] [--reps N] [--show]";

/// The value following `flag`; the next flag (or nothing) is not a value.
fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = value(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not a non-negative integer"))
}

fn main() -> ExitCode {
    let mut cfg = SchedConfig::default();
    let mut reps: usize = 3;
    let mut json_path: Option<String> = None;
    let mut explain_path: Option<String> = None;
    let mut program: Option<String> = None;
    let mut show = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let parsed = match a.as_str() {
            "--json" => value(&mut args, &a).map(|v| json_path = Some(v)),
            "--explain-json" => value(&mut args, &a).map(|v| explain_path = Some(v)),
            "--program" => value(&mut args, &a).map(|v| program = Some(v)),
            "--budget" => number(&mut args, &a).map(|n| cfg.budget = n),
            "--reps" => number(&mut args, &a).map(|n| reps = n),
            "--show" => {
                show = true;
                Ok(())
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(msg) = parsed {
            eprintln!("inl-sched: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if explain_path.is_some() {
        inl_obs::set_explain_enabled(true);
    }

    let mut targets = sweep_targets();
    if let Some(name) = &program {
        if !targets.iter().any(|(n, _, _)| n == name) {
            eprintln!("unknown program '{name}'; the zoo:");
            for (n, _, _) in &targets {
                eprintln!("  {n}");
            }
            return ExitCode::FAILURE;
        }
        targets.retain(|(n, _, _)| n == name);
    }

    // A failing program is recorded and skipped, never fatal mid-sweep:
    // the remaining targets still get scheduled, the table and JSON carry
    // whatever succeeded, and the failures surface as error rows plus a
    // non-zero exit at the end.
    let mut entries = Vec::with_capacity(targets.len());
    let mut failures: Vec<(String, InlError)> = Vec::new();
    for (name, ctor, params) in &targets {
        match sweep_program(name, &ctor(), params, &cfg, reps) {
            Ok(e) => entries.push(e),
            Err(err) => {
                eprintln!("{name}: scheduling failed: {err}");
                failures.push((name.to_string(), err));
            }
        }
    }

    print!("{}", render_table(&entries));
    if show {
        for (name, _, params) in &targets {
            // pair by name, not by position: a failed target has no entry
            let Some(e) = entries.iter().find(|e| &e.name == name) else {
                continue;
            };
            println!("\n{name} (params {params:?}): chosen {}", e.chosen);
            println!("{}", e.chosen_pseudocode);
            println!("variants by cost:");
            print!("{}", render_regret(e));
        }
    }

    if let Some(path) = &json_path {
        if let Err(e) = bench_json(&entries, &failures).write_file(path) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    if let Some(path) = &explain_path {
        if let Err(e) = inl_obs::explain::write_json(path) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    let broken: Vec<_> = entries
        .iter()
        .filter(|e| !e.bitwise_identical)
        .map(|e| e.name.as_str())
        .collect();
    if !broken.is_empty() {
        eprintln!("BITWISE FAILURE: chosen variant diverged for {broken:?}");
        return ExitCode::FAILURE;
    }
    if !failures.is_empty() {
        eprintln!(
            "{} of {} programs failed to schedule (see error rows above)",
            failures.len(),
            targets.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
