//! `inl-explain`: render, query, and diff decision-provenance artifacts.
//!
//! ```sh
//! # human-readable "why" report of a whole artifact
//! inl-explain render target/inl-explain.json
//! # why was the JKLI order rejected, and by which dependence?
//! inl-explain query target/inl-explain.json --session JKLI --verdict reject
//! # did any decision change between two runs?
//! inl-explain diff old.json new.json
//! ```
//!
//! `render` and `query` share the filter flags `--stage <name>`,
//! `--subject <substring>`, `--verdict <accept|reject|info>`, and
//! `--session <id-or-label-substring>`; `query` additionally prints the
//! match count first. `diff` matches records across artifacts by
//! (session label, stage, subject) and exits 1 when any verdict set
//! changed, appeared, or disappeared.
//!
//! Exit status: 0 ok (and no differences for `diff`), 1 differences
//! found, 2 usage or parse errors. The schema, reader, renderer and differ
//! are [`inl_obs::explain`]'s.

use inl_obs::explain::{diff, load, render, Filter};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: inl-explain render <artifact.json> [filters]\n\
         \x20      inl-explain query  <artifact.json> [filters]\n\
         \x20      inl-explain diff   <old.json> <new.json>\n\
         filters: --stage <name> --subject <substring> \
         --verdict <accept|reject|info> --session <id-or-label>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let mut paths: Vec<String> = Vec::new();
    let mut filter = Filter::default();
    while let Some(a) = args.next() {
        let field = match a.as_str() {
            "--stage" => &mut filter.stage,
            "--subject" => &mut filter.subject,
            "--session" => &mut filter.session,
            "--verdict" => match args.next().map(|v| v.parse()) {
                Some(Ok(v)) => {
                    filter.verdict = Some(v);
                    continue;
                }
                _ => return usage(),
            },
            _ if a.starts_with('-') => return usage(),
            _ => {
                paths.push(a);
                continue;
            }
        };
        let Some(value) = args.next() else {
            return usage();
        };
        *field = Some(value);
    }

    match cmd.as_str() {
        "render" | "query" => {
            let [path] = paths.as_slice() else {
                return usage();
            };
            let artifact = match load(path) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("inl-explain: {e}");
                    return ExitCode::from(2);
                }
            };
            if cmd == "query" {
                let n = artifact
                    .records
                    .iter()
                    .filter(|r| filter.matches(&artifact, r))
                    .count();
                println!("{n} matching record(s) in {path}");
            }
            print!("{}", render(&artifact, &filter));
            ExitCode::SUCCESS
        }
        "diff" => {
            if !filter.is_empty() {
                return usage();
            }
            let [old_path, new_path] = paths.as_slice() else {
                return usage();
            };
            let loaded = load(old_path).and_then(|o| load(new_path).map(|n| (o, n)));
            let (old, new) = match loaded {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("inl-explain: {e}");
                    return ExitCode::from(2);
                }
            };
            let (text, ndiff) = diff(&old, &new);
            println!("inl-explain diff {old_path} -> {new_path}");
            print!("{text}");
            if ndiff > 0 {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
