//! `inl-client` — one-shot requests against a running `inl-serve`.
//!
//! ```sh
//! inl-client [--addr HOST:PORT] [--json] [--telemetry] <command> [args]
//!
//! inl-client compile <program> [label]      # pseudocode or rejection
//! inl-client run <prog> <N> [M ...] [--order LABEL] [--backend vm|interp]
//! inl-client explain <program> <label>      # why legal / why rejected
//! inl-client schedule <program>             # auto-schedule: chosen variant
//! inl-client stats                          # memo + transport counters
//! inl-client metrics                        # sliding-window latency/rates
//! inl-client shutdown                       # graceful stop
//! ```
//!
//! A label is a variant label as the scheduler prints it (`KJLI`,
//! `K.I2.J.I`, `tile(L@16)/K.Lo.J.L.I`; see `inl_core::recipe`).
//! Default output is human-readable; `--json` prints the raw response
//! JSON exactly as it came off the wire. `--telemetry` asks the server
//! for the per-request capture section on compile/run/explain and
//! prints it after the answer. Exit code 0 on any well-formed response
//! that is not an `error`, 2 on a typed error response, 1 on transport
//! failure or bad usage.

use inl_serve::{BackendChoice, Client, CompileOutcome, Request, Response};

fn usage() -> ! {
    eprintln!(
        "usage: inl-client [--addr HOST:PORT] [--json] [--telemetry] \
         (compile <prog> [label] | run <prog> <N>.. [--order LABEL] [--backend vm|interp] | \
         explain <prog> <label> | schedule <prog> | stats | metrics | shutdown)"
    );
    std::process::exit(1);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut json_output = false;
    let mut telemetry = false;
    let mut positional: Vec<String> = Vec::new();
    let mut order: Option<String> = None;
    let mut backend = BackendChoice::Vm;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| usage()),
            "--json" => json_output = true,
            "--telemetry" => telemetry = true,
            "--order" => order = Some(args.next().unwrap_or_else(|| usage())),
            "--backend" => {
                backend = match args.next().as_deref() {
                    Some("vm") => BackendChoice::Vm,
                    Some("interp") => BackendChoice::Interp,
                    _ => usage(),
                }
            }
            _ => positional.push(a),
        }
    }
    let Some(command) = positional.first().cloned() else {
        usage()
    };
    let rest = &positional[1..];

    let request = match command.as_str() {
        "compile" => match rest {
            [prog] => Request::Compile {
                program: prog.clone(),
                order: order.clone(),
                telemetry,
            },
            [prog, ord] => Request::Compile {
                program: prog.clone(),
                order: Some(ord.clone()),
                telemetry,
            },
            _ => usage(),
        },
        "run" => {
            let [prog, params @ ..] = rest else { usage() };
            let parsed: Option<Vec<u32>> = params.iter().map(|p| p.parse().ok()).collect();
            let Some(params) = parsed else { usage() };
            if params.is_empty() {
                usage();
            }
            Request::Run {
                program: prog.clone(),
                params,
                order: order.clone(),
                backend,
                telemetry,
            }
        }
        "explain" => match rest {
            [prog, ord] => Request::Explain {
                program: prog.clone(),
                order: Some(ord.clone()),
                telemetry,
            },
            [prog] => Request::Explain {
                program: prog.clone(),
                order: order.clone(),
                telemetry,
            },
            _ => usage(),
        },
        "schedule" => match rest {
            [prog] => Request::Schedule {
                program: prog.clone(),
                telemetry,
            },
            _ => usage(),
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "shutdown" => Request::Shutdown,
        _ => usage(),
    };

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("inl-client: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let response = match client.request(&request) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("inl-client: {e}");
            std::process::exit(1);
        }
    };

    if json_output {
        println!("{}", inl_proto::encode_response(&response));
    } else {
        match &response {
            Response::Compile {
                outcome: CompileOutcome::Legal { pseudocode },
                ..
            } => println!("legal\n{pseudocode}"),
            Response::Compile {
                outcome: CompileOutcome::Rejected { reason },
                ..
            } => println!("rejected: {reason}"),
            Response::Run {
                digest,
                arrays,
                cells,
                ..
            } => println!("digest {digest} ({arrays} array(s), {cells} cell(s))"),
            Response::Explain {
                verdict, reason, ..
            } => println!("{verdict}: {reason}"),
            Response::Schedule {
                chosen,
                pseudocode,
                nodes_visited,
                nodes_exhaustive,
                pruned_subtrees,
                legal_variants,
                ..
            } => println!(
                "chosen {chosen} ({legal_variants} legal variant(s); visited \
                 {nodes_visited}/{nodes_exhaustive} nodes, {pruned_subtrees} subtree(s) pruned)\n\
                 {pseudocode}"
            ),
            Response::Stats { stats } => println!("{}", stats.to_pretty_string()),
            Response::Metrics { metrics } => println!("{}", metrics.to_pretty_string()),
            Response::Shutdown => println!("server draining"),
            Response::Error { kind, message } => eprintln!("error [{kind}]: {message}"),
        }
        if let Some(section) = response.telemetry() {
            println!("telemetry:\n{}", section.to_pretty_string());
        }
    }
    if matches!(response, Response::Error { .. }) {
        std::process::exit(2);
    }
}
