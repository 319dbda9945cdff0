//! `inl-serve` — run the compile service.
//!
//! ```sh
//! inl-serve [--addr 127.0.0.1:7878] [--workers N] [--quiet]
//! ```
//!
//! Binds (default `127.0.0.1:7878`), prints the bound address on the
//! first stdout line (`listening on <addr>` — scripts wait for it), and
//! serves until a `shutdown` request arrives. Telemetry and timeline
//! layers are enabled so every request contributes `serve.*` spans and
//! counters. `--workers 0` (the default) means one per available core; an
//! unknown argument or an unusable flag value prints the usage line and
//! exits 2 before anything binds.

use inl_serve::{flag_or_usage, known_flags_or_usage};

const USAGE: &str = "usage: inl-serve [--addr 127.0.0.1:7878] [--workers N] [--quiet]";

fn main() {
    known_flags_or_usage(&["--addr", "--workers"], &["--quiet"], USAGE);
    let addr = flag_or_usage("--addr", USAGE).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let workers: usize = flag_or_usage("--workers", USAGE).unwrap_or(0);
    let quiet = std::env::args().any(|a| a == "--quiet");

    inl_obs::set_enabled(true);
    inl_obs::set_timeline_enabled(true);

    let config = inl_serve::ServerConfig {
        addr,
        workers,
        limits: inl_serve::FrameLimits::default(),
    };
    let handle = match inl_serve::serve(&config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("inl-serve: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", handle.local_addr());
    if !quiet {
        eprintln!(
            "inl-serve: {} worker(s), frame limit {} bytes; send a 'shutdown' request to stop",
            if config.workers == 0 {
                std::thread::available_parallelism().map_or(2, |x| x.get())
            } else {
                config.workers
            },
            config.limits.max_frame
        );
    }
    let stats = handle.join();
    if !quiet {
        eprintln!(
            "inl-serve: drained, final stats {}",
            stats.to_pretty_string()
        );
    }
}
