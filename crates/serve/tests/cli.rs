//! The service binaries read their flags by name (`inl_serve::flag_value`)
//! after checking every argument against the names they know
//! (`inl_serve::known_flags_or_usage`): a misspelt flag, a stray argument,
//! or a value that is missing or does not parse prints the usage line and
//! exits 2 before anything is bound or connected, instead of silently
//! meaning the default. One child process per case.

use std::process::Command;

#[test]
fn unusable_flag_values_print_usage_and_exit_2() {
    let serve = env!("CARGO_BIN_EXE_inl-serve");
    let load = env!("CARGO_BIN_EXE_inl-load");
    let top = env!("CARGO_BIN_EXE_inl-top");
    for (exe, args, complaint) in [
        (
            serve,
            &["--workers", "four"][..],
            "--workers: cannot use 'four'",
        ),
        (serve, &["--addr", "--quiet"], "--addr needs a value"),
        (load, &["--requests", "1e4"], "--requests: cannot use '1e4'"),
        (
            load,
            &["--connections", "0"],
            "--connections: cannot use '0'",
        ),
        (
            top,
            &["--once", "--interval-ms"],
            "--interval-ms needs a value",
        ),
        (top, &["--count", "many"], "--count: cannot use 'many'"),
        // a misspelt flag is not "the default": one per binary
        (serve, &["--worker", "4"], "unknown argument '--worker'"),
        (load, &["--request", "10"], "unknown argument '--request'"),
        (
            top,
            &["--once", "--interval", "5"],
            "unknown argument '--interval'",
        ),
        // nor is a value nobody asked for
        (load, &["--shutdown", "now"], "unknown argument 'now'"),
    ] {
        let out = Command::new(exe).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains("usage: inl-"), "{exe} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} got as far as stdout");
    }
}
