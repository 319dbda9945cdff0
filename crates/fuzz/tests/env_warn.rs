//! `INL_FUZZ_CASES` is honoured when it is a positive integer; anything
//! else warns once to stderr and falls back to the local default instead
//! of being silently ignored. The environment is process-global, so this
//! test re-executes its own binary as a child with the value set and
//! inspects what the child printed.

const CHILD_MARKER: &str = "INL_FUZZ_ENV_WARN_CHILD";

#[test]
fn malformed_fuzz_cases_warns_once_and_falls_back() {
    if std::env::var_os(CHILD_MARKER).is_some() {
        // every property asks; only the first may warn
        println!("cases={}", inl_fuzz::fuzz_cases(7));
        println!("cases={}", inl_fuzz::fuzz_cases(7));
        return;
    }

    let exe = std::env::current_exe().expect("test binary path");
    for (value, cases, warnings) in [
        ("banana", 7, 1),
        ("-3", 7, 1),
        ("0", 7, 1),
        (" 2000 ", 2000, 0),
    ] {
        let out = std::process::Command::new(&exe)
            .arg("malformed_fuzz_cases_warns_once_and_falls_back")
            .arg("--exact")
            // the child harness must not swallow the lines we assert on
            .arg("--nocapture")
            .env(CHILD_MARKER, "1")
            .env("INL_FUZZ_CASES", value)
            .output()
            .expect("spawn child test process");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(out.status.success(), "child failed on {value:?}:\n{stderr}");
        assert_eq!(
            stdout.matches(&format!("cases={cases}\n")).count(),
            2,
            "{value:?}:\n{stdout}"
        );
        assert_eq!(
            stderr.matches("ignoring malformed INL_FUZZ_CASES").count(),
            warnings,
            "{value:?}:\n{stderr}"
        );
        assert_eq!(stderr.contains("using default 7"), warnings == 1);
    }
}
