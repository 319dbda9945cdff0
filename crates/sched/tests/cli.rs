//! `inl-sched`'s flags are the only way to move a search default, so a
//! flag whose value is missing or unusable must say so — usage line, exit
//! 2 — instead of silently keeping the default. One child process per case.

use std::process::Command;

fn inl_sched(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_inl-sched"))
        .args(args)
        .output()
        .expect("spawn inl-sched");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unusable_flag_values_print_usage_and_exit_2() {
    for (args, complaint) in [
        (&["--budget", "abc"][..], "--budget: 'abc'"),
        (&["--reps", "x"], "--reps: 'x'"),
        (&["--budget", "-1"], "--budget: '-1'"),
        (&["--budget"], "--budget needs a value"),
        (&["--json"], "--json needs a value"),
        (&["--explain-json"], "--explain-json needs a value"),
        (&["--program"], "--program needs a value"),
        (&["--json", "--show"], "--json needs a value"),
        (&["--frobnicate"], "unknown flag --frobnicate"),
    ] {
        let (code, stdout, stderr) = inl_sched(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: inl-sched"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran a sweep:\n{stdout}");
    }
}

#[test]
fn show_prints_the_chosen_pseudocode_and_schedules_once() {
    // the `sched.programs` counter bumps once per `schedule_with` call;
    // the exit dump makes it visible from outside the process
    let dump = std::env::temp_dir().join(format!("inl-sched-cli-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_inl-sched"))
        .args(["--program", "wavefront", "--show", "--reps", "1"])
        .env("INL_OBS_JSON", &dump)
        .output()
        .expect("spawn inl-sched");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("| wavefront |"), "{stdout}");
    assert!(
        stdout.contains("wavefront (params [56]): chosen IJ"),
        "{stdout}"
    );
    assert!(stdout.contains("do I = "), "chosen pseudocode:\n{stdout}");
    assert!(stdout.contains("variants by cost:"), "{stdout}");
    // the regret report: predicted terms, predicted and profiled executor,
    // the chosen row against the measured best
    assert!(
        stdout.contains("cost=") && stdout.contains("nest="),
        "{stdout}"
    );
    assert!(stdout.contains("J carried x64"), "predicted:\n{stdout}");
    assert!(stdout.contains("J carried x56.0"), "profiled:\n{stdout}");
    assert!(stdout.contains("  chosen IJ"), "{stdout}");
    assert!(stdout.contains("  best   "), "{stdout}");

    let text = std::fs::read_to_string(&dump).expect("exit dump written");
    let _ = std::fs::remove_file(&dump);
    let report = inl_obs::Json::parse(&text).expect("dump parses");
    let scheduled = report
        .get("counters")
        .and_then(|c| c.get("sched.programs"))
        .and_then(inl_obs::Json::as_u64);
    assert_eq!(scheduled, Some(1), "--show must not schedule again");
}
