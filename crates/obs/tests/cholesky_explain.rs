//! End-to-end pin of the decision-provenance layer: sweeping all 24
//! Cholesky loop orders with the explain layer on must leave an acceptance
//! record with proving evidence for each of the 12 legal orders, a record
//! naming the violating dependence for each rejected order, and one record
//! of each supplied row an order's completion judged; the
//! artifact must read back into exactly the records the store holds; and
//! the `inl-explain` binary must render, query, and diff it.

use inl_obs::explain::{self, parse, Artifact, Verdict, SCHEMA_VERSION};
use std::collections::BTreeSet;
use std::process::Command;

/// All 24 KJLI-style permutation labels.
fn all_orders() -> BTreeSet<String> {
    let names = ["K", "J", "L", "I"];
    inl_linalg::permutations(&[0usize, 1, 2, 3])
        .into_iter()
        .map(|pm| pm.iter().map(|&i| names[i]).collect::<Vec<_>>().join(""))
        .collect()
}

#[test]
fn cholesky_sweep_explains_every_order_and_binary_renders_it() {
    inl_obs::set_explain_enabled(true);
    explain::reset();
    let (_p, variants) = inl_bench::cholesky_variants();
    // no sweep record carries a negative feature; this one does, so the
    // round trip below covers the float the writer uses for it
    explain::begin_session("roundtrip/negative");
    explain::note("test", "a negative feature", "written as a JSON float")
        .detail("why", "Json::Int holds a u64")
        .feature("shift", -3);
    inl_obs::set_explain_enabled(false);
    assert_eq!(variants.len(), 12, "12 legal Cholesky orders");
    let legal: BTreeSet<String> = variants.iter().map(|(l, _)| l.clone()).collect();

    let json = explain::to_json().to_pretty_string();
    let artifact = parse(&json).expect("artifact parses");
    // the reader gives back the store, record for record, field for field
    let store = Artifact {
        version: SCHEMA_VERSION,
        dropped: explain::dropped_total(),
        sessions: explain::sessions(),
        records: explain::snapshot(),
    };
    assert_eq!(artifact, store, "the artifact reads back as the store");
    assert!(artifact.records.iter().any(|r| !r.details.is_empty()));
    assert!(artifact
        .records
        .iter()
        .any(|r| r.features.values().any(|&v| v < 0)));
    let sessions = artifact.sessions.iter();
    let sweep = sessions.filter(|(_, l)| l.starts_with("cholesky/"));
    assert_eq!(sweep.count(), 24, "one session per permutation");

    for order in all_orders() {
        let label = format!("cholesky/{order}");
        let session = artifact
            .sessions
            .iter()
            .find(|(_, l)| *l == label)
            .unwrap_or_else(|| panic!("no session {label}"))
            .0;
        let recs: Vec<_> = artifact
            .records
            .iter()
            .filter(|r| r.session == session)
            .collect();
        assert!(!recs.is_empty(), "{label}: no records");
        // every supplied row is recorded once, by the one pass over them
        let mut rows = BTreeSet::new();
        let complete = recs.iter().filter(|r| r.stage == "complete");
        for r in complete.filter(|r| r.subject.starts_with("partial row")) {
            assert!(rows.insert(&r.subject), "{label}: {} twice", r.subject);
        }
        if legal.contains(&order) {
            // acceptance with proving evidence: the completion's `legal`
            // record carries every dependence's projected row
            let accept = recs
                .iter()
                .find(|r| r.stage == "legal" && r.verdict == Verdict::Accept)
                .unwrap_or_else(|| panic!("{label}: legal order has no acceptance record"));
            let proof = accept
                .details
                .get("proof")
                .unwrap_or_else(|| panic!("{label}: acceptance carries no proof"));
            assert!(
                proof.contains("dep ") && proof.contains("projects to"),
                "{label}: proof does not name projected dependence rows: {proof}"
            );
            assert!(
                recs.iter()
                    .any(|r| r.stage == "complete" && r.verdict == Verdict::Accept),
                "{label}: completion success not recorded"
            );
            assert_eq!(rows.len(), 4, "{label}: one record per supplied row");
        } else {
            // rejection naming the violating dependence row
            let reject = recs
                .iter()
                .find(|r| r.verdict == Verdict::Reject)
                .unwrap_or_else(|| panic!("{label}: rejected order has no rejection record"));
            let names_dep = reject.reason.contains("dep ")
                || reject.details.values().any(|v| v.contains("dep "));
            assert!(
                names_dep,
                "{label}: rejection does not name a dependence: {} {:?}",
                reject.reason, reject.details
            );
            let has_row = reject.details.contains_key("dep_row")
                || reject.details.values().any(|v| v.contains("row ["));
            assert!(
                has_row,
                "{label}: rejection carries no dependence row: {:?}",
                reject.details
            );
        }
    }

    // --- drive the inl-explain binary over the artifact ---
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("tmpdir");
    let path = dir.join("cholesky-explain.json");
    std::fs::write(&path, &json).expect("write artifact");
    let bin = env!("CARGO_BIN_EXE_inl-explain");

    let render = Command::new(bin)
        .args(["render", path.to_str().unwrap()])
        .output()
        .expect("render runs");
    assert!(render.status.success(), "render failed: {render:?}");
    let text = String::from_utf8_lossy(&render.stdout);
    assert!(
        text.contains("== cholesky/KJLI =="),
        "render lists sessions"
    );
    assert!(text.contains("[ACCEPT] legal"), "render shows acceptances");
    assert!(text.contains("[REJECT]"), "render shows rejections");

    // query: the KJLI session has an acceptance, and some order rejects
    let query = Command::new(bin)
        .args([
            "query",
            path.to_str().unwrap(),
            "--session",
            "cholesky/KJLI",
            "--verdict",
            "accept",
            "--stage",
            "legal",
        ])
        .output()
        .expect("query runs");
    assert!(query.status.success(), "query failed: {query:?}");
    let qtext = String::from_utf8_lossy(&query.stdout);
    assert!(
        qtext.contains("matching record(s)") && !qtext.starts_with("0 matching"),
        "query found the KJLI acceptance: {qtext}"
    );

    // diff: identical artifacts are clean (exit 0); dropping a session's
    // records is a reported difference (exit 1)
    let same = Command::new(bin)
        .args(["diff", path.to_str().unwrap(), path.to_str().unwrap()])
        .output()
        .expect("diff runs");
    assert!(same.status.success(), "self-diff must be clean: {same:?}");

    let mut pruned = artifact.clone();
    let drop_session = pruned.sessions[0].0;
    pruned.records.retain(|r| r.session != drop_session);
    let pruned_path = dir.join("cholesky-explain-pruned.json");
    pruned
        .to_json()
        .write_file(&pruned_path)
        .expect("write pruned");
    let changed = Command::new(bin)
        .args([
            "diff",
            path.to_str().unwrap(),
            pruned_path.to_str().unwrap(),
        ])
        .output()
        .expect("diff runs");
    assert_eq!(
        changed.status.code(),
        Some(1),
        "diff must flag the removed session: {changed:?}"
    );

    // usage / parse errors exit 2
    let bad = Command::new(bin).args(["bogus"]).output().expect("runs");
    assert_eq!(bad.status.code(), Some(2));
}
