//! End-to-end pin of the decision-provenance tentpole: sweeping all 24
//! Cholesky loop orders with the explain layer on must leave an acceptance
//! record with proving evidence for each of the 12 legal orders, and a
//! record naming the violating dependence for each rejected order — and
//! the `inl-explain` binary must render, query, and diff the artifact.

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
    inl_obs::explain::reset();
    let (_p, variants) = inl_bench::cholesky_variants();
    inl_obs::set_explain_enabled(false);
    assert_eq!(variants.len(), 12, "12 legal Cholesky orders");
    let legal: BTreeSet<String> = variants.iter().map(|(l, _)| l.clone()).collect();

    let json = inl_obs::explain::to_json().to_pretty_string();
    let artifact = inl_explain::parse(&json).expect("artifact parses");
    assert_eq!(artifact.sessions.len(), 24, "one session per permutation");

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
        if legal.contains(&order) {
            // acceptance with proving evidence: the final legality check
            // records every dependence's projected row
            let accept = recs
                .iter()
                .find(|r| r.stage == "legal" && r.verdict == "accept")
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
                    .any(|r| r.stage == "complete" && r.verdict == "accept"),
                "{label}: completion success not recorded"
            );
        } else {
            // rejection naming the violating dependence row
            let reject = recs
                .iter()
                .find(|r| r.verdict == "reject")
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
    // re-serialize through the same schema by hand-editing the JSON text
    // would be brittle; instead rewrite via the obs store is unavailable,
    // so rebuild a minimal artifact body from the parsed records
    std::fs::write(&pruned_path, rebuild_json(&pruned)).expect("write pruned");
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

/// Serialize an [`inl_explain::Artifact`] back to the schema (test-only;
/// the production writer lives in `inl_obs::explain`).
fn rebuild_json(a: &inl_explain::Artifact) -> String {
    use inl_obs::json::Json;
    let mut root = Json::object();
    root.insert("version", Json::Int(a.version));
    root.insert("dropped", Json::Int(a.dropped));
    root.insert(
        "sessions",
        Json::Array(
            a.sessions
                .iter()
                .map(|(id, label)| {
                    let mut s = Json::object();
                    s.insert("id", Json::Int(*id));
                    s.insert("label", Json::Str(label.clone()));
                    s
                })
                .collect(),
        ),
    );
    root.insert(
        "records",
        Json::Array(
            a.records
                .iter()
                .map(|r| {
                    let mut obj = Json::object();
                    obj.insert("session", Json::Int(r.session));
                    obj.insert("seq", Json::Int(r.seq));
                    obj.insert("stage", Json::Str(r.stage.clone()));
                    obj.insert("subject", Json::Str(r.subject.clone()));
                    obj.insert("verdict", Json::Str(r.verdict.clone()));
                    obj.insert("reason", Json::Str(r.reason.clone()));
                    obj
                })
                .collect(),
        ),
    );
    root.to_pretty_string()
}
