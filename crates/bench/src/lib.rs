//! # inl-bench
//!
//! What the `report` binary — the producer of the counter gate
//! `baselines/inl-obs.json` — shares with its tests: the enumeration of
//! the legal Cholesky loop orders and the rendering of the explain
//! summary. See `EXPERIMENTS.md` at the workspace root for the experiment
//! index (E1–E14) and recorded results.
//!
//! Nothing here reads a clock. Times — backends, compile batch, poly
//! cache, framework costs per layer — are rows of the system benchmark in
//! `benchmark/`; the hand-compiled kernels of E7/E14/E8, where cache
//! behaviour makes the paper's "performance can be quite different"
//! visible, are the `kernels` binary of this crate.

use inl_core::complete::complete_transform;
use inl_core::depend::analyze;
use inl_core::instance::InstanceLayout;
use inl_ir::{zoo, Program};
use inl_linalg::{permutations, IMat};

/// The legal Cholesky loop-order variants: `(label, matrix)` pairs
/// discovered by enumerating slot assignments and completing each.
pub fn cholesky_variants() -> (Program, Vec<(String, IMat)>) {
    let p = zoo::cholesky_kij();
    let layout = InstanceLayout::new(&p);
    let deps = analyze(&p, &layout).expect("analysis");
    let names = ["K", "J", "L", "I"];
    let mut out = Vec::new();
    for pm in permutations(&[0usize, 1, 2, 3]) {
        let label: String = pm.iter().map(|&i| names[i]).collect();
        if inl_obs::explain_enabled() {
            inl_obs::explain::begin_session(&format!("cholesky/{label}"));
        }
        let recipe: inl_core::recipe::Recipe = label.parse().expect("an order");
        let rows = recipe.rows(&p, &layout).expect("the four loops");
        if let Ok(c) = complete_transform(&p, &layout, &deps, &rows) {
            out.push((label, c.matrix));
        }
    }
    (p, out)
}

/// Render the report binary's `## explain` section from the current
/// decision-provenance store: one line per `cholesky/<ORDER>` session,
/// naming the verdict and its evidence — the proving legality check for
/// legal orders, the killing dependence (with its row) for rejected ones.
pub fn explain_section() -> String {
    use inl_obs::explain::Verdict;
    use std::fmt::Write as _;
    let records = inl_obs::explain::snapshot();
    let mut out = String::new();
    for (id, label) in inl_obs::explain::sessions() {
        let Some(order) = label.strip_prefix("cholesky/") else {
            continue;
        };
        let recs: Vec<_> = records.iter().filter(|r| r.session == id).collect();
        let legal_accept = recs
            .iter()
            .find(|r| r.stage == "legal" && r.verdict == Verdict::Accept);
        let line = if let Some(acc) = legal_accept {
            format!("legal     {}", acc.reason)
        } else if let Some(rej) = recs.iter().find(|r| r.verdict == Verdict::Reject) {
            let row = rej
                .details
                .get("dep_row")
                .map(|r| format!(" with row {r}"))
                .unwrap_or_default();
            format!("rejected  {}{row}", rej.reason)
        } else {
            "no decision recorded".to_string()
        };
        writeln!(out, "{order}  {line}").expect("string write");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_codegen::compile_batch;

    /// The explain flag is process-global: serialize the tests that sweep
    /// Cholesky orders so one test's sessions don't interleave another's.
    static EXPLAIN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn parallel_batch_matches_serial() {
        let _guard = EXPLAIN_LOCK.lock().unwrap();
        let (p, variants) = cholesky_variants();
        let serial = compile_batch(&p, &variants, 1);
        let parallel = compile_batch(&p, &variants, 4);
        assert_eq!(serial.len(), variants.len());
        for (s, q) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, q.label);
            assert_eq!(
                s.pseudocode, q.pseudocode,
                "variant {} generated different code in parallel",
                s.label
            );
        }
    }

    #[test]
    fn variants_include_both_families() {
        let _guard = EXPLAIN_LOCK.lock().unwrap();
        let (_p, variants) = cholesky_variants();
        assert_eq!(variants.len(), 12);
        assert!(variants.iter().any(|(l, _)| l == "KJLI"));
        assert!(variants.iter().any(|(l, _)| l.starts_with('L')));
    }

    #[test]
    fn explain_section_covers_all_24_orders() {
        let _guard = EXPLAIN_LOCK.lock().unwrap();
        inl_obs::set_explain_enabled(true);
        inl_obs::explain::reset();
        let (_p, variants) = cholesky_variants();
        let section = explain_section();
        inl_obs::set_explain_enabled(false);
        inl_obs::explain::reset();

        assert_eq!(
            section.lines().count(),
            24,
            "one line per order:\n{section}"
        );
        let legal: std::collections::BTreeSet<&str> =
            variants.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(legal.len(), 12);
        let names = ["K", "J", "L", "I"];
        for pm in permutations(&[0usize, 1, 2, 3]) {
            let order: String = pm.iter().map(|&i| names[i]).collect::<Vec<_>>().join("");
            let line = section
                .lines()
                .find(|l| l.starts_with(&format!("{order}  ")))
                .unwrap_or_else(|| panic!("no line for {order}:\n{section}"));
            if legal.contains(order.as_str()) {
                assert!(
                    line.starts_with(&format!("{order}  legal")),
                    "{order} should be legal: {line}"
                );
            } else {
                assert!(
                    line.starts_with(&format!("{order}  rejected")),
                    "{order} should reject: {line}"
                );
                assert!(
                    line.contains("dep "),
                    "{order} rejection must name the killing dependence: {line}"
                );
            }
        }
    }
}
