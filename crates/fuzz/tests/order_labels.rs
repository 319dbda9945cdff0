//! Variant labels from the wire: a request's `order` is any string a
//! client sends, read by the service as a recipe (`inl_core::recipe`) and
//! replayed. Arbitrary strings, and scheduler labels with characters
//! inserted, deleted or replaced, sent as the `order` of Compile, Run and
//! Explain requests, must never panic the handler: every reply is a legal
//! program, a rejection, or a typed error. An unmutated label is legal.
//!
//! Case counts: `INL_FUZZ_CASES` (CI sets 2000 per property); local runs
//! default to a fast smoke count.

use inl_fuzz::fuzz_config;
use inl_proto::{BackendChoice, CompileOutcome, Request, Response};
use inl_serve::handle_request;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Programs whose labels are mutated: a shaped and reversed label, a
/// jammed one, a tiled one, and dotted orders are among them.
const PROGRAMS: [&str; 3] = ["running_example", "cholesky_kij", "lu_kij"];

/// The characters labels are made of, and a few they never contain.
const ALPHABET: &[char] = &[
    'K', 'J', 'L', 'I', 'o', '2', '_', '\'', '.', '/', '(', ')', '@', '+', '0', '1', '6', '9', 'd',
    'i', 's', 't', 'j', 'a', 'm', 'l', 'e', '-', ' ', 'π',
];

/// `(program, label)` for every variant `schedule()` returns for
/// [`PROGRAMS`], and every `tile(…)` label of the cost model's fit table
/// for them (the search builds no tile shape; the service replays one).
fn labels() -> &'static [(&'static str, String)] {
    static LABELS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    LABELS.get_or_init(|| {
        let fit_table = include_str!("../../codegen/fit/cost_n128.csv");
        let mut out = Vec::new();
        for name in PROGRAMS {
            let (_, make) = inl_serve::ZOO.iter().find(|(n, _)| *n == name).unwrap();
            let r = inl_sched::schedule(&make()).expect("schedules");
            out.extend(r.legal.into_iter().map(|label| (name, label)));
            let rows = fit_table
                .lines()
                .filter_map(|row| row.strip_prefix(name)?.strip_prefix(','));
            let labels = rows.filter_map(|row| row.split(',').next());
            let tiled = labels.filter(|label| label.starts_with("tile("));
            out.extend(tiled.map(|label| (name, label.to_string())));
        }
        out
    })
}

/// Send `order` for `program` as a Compile, Run (both backends) or
/// Explain request, by `kind`.
fn send(program: &str, order: &str, kind: usize) -> Response {
    let (program, order) = (program.to_string(), Some(order.to_string()));
    handle_request(&match kind % 4 {
        0 => Request::Compile {
            program,
            order,
            telemetry: false,
        },
        1 | 2 => Request::Run {
            program,
            params: vec![6],
            order,
            backend: [BackendChoice::Vm, BackendChoice::Interp][kind % 4 - 1],
            telemetry: false,
        },
        _ => Request::Explain {
            program,
            order,
            telemetry: false,
        },
    })
}

/// A legal program, a rejection, or a typed error; `legal` when the reply
/// accepted the order.
fn verdict(resp: &Response) -> Result<bool, String> {
    match resp {
        Response::Compile { outcome, .. } => Ok(matches!(outcome, CompileOutcome::Legal { .. })),
        Response::Run { .. } => Ok(true),
        Response::Explain { verdict, .. } if verdict == "legal" => Ok(true),
        Response::Explain { verdict, .. } if verdict == "rejected" => Ok(false),
        Response::Error { kind, message } if !kind.is_empty() && !message.is_empty() => Ok(false),
        other => Err(format!("{other:?}")),
    }
}

proptest! {
    #![proptest_config(fuzz_config(48))]

    /// Any string over the label alphabet.
    #[test]
    fn arbitrary_orders_get_typed_answers(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..24),
        program in 0..PROGRAMS.len(),
        kind in 0usize..4,
    ) {
        let order: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let resp = send(PROGRAMS[program], &order, kind);
        prop_assert!(verdict(&resp).is_ok(), "{order:?}: {resp:?}");
    }

    /// A scheduler label with up to three edits (insert, delete, replace a
    /// character); with none it is legal.
    #[test]
    fn mutated_scheduler_labels_get_typed_answers(
        label in 0usize..10_000,
        edits in prop::collection::vec((0usize..3, 0usize..64, 0..ALPHABET.len()), 0..4),
        kind in 0usize..4,
    ) {
        let (program, label) = &labels()[label % labels().len()];
        let mut chars: Vec<char> = label.chars().collect();
        for &(edit, at, ch) in &edits {
            let at = at % (chars.len() + 1);
            match edit {
                0 => chars.insert(at, ALPHABET[ch]),
                _ if at == chars.len() => {}
                1 => {
                    chars.remove(at);
                }
                _ => chars[at] = ALPHABET[ch],
            }
        }
        let order: String = chars.into_iter().collect();
        let resp = send(program, &order, kind);
        match verdict(&resp) {
            Ok(legal) => prop_assert!(
                legal || !edits.is_empty(),
                "{program} {order}: a scheduler label must be legal, got {resp:?}"
            ),
            Err(bad) => prop_assert!(false, "{program} {order:?}: {bad}"),
        }
    }
}
