//! The pure request handler: one [`Request`] in, one [`Response`] out.
//!
//! This is the same code path whether a request arrives over TCP or is
//! invoked in-process — the integration tests and the load generator
//! exploit that to assert the server's answers are bitwise-identical to
//! local computation. The handler never panics and never returns a
//! transport-level failure: every pipeline error becomes a typed
//! [`Response::Error`], and an *illegal loop order* is not an error at
//! all but a structured [`CompileOutcome::Rejected`].

use inl_codegen::generate;
use inl_core::depend::memo_stats;
use inl_core::recipe::{Recipe, Shape};
use inl_ir::{zoo, Program};
use inl_linalg::{IMat, InlError, InlErrorKind};
use inl_proto::{BackendChoice, CompileOutcome, Request, Response};

/// Largest accepted value for a `run` parameter. Service-side cap: a
/// request names a problem size, and an unbounded size would let one
/// client monopolize a worker (cholesky at N=512 is already ~10⁸ flops).
pub const MAX_PARAM: u32 = 512;

pub use inl_ir::zoo::ZooEntry;

/// Every program a request may name, with its constructor: the
/// `inl_ir::zoo` table itself — the service exposes exactly the programs
/// the test suite and benchmarks use, nothing dynamic.
pub const ZOO: &[ZooEntry] = zoo::ALL;

fn zoo_program(name: &str) -> Result<Program, InlError> {
    ZOO.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f())
        .ok_or_else(|| {
            InlError::new(
                InlErrorKind::InvalidTarget,
                format!("unknown program '{name}' (see the zoo listing)"),
            )
        })
}

/// Run compile-with-order and classify: `Ok(Ok(program))` compiled,
/// `Ok(Err(reason))` legality rejected the order (a structured outcome),
/// `Err(e)` the request itself was bad. The order is any variant label
/// (`inl_core::recipe`), replayed as the scheduler built it
/// ([`Recipe::replay`]).
fn compile_inner(p: Program, order: Option<&str>) -> Result<Result<Program, String>, InlError> {
    let _span = inl_obs::span("serve.compile");
    let source = Shape::source(p)?;
    let (matrix, shape) = match order.map(str::parse::<Recipe>).transpose()? {
        None => (IMat::identity(source.layout.len()), source),
        Some(recipe) => match recipe.replay(source)? {
            Ok((shape, c)) => (c.matrix, shape),
            // deterministic per input: the same text for the same rejection
            Err(why) => return Ok(Err(why.to_string())),
        },
    };
    match generate(&shape.program, &shape.layout, &shape.deps, &matrix) {
        Ok(r) => Ok(Ok(r.program)),
        Err(e) => Ok(Err(format!(
            "codegen rejected the schedule: {}",
            e.summary()
        ))),
    }
}

/// FNV-1a 64 over every array's name and `f64` bit patterns; returns the
/// digest plus (array count, total cell count). Equal digests across two
/// runs mean the final machine states are bitwise identical.
fn digest_machine(m: &inl_exec::Machine) -> (String, u64, u64) {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut step = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    };
    let mut cells = 0u64;
    for a in m.arrays() {
        for b in a.name.bytes() {
            step(b);
        }
        for v in &a.data {
            for b in v.to_bits().to_le_bytes() {
                step(b);
            }
            cells += 1;
        }
    }
    (format!("{h:016x}"), m.arrays().len() as u64, cells)
}

fn handle_compile(program: &str, order: Option<&str>) -> Result<Response, InlError> {
    let outcome = match compile_inner(zoo_program(program)?, order)? {
        Ok(generated) => CompileOutcome::Legal {
            pseudocode: generated.to_pseudocode(),
        },
        Err(reason) => CompileOutcome::Rejected { reason },
    };
    Ok(Response::Compile {
        outcome,
        telemetry: None,
    })
}

fn handle_run(
    program: &str,
    params: &[u32],
    order: Option<&str>,
    backend: BackendChoice,
) -> Result<Response, InlError> {
    let p = zoo_program(program)?;
    if params.len() != p.nparams() {
        return Err(InlError::new(
            InlErrorKind::InvalidTarget,
            format!(
                "program '{program}' takes {} parameter(s), got {}",
                p.nparams(),
                params.len()
            ),
        ));
    }
    for &v in params {
        if v == 0 || v > MAX_PARAM {
            return Err(InlError::new(
                InlErrorKind::Budget,
                format!("parameter {v} outside the service range 1..={MAX_PARAM}"),
            ));
        }
    }
    let generated = match compile_inner(p, order)? {
        Ok(g) => g,
        Err(reason) => {
            return Err(InlError::new(
                InlErrorKind::Infeasible,
                format!("cannot run a rejected order: {reason}"),
            ))
        }
    };
    let ints: Vec<inl_linalg::Int> = params.iter().map(|&v| v as inl_linalg::Int).collect();
    let be = match backend {
        BackendChoice::Interp => inl_exec::Backend::Interp,
        BackendChoice::Vm => inl_exec::Backend::Vm,
    };
    let machine = {
        let _span = inl_obs::span("serve.exec");
        let mut m = inl_exec::Machine::new(&generated, &ints, &zoo::spd_init);
        be.run(&generated, &mut m);
        m
    };
    let (digest, arrays, cells) = digest_machine(&machine);
    Ok(Response::Run {
        digest,
        arrays,
        cells,
        telemetry: None,
    })
}

fn handle_explain(program: &str, order: Option<&str>) -> Result<Response, InlError> {
    Ok(match compile_inner(zoo_program(program)?, order)? {
        Ok(_) => Response::Explain {
            verdict: "legal".to_string(),
            reason: match order {
                Some(ord) => format!(
                    "order {ord} completes to a full legal transformation \
                     (every dependence projection stays lexicographically positive)"
                ),
                None => "identity schedule; source order is legal by construction".to_string(),
            },
            telemetry: None,
        },
        Err(reason) => Response::Explain {
            verdict: "rejected".to_string(),
            reason,
            telemetry: None,
        },
    })
}

fn handle_schedule(program: &str) -> Result<Response, InlError> {
    let _span = inl_obs::span("serve.schedule");
    let p = zoo_program(program)?;
    // the defaults with one thread: the worker pool is the service's
    // parallelism, every leaf is lowered on this thread (so a telemetry
    // capture of the request sees that work), and the response is
    // byte-identical whether the search runs here or in-process in a
    // client (inl-load bitwise-compares the two)
    let cfg = inl_sched::SchedConfig {
        threads: 1,
        ..inl_sched::SchedConfig::default()
    };
    let r = inl_sched::schedule_with(&p, &cfg)
        .map_err(|e| InlError::new(e.kind(), format!("scheduling failed: {}", e.message())))?;
    Ok(Response::Schedule {
        chosen: r.chosen().label.clone(),
        pseudocode: r.chosen().pseudocode.clone(),
        nodes_visited: r.stats.nodes_visited,
        nodes_exhaustive: r.stats.nodes_exhaustive,
        pruned_subtrees: r.stats.pruned_subtrees,
        legal_variants: r.stats.legal_variants,
        telemetry: None,
    })
}

/// The dispatch core, without telemetry capture.
fn handle_core(req: &Request) -> Response {
    let result = match req {
        Request::Compile { program, order, .. } => handle_compile(program, order.as_deref()),
        Request::Run {
            program,
            params,
            order,
            backend,
            ..
        } => handle_run(program, params, order.as_deref(), *backend),
        Request::Explain { program, order, .. } => handle_explain(program, order.as_deref()),
        Request::Schedule { program, .. } => handle_schedule(program),
        Request::Stats => {
            let mut stats = inl_obs::Json::object();
            stats.insert("analysis_memo", memo_stats().to_json());
            Ok(Response::Stats { stats })
        }
        Request::Metrics => Ok(Response::Metrics {
            metrics: crate::request_window().snapshot().to_json(),
        }),
        Request::Shutdown => Ok(Response::Shutdown),
    };
    result.unwrap_or_else(|e| Response::from_error(&e))
}

/// Handle one request. Infallible by design: anything that can go wrong
/// becomes a [`Response::Error`]. [`Request::Stats`] answers with the
/// process-wide analysis-memo snapshot (the server layer
/// adds its own transport counters on top); [`Request::Metrics`]
/// snapshots the process-wide [sliding window](crate::request_window)
/// (empty unless a server in this process has been feeding it);
/// [`Request::Shutdown`] is acknowledged here and *acted on* by the
/// server layer.
///
/// A request with `telemetry: true` is handled inside an
/// `inl_obs::capture` window and its response carries the capture as a
/// versioned `telemetry` section — counters, per-stage durations, and
/// explain tallies attributable to exactly this request. Error
/// responses have no telemetry slot and are returned bare.
pub fn handle_request(req: &Request) -> Response {
    if !req.wants_telemetry() {
        return handle_core(req);
    }
    let (resp, capture) = inl_obs::capture::with(|| handle_core(req));
    resp.with_telemetry(capture.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use inl_core::recipe::Step;

    fn compile_req(program: &str, order: Option<&str>) -> Request {
        Request::Compile {
            program: program.into(),
            order: order.map(str::to_string),
            telemetry: false,
        }
    }

    #[test]
    fn compile_legal_and_rejected_orders() {
        let legal = handle_request(&compile_req("cholesky_kij", Some("KJLI")));
        match legal {
            Response::Compile {
                outcome: CompileOutcome::Legal { pseudocode },
                ..
            } => {
                assert!(pseudocode.contains("do"), "{pseudocode}");
            }
            other => panic!("KJLI should be legal, got {other:?}"),
        }
        let rejected = handle_request(&compile_req("cholesky_kij", Some("IKJL")));
        assert!(
            matches!(
                rejected,
                Response::Compile {
                    outcome: CompileOutcome::Rejected { ref reason },
                    ..
                } if reason == "completion rejected the order: row 0 is illegal"
            ),
            "IKJL should reject, got {rejected:?}"
        );
    }

    #[test]
    fn dotted_orders_reach_programs_with_long_loop_names() {
        // `lu_kij` has a loop called `I2`: no one-character-per-loop order
        // can name it, the dotted spelling the scheduler prints can
        let source = handle_request(&compile_req("lu_kij", Some("K.I2.J.I")));
        assert_eq!(
            source,
            handle_request(&compile_req("lu_kij", None)),
            "the source order, spelt out"
        );
        let jik = handle_request(&compile_req("distributed_simple_cholesky", Some("J.I2.I")));
        assert!(
            matches!(
                jik,
                Response::Compile {
                    outcome: CompileOutcome::Legal { .. },
                    ..
                }
            ),
            "{jik:?}"
        );
        let short = handle_request(&compile_req("lu_kij", Some("KIJ")));
        assert!(
            matches!(short, Response::Error { ref kind, ref message }
                if kind.contains("target") && message.contains("order 'KIJ'")),
            "{short:?}"
        );
    }

    #[test]
    fn identity_compile_works_for_every_zoo_program() {
        for (name, _) in ZOO {
            let resp = handle_request(&compile_req(name, None));
            assert!(
                matches!(
                    resp,
                    Response::Compile {
                        outcome: CompileOutcome::Legal { .. },
                        ..
                    }
                ),
                "{name}: {resp:?}"
            );
        }
    }

    #[test]
    fn run_digest_matches_backends_and_is_deterministic() {
        let req = |backend| Request::Run {
            program: "cholesky_kij".into(),
            params: vec![24],
            order: None,
            backend,
            telemetry: false,
        };
        let interp = handle_request(&req(BackendChoice::Interp));
        let vm = handle_request(&req(BackendChoice::Vm));
        assert_eq!(interp, vm, "backends must be bitwise identical");
        assert_eq!(interp, handle_request(&req(BackendChoice::Interp)));
        match interp {
            Response::Run {
                digest,
                arrays,
                cells,
                ..
            } => {
                assert_eq!(digest.len(), 16);
                assert_eq!(arrays, 1);
                assert_eq!(cells, 25 * 25);
            }
            other => panic!("expected Run, got {other:?}"),
        }
    }

    #[test]
    fn transformed_run_differs_in_schedule_not_result() {
        // KJLI reorders the update loops; final state must be bitwise
        // equal to the source order (pure interchange within the family).
        let source = handle_request(&Request::Run {
            program: "cholesky_kij".into(),
            params: vec![16],
            order: None,
            backend: BackendChoice::Vm,
            telemetry: false,
        });
        let kjli = handle_request(&Request::Run {
            program: "cholesky_kij".into(),
            params: vec![16],
            order: Some("KJLI".into()),
            backend: BackendChoice::Vm,
            telemetry: false,
        });
        assert_eq!(source, kjli);
    }

    #[test]
    fn schedule_is_deterministic_and_prunes() {
        let req = Request::Schedule {
            program: "cholesky_kij".into(),
            telemetry: false,
        };
        let first = handle_request(&req);
        // byte-stability is what inl-load's bitwise gate relies on
        assert_eq!(
            inl_proto::encode_response(&first),
            inl_proto::encode_response(&handle_request(&req))
        );
        match first {
            Response::Schedule {
                chosen,
                pseudocode,
                nodes_visited,
                nodes_exhaustive,
                pruned_subtrees,
                legal_variants,
                ..
            } => {
                assert!(!chosen.is_empty());
                assert!(pseudocode.contains("do"), "{pseudocode}");
                assert!(nodes_visited < nodes_exhaustive);
                assert!(pruned_subtrees > 0);
                assert!(legal_variants > 0);
            }
            other => panic!("expected Schedule, got {other:?}"),
        }
        let unknown = handle_request(&Request::Schedule {
            program: "nonesuch".into(),
            telemetry: false,
        });
        assert!(matches!(unknown, Response::Error { .. }), "{unknown:?}");
    }

    #[test]
    fn scheduled_labels_compile_to_the_scheduled_code() {
        // one spelling of a variant on both sides of the wire: every label
        // the scheduler returns — shaped, reversed or jammed — reads back as
        // its recipe, is an `order` a client can send back, and `Compile`
        // answers with the code the scheduler would materialise for that
        // variant. The search builds no tile shape, so the fit table's
        // `tile(…)` labels are held to the code the scheduler gives the
        // same order of the split program, scheduled as a program of its own
        let fit_table = include_str!("../../codegen/fit/cost_n128.csv");
        let mut sent = 0;
        let mut compiles_to = |name: &str, label: &str, want: String| {
            sent += 1;
            match handle_request(&compile_req(name, Some(label))) {
                Response::Compile {
                    outcome: CompileOutcome::Legal { pseudocode },
                    ..
                } => assert_eq!(pseudocode, want, "{name} order {label}"),
                other => panic!("{name} order {label}: {other:?}"),
            }
        };
        for (name, make) in ZOO {
            let p = make();
            let r = inl_sched::schedule(&p).expect("schedules");
            for (i, v) in r.variants.iter().enumerate() {
                let recipe: Recipe = v.label.parse().expect("a scheduler label parses");
                assert_eq!(recipe.to_string(), v.label, "{name}");
                assert_eq!(recipe, v.recipe, "{name} {}", v.label);
                compiles_to(
                    name,
                    &v.label,
                    r.materialise(i).expect("finishes").pseudocode,
                );
            }
            let tiled: Vec<Recipe> = fit_table
                .lines()
                .filter_map(|row| row.strip_prefix(name)?.strip_prefix(',')?.split(',').next())
                .map(|label| label.parse::<Recipe>().expect(label))
                .filter(|recipe| matches!(recipe.shape, Some(Step::Split { .. })))
                .collect();
            let Some(step) = tiled.first().and_then(|recipe| recipe.shape.clone()) else {
                continue;
            };
            let source = Shape::source(p).expect("analyses");
            let split = source.apply(&step).expect("splits").expect("legal");
            let r = inl_sched::schedule(&split.program).expect("schedules");
            for recipe in &tiled {
                assert_eq!(recipe.shape.as_ref(), Some(&step), "{name}: one tile shape");
                let leaf = (r.variants.iter())
                    .position(|v| v.recipe.shape.is_none() && v.recipe.order == recipe.order);
                let i = leaf.unwrap_or_else(|| panic!("{name} {recipe}: not a leaf of the split"));
                compiles_to(
                    name,
                    &recipe.to_string(),
                    r.materialise(i).expect("finishes").pseudocode,
                );
            }
        }
        assert_eq!(sent, 283, "every row of the fit table");
    }

    #[test]
    fn a_shaped_reversed_label_runs_to_the_source_digest() {
        let run = |order: Option<&str>| {
            handle_request(&Request::Run {
                program: "running_example".into(),
                params: vec![12],
                order: order.map(str::to_string),
                backend: BackendChoice::Vm,
                telemetry: false,
            })
        };
        let shaped = run(Some("dist(J@1)/J'.J_2.I"));
        assert!(matches!(shaped, Response::Run { .. }), "{shaped:?}");
        assert_eq!(shaped, run(None));
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let unknown = handle_request(&compile_req("nonesuch", None));
        assert!(
            matches!(unknown, Response::Error { ref kind, .. } if kind.contains("target")),
            "{unknown:?}"
        );
        let bad_order = handle_request(&compile_req("cholesky_kij", Some("KKKK")));
        assert!(matches!(bad_order, Response::Error { .. }), "{bad_order:?}");
        let bad_arity = handle_request(&Request::Run {
            program: "matmul".into(),
            params: vec![8, 8],
            order: None,
            backend: BackendChoice::Vm,
            telemetry: false,
        });
        assert!(matches!(bad_arity, Response::Error { .. }), "{bad_arity:?}");
        let oversize = handle_request(&Request::Run {
            program: "matmul".into(),
            params: vec![100_000],
            order: None,
            backend: BackendChoice::Vm,
            telemetry: false,
        });
        assert!(
            matches!(oversize, Response::Error { ref kind, .. } if kind.contains("budget")),
            "{oversize:?}"
        );
        let illegal_run = handle_request(&Request::Run {
            program: "cholesky_kij".into(),
            params: vec![8],
            order: Some("IKJL".into()),
            backend: BackendChoice::Vm,
            telemetry: false,
        });
        assert!(
            matches!(illegal_run, Response::Error { ref kind, .. } if kind.contains("infeasible")),
            "{illegal_run:?}"
        );
    }

    #[test]
    fn explain_names_the_verdict() {
        let legal = handle_request(&Request::Explain {
            program: "cholesky_kij".into(),
            order: Some("KJLI".into()),
            telemetry: false,
        });
        assert!(
            matches!(legal, Response::Explain { ref verdict, .. } if verdict == "legal"),
            "{legal:?}"
        );
        let rejected = handle_request(&Request::Explain {
            program: "cholesky_kij".into(),
            order: Some("IKJL".into()),
            telemetry: false,
        });
        match rejected {
            Response::Explain {
                verdict, reason, ..
            } => {
                assert_eq!(verdict, "rejected");
                assert!(!reason.is_empty());
            }
            other => panic!("expected Explain, got {other:?}"),
        }
    }

    #[test]
    fn stats_carries_the_analysis_memo_snapshot() {
        let resp = handle_request(&Request::Stats);
        match resp {
            Response::Stats { stats } => {
                assert!(stats.get("poly_cache").is_none(), "{stats:?}");
                let memo = stats.get("analysis_memo").expect("analysis_memo section");
                for key in ["hits", "misses", "entries", "evictions"] {
                    assert!(memo.get(key).is_some(), "missing {key}: {memo:?}");
                }
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn telemetry_request_gets_a_versioned_section() {
        let mut req = compile_req("cholesky_kij", Some("KJLI"));
        if let Request::Compile { telemetry, .. } = &mut req {
            *telemetry = true;
        }
        let resp = handle_request(&req);
        let section = resp.telemetry().expect("telemetry section");
        assert_eq!(
            section.get("version").and_then(inl_obs::Json::as_u64),
            Some(inl_obs::capture::SCHEMA_VERSION)
        );
        let stages = section.get("stages").expect("stages");
        let compile = stages.get("serve.compile").expect("serve.compile stage");
        assert_eq!(
            compile.get("count").and_then(inl_obs::Json::as_u64),
            Some(1)
        );
        assert!(section.get("poly_cache").is_none());
        assert!(section.get("explain").is_some());
        // The core answer (telemetry stripped) is byte-identical to the
        // telemetry-off answer for the same request.
        let off = handle_request(&compile_req("cholesky_kij", Some("KJLI")));
        assert_eq!(
            inl_proto::encode_response(&resp.strip_telemetry()),
            inl_proto::encode_response(&off)
        );
        // Error responses carry no telemetry slot and come back bare.
        let mut bad = compile_req("nonesuch", None);
        if let Request::Compile { telemetry, .. } = &mut bad {
            *telemetry = true;
        }
        let err = handle_request(&bad);
        assert!(matches!(err, Response::Error { .. }), "{err:?}");
        assert!(err.telemetry().is_none());
    }

    #[test]
    fn a_memo_hit_claims_no_analysis_work_in_its_telemetry() {
        let req = Request::Explain {
            program: "lu_kij".into(),
            order: None,
            telemetry: true,
        };
        // whoever analysed lu_kij first, by the second request it is stored
        // (nothing in this test binary clears the analysis memo)
        handle_request(&req);
        let resp = handle_request(&req);
        let section = resp.telemetry().expect("telemetry section");
        let counters = section.get("counters").expect("counters");
        assert_eq!(
            counters
                .get("depend.memo.hit")
                .and_then(inl_obs::Json::as_u64),
            Some(1),
            "{counters:?}"
        );
        for work in ["depend.memo.miss", "depend.pairs_tested"] {
            assert!(counters.get(work).is_none(), "{work} in {counters:?}");
        }
        // the request for an analysis is still on record
        let stages = section.get("stages").expect("stages");
        assert!(
            stages.get("serve.compile/depend.analyze").is_some(),
            "{stages:?}"
        );
    }

    #[test]
    fn schedule_telemetry_covers_the_per_variant_work() {
        // the capture is thread-local, so it sees the per-variant lowering
        // — nearly all of a Schedule request — only because a one-thread
        // schedule runs it on the handler's own thread
        let resp = handle_request(&Request::Schedule {
            program: "simple_cholesky".into(),
            telemetry: true,
        });
        assert!(matches!(resp, Response::Schedule { .. }), "{resp:?}");
        let section = resp.telemetry().expect("telemetry section");
        let counter = |name: &str| {
            section
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(inl_obs::Json::as_u64)
                .unwrap_or(0)
        };
        assert!(counter("codegen.bounds_scanned") > 0, "{section:?}");
        assert!(counter("sched.variants_ranked") > 1, "{section:?}");
        let stages = section.get("stages").expect("stages");
        for stage in [
            "serve.schedule/sched.schedule/sched.rank/batch.compile",
            "serve.schedule/sched.schedule/sched.finish/codegen.generate",
        ] {
            assert!(stages.get(stage).is_some(), "{stage}: {stages:?}");
        }
    }

    #[test]
    fn metrics_snapshot_reflects_window_feed() {
        let resp = handle_request(&Request::Metrics);
        let before = match &resp {
            Response::Metrics { metrics } => metrics
                .get("count")
                .and_then(inl_obs::Json::as_u64)
                .unwrap(),
            other => panic!("expected Metrics, got {other:?}"),
        };
        crate::request_window().record("compile", 1_000, false);
        let resp = handle_request(&Request::Metrics);
        match resp {
            Response::Metrics { metrics } => {
                let after = metrics
                    .get("count")
                    .and_then(inl_obs::Json::as_u64)
                    .unwrap();
                assert!(after > before, "window feed not visible: {metrics:?}");
            }
            other => panic!("expected Metrics, got {other:?}"),
        }
    }
}
