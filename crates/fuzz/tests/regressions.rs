//! Minimized regression cases for crashes the fuzz harness (and the
//! conversion work it validates) uncovered. Each test pins one formerly
//! panicking input to its typed error — these must stay green forever.

use inl_fuzz::{analyzed, build_program, compile, Compiled, ProgramRecipe};
use inl_linalg::{IMat, Int, Rational};
use inl_poly::{fm, LinExpr, System};

/// Fourier–Motzkin on rows with near-`i128` coefficients used to overflow
/// in the lower×upper combination (`l.scale(b) + u.scale(a)`); it must
/// report a typed Overflow error (or succeed after gcd-normalization).
#[test]
fn fm_coefficient_growth_is_typed_overflow() {
    let big = Int::MAX / 2;
    let mut s = System::new(3);
    s.add_ge(LinExpr::from_parts(vec![big, 1, 0], 0)); // big·x0 + x1 ≥ 0
    s.add_ge(LinExpr::from_parts(vec![-big, 0, 1], -1)); // -big·x0 + x2 - 1 ≥ 0
    s.add_ge(LinExpr::from_parts(vec![3, -big, 0], 5));
    s.add_ge(LinExpr::from_parts(vec![0, big, -3], 7));
    match fm::project(&s, &[2]) {
        Ok(_) => {}
        Err(e) => assert!(!e.to_string().is_empty(), "error must carry context"),
    }
}

/// `Rational` comparison cross-multiplies; `MAX/1` vs `(MAX-1)/2` used to
/// overflow the naive product. It must order correctly.
#[test]
fn rational_cmp_near_max_is_exact() {
    let a = Rational::new(Int::MAX, 1);
    let b = Rational::new(Int::MAX - 1, 2);
    assert!(a > b);
    let c = Rational::new(Int::MIN + 1, 3);
    assert!(c < b);
}

/// A guard contradicting the loop bounds plus a scaling (non-unimodular)
/// schedule drives Fourier–Motzkin trivially empty mid-projection; the
/// pipeline used to panic in bound globalization, now it reports a typed
/// codegen rejection.
#[test]
fn empty_domain_under_scaling_is_rejected() {
    use inl_ir::{Aff, Expr, ProgramBuilder};
    let mut b = ProgramBuilder::new("regress_empty");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) + Aff::konst(2)]);
    b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
        let i = b.loop_var("I");
        b.hloop("J", Aff::konst(1), Aff::param(n), |b| {
            let j = b.loop_var("J");
            b.stmt_guarded(
                "S1",
                x,
                vec![Aff::var(j)],
                Expr::index(Aff::var(i)),
                vec![inl_ir::Guard::Ge(Aff::konst(0) - Aff::var(i))],
            );
        });
    });
    let p = b.finish();
    let mut m = IMat::identity(2);
    m[(0, 0)] = 2;
    m[(1, 1)] = 2;
    match compile(&p, &m) {
        Compiled::Rejected(msg) => assert!(msg.starts_with("codegen:"), "{msg}"),
        Compiled::Ok(_) => panic!("empty domain must not compile"),
    }
}

/// Jamming two loops whose bounds differ used to trip an `assert!` inside
/// the IR surgery; it must be a typed `InvalidTarget` error naming the two
/// loops.
#[test]
fn jam_mismatched_bounds_is_invalid_target() {
    use inl_ir::{Aff, Expr, ProgramBuilder};
    let mut b = ProgramBuilder::new("regress_jam");
    let n = b.param("N");
    let x = b.array("X", &[Aff::param(n) + Aff::konst(2)]);
    for (name, lo) in [("I", 1), ("J", 2)] {
        b.hloop(name, Aff::konst(lo), Aff::param(n), |b| {
            let v = b.loop_var(name);
            b.stmt(
                format!("S{name}"),
                x,
                vec![Aff::var(v)],
                Expr::index(Aff::var(v)),
            );
        });
    }
    let p = b.finish();
    let (layout, _) = analyzed(&p).expect("analysis");
    let err = inl_core::structural::jam(&p, &layout, None, 0).unwrap_err();
    assert_eq!(err.kind(), inl_linalg::InlErrorKind::InvalidTarget);
    assert!(err.to_string().contains("identical bounds"), "{err}");
}

/// Composing skews whose factors multiply past `i128` used to panic in the
/// unchecked matrix product although `compose` returns a `Result`; it must
/// report a typed Overflow error.
#[test]
fn compose_past_i128_is_typed_overflow() {
    use inl_core::transform::Transform;
    let p = inl_ir::zoo::matmul();
    let layout = inl_core::instance::InstanceLayout::new(&p);
    let loops: Vec<_> = p.loops().collect();
    let skew = |target, source| Transform::Skew {
        target,
        source,
        factor: 1 << 100,
    };
    let seq = [
        skew(loops[0], loops[1]),
        skew(loops[1], loops[0]),
        skew(loops[0], loops[1]),
    ];
    let err = Transform::compose(&p, &layout, &seq).unwrap_err();
    assert_eq!(err.kind(), inl_linalg::InlErrorKind::Overflow, "{err}");
}

/// Sinking a nest whose candidate loop has sibling statements *after* the
/// loop child used to hit an `expect` on the assumed node shape; it must
/// return a typed error (or succeed) on every program shape the
/// generator produces.
#[test]
fn sink_handles_every_generated_shape() {
    for shape in 0..3 {
        for sibling in [false, true] {
            let p = build_program(&ProgramRecipe {
                shape,
                oa: 0,
                ob: 0,
                triangular: true,
                cross: false,
                guard: 0,
                sibling,
            });
            let _ = inl_core::sink::sink_statements(&p);
        }
    }
}

/// A rank-deficient (all-zero row) matrix flows through legality into
/// per-statement scheduling; it must come back as a typed rejection,
/// never a unwrap on the singular inverse.
#[test]
fn singular_matrix_is_rejected_not_unwrapped() {
    let p = build_program(&ProgramRecipe {
        shape: 0,
        oa: 0,
        ob: 0,
        triangular: false,
        cross: false,
        guard: 0,
        sibling: false,
    });
    let (layout, _) = analyzed(&p).expect("analysis");
    let m = IMat::zeros(layout.len(), layout.len());
    match compile(&p, &m) {
        Compiled::Rejected(_) => {}
        Compiled::Ok(_) => panic!("singular matrix must not compile"),
    }
}

// ---------------------------------------------------------------------
// Wire-protocol decoder seeds (inl-proto). These pin the hostile inputs
// the protocol fuzz properties are built around: each is the minimized
// representative of an attack class that must stay a typed error.
// ---------------------------------------------------------------------

/// Seed 1 — allocation bomb: a 4-byte header claiming a 4 GiB payload
/// followed by nothing. Must be rejected on the length check *before*
/// the payload buffer is allocated; an OOM abort here counts as a crash.
#[test]
fn proto_seed_oversized_length_prefix() {
    use inl_proto::{read_frame, FrameError, FrameLimits};
    let wire: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF];
    match read_frame(&mut &wire[..], &FrameLimits::default()) {
        Err(FrameError::Malformed(e)) => {
            assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Seed 2 — recursion bomb: ten thousand open brackets. The JSON depth
/// limit must turn this into a typed Budget error instead of letting the
/// recursive-descent parser blow the stack.
#[test]
fn proto_seed_deep_nesting_bomb() {
    use inl_proto::{decode_request, FrameLimits};
    let payload = "[".repeat(10_000);
    let e = decode_request(payload.as_bytes(), &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::Budget);
}

/// Seed 3 — overflow probe: a `params` entry one past `u32::MAX` and a
/// 39-digit integer (past `u64`). Both must be typed IllFormed errors,
/// not wrap-arounds into accepted values.
#[test]
fn proto_seed_integer_overflow_params() {
    use inl_proto::{decode_request, FrameLimits};
    let just_past_u32 = br#"{"type": "run", "program": "matmul", "params": [4294967296]}"#;
    let e = decode_request(just_past_u32, &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
    let past_u64 = br#"{"type": "run", "program": "matmul", "params": [340282366920938463463374607431768211456]}"#;
    let e = decode_request(past_u64, &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
}

/// Seed 4 — truncated UTF-8 multibyte sequence straddling the payload
/// boundary (the first byte of a 4-byte emoji, then EOF). Typed error,
/// not a slicing panic inside the parser.
#[test]
fn proto_seed_truncated_utf8() {
    use inl_proto::{decode_request, FrameLimits};
    let wire: &[u8] = &[b'{', b'"', 0xF0, 0x9F];
    let e = decode_request(wire, &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
}

/// Seed 5 — type-confused telemetry flag: `"telemetry"` as a string, a
/// number, and a deeply nested array. The opt-in flag is strictly a
/// boolean (absent/null meaning off); anything else must be a typed
/// IllFormed error, never a silently-enabled capture and never a parser
/// panic on the nesting.
#[test]
fn proto_seed_type_confused_telemetry_flag() {
    use inl_proto::{decode_request, FrameLimits};
    for bad in [
        br#"{"type": "compile", "program": "matmul", "telemetry": "yes"}"#.as_slice(),
        br#"{"type": "compile", "program": "matmul", "telemetry": 1}"#.as_slice(),
        br#"{"type": "explain", "program": "matmul", "telemetry": [[[[[true]]]]]}"#.as_slice(),
    ] {
        let e = decode_request(bad, &FrameLimits::default()).unwrap_err();
        assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed, "{bad:?}");
    }
    // Absent and null both mean "off" — legitimate old-client traffic.
    for ok in [
        br#"{"type": "compile", "program": "matmul"}"#.as_slice(),
        br#"{"type": "compile", "program": "matmul", "telemetry": null}"#.as_slice(),
    ] {
        let req = decode_request(ok, &FrameLimits::default()).unwrap();
        assert!(!req.wants_telemetry(), "{ok:?}");
    }
}

/// Seed 6 — telemetry-section nesting bomb in a *response*: a `compile`
/// reply whose telemetry section is thousands of nested arrays. The
/// depth limit must answer with a typed Budget error before the
/// recursive-descent parser blows the stack, and a `metrics` reply whose
/// payload is not an object must be IllFormed, not a downstream unwrap.
#[test]
fn proto_seed_telemetry_section_nesting_bomb() {
    use inl_proto::{decode_response, FrameLimits};
    let bomb = format!(
        r#"{{"type": "compile", "status": "legal", "pseudocode": "x", "telemetry": {}{}"#,
        "[".repeat(5_000),
        "]".repeat(5_000)
    ) + "}";
    let e = decode_response(bomb.as_bytes(), &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::Budget);
    // Well-nested but non-object telemetry: typed IllFormed.
    let non_object =
        br#"{"type": "compile", "status": "legal", "pseudocode": "x", "telemetry": [1, 2]}"#;
    let e = decode_response(non_object, &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
    let bad_metrics = br#"{"type": "metrics", "metrics": 7}"#;
    let e = decode_response(bad_metrics, &FrameLimits::default()).unwrap_err();
    assert_eq!(e.kind(), inl_linalg::InlErrorKind::IllFormed);
}

/// Seed 7 — ranking an empty measured-variant list: `sweep_program` used
/// to `expect("at least one variant")` / `.max().unwrap()` when asked to
/// rank extremes over zero measurements. The extremes helper must return
/// a typed InvalidTarget error naming the sweep, never panic.
#[test]
fn sched_seed_empty_variant_list_is_typed_error() {
    let err = inl_sched::sweep::measured_extremes("phantom", &[])
        .expect_err("zero measurements cannot be ranked");
    assert_eq!(err.kind(), inl_linalg::InlErrorKind::InvalidTarget);
    assert_eq!(
        err.message(),
        "sweep of phantom: no measured variants: the schedule produced an empty variant list"
    );
}

// ---------------------------------------------------------------------
// Variant-label seeds (inl-serve's `order`, read as an `inl_core::recipe`).
// Each is a label the scheduler never prints; Compile, Run and Explain
// must all answer it with a typed `invalid target` error.
// ---------------------------------------------------------------------

/// Seeds 8–16 — shapes that do not apply (a tile of 0, a tile size past
/// `i128`, a child index past the loop's children, a loop jammed with
/// itself or with a loop that is not its next sibling), a mark after a
/// mark, a shape with nothing before its `/`, a shape with no order, and a
/// trailing dot.
#[test]
fn label_seeds_are_typed_errors() {
    use inl_proto::{BackendChoice, Request, Response};
    for (order, complaint) in [
        ("tile(L@0)/K.Lo.J.L.I", "tile size 0 must be at least 2"),
        (
            "tile(L@170141183460469231731687303715884105728)/K.Lo.J.L.I",
            "the shape is not",
        ),
        ("dist(K@9)/KJLI", "split 9 out of range"),
        ("jam(I+I)/KJLI", "not adjacent siblings"),
        ("jam(K+L)/KJLI", "not adjacent siblings"),
        ("KJ''LI", "a reversal mark ' follows a loop name, once"),
        ("/KJLI", "the shape is not"),
        ("tile(L@16)", "names 10 loop(s)"),
        ("K.J.L.", "has no loop ''"),
    ] {
        let (program, order) = ("cholesky_kij".to_string(), Some(order.to_string()));
        for req in [
            Request::Compile {
                program: program.clone(),
                order: order.clone(),
                telemetry: false,
            },
            Request::Run {
                program: program.clone(),
                params: vec![6],
                order: order.clone(),
                backend: BackendChoice::Vm,
                telemetry: false,
            },
            Request::Explain {
                program: program.clone(),
                order: order.clone(),
                telemetry: true,
            },
        ] {
            match inl_serve::handle_request(&req) {
                Response::Error { kind, message } => {
                    assert_eq!(kind, "invalid target", "{order:?}");
                    assert!(message.contains(complaint), "{order:?}: {message}");
                }
                other => panic!("{order:?}: expected a typed error, got {other:?}"),
            }
        }
    }
}

/// An assumption that names a loop variable, or one with a divisor, used
/// to pass `validate()` and then panic the dependence analysis. `validate`
/// rejects both, and `analyze` of the unvalidated program is a typed
/// `MalformedProgram` error.
#[test]
fn assumption_on_a_loop_variable_is_malformed() {
    use inl_ir::{Aff, Expr, ProgramBuilder};
    use inl_linalg::InlErrorKind;
    for divided in [false, true] {
        let mut b = ProgramBuilder::new("regress_assume");
        let n = b.param("N");
        let x = b.array("X", &[Aff::param(n) + Aff::konst(1)]);
        b.hloop("I", Aff::konst(1), Aff::param(n), |b| {
            let i = b.loop_var("I");
            b.assume(if divided {
                Aff::param(n).exact_div(2)
            } else {
                Aff::var(i)
            });
            b.stmt("S1", x, vec![Aff::var(i)], Expr::konst(1.0));
        });
        let p = b.finish_unchecked();
        let why = p.validate().expect_err("an invalid assumption");
        let complaint = if divided {
            "divisor"
        } else {
            "I has no variable"
        };
        assert!(why.contains(complaint), "{why}");
        let layout = inl_core::instance::InstanceLayout::new(&p);
        let err = inl_core::depend::analyze(&p, &layout).expect_err("a typed error");
        assert_eq!(err.kind(), InlErrorKind::MalformedProgram, "{err}");
    }
}
