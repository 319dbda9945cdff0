//! The typed message schema: what flows inside the frames.
//!
//! Every message is a JSON object with a `"type"` discriminator. The
//! request side mirrors the pipeline's operations (compile / run /
//! explain), plus `stats` / `metrics` / `shutdown` for service control;
//! the response side carries either the operation's result or a typed
//! `error` object — a malformed request gets an error *response*, never
//! a dropped connection.
//!
//! # Telemetry
//!
//! `compile` / `run` / `explain` requests accept an opt-in boolean
//! `telemetry` flag. When it is `true`, the matching response carries a
//! versioned `telemetry` JSON object (per-stage span durations, counter
//! deltas, explain verdict summary —
//! the schema is owned by `inl_obs::capture`). Both the flag and the
//! section are **encoded only when present**, so a telemetry-off
//! exchange is byte-identical to the pre-telemetry protocol; `metrics`
//! returns the server's sliding-window percentiles (schema owned by
//! `inl_serve::window`). Everything stays canonical JSON, so bitwise
//! response comparison still holds once the telemetry section is
//! stripped ([`Response::strip_telemetry`]).

use inl_linalg::{InlError, InlErrorKind};
use inl_obs::{Json, JsonError, ParseLimits};

use crate::frame::FrameLimits;

/// Which execution backend a `run` request wants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// The reference tree-walking interpreter.
    Interp,
    /// The compiling bytecode VM (the service default — both backends
    /// are bitwise-identical, the VM is just faster).
    #[default]
    Vm,
}

impl BackendChoice {
    /// Wire name (`"interp"` / `"vm"`).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::Interp => "interp",
            BackendChoice::Vm => "vm",
        }
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Push a program through analyze → (shape) → complete → codegen and
    /// return the generated pseudocode. `order` is a variant label in the
    /// grammar of `inl_core::recipe` — an optional shape step, then every
    /// loop of the (shaped) program once, `'` after a reversed one:
    /// `"KJLI"`, `"K.I2.J.I"`, `"dist(J@1)/J'.J_2.I"`, or any label a
    /// [`Response::Schedule`] returns. The order is completed to a full
    /// transformation; `None` compiles the identity schedule.
    Compile {
        /// Zoo program name (e.g. `"cholesky_kij"`).
        program: String,
        /// Optional variant label (see above).
        order: Option<String>,
        /// Ask the server to attach a per-request `telemetry` section to
        /// the response (encoded on the wire only when `true`).
        telemetry: bool,
    },
    /// Compile (as above) and execute, returning a digest of the final
    /// array state for bitwise comparison.
    Run {
        /// Zoo program name.
        program: String,
        /// Symbolic parameter values (e.g. the problem size `N`).
        params: Vec<u32>,
        /// Optional variant label, as for [`Request::Compile`].
        order: Option<String>,
        /// Which backend executes the program.
        backend: BackendChoice,
        /// Ask for a per-request `telemetry` section (see module docs).
        telemetry: bool,
    },
    /// Ask *why* a variant label is legal or rejected for a program.
    Explain {
        /// Zoo program name.
        program: String,
        /// Optional variant label, as for [`Request::Compile`].
        order: Option<String>,
        /// Ask for a per-request `telemetry` section (see module docs).
        telemetry: bool,
    },
    /// Auto-schedule: search the legal transformation space of a zoo
    /// program and return the cost-minimal variant plus the search
    /// counters (`inl-sched` as a service operation).
    Schedule {
        /// Zoo program name.
        program: String,
        /// Ask for a per-request `telemetry` section (see module docs).
        telemetry: bool,
    },
    /// Snapshot service counters and the process-wide analysis-memo
    /// stats.
    Stats,
    /// Snapshot the server's sliding-window live metrics (latency
    /// percentiles, request rate, error rate over the last N seconds).
    Metrics,
    /// Graceful shutdown: the server acknowledges, stops accepting new
    /// connections, drains in-flight sessions, and exits.
    Shutdown,
}

impl Request {
    /// True iff this request opts into a per-request `telemetry` section.
    pub fn wants_telemetry(&self) -> bool {
        match self {
            Request::Compile { telemetry, .. }
            | Request::Run { telemetry, .. }
            | Request::Explain { telemetry, .. }
            | Request::Schedule { telemetry, .. } => *telemetry,
            Request::Stats | Request::Metrics | Request::Shutdown => false,
        }
    }

    /// The wire discriminator (`"compile"`, `"run"`, ... ) — also the
    /// per-request-kind key the server's sliding window tallies under.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Compile { .. } => "compile",
            Request::Run { .. } => "run",
            Request::Explain { .. } => "explain",
            Request::Schedule { .. } => "schedule",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Result of a `compile` request: rejection is a first-class outcome
/// (an illegal loop order is an *answer*, not an error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileOutcome {
    /// The schedule is legal; here is the generated program.
    Legal {
        /// Pseudocode of the generated program.
        pseudocode: String,
    },
    /// The schedule was rejected by legality/completion.
    Rejected {
        /// The typed rejection, rendered (deterministic per input).
        reason: String,
    },
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Compile`].
    Compile {
        /// The compile result (legal pseudocode or typed rejection).
        outcome: CompileOutcome,
        /// Per-request telemetry section, present iff the request set
        /// `telemetry: true` (must be a JSON object when present).
        telemetry: Option<Json>,
    },
    /// Answer to [`Request::Run`].
    Run {
        /// FNV-1a 64 digest over every array's `f64` bit patterns, as
        /// 16 lowercase hex digits — equal digests mean bitwise-equal
        /// final states.
        digest: String,
        /// Number of arrays digested.
        arrays: u64,
        /// Total `f64` cells digested.
        cells: u64,
        /// Per-request telemetry section (see [`Response::Compile`]).
        telemetry: Option<Json>,
    },
    /// Answer to [`Request::Explain`].
    Explain {
        /// `"legal"` or `"rejected"`.
        verdict: String,
        /// The evidence line (proof or killing dependence).
        reason: String,
        /// Per-request telemetry section (see [`Response::Compile`]).
        telemetry: Option<Json>,
    },
    /// Answer to [`Request::Schedule`]: the chosen variant and the
    /// deterministic search counters. Carries no timings — responses
    /// must stay byte-stable so `inl-load` can bitwise-compare them
    /// against in-process scheduling.
    Schedule {
        /// Label of the chosen variant (e.g. `"IKJ"`, `"dist(I@1)/I_2.I"`);
        /// a client can send it back as the `order` of a Compile, Run or
        /// Explain request.
        chosen: String,
        /// Pseudocode of the chosen variant's generated program.
        pseudocode: String,
        /// Search-tree nodes actually visited.
        nodes_visited: u64,
        /// Nodes a brute-force enumeration would have visited.
        nodes_exhaustive: u64,
        /// Prefixes whose dependence violation killed a whole subtree.
        pruned_subtrees: u64,
        /// Legal variants found (the chosen one is the cost-minimal).
        legal_variants: u64,
        /// Per-request telemetry section (see [`Response::Compile`]).
        telemetry: Option<Json>,
    },
    /// Answer to [`Request::Stats`]: a free-form JSON object
    /// (analysis-memo counters, serve counters, uptime/session gauges).
    Stats {
        /// The stats object.
        stats: Json,
    },
    /// Answer to [`Request::Metrics`]: the sliding-window snapshot
    /// (schema owned by `inl_serve::window`).
    Metrics {
        /// The windowed-metrics object.
        metrics: Json,
    },
    /// Acknowledges [`Request::Shutdown`]; sent before the drain begins.
    Shutdown,
    /// A typed failure: unknown program, malformed request, execution
    /// error. Carries the [`InlErrorKind`] name so clients can match.
    Error {
        /// The error kind (an [`InlErrorKind`] rendered, e.g.
        /// `"invalid target"`).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Build an error response from a typed error.
    pub fn from_error(e: &InlError) -> Response {
        Response::Error {
            kind: e.kind().to_string(),
            message: e.message().to_string(),
        }
    }

    /// The telemetry section, if this response carries one.
    pub fn telemetry(&self) -> Option<&Json> {
        match self {
            Response::Compile { telemetry, .. }
            | Response::Run { telemetry, .. }
            | Response::Explain { telemetry, .. }
            | Response::Schedule { telemetry, .. } => telemetry.as_ref(),
            _ => None,
        }
    }

    /// Attach a telemetry section to a telemetry-capable response;
    /// returns every other variant unchanged.
    pub fn with_telemetry(mut self, section: Json) -> Response {
        match &mut self {
            Response::Compile { telemetry, .. }
            | Response::Run { telemetry, .. }
            | Response::Explain { telemetry, .. }
            | Response::Schedule { telemetry, .. } => *telemetry = Some(section),
            _ => {}
        }
        self
    }

    /// A copy with any telemetry section removed — the *core* response.
    /// Stripped responses from a telemetry-on exchange encode to exactly
    /// the bytes a telemetry-off exchange would have produced, which is
    /// what `inl-load` byte-compares against in-process handling.
    pub fn strip_telemetry(&self) -> Response {
        let mut core = self.clone();
        match &mut core {
            Response::Compile { telemetry, .. }
            | Response::Run { telemetry, .. }
            | Response::Explain { telemetry, .. }
            | Response::Schedule { telemetry, .. } => *telemetry = None,
            _ => {}
        }
        core
    }
}

// ------------------------------------------------------------- encoding

fn obj(kind: &str) -> Json {
    let mut o = Json::object();
    o.insert("type", Json::Str(kind.to_string()));
    o
}

/// Encode a request as canonical JSON text (deterministic: object keys
/// serialize in sorted order).
pub fn encode_request(req: &Request) -> String {
    // The `telemetry` flag is encoded only when set, so a telemetry-off
    // request is byte-identical to the pre-telemetry wire format.
    let telemetry_flag = |o: &mut Json, on: bool| {
        if on {
            o.insert("telemetry", Json::Bool(true));
        }
    };
    let json = match req {
        Request::Compile {
            program,
            order,
            telemetry,
        } => {
            let mut o = obj("compile");
            o.insert("program", Json::Str(program.clone()));
            if let Some(ord) = order {
                o.insert("order", Json::Str(ord.clone()));
            }
            telemetry_flag(&mut o, *telemetry);
            o
        }
        Request::Run {
            program,
            params,
            order,
            backend,
            telemetry,
        } => {
            let mut o = obj("run");
            o.insert("program", Json::Str(program.clone()));
            o.insert(
                "params",
                Json::Array(params.iter().map(|&p| Json::Int(p as u64)).collect()),
            );
            if let Some(ord) = order {
                o.insert("order", Json::Str(ord.clone()));
            }
            o.insert("backend", Json::Str(backend.as_str().to_string()));
            telemetry_flag(&mut o, *telemetry);
            o
        }
        Request::Explain {
            program,
            order,
            telemetry,
        } => {
            let mut o = obj("explain");
            o.insert("program", Json::Str(program.clone()));
            if let Some(ord) = order {
                o.insert("order", Json::Str(ord.clone()));
            }
            telemetry_flag(&mut o, *telemetry);
            o
        }
        Request::Schedule { program, telemetry } => {
            let mut o = obj("schedule");
            o.insert("program", Json::Str(program.clone()));
            telemetry_flag(&mut o, *telemetry);
            o
        }
        Request::Stats => obj("stats"),
        Request::Metrics => obj("metrics"),
        Request::Shutdown => obj("shutdown"),
    };
    json.to_pretty_string()
}

/// Encode a response as canonical JSON text.
pub fn encode_response(resp: &Response) -> String {
    // Like the request flag: the `telemetry` section is encoded only
    // when present, keeping telemetry-off responses byte-stable.
    let telemetry_section = |o: &mut Json, t: &Option<Json>| {
        if let Some(section) = t {
            o.insert("telemetry", section.clone());
        }
    };
    let json = match resp {
        Response::Compile { outcome, telemetry } => {
            let mut o = obj("compile");
            match outcome {
                CompileOutcome::Legal { pseudocode } => {
                    o.insert("legal", Json::Bool(true));
                    o.insert("pseudocode", Json::Str(pseudocode.clone()));
                }
                CompileOutcome::Rejected { reason } => {
                    o.insert("legal", Json::Bool(false));
                    o.insert("reason", Json::Str(reason.clone()));
                }
            }
            telemetry_section(&mut o, telemetry);
            o
        }
        Response::Run {
            digest,
            arrays,
            cells,
            telemetry,
        } => {
            let mut o = obj("run");
            o.insert("digest", Json::Str(digest.clone()));
            o.insert("arrays", Json::Int(*arrays));
            o.insert("cells", Json::Int(*cells));
            telemetry_section(&mut o, telemetry);
            o
        }
        Response::Explain {
            verdict,
            reason,
            telemetry,
        } => {
            let mut o = obj("explain");
            o.insert("verdict", Json::Str(verdict.clone()));
            o.insert("reason", Json::Str(reason.clone()));
            telemetry_section(&mut o, telemetry);
            o
        }
        Response::Schedule {
            chosen,
            pseudocode,
            nodes_visited,
            nodes_exhaustive,
            pruned_subtrees,
            legal_variants,
            telemetry,
        } => {
            let mut o = obj("schedule");
            o.insert("chosen", Json::Str(chosen.clone()));
            o.insert("pseudocode", Json::Str(pseudocode.clone()));
            o.insert("nodes_visited", Json::Int(*nodes_visited));
            o.insert("nodes_exhaustive", Json::Int(*nodes_exhaustive));
            o.insert("pruned_subtrees", Json::Int(*pruned_subtrees));
            o.insert("legal_variants", Json::Int(*legal_variants));
            telemetry_section(&mut o, telemetry);
            o
        }
        Response::Stats { stats } => {
            let mut o = obj("stats");
            o.insert("stats", stats.clone());
            o
        }
        Response::Metrics { metrics } => {
            let mut o = obj("metrics");
            o.insert("metrics", metrics.clone());
            o
        }
        Response::Shutdown => obj("shutdown"),
        Response::Error { kind, message } => {
            let mut o = obj("error");
            o.insert("kind", Json::Str(kind.clone()));
            o.insert("message", Json::Str(message.clone()));
            o
        }
    };
    json.to_pretty_string()
}

// ------------------------------------------------------------- decoding

fn decode_json(payload: &[u8], limits: &FrameLimits) -> Result<Json, InlError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| InlError::new(InlErrorKind::IllFormed, format!("payload not UTF-8: {e}")))?;
    let parse_limits = ParseLimits {
        max_len: limits.max_frame,
        max_depth: limits.max_json_depth,
    };
    Json::parse_with_limits(text, &parse_limits).map_err(|e| match e {
        JsonError::TooLong { .. } | JsonError::TooDeep { .. } => {
            InlError::new(InlErrorKind::Budget, e.to_string())
        }
        JsonError::Syntax(msg) => InlError::new(InlErrorKind::IllFormed, msg),
    })
}

fn msg_type(json: &Json) -> Result<&str, InlError> {
    json.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| InlError::new(InlErrorKind::IllFormed, "message has no 'type' field"))
}

fn str_field(json: &Json, field: &str) -> Result<String, InlError> {
    json.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| {
            InlError::new(
                InlErrorKind::IllFormed,
                format!("missing or non-string '{field}' field"),
            )
        })
}

fn opt_str_field(json: &Json, field: &str) -> Result<Option<String>, InlError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(InlError::new(
            InlErrorKind::IllFormed,
            format!("'{field}' must be a string"),
        )),
    }
}

/// An optional boolean field; absent (or `null`) means `false`, any
/// non-boolean value is a typed error.
fn opt_bool_field(json: &Json, field: &str) -> Result<bool, InlError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(false),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(InlError::new(
            InlErrorKind::IllFormed,
            format!("'{field}' must be a boolean"),
        )),
    }
}

/// An optional JSON-object field (the `telemetry` section); absent (or
/// `null`) means none, any non-object value is a typed error.
fn opt_object_field(json: &Json, field: &str) -> Result<Option<Json>, InlError> {
    match json.get(field) {
        None | Some(Json::Null) => Ok(None),
        Some(section @ Json::Object(_)) => Ok(Some(section.clone())),
        Some(_) => Err(InlError::new(
            InlErrorKind::IllFormed,
            format!("'{field}' must be an object"),
        )),
    }
}

/// A required JSON-object field (`stats` / `metrics` payloads).
fn object_field(json: &Json, field: &str) -> Result<Json, InlError> {
    opt_object_field(json, field)?.ok_or_else(|| {
        InlError::new(
            InlErrorKind::IllFormed,
            format!("missing object '{field}' field"),
        )
    })
}

fn u64_field(json: &Json, field: &str) -> Result<u64, InlError> {
    json.get(field).and_then(Json::as_u64).ok_or_else(|| {
        InlError::new(
            InlErrorKind::IllFormed,
            format!("missing or non-integer '{field}' field"),
        )
    })
}

/// Decode a request payload. All failure modes — bad UTF-8, bad JSON,
/// over-deep nesting, unknown `type`, missing or mistyped fields,
/// out-of-range parameters — are typed errors.
pub fn decode_request(payload: &[u8], limits: &FrameLimits) -> Result<Request, InlError> {
    let json = decode_json(payload, limits)?;
    match msg_type(&json)? {
        "compile" => Ok(Request::Compile {
            program: str_field(&json, "program")?,
            order: opt_str_field(&json, "order")?,
            telemetry: opt_bool_field(&json, "telemetry")?,
        }),
        "run" => {
            let params = match json.get("params") {
                Some(Json::Array(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| {
                                InlError::new(
                                    InlErrorKind::IllFormed,
                                    "'params' entries must be integers in u32 range",
                                )
                            })
                    })
                    .collect::<Result<Vec<u32>, InlError>>()?,
                _ => {
                    return Err(InlError::new(
                        InlErrorKind::IllFormed,
                        "missing or non-array 'params' field",
                    ))
                }
            };
            let backend = match opt_str_field(&json, "backend")?.as_deref() {
                None | Some("vm") => BackendChoice::Vm,
                Some("interp") => BackendChoice::Interp,
                Some(other) => {
                    return Err(InlError::new(
                        InlErrorKind::Unsupported,
                        format!("unknown backend '{other}' (expected 'vm' or 'interp')"),
                    ))
                }
            };
            Ok(Request::Run {
                program: str_field(&json, "program")?,
                params,
                order: opt_str_field(&json, "order")?,
                backend,
                telemetry: opt_bool_field(&json, "telemetry")?,
            })
        }
        "explain" => Ok(Request::Explain {
            program: str_field(&json, "program")?,
            order: opt_str_field(&json, "order")?,
            telemetry: opt_bool_field(&json, "telemetry")?,
        }),
        "schedule" => Ok(Request::Schedule {
            program: str_field(&json, "program")?,
            telemetry: opt_bool_field(&json, "telemetry")?,
        }),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(InlError::new(
            InlErrorKind::Unsupported,
            format!("unknown request type '{other}'"),
        )),
    }
}

/// Decode a response payload (the client side of [`decode_request`]).
pub fn decode_response(payload: &[u8], limits: &FrameLimits) -> Result<Response, InlError> {
    let json = decode_json(payload, limits)?;
    match msg_type(&json)? {
        "compile" => {
            let outcome = match json.get("legal") {
                Some(Json::Bool(true)) => CompileOutcome::Legal {
                    pseudocode: str_field(&json, "pseudocode")?,
                },
                Some(Json::Bool(false)) => CompileOutcome::Rejected {
                    reason: str_field(&json, "reason")?,
                },
                _ => {
                    return Err(InlError::new(
                        InlErrorKind::IllFormed,
                        "compile response has no boolean 'legal' field",
                    ))
                }
            };
            Ok(Response::Compile {
                outcome,
                telemetry: opt_object_field(&json, "telemetry")?,
            })
        }
        "run" => Ok(Response::Run {
            digest: str_field(&json, "digest")?,
            arrays: u64_field(&json, "arrays")?,
            cells: u64_field(&json, "cells")?,
            telemetry: opt_object_field(&json, "telemetry")?,
        }),
        "explain" => Ok(Response::Explain {
            verdict: str_field(&json, "verdict")?,
            reason: str_field(&json, "reason")?,
            telemetry: opt_object_field(&json, "telemetry")?,
        }),
        "schedule" => Ok(Response::Schedule {
            chosen: str_field(&json, "chosen")?,
            pseudocode: str_field(&json, "pseudocode")?,
            nodes_visited: u64_field(&json, "nodes_visited")?,
            nodes_exhaustive: u64_field(&json, "nodes_exhaustive")?,
            pruned_subtrees: u64_field(&json, "pruned_subtrees")?,
            legal_variants: u64_field(&json, "legal_variants")?,
            telemetry: opt_object_field(&json, "telemetry")?,
        }),
        "stats" => Ok(Response::Stats {
            stats: json
                .get("stats")
                .cloned()
                .ok_or_else(|| InlError::new(InlErrorKind::IllFormed, "missing 'stats' field"))?,
        }),
        "metrics" => Ok(Response::Metrics {
            metrics: object_field(&json, "metrics")?,
        }),
        "shutdown" => Ok(Response::Shutdown),
        "error" => Ok(Response::Error {
            kind: str_field(&json, "kind")?,
            message: str_field(&json, "message")?,
        }),
        other => Err(InlError::new(
            InlErrorKind::Unsupported,
            format!("unknown response type '{other}'"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> FrameLimits {
        FrameLimits::default()
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Compile {
                program: "cholesky_kij".into(),
                order: Some("KJLI".into()),
                telemetry: false,
            },
            Request::Compile {
                program: "matmul".into(),
                order: None,
                telemetry: true,
            },
            Request::Run {
                program: "wavefront".into(),
                params: vec![12],
                order: None,
                backend: BackendChoice::Vm,
                telemetry: true,
            },
            Request::Run {
                program: "rect_wavefront".into(),
                params: vec![5, 9],
                order: None,
                backend: BackendChoice::Interp,
                telemetry: false,
            },
            Request::Explain {
                program: "cholesky_kij".into(),
                order: Some("IKJL".into()),
                telemetry: true,
            },
            Request::Schedule {
                program: "cholesky_kij".into(),
                telemetry: false,
            },
            Request::Schedule {
                program: "matmul".into(),
                telemetry: true,
            },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in reqs {
            let text = encode_request(&req);
            let back = decode_request(text.as_bytes(), &limits()).unwrap();
            assert_eq!(back, req, "through {text}");
        }
    }

    #[test]
    fn telemetry_off_wire_bytes_have_no_telemetry_key() {
        // The opt-in flag and the response section are invisible when
        // unused: telemetry-off traffic is byte-identical to the
        // pre-telemetry protocol.
        let req = Request::Compile {
            program: "matmul".into(),
            order: None,
            telemetry: false,
        };
        assert!(!encode_request(&req).contains("telemetry"));
        let resp = Response::Compile {
            outcome: CompileOutcome::Legal {
                pseudocode: "for K".into(),
            },
            telemetry: None,
        };
        assert!(!encode_response(&resp).contains("telemetry"));
        // And with the flag on, the key appears in both directions.
        let req_on = Request::Compile {
            program: "matmul".into(),
            order: None,
            telemetry: true,
        };
        assert!(encode_request(&req_on).contains("\"telemetry\": true"));
        assert!(req_on.wants_telemetry());
        let resp_on = resp.with_telemetry(Json::object());
        assert!(encode_response(&resp_on).contains("\"telemetry\""));
        // strip_telemetry recovers the exact telemetry-off bytes.
        let stripped = resp_on.strip_telemetry();
        assert!(!encode_response(&stripped).contains("telemetry"));
    }

    #[test]
    fn telemetry_fields_must_be_well_typed() {
        use inl_linalg::InlErrorKind;
        // Request flag must be a boolean.
        let e = decode_request(
            b"{\"type\": \"compile\", \"program\": \"m\", \"telemetry\": 1}",
            &limits(),
        )
        .unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        // null means absent, matching the optional-string convention.
        let req = decode_request(
            b"{\"type\": \"compile\", \"program\": \"m\", \"telemetry\": null}",
            &limits(),
        )
        .unwrap();
        assert!(!req.wants_telemetry());
        // Response section must be an object.
        let e = decode_response(
            b"{\"type\": \"run\", \"digest\": \"00\", \"arrays\": 1, \"cells\": 1, \
              \"telemetry\": [1, 2]}",
            &limits(),
        )
        .unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        // Metrics payload must be an object.
        let e = decode_response(b"{\"type\": \"metrics\", \"metrics\": 7}", &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        let e = decode_response(b"{\"type\": \"metrics\"}", &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
    }

    #[test]
    fn responses_round_trip() {
        let mut stats = Json::object();
        stats.insert("hits", Json::Int(42));
        let mut telemetry = Json::object();
        telemetry.insert("version", Json::Int(1));
        let mut counters = Json::object();
        counters.insert("depend.memo.hit", Json::Int(3));
        telemetry.insert("counters", counters);
        let mut metrics = Json::object();
        metrics.insert("count", Json::Int(12));
        let resps = [
            Response::Compile {
                outcome: CompileOutcome::Legal {
                    pseudocode: "for K = 1 to N".into(),
                },
                telemetry: Some(telemetry.clone()),
            },
            Response::Compile {
                outcome: CompileOutcome::Rejected {
                    reason: "completion rejected the order: row 2 is illegal".into(),
                },
                telemetry: None,
            },
            Response::Run {
                digest: "00ff00ff00ff00ff".into(),
                arrays: 2,
                cells: 128,
                telemetry: Some(telemetry.clone()),
            },
            Response::Explain {
                verdict: "legal".into(),
                reason: "completed".into(),
                telemetry: Some(telemetry.clone()),
            },
            Response::Schedule {
                chosen: "dist(I@1)/I_2.I".into(),
                pseudocode: "do I = 1..N".into(),
                nodes_visited: 14,
                nodes_exhaustive: 14,
                pruned_subtrees: 0,
                legal_variants: 10,
                telemetry: Some(telemetry),
            },
            Response::Stats { stats },
            Response::Metrics { metrics },
            Response::Shutdown,
            Response::Error {
                kind: "invalid target".into(),
                message: "unknown program 'nope'".into(),
            },
        ];
        for resp in resps {
            let text = encode_response(&resp);
            let back = decode_response(text.as_bytes(), &limits()).unwrap();
            assert_eq!(back, resp, "through {text}");
        }
    }

    #[test]
    fn decode_rejects_garbage_with_typed_errors() {
        use inl_linalg::InlErrorKind;
        // Not UTF-8.
        let e = decode_request(&[0xFF, 0xFE, 0x80], &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        // Not JSON.
        let e = decode_request(b"{{{{", &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        // JSON but no type.
        let e = decode_request(b"{\"a\": 1}", &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        // Unknown type.
        let e = decode_request(b"{\"type\": \"fly\"}", &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::Unsupported);
        // Missing field.
        let e = decode_request(b"{\"type\": \"compile\"}", &limits()).unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
        // Param out of u32 range.
        let e = decode_request(
            b"{\"type\": \"run\", \"program\": \"matmul\", \"params\": [99999999999]}",
            &limits(),
        )
        .unwrap_err();
        assert_eq!(e.kind(), InlErrorKind::IllFormed);
    }

    #[test]
    fn over_deep_json_is_a_budget_error() {
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        let e = decode_request(deep.as_bytes(), &limits()).unwrap_err();
        assert_eq!(e.kind(), inl_linalg::InlErrorKind::Budget);
    }

    #[test]
    fn encoding_is_deterministic() {
        let req = Request::Run {
            program: "matmul".into(),
            params: vec![8],
            order: None,
            backend: BackendChoice::Vm,
            telemetry: false,
        };
        assert_eq!(encode_request(&req), encode_request(&req.clone()));
    }
}
