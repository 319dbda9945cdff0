//! `serve_mixed` and `serve_light`: the TCP service under a closed loop.
//! Two client connections, each sending its next request only after the
//! reply to the previous one (callers that wait for their answer), against
//! two server workers in this process on `127.0.0.1:0`. On `serve_mixed`
//! the handler dominates a request (about a millisecond), so it moves with
//! core, codegen and poly and barely with the protocol. On `serve_light`
//! the handler costs tens of microseconds, so framing, message encoding,
//! syscalls and the worker hand-off do most of the work: the one place a
//! protocol or server change can show, or regress.

use crate::child::{Ctx, Load, OpTiming};
use crate::common::{mean_us, permutations, timed, zoo_program};
use crate::metrics::REQUEST_KINDS as KINDS;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use inl_proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    BackendChoice, FrameLimits, Request, Response,
};
use inl_serve::{handle_request, serve, Client, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Mixed,
    Light,
}

/// Span names, one per kind, in the order of `KINDS`.
const RTT_SPANS: [&str; 6] = [
    "serve.rtt.compile",
    "serve.rtt.explain",
    "serve.rtt.run_vm",
    "serve.rtt.run_interp",
    "serve.rtt.schedule",
    "serve.rtt.stats",
];

fn kind_of(req: &Request) -> usize {
    match req {
        Request::Compile { .. } => 0,
        Request::Explain { .. } => 1,
        Request::Run {
            backend: BackendChoice::Vm,
            ..
        } => 2,
        Request::Run { .. } => 3,
        Request::Schedule { .. } => 4,
        _ => 5,
    }
}

struct Distinct {
    request: Request,
    kind: usize,
    /// The in-process answer, encoded; `None` for requests whose answer
    /// depends on live server state (`Stats`, `Metrics`).
    expected: Option<String>,
}

pub struct Serve {
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
    connect_us: f64,
    distinct: Vec<Distinct>,
    /// One batch: indices into `distinct`, reshuffled from the seed each op.
    batch: Vec<usize>,
    code_bytes: u64,
    errors: u64,
    mismatches: u64,
    /// (kind, rtt in µs) of every request since tracing went on.
    traced: Vec<(usize, f64)>,
    /// Requests per second of every traced batch.
    traced_rps: Vec<f64>,
}

fn compile(program: &str, order: Option<String>) -> Request {
    Request::Compile {
        program: program.to_string(),
        order,
        telemetry: false,
    }
}

fn explain(program: &str, order: Option<String>) -> Request {
    Request::Explain {
        program: program.to_string(),
        order,
        telemetry: false,
    }
}

/// The requests of one batch, before shuffling.
fn batch_requests(mix: Mix, smoke: bool) -> Vec<Request> {
    let mut reqs = Vec::new();
    match mix {
        Mix::Mixed => {
            let (cycles, vm_n, interp_n) = if smoke { (1, 8, 6) } else { (4, 32, 16) };
            let deep = zoo_program("cholesky_kij");
            let names: Vec<String> = deep
                .loops()
                .map(|l| deep.loop_decl(l).name.clone())
                .collect();
            for _ in 0..cycles {
                for order in permutations(&names.iter().map(String::as_str).collect::<Vec<_>>()) {
                    let order: String = order.concat();
                    reqs.push(compile("cholesky_kij", Some(order.clone())));
                    reqs.push(explain("cholesky_kij", Some(order)));
                }
                for (name, make) in inl_serve::ZOO {
                    reqs.push(compile(name, None));
                    if make().nparams() == 1 {
                        for (backend, n) in
                            [(BackendChoice::Vm, vm_n), (BackendChoice::Interp, interp_n)]
                        {
                            reqs.push(Request::Run {
                                program: name.to_string(),
                                params: vec![n],
                                order: None,
                                backend,
                                telemetry: false,
                            });
                        }
                    }
                }
            }
            // about one request in fifty schedules, one in a hundred asks for stats
            for _ in 0..reqs.len() / 100 {
                for program in ["simple_cholesky", "perfect_nest"] {
                    reqs.push(Request::Schedule {
                        program: program.to_string(),
                        telemetry: false,
                    });
                }
                reqs.push(Request::Stats);
            }
        }
        Mix::Light => {
            for _ in 0..if smoke { 5 } else { 100 } {
                for program in [
                    "augmentation_example",
                    "wavefront",
                    "rect_wavefront",
                    "row_prefix_sums",
                    "independent_pair",
                ] {
                    reqs.push(compile(program, None));
                    reqs.push(explain(program, None));
                }
                reqs.push(Request::Stats);
                reqs.push(Request::Metrics);
            }
        }
    }
    reqs
}

/// What one connection brings back from its share of a batch.
struct Share {
    /// (index into `distinct`, rtt in µs, the reply or the transport error)
    replies: Vec<(usize, f64, Result<Response, String>)>,
    tracer: Tracer,
}

impl Serve {
    pub fn set_up(ctx: &mut Ctx, mix: Mix) -> (Serve, OpTiming) {
        let mut distinct: Vec<Distinct> = Vec::new();
        let mut batch = Vec::new();
        for request in batch_requests(mix, ctx.smoke) {
            let at = distinct
                .iter()
                .position(|d| d.request == request)
                .unwrap_or_else(|| {
                    distinct.push(Distinct {
                        kind: kind_of(&request),
                        request,
                        expected: None,
                    });
                    distinct.len() - 1
                });
            batch.push(at);
        }
        // Built field by field, never `from_env`.
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            limits: FrameLimits::default(),
        })
        .expect("bind 127.0.0.1:0");
        let addr = handle.local_addr();
        let (clients, connect_s) = timed(|| {
            (0..2)
                .map(|_| Client::connect(addr).expect("connect to the server just started"))
                .collect::<Vec<_>>()
        });
        let mut load = Serve {
            handle: Some(handle),
            connect_us: connect_s * 1e6 / clients.len() as f64,
            clients,
            distinct,
            batch,
            code_bytes: 0,
            errors: 0,
            mismatches: 0,
            traced: Vec::new(),
            traced_rps: Vec::new(),
        };
        // The cold batch: the first batch, in seeded order, to a server that
        // has answered nothing yet. It goes over both connections like every
        // other batch: over one, client and worker ping-pong, and the time
        // depends on whether the kernel put them on one CPU or on two (140
        // or 240 ms on `serve_light`). The reference answers are computed
        // only afterwards: computing them in this process warms the cache
        // the server shares.
        ctx.rng.shuffle(&mut load.batch);
        let (cold_s, shares) = load.exchange(false);
        for d in &mut load.distinct {
            if !matches!(d.request, Request::Stats | Request::Metrics) {
                d.expected = Some(encode_response(&handle_request(&d.request)));
            }
        }
        load.code_bytes = load
            .batch
            .iter()
            .filter_map(|&i| load.distinct[i].expected.as_ref())
            .map(|text| text.len() as u64)
            .sum();
        load.verify(ctx, shares);
        // the cold batch counts whole, as its wall time (booked on part 0)
        let cold = OpTiming {
            wall_s: cold_s,
            samples: vec![(0, cold_s * 1e3)],
        };
        (load, cold)
    }

    /// Send one batch over the two connections, in the seeded order already
    /// stored in `self.batch`; returns the wall time and each connection's
    /// replies. Nothing is checked in here.
    fn exchange(&mut self, trace: bool) -> (f64, Vec<Share>) {
        let distinct = &self.distinct;
        let batch = &self.batch;
        let nconn = self.clients.len();
        let started = Instant::now();
        let shares: Vec<Share> = std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut share = Share {
                            replies: Vec::with_capacity(batch.len() / nconn + 1),
                            tracer: Tracer::new(trace),
                        };
                        for &i in batch.iter().skip(c).step_by(nconn) {
                            let d = &distinct[i];
                            share.tracer.next_op();
                            let span = share.tracer.begin(RTT_SPANS[d.kind]);
                            let t = Instant::now();
                            let reply = client.request(&d.request);
                            let rtt_us = t.elapsed().as_secs_f64() * 1e6;
                            share.tracer.end(span);
                            share
                                .replies
                                .push((i, rtt_us, reply.map_err(|e| e.to_string())));
                        }
                        share
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        (started.elapsed().as_secs_f64(), shares)
    }

    /// Compare every reply with the in-process answer, byte for byte.
    /// Returns (index into `distinct`, round trip in ms) of every request.
    fn verify(&mut self, ctx: &mut Ctx, shares: Vec<Share>) -> Vec<(usize, f64)> {
        let mut rtts_ms = Vec::new();
        for share in shares {
            if share.tracer.on() {
                ctx.tracer.absorb(share.tracer);
            }
            for (i, rtt_us, reply) in share.replies {
                let d = &self.distinct[i];
                rtts_ms.push((i, rtt_us / 1e3));
                if ctx.tracer.on() {
                    self.traced.push((d.kind, rtt_us));
                }
                let verdict = match (&reply, &d.expected) {
                    (Err(why), _) => {
                        self.errors += 1;
                        Err(format!("transport: {why}"))
                    }
                    (Ok(Response::Error { kind, message }), _) => {
                        self.errors += 1;
                        Err(format!("error response ({kind}): {message}"))
                    }
                    (Ok(resp), Some(expected)) if encode_response(resp) != *expected => {
                        self.mismatches += 1;
                        Err("reply differs from the in-process answer".to_string())
                    }
                    _ => Ok(()),
                };
                ctx.check(|| encode_request(&d.request).replace('\n', " "), verdict);
            }
        }
        rtts_ms
    }
}

impl Load for Serve {
    fn parts(&self) -> Vec<String> {
        self.distinct
            .iter()
            .enumerate()
            .map(|(i, d)| format!("{i:03}.{}", KINDS[d.kind]))
            .collect()
    }

    fn op(&mut self, ctx: &mut Ctx) -> OpTiming {
        ctx.rng.shuffle(&mut self.batch);
        let (wall_s, shares) = self.exchange(ctx.tracer.on());
        let rtts_ms = self.verify(ctx, shares);
        if ctx.tracer.on() {
            self.traced_rps.push(rtts_ms.len() as f64 / wall_s);
        }
        OpTiming {
            wall_s,
            samples: rtts_ms,
        }
    }

    fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    fn digest(&self) -> String {
        let mut h = crate::common::Fnv::default();
        for d in &self.distinct {
            h.write(encode_request(&d.request).as_bytes());
            h.write(d.expected.as_deref().unwrap_or("live").as_bytes());
        }
        h.hex()
    }

    fn layers(&mut self, _ctx: &mut Ctx, out: &mut BTreeMap<String, f64>) {
        let all: Vec<f64> = self.traced.iter().map(|&(_, us)| us).collect();
        for (k, name) in KINDS.iter().enumerate() {
            let of_kind: Vec<f64> = self
                .traced
                .iter()
                .filter(|&&(kind, _)| kind == k)
                .map(|&(_, us)| us)
                .collect();
            if !of_kind.is_empty() {
                out.insert(format!("serve.rtt_p50_us.{name}"), median(&of_kind));
            }
        }
        if !all.is_empty() {
            out.insert("serve.rtt_p50_us".into(), median(&all));
        }
        // a tail only where at least ten samples lie beyond it
        let n = all.len();
        out.insert("serve.rtt_n".into(), n as f64);
        let highest = crate::stats::tail_percentile(n).unwrap_or(0.0);
        for (q, key) in [(95.0, "serve.rtt_p95_us"), (99.0, "serve.rtt_p99_us")] {
            out.insert(
                key.into(),
                if q <= highest {
                    percentile(&all, q)
                } else {
                    0.0
                },
            );
        }
        // requests per second over the 2 connections: the quietest batch's
        // size over its wall time
        out.insert(
            "serve.rps".into(),
            self.traced_rps.iter().copied().fold(0.0, f64::max),
        );
        out.insert("serve.connect_us".into(), self.connect_us);
        out.insert("serve.errors".into(), self.errors as f64);
        out.insert("serve.mismatches".into(), self.mismatches as f64);

        // The handler alone, in process, per distinct request.
        let handler_us: Vec<f64> = self
            .distinct
            .iter()
            .map(|d| {
                let reps = if d.kind == 4 { 2 } else { 10 };
                mean_us(reps, || {
                    std::hint::black_box(handle_request(&d.request));
                })
            })
            .collect();
        for (k, name) in KINDS.iter().enumerate() {
            let of_kind: Vec<f64> = self
                .batch
                .iter()
                .filter(|&&i| self.distinct[i].kind == k)
                .map(|&i| handler_us[i])
                .collect();
            if !of_kind.is_empty() {
                out.insert(format!("serve.handler_us.{name}"), median(&of_kind));
            }
        }

        // The protocol alone, over the batch's requests and their answers.
        let limits = FrameLimits::default();
        let requests: Vec<&Request> = self
            .batch
            .iter()
            .map(|&i| &self.distinct[i].request)
            .collect();
        let req_texts: Vec<String> = requests.iter().map(|r| encode_request(r)).collect();
        let resp_texts: Vec<&String> = self
            .batch
            .iter()
            .filter_map(|&i| self.distinct[i].expected.as_ref())
            .collect();
        let responses: Vec<Response> = resp_texts
            .iter()
            .map(|t| decode_response(t.as_bytes(), &limits).expect("own encoding decodes"))
            .collect();
        let per = |n: usize, total_us: f64| total_us / n.max(1) as f64;
        let encode_req = per(
            requests.len(),
            mean_us(5, || {
                for r in &requests {
                    std::hint::black_box(encode_request(r));
                }
            }),
        );
        let decode_req = per(
            req_texts.len(),
            mean_us(5, || {
                for t in &req_texts {
                    std::hint::black_box(decode_request(t.as_bytes(), &limits).ok());
                }
            }),
        );
        let encode_resp = per(
            responses.len(),
            mean_us(5, || {
                for r in &responses {
                    std::hint::black_box(encode_response(r));
                }
            }),
        );
        let decode_resp = per(
            resp_texts.len(),
            mean_us(5, || {
                for t in &resp_texts {
                    std::hint::black_box(decode_response(t.as_bytes(), &limits).ok());
                }
            }),
        );
        out.insert("proto.encode_req_us".into(), encode_req);
        out.insert("proto.decode_req_us".into(), decode_req);
        out.insert("proto.encode_resp_us".into(), encode_resp);
        out.insert("proto.decode_resp_us".into(), decode_resp);
        // framing over memory: every answer written to one buffer, read back
        let mut wire = Vec::new();
        let frame_write = per(
            resp_texts.len(),
            mean_us(5, || {
                wire.clear();
                for t in &resp_texts {
                    write_frame(&mut wire, t.as_bytes()).expect("write to memory");
                }
            }),
        );
        let frame_read = per(
            resp_texts.len(),
            mean_us(5, || {
                let mut cursor = std::io::Cursor::new(&wire);
                while let Ok(Some(payload)) = read_frame(&mut cursor, &limits) {
                    std::hint::black_box(payload);
                }
            }),
        );
        out.insert("proto.frame_write_us".into(), frame_write);
        out.insert("proto.frame_read_us".into(), frame_read);
        let mean_len = |texts: &mut dyn Iterator<Item = usize>| {
            let v: Vec<usize> = texts.collect();
            v.iter().sum::<usize>() as f64 / v.len().max(1) as f64
        };
        out.insert(
            "proto.req_bytes_mean".into(),
            mean_len(&mut req_texts.iter().map(String::len)),
        );
        out.insert(
            "proto.resp_bytes_mean".into(),
            mean_len(&mut resp_texts.iter().map(|t| t.len())),
        );

        // What is left of a round trip once handler and protocol are taken
        // out: queueing, syscalls and thread wake-ups.
        let handler_p50 = median(
            &self
                .batch
                .iter()
                .map(|&i| handler_us[i])
                .collect::<Vec<_>>(),
        );
        let proto_us = encode_req + decode_req + encode_resp + decode_resp;
        if !all.is_empty() {
            out.insert(
                "serve.transport_us".into(),
                median(&all) - handler_p50 - proto_us,
            );
        }
    }

    fn finish(mut self: Box<Self>) {
        // closing the connections ends the two sessions; then the server
        // drains and its threads are joined
        self.clients.clear();
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}
