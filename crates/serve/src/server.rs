//! The concurrent TCP server: listener thread + worker pool over a
//! shared connection queue.
//!
//! Life of a request: a worker pops a connection, reads one frame
//! (`serve.decode` span), decodes it under [`FrameLimits`], dispatches to
//! [`handle_request`](crate::handle_request()) (`serve.compile` /
//! `serve.exec` spans inside), encodes the response and writes it back —
//! all under a `serve.request` span carrying the process-unique request
//! id into the timeline. Decode failures answer with a typed `error`
//! response on the same connection; only transport failures (broken
//! socket) end a session early. All sessions share the process-wide
//! analysis memo, so a warm server analyses each program once.
//!
//! Shutdown: a `shutdown` request is acknowledged on its own connection,
//! then the stop flag is raised and the listener unblocked with a
//! loop-back connection. Workers drain every already-accepted connection
//! before exiting, so in-flight requests always get their responses.
//!
//! A panicking thread poisons the queue mutex but cannot corrupt it (the
//! queue holds independent sockets; no multi-step invariant spans a
//! panic site), so the listener and workers recover the guard with
//! `into_inner` instead of propagating the poison and dying one by one.

use crate::handler::handle_request;
use inl_proto::{encode_response, read_frame, write_frame, FrameLimits, Request, Response};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Transport counters, updated unconditionally (independent of `inl-obs`
/// enablement) so the `stats` response is always truthful. They are the
/// one record of these numbers: no `inl-obs` counter mirrors them.
#[derive(Debug)]
pub struct ServeStats {
    /// Requests decoded and dispatched (including ones answered with a
    /// typed error response).
    pub requests: AtomicU64,
    /// Responses of type `error`, plus malformed frames.
    pub errors: AtomicU64,
    /// Payload bytes received (frame headers excluded).
    pub bytes_in: AtomicU64,
    /// Payload bytes sent (frame headers excluded).
    pub bytes_out: AtomicU64,
    /// Connections accepted (each is one session; `sessions` in the JSON).
    pub connections: AtomicU64,
    /// Requests currently being handled.
    pub in_flight: AtomicU64,
    /// High-water mark of [`ServeStats::in_flight`] over the server's
    /// lifetime.
    pub in_flight_hwm: AtomicU64,
    /// When these counters started accumulating (server start).
    pub started: Instant,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            in_flight_hwm: AtomicU64::new(0),
            started: Instant::now(),
        }
    }
}

impl ServeStats {
    fn to_json(&self) -> inl_obs::Json {
        let mut o = inl_obs::Json::object();
        let get = |a: &AtomicU64| inl_obs::Json::Int(a.load(Ordering::Relaxed));
        o.insert("requests", get(&self.requests));
        o.insert("errors", get(&self.errors));
        o.insert("bytes_in", get(&self.bytes_in));
        o.insert("bytes_out", get(&self.bytes_out));
        o.insert("sessions", get(&self.connections));
        o.insert("in_flight", get(&self.in_flight));
        o.insert("in_flight_hwm", get(&self.in_flight_hwm));
        o.insert(
            "uptime_ms",
            inl_obs::Json::Int(self.started.elapsed().as_millis() as u64),
        );
        o
    }

    /// Enter a request: bump the in-flight gauge and fold the new value
    /// into the high-water mark.
    fn enter_request(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.in_flight_hwm.fetch_max(now, Ordering::Relaxed);
    }

    fn leave_request(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` or `"127.0.0.1:0"` for an
    /// ephemeral port.
    pub addr: String,
    /// Worker threads handling connections. 0 means one per core.
    pub workers: usize,
    /// Decode limits applied to every inbound frame.
    pub limits: FrameLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            limits: FrameLimits::default(),
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
    next_request_id: AtomicU64,
    stats: ServeStats,
    limits: FrameLimits,
}

/// Handle to a running server; dropping it does *not* stop the server —
/// call [`ServerHandle::shutdown`] or send a `shutdown` request.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot the transport counters.
    pub fn stats_json(&self) -> inl_obs::Json {
        self.shared.stats.to_json()
    }

    /// Raise the stop flag and unblock the accept loop, then wait for
    /// every worker to drain. Idempotent with a `shutdown` request
    /// having already stopped the server. Returns the final transport
    /// counters.
    pub fn shutdown(self) -> inl_obs::Json {
        request_stop(&self.shared, self.addr);
        self.join()
    }

    /// Wait until the server stops (via a `shutdown` request or
    /// [`ServerHandle::shutdown`]); returns the final transport counters.
    pub fn join(mut self) -> inl_obs::Json {
        if let Some(l) = self.listener.take() {
            let _ = l.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats.to_json()
    }
}

fn request_stop(shared: &Shared, addr: SocketAddr) {
    if shared.stop.swap(true, Ordering::SeqCst) {
        return; // already stopping
    }
    // Unblock the blocking accept() with a throwaway loop-back
    // connection; the listener re-checks the flag per iteration.
    let _ = TcpStream::connect(addr);
    shared.ready.notify_all();
}

/// Bind and start the server; returns once the listener and workers are
/// running.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let nworkers = if config.workers == 0 {
        std::thread::available_parallelism().map_or(2, |x| x.get())
    } else {
        config.workers
    };
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        stop: AtomicBool::new(false),
        next_request_id: AtomicU64::new(1),
        stats: ServeStats::default(),
        limits: config.limits,
    });

    let accept_shared = Arc::clone(&shared);
    let listener_thread = std::thread::Builder::new()
        .name("inl-serve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        accept_shared
                            .stats
                            .connections
                            .fetch_add(1, Ordering::Relaxed);
                        let mut q = accept_shared
                            .queue
                            .lock()
                            .unwrap_or_else(|e| e.into_inner());
                        q.push_back(stream);
                        drop(q);
                        accept_shared.ready.notify_one();
                    }
                    Err(_) => continue,
                }
            }
            // Wake every worker so they observe the stop flag.
            accept_shared.ready.notify_all();
        })?;

    let mut workers = Vec::with_capacity(nworkers);
    for i in 0..nworkers {
        let worker_shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("inl-serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_shared, addr))?,
        );
    }

    Ok(ServerHandle {
        addr,
        shared,
        listener: Some(listener_thread),
        workers,
    })
}

/// Pop connections until the stop flag is up *and* the queue is drained
/// (shutdown must not drop already-accepted sessions).
fn worker_loop(shared: &Shared, addr: SocketAddr) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match stream {
            Some(s) => session(shared, s, addr),
            None => return,
        }
    }
}

/// Serve one connection: a sequence of frames until clean EOF, a
/// transport error, or a `shutdown` request.
fn session(shared: &Shared, stream: TcpStream, addr: SocketAddr) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader, &shared.limits) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF between frames
            Err(inl_proto::frame::FrameError::Malformed(e)) => {
                // Protocol violation: answer with a typed error, then
                // close (framing is no longer trustworthy).
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                let _ = respond(shared, &mut writer, &Response::from_error(&e));
                return;
            }
            Err(inl_proto::frame::FrameError::Io(_)) => return,
        };
        let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
        let req_start = Instant::now();
        let _req_span = inl_obs::span_args("serve.request", &[("request_id", request_id as i64)]);
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        shared.stats.enter_request();
        shared
            .stats
            .bytes_in
            .fetch_add(payload.len() as u64, Ordering::Relaxed);

        let decoded = {
            let _span = inl_obs::span("serve.decode");
            inl_proto::decode_request(&payload, &shared.limits)
        };
        let kind = match &decoded {
            Ok(req) => req.kind_name(),
            Err(_) => "error",
        };
        let (response, stop_after) = match decoded {
            Ok(Request::Shutdown) => (Response::Shutdown, true),
            Ok(req) => {
                // The handler contributes the compile-side sections of a
                // `Stats` reply; the server layer owns the transport
                // counters.
                let mut response = handle_request(&req);
                if let Response::Stats { stats } = &mut response {
                    stats.insert("serve", shared.stats.to_json());
                }
                (response, false)
            }
            Err(e) => (Response::from_error(&e), false),
        };
        let is_error = matches!(response, Response::Error { .. });
        if is_error {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        // Feed the live metrics window before writing the reply so a
        // `metrics` probe on another connection never misses a finished
        // request.
        crate::request_window().record(kind, req_start.elapsed().as_nanos() as u64, is_error);
        shared.stats.leave_request();
        if respond(shared, &mut writer, &response).is_err() {
            return;
        }
        if stop_after {
            let _ = writer.flush();
            request_stop(shared, addr);
            return;
        }
    }
}

fn respond(shared: &Shared, w: &mut impl std::io::Write, resp: &Response) -> std::io::Result<()> {
    let text = encode_response(resp);
    shared
        .stats
        .bytes_out
        .fetch_add(text.len() as u64, Ordering::Relaxed);
    write_frame(w, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, Request, Response};

    /// A thread that panics while holding the connection-queue lock
    /// poisons the mutex. The queue's invariant (a deque of independent
    /// sockets) cannot be half-updated by any panic here, so the listener
    /// and every worker recover the guard with `into_inner` and keep
    /// serving — concurrent sessions through the poisoned lock still get
    /// their responses.
    #[test]
    fn poisoned_queue_lock_does_not_kill_the_server() {
        let handle = serve(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            limits: FrameLimits::default(),
        })
        .expect("bind ephemeral port");
        let addr = handle.local_addr();

        // Poison the real server's queue mutex: take the lock on a
        // scratch thread and panic while holding it.
        let shared = Arc::clone(&handle.shared);
        let panicker = std::thread::spawn(move || {
            let _q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            panic!("deliberate poison");
        });
        assert!(panicker.join().is_err(), "the panicker must panic");
        assert!(handle.shared.queue.is_poisoned(), "mutex must be poisoned");

        // Concurrent sessions must still be accepted, queued through the
        // poisoned lock, popped by workers, and answered.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for _ in 0..3 {
                        let resp = client.request(&Request::Stats).expect("request");
                        assert!(matches!(resp, Response::Stats { .. }));
                    }
                });
            }
        });
        handle.shutdown();
    }
}
