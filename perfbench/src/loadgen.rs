//! The load generator: closed loops over the repository's `PbClient` (TCP v2) and an
//! open loop over the benchmark's own keep-alive HTTP/1.1 connections.
//!
//! `PbClient` is used exactly as a caller would use it: no socket options, no
//! buffering added here. The HTTP writer sends each request with a single `write`.

use crate::spec::{Plan, Query, Traffic};
use pb_proto::message::{Envelope, Op, QueryRequest, Response};
use pb_proto::PbClient;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One attempted release.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The query list (client) and position the request came from; `list` is
    /// `usize::MAX` for the warm-up queries.
    pub list: usize,
    pub index: usize,
    /// Client-observed latency: send → response in a closed loop, due time →
    /// response in the open loop.
    pub latency: Duration,
    /// How late the open-loop generator sent the request (zero in a closed loop).
    pub lag: Duration,
    /// When the response arrived.
    pub finished: Instant,
    /// `None` when the response was `status: ok`.
    pub error: Option<String>,
    /// `epsilon_spent` as the reply acknowledged it.
    pub epsilon_spent: f64,
    /// Traced phases only: the raw response (TCP line or HTTP body) and, for TCP, the
    /// server's span tree of the request.
    pub raw: Option<String>,
    pub trace: Option<pb_trace::Trace>,
    /// Traced TCP phases: the correlation id the request carried.
    pub id: Option<String>,
}

impl Outcome {
    fn new(list: usize, index: usize, latency: Duration, reply: (Option<String>, f64)) -> Outcome {
        Outcome {
            list,
            index,
            latency,
            lag: Duration::ZERO,
            finished: Instant::now(),
            error: reply.0,
            epsilon_spent: reply.1,
            raw: None,
            trace: None,
            id: None,
        }
    }
}

/// Runs the plan's traffic for `window` and returns every attempted release.
/// `cursors` holds where each query list resumes: phases continue the same lists.
pub fn run_phase(
    plan: &Plan,
    server_tcp: SocketAddr,
    server_http: SocketAddr,
    cursors: &mut [usize],
    window: Duration,
    traced: bool,
) -> Result<Vec<Outcome>, String> {
    match plan.traffic {
        Traffic::ClosedTcp { clients } => {
            let mut connections = Vec::with_capacity(clients);
            for _ in 0..clients {
                connections.push(PbClient::connect(server_tcp).map_err(|e| e.to_string())?);
            }
            let deadline = Instant::now() + window;
            let results: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = connections
                    .into_iter()
                    .zip(cursors.iter_mut())
                    .enumerate()
                    .map(|(list, (client, cursor))| {
                        s.spawn(move || closed_loop(plan, list, client, cursor, deadline, traced))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("closed-loop client panicked"))
                    .collect()
            });
            let mut all = Vec::new();
            for r in results {
                all.extend(r?);
            }
            Ok(all)
        }
        Traffic::OpenHttp { connections, rate } => open_loop(
            plan,
            server_http,
            &mut cursors[0],
            window,
            connections,
            rate,
            traced,
        ),
    }
}

/// One `PbClient` working through its query list until the deadline or the list's
/// end. Traced, each release goes out as a raw v2 envelope with a known correlation
/// id (so its raw bytes can be checked) and its span tree is fetched right after.
fn closed_loop(
    plan: &Plan,
    list: usize,
    mut client: PbClient,
    cursor: &mut usize,
    deadline: Instant,
    traced: bool,
) -> Result<Vec<Outcome>, String> {
    let queries = &plan.lists[list];
    let mut out = Vec::new();
    while Instant::now() < deadline && *cursor < queries.len() {
        let index = *cursor;
        *cursor += 1;
        let q = queries[index];
        let name = plan.datasets[q.dataset].name;
        if !traced {
            let started = Instant::now();
            let reply = tcp_query(&mut client, name, &q);
            out.push(Outcome::new(list, index, started.elapsed(), reply));
            continue;
        }
        let id = format!("t{list}-{index}");
        let request = QueryRequest {
            dataset: name.to_string(),
            k: q.k,
            epsilon: q.epsilon,
            seed: Some(q.seed),
        };
        let line = Envelope::v2(id.clone(), None, Op::Query(request)).encode();
        let started = Instant::now();
        let raw = client.raw_line(&line).map_err(|e| e.to_string())?;
        let latency = started.elapsed();
        let reply = match Response::parse(&raw) {
            Ok(parsed) => match parsed.response {
                Response::Query(reply) if parsed.id.as_deref() == Some(id.as_str()) => {
                    (None, reply.epsilon_spent)
                }
                other => (Some(format!("unexpected response {other:?}")), 0.0),
            },
            Err(e) => (Some(e), 0.0),
        };
        let trace = client.trace(&id).map_err(|e| format!("trace {id}: {e}"))?;
        out.push(Outcome {
            raw: Some(raw),
            trace: Some(trace),
            id: Some(id),
            ..Outcome::new(list, index, latency, reply)
        });
    }
    Ok(out)
}

/// The open loop: request `i` of the schedule is due at `start + i / rate` and goes
/// out on whichever connection is free; its latency runs from its due time, so a
/// stall also charges the requests queued behind it.
fn open_loop(
    plan: &Plan,
    addr: SocketAddr,
    cursor: &mut usize,
    window: Duration,
    connections: usize,
    rate: f64,
    traced: bool,
) -> Result<Vec<Outcome>, String> {
    let schedule = &plan.lists[0];
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(HttpConn::connect(addr)?);
    }
    let first = *cursor;
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let end = start + window;
    let results = Mutex::new(Vec::new());
    let failure = Mutex::new(None);
    let (next, results, failure) = (&next, &results, &failure);
    std::thread::scope(|s| {
        for mut conn in conns {
            s.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let due = start + Duration::from_secs_f64((index - first) as f64 / rate);
                if due >= end || index >= schedule.len() {
                    break;
                }
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let q = schedule[index];
                match http_query(&mut conn, plan.datasets[q.dataset].name, &q) {
                    Ok((reply, body)) => {
                        let outcome = Outcome {
                            lag: sent - due,
                            raw: traced.then_some(body),
                            ..Outcome::new(0, index, due.elapsed(), reply)
                        };
                        results.lock().expect("results lock").push(outcome);
                    }
                    Err(e) => {
                        *failure.lock().expect("failure lock") = Some(e);
                        break;
                    }
                }
            });
        }
    });
    if let Some(e) = failure.lock().expect("failure lock").take() {
        return Err(format!("HTTP connection failed: {e}"));
    }
    let mut out = std::mem::take(&mut *results.lock().expect("results lock"));
    out.sort_by_key(|o| o.index);
    // Requests claimed but never sent (due past the window) leave no outcome; the
    // next phase resumes after the last one sent.
    *cursor = out.last().map_or(first, |o| o.index + 1);
    Ok(out)
}

/// Sends the warm-up queries, over HTTP for HTTP workloads and through `PbClient`
/// otherwise.
pub fn warm_up(
    plan: &Plan,
    client: &mut PbClient,
    http: SocketAddr,
) -> Result<Vec<Outcome>, String> {
    let mut conn = match plan.traffic {
        Traffic::OpenHttp { .. } => Some(HttpConn::connect(http)?),
        Traffic::ClosedTcp { .. } => None,
    };
    let mut out = Vec::new();
    for (index, q) in plan.warmup.iter().enumerate() {
        let name = plan.datasets[q.dataset].name;
        let started = Instant::now();
        let reply = match &mut conn {
            Some(conn) => http_query(conn, name, q)?.0,
            None => tcp_query(client, name, q),
        };
        out.push(Outcome::new(usize::MAX, index, started.elapsed(), reply));
    }
    Ok(out)
}

/// One typed `PbClient` query: `(error, epsilon_spent)`.
fn tcp_query(client: &mut PbClient, dataset: &str, q: &Query) -> (Option<String>, f64) {
    match client.query(dataset, q.k, q.epsilon, Some(q.seed)) {
        Ok(reply) => (None, reply.epsilon_spent),
        Err(e) => (Some(e.to_string()), 0.0),
    }
}

/// One `POST /v1/query`: `((error, epsilon_spent), body)`. Transport failures are
/// errors of the run, not of the release.
fn http_query(
    conn: &mut HttpConn,
    dataset: &str,
    q: &Query,
) -> Result<((Option<String>, f64), String), String> {
    let body = format!(
        "{{\"dataset\":\"{dataset}\",\"k\":{},\"epsilon\":{},\"seed\":{}}}",
        q.k, q.epsilon, q.seed
    );
    let (status, text) = conn.request("POST", "/v1/query", &body)?;
    let reply = match Response::parse(&text) {
        Ok(parsed) => match parsed.response {
            Response::Query(reply) if status == 200 => (None, reply.epsilon_spent),
            other => (Some(format!("HTTP {status}: {other:?}")), 0.0),
        },
        Err(e) => (Some(format!("HTTP {status}: {e}")), 0.0),
    };
    Ok((reply, text))
}

/// A minimal keep-alive HTTP/1.1 client connection.
pub struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> Result<HttpConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(HttpConn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request (head and body in a single `write`) and reads the response:
    /// `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream
            .write_all(message.as_bytes())
            .map_err(|e| format!("HTTP write: {e}"))?;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(head_end) = find(&self.buf, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad HTTP status line: {head}"))?;
                let length: usize = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .ok_or_else(|| "HTTP response without Content-Length".to_string())?;
                let total = head_end + 4 + length;
                if self.buf.len() >= total {
                    let body = String::from_utf8_lossy(&self.buf[head_end + 4..total]).to_string();
                    self.buf.drain(..total);
                    return Ok((status, body));
                }
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("HTTP read: {e}"))?;
            if n == 0 {
                return Err("server closed the HTTP connection".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
