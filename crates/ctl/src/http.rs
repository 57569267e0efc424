//! The dependency-free ops HTTP server.
//!
//! A plain `std::net::TcpListener` and two worker threads that each
//! accept for themselves — no async runtime, no external HTTP crate. It
//! speaks just enough HTTP/1.1 for an ops surface: `Content-Length`-framed
//! JSON responses and `Connection: close` (one request per connection).
//! The routes:
//!
//! | Route                  | Body                                              |
//! |------------------------|---------------------------------------------------|
//! | `GET /healthz`         | liveness + service name                           |
//! | `GET /metrics`         | the full `dosco_obs` registry, deterministic JSON |
//! | `GET /snapshot`        | published policy version + registry head          |
//! | `GET /shards`          | the fabric's live [`FabricStatus`] snapshot       |
//! | `GET /jobs`            | every training job's [`JobView`]                  |
//! | `POST /jobs/train`     | starts a training job from a JSON spec            |
//! | `POST /jobs/{id}/stop` | requests that job's cooperative stop              |
//!
//! [`JobView`]: crate::JobView
//! [`FabricStatus`]: dosco_serve::FabricStatus
//!
//! Configuration follows the workspace env contract
//! ([`dosco_obs::env`]): `DOSCO_CTL_ADDR` (a socket address; defaults to
//! an ephemeral loopback port).

use crate::jobs::TrainJobSpec;
use crate::state::CtlState;
use dosco_obs::env::{parse_lookup, EnvParseError};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) the server accepts.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Largest `POST` body (job specs are small JSON objects).
const MAX_BODY_BYTES: usize = 64 * 1024;
/// Per-read socket timeout: bounds each individual wait so a worker is
/// never parked indefinitely on a dead client.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// Overall deadline for reading one complete request. A read timeout
/// *mid-request* resumes (a slow client dribbling a valid request one
/// byte at a time is still served); a client that cannot deliver a full
/// request within this window is cut off with a 400.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Worker threads, each accepting and answering one connection at a time.
const WORKERS: usize = 2;

/// Ops server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtlConfig {
    /// Bind address. The default `127.0.0.1:0` binds an ephemeral
    /// loopback port (read it back from [`CtlServer::addr`]).
    pub addr: String,
}

impl Default for CtlConfig {
    fn default() -> Self {
        CtlConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

impl CtlConfig {
    /// Applies a `DOSCO_CTL_ADDR` override through an injectable lookup
    /// (tests pass a closure; [`CtlConfig::from_env`] passes the process
    /// environment). An unset or blank variable keeps the default; a
    /// malformed value is a hard error naming the variable.
    ///
    /// # Errors
    ///
    /// Returns [`EnvParseError`] for a value that does not parse as a
    /// socket address.
    pub fn from_lookup(get: &dyn Fn(&str) -> Option<String>) -> Result<Self, EnvParseError> {
        let mut cfg = CtlConfig::default();
        if let Some(addr) = parse_lookup::<SocketAddr>(
            get,
            "DOSCO_CTL_ADDR",
            "a socket address like 127.0.0.1:8080",
            |_| true,
        )? {
            cfg.addr = addr.to_string();
        }
        Ok(cfg)
    }

    /// [`CtlConfig::from_lookup`] over the process environment.
    ///
    /// # Errors
    ///
    /// See [`CtlConfig::from_lookup`].
    pub fn from_env() -> Result<Self, EnvParseError> {
        Self::from_lookup(&|v| std::env::var(v).ok())
    }
}

/// A running ops server. Dropping it does *not* stop the threads — call
/// [`CtlServer::shutdown`] for a clean stop (test suites and examples
/// should always do so, or the process lingers on join at exit).
#[derive(Debug)]
pub struct CtlServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl CtlServer {
    /// Binds `cfg.addr` and starts two workers, both answering from
    /// `state`. Each blocks in `accept` on its own handle to the socket,
    /// so the kernel's listen backlog holds what waits for them.
    ///
    /// # Errors
    ///
    /// Returns the bind error, naming the requested address, or the OS
    /// error if a server thread cannot be spawned.
    pub fn start(cfg: &CtlConfig, state: Arc<CtlState>) -> io::Result<CtlServer> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| {
            io::Error::new(e.kind(), format!("binding ctl server to {}: {e}", cfg.addr))
        })?;
        let mut server = CtlServer {
            addr: listener.local_addr()?,
            stop: Arc::new(AtomicBool::new(false)),
            workers: Vec::with_capacity(WORKERS),
        };
        for i in 0..WORKERS {
            let (stop, state) = (Arc::clone(&server.stop), Arc::clone(&state));
            let spawned = listener.try_clone().and_then(|listener| {
                std::thread::Builder::new()
                    .name(format!("dosco-ctl-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &stop, &state))
            });
            match spawned {
                Ok(worker) => server.workers.push(worker),
                Err(e) => {
                    // Stop the workers already running.
                    server.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    /// The actually bound address (resolves the `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every worker. A request a worker is
    /// already answering still completes; connections still waiting in
    /// the backlog are closed.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Every worker takes one more connection, sees `stop` and exits:
        // one throwaway connection per worker unblocks them all.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Worker body: accept and answer connections until `stop` is set.
fn worker_loop(listener: &TcpListener, stop: &AtomicBool, state: &CtlState) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        if let Ok((stream, _)) = conn {
            handle_connection(stream, state);
        }
    }
}

/// Reads one request head, routes it, writes one framed response.
fn handle_connection(mut stream: TcpStream, state: &CtlState) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let Some((head, body)) = read_request(&mut stream) else {
        respond(
            &mut stream,
            400,
            "Bad Request",
            r#"{"error":"bad request"}"#,
        );
        return;
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        respond(
            &mut stream,
            400,
            "Bad Request",
            r#"{"error":"bad request"}"#,
        );
        return;
    };
    // The ops routes take no query parameters; tolerate and strip them.
    let path = target.split('?').next().unwrap_or(target);
    match method {
        "GET" => match route(state, path) {
            Some(body) => respond(&mut stream, 200, "OK", &body),
            None => respond(
                &mut stream,
                404,
                "Not Found",
                &format!(r#"{{"error":"not found","path":{}}}"#, json_str(path)),
            ),
        },
        "POST" => {
            let (status, reason, body) = route_post(state, path, &body);
            respond(&mut stream, status, reason, &body);
        }
        _ => respond(
            &mut stream,
            405,
            "Method Not Allowed",
            &format!(
                r#"{{"error":"method not allowed","method":{}}}"#,
                json_str(method)
            ),
        ),
    }
}

/// The `GET` route table: `Some(body)` for known paths.
fn route(state: &CtlState, path: &str) -> Option<String> {
    match path {
        "/healthz" => Some(to_json(&state.healthz())),
        "/metrics" => Some(dosco_obs::report_json()),
        "/snapshot" => Some(to_json(&state.snapshot_response())),
        "/shards" => Some(to_json(&state.shards_response())),
        "/jobs" => Some(format!(r#"{{"jobs":{}}}"#, to_json(&state.jobs().list()))),
        _ => None,
    }
}

/// The `POST` route table: job control. `/jobs/train` takes a JSON spec
/// body (empty body = all defaults) and answers with the new job id;
/// `/jobs/{id}/stop` requests a cooperative stop.
fn route_post(state: &CtlState, path: &str, body: &str) -> (u16, &'static str, String) {
    let parse_spec = |body: &str| -> Result<serde::Value, String> {
        if body.trim().is_empty() {
            Ok(serde::Value::Object(Vec::new()))
        } else {
            serde_json::from_str::<serde::Value>(body).map_err(|e| e.to_string())
        }
    };
    let bad = |msg: &str| {
        (
            400,
            "Bad Request",
            format!(r#"{{"error":{}}}"#, json_str(msg)),
        )
    };
    match path {
        "/jobs/train" => match parse_spec(body).and_then(|v| TrainJobSpec::from_json(&v)) {
            Ok(spec) => match state.jobs().spawn_train(spec) {
                Ok(id) => (200, "OK", format!(r#"{{"id":{id},"kind":"train"}}"#)),
                Err(e) => (
                    503,
                    "Service Unavailable",
                    format!(r#"{{"error":{}}}"#, json_str(&e.to_string())),
                ),
            },
            Err(e) => bad(&e),
        },
        _ => {
            if let Some(id) = path
                .strip_prefix("/jobs/")
                .and_then(|rest| rest.strip_suffix("/stop"))
                .and_then(|id| id.parse::<u64>().ok())
            {
                let stopped = state.jobs().stop(id);
                if stopped {
                    (200, "OK", format!(r#"{{"id":{id},"stopped":true}}"#))
                } else {
                    (
                        404,
                        "Not Found",
                        format!(r#"{{"error":"no such job","id":{id}}}"#),
                    )
                }
            } else if route(state, path).is_some() {
                // A GET-only resource: method not allowed, not missing.
                (
                    405,
                    "Method Not Allowed",
                    r#"{"error":"method not allowed","method":"POST"}"#.to_string(),
                )
            } else {
                (
                    404,
                    "Not Found",
                    format!(r#"{{"error":"not found","path":{}}}"#, json_str(path)),
                )
            }
        }
    }
}

/// Serializes a response body.
///
/// # Panics
///
/// If `serde_json::to_string` fails, which it cannot over the in-memory
/// data model: its `Result` only mirrors upstream's signature.
#[allow(
    clippy::expect_used,
    reason = "the documented # Panics contract of to_json: serialization cannot fail"
)]
fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("in-memory serialization cannot fail")
}

/// Minimal JSON string quoting for the error bodies (paths and methods
/// are ASCII in practice; control characters are escaped defensively).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reads one full request: the head up to the blank line, then — when a
/// `Content-Length` header is present — exactly that many body bytes.
/// Returns `None` on EOF mid-request, hard I/O errors, the overall
/// [`REQUEST_DEADLINE`] expiring, or oversized requests.
///
/// TCP gives no framing guarantees: the head can arrive split across
/// any number of segments and a body can dribble in one byte at a time,
/// with the per-read timeout ([`SOCKET_TIMEOUT`]) firing between bytes.
/// `Interrupted` always resumes; `WouldBlock`/`TimedOut` resume until
/// the deadline — a transient stall must not drop or truncate an
/// otherwise valid request. Generic over [`Read`] so the resume logic
/// is unit-testable against scripted streams.
fn read_request<R: Read>(stream: &mut R) -> Option<(String, String)> {
    let start = Instant::now();
    let mut data = Vec::new();
    let mut buf = [0u8; 1024];
    let mut read_more = |data: &mut Vec<u8>| -> Option<()> {
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return None,
                Ok(n) => {
                    data.extend_from_slice(&buf[..n]);
                    return Some(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && start.elapsed() < REQUEST_DEADLINE => {}
                Err(_) => return None,
            }
        }
    };
    let head_end = loop {
        if let Some(pos) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if data.len() > MAX_REQUEST_BYTES {
            return None;
        }
        read_more(&mut data)?;
    };
    let head = String::from_utf8(data[..head_end].to_vec()).ok()?;
    let content_length = head
        .lines()
        .skip(1)
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    while data.len() < head_end + content_length {
        read_more(&mut data)?;
    }
    let body = String::from_utf8(data[head_end..head_end + content_length].to_vec()).ok()?;
    Some((head, body))
}

/// Writes one complete `Content-Length`-framed JSON response.
fn respond(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    let allow = if status == 405 {
        "Allow: GET, POST\r\n"
    } else {
        ""
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         {allow}Connection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_of<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            pairs
                .iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn config_defaults_when_env_unset() {
        let cfg = CtlConfig::from_lookup(&env_of(&[])).unwrap();
        assert_eq!(cfg, CtlConfig::default());
        assert_eq!(cfg.addr, "127.0.0.1:0");
    }

    #[test]
    fn config_applies_valid_overrides() {
        let get = env_of(&[("DOSCO_CTL_ADDR", " 0.0.0.0:9090 ")]);
        let cfg = CtlConfig::from_lookup(&get).unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9090");
    }

    #[test]
    fn config_rejects_malformed_addr_naming_the_variable() {
        let get = env_of(&[("DOSCO_CTL_ADDR", "not-an-addr")]);
        let err = CtlConfig::from_lookup(&get).unwrap_err();
        assert_eq!(err.var, "DOSCO_CTL_ADDR");
        assert_eq!(err.value, "not-an-addr");
        assert!(err.to_string().contains("socket address"), "{err}");
    }

    #[test]
    fn json_str_escapes_quotes_and_controls() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }

    /// Delivers at most one byte per `read` with scripted transient
    /// errors interleaved — a TCP client at its most adversarial.
    struct DribbleStream {
        steps: std::collections::VecDeque<Result<u8, io::ErrorKind>>,
    }

    impl DribbleStream {
        fn of(bytes: &[u8], interleave: &[io::ErrorKind]) -> Self {
            let mut steps = std::collections::VecDeque::new();
            for (i, &b) in bytes.iter().enumerate() {
                if !interleave.is_empty() {
                    steps.push_back(Err(interleave[i % interleave.len()]));
                }
                steps.push_back(Ok(b));
            }
            DribbleStream { steps }
        }
    }

    impl Read for DribbleStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Ok(b)) => {
                    buf[0] = b;
                    Ok(1)
                }
                Some(Err(kind)) => Err(kind.into()),
            }
        }
    }

    /// Regression: a head split across arbitrarily many reads, with a
    /// timeout or interrupt before every byte, must still parse —
    /// previously any `Err(_)` dropped the request as a 400.
    #[test]
    fn read_request_survives_split_head_and_transient_errors() {
        let raw = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        let errs = [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ];
        let mut stream = DribbleStream::of(raw, &errs);
        let (head, body) = read_request(&mut stream).expect("parsed");
        assert!(head.starts_with("GET /healthz HTTP/1.1"));
        assert!(body.is_empty());
    }

    /// Regression: a `Content-Length` body dribbling in one byte at a
    /// time across read timeouts must arrive complete, not truncated.
    #[test]
    fn read_request_survives_dribbled_body() {
        let raw = b"POST /jobs/train HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"epochs\": 1}";
        let errs = [io::ErrorKind::WouldBlock];
        let mut stream = DribbleStream::of(raw, &errs);
        let (head, body) = read_request(&mut stream).expect("parsed");
        assert!(head.starts_with("POST /jobs/train"));
        assert_eq!(body, "{\"epochs\": 1}");
    }

    /// EOF before the head completes is still a bad request.
    #[test]
    fn read_request_rejects_eof_mid_head() {
        let mut stream = DribbleStream::of(b"GET /healthz HTT", &[]);
        assert!(read_request(&mut stream).is_none());
    }

    /// EOF before `Content-Length` bytes arrive is a bad request, not a
    /// silently truncated body.
    #[test]
    fn read_request_rejects_eof_mid_body() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        let mut stream = DribbleStream::of(raw, &[]);
        assert!(read_request(&mut stream).is_none());
    }

    /// A hard I/O error (not a timeout) still fails the request.
    #[test]
    fn read_request_rejects_hard_errors() {
        let mut stream = DribbleStream::of(b"GET / HTTP/1.1\r\n\r\n", &[]);
        stream.steps.push_front(Err(io::ErrorKind::ConnectionReset));
        assert!(read_request(&mut stream).is_none());
    }

    #[test]
    fn start_and_shutdown_cleanly() {
        let server = CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).unwrap();
        let addr = server.addr();
        assert_ne!(addr.port(), 0, "ephemeral port resolved");
        server.shutdown();
        // After shutdown the listener is gone; a fresh server can bind a
        // fresh ephemeral port immediately.
        let again = CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).unwrap();
        again.shutdown();
    }
}
