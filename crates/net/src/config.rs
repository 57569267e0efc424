//! Validated `DOSCO_NET_*` environment configuration and connection
//! establishment (bounded exponential-backoff retry + connect timeout).
//!
//! | variable               | meaning                                      | default |
//! |------------------------|----------------------------------------------|---------|
//! | `DOSCO_NET_ADDR`       | `host:port` the process connects or binds to | unset   |
//! | `DOSCO_NET_RETRIES`    | extra connect attempts after the first       | `5`     |
//! | `DOSCO_NET_TIMEOUT_MS` | per-attempt connect timeout (ms), ≥ 1        | `2000`  |
//!
//! Parsing goes through [`dosco_obs::env::parse_lookup`]: unset or blank
//! means default, malformed raises an [`EnvParseError`] naming the
//! variable, the offending value, and what was expected. Which role a
//! process plays is its binary's business (`examples/distributed.rs`
//! reads `DOSCO_NET_ROLE` itself).

use std::fmt;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

use dosco_obs::env::{parse_lookup, EnvParseError};

/// Validated network configuration for one process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Peer (or bind) address, if `DOSCO_NET_ADDR` is set.
    pub addr: Option<String>,
    /// Extra connect attempts after the first (total = retries + 1).
    pub retries: u32,
    /// Per-attempt connect timeout.
    pub timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: None,
            retries: 5,
            timeout: Duration::from_millis(2000),
        }
    }
}

impl NetConfig {
    /// Reads configuration from the process environment.
    ///
    /// # Errors
    ///
    /// [`EnvParseError`] naming the first malformed variable.
    pub fn from_env() -> Result<Self, EnvParseError> {
        Self::from_lookup(&|var| std::env::var(var).ok())
    }

    /// Reads configuration through an injectable lookup (testable without
    /// touching the process environment).
    ///
    /// # Errors
    ///
    /// [`EnvParseError`] naming the first malformed variable.
    pub fn from_lookup(get: &dyn Fn(&str) -> Option<String>) -> Result<Self, EnvParseError> {
        let defaults = NetConfig::default();
        let addr = match get("DOSCO_NET_ADDR") {
            None => None,
            Some(raw) if raw.trim().is_empty() => None,
            Some(raw) => Some(raw.trim().to_owned()),
        };
        let retries = parse_lookup::<u32>(get, "DOSCO_NET_RETRIES", "a u32 retry count", |_| true)?
            .unwrap_or(defaults.retries);
        let timeout_ms = parse_lookup::<u64>(
            get,
            "DOSCO_NET_TIMEOUT_MS",
            "a positive timeout in milliseconds",
            |&v| v >= 1,
        )?
        .map_or(defaults.timeout, Duration::from_millis);
        Ok(NetConfig {
            addr,
            retries,
            timeout: timeout_ms,
        })
    }

    /// The configured address, or an error naming the variable if unset
    /// (a process that must dial or bind calls this).
    ///
    /// # Errors
    ///
    /// [`NetError::MissingAddr`] when `DOSCO_NET_ADDR` was not provided.
    pub fn require_addr(&self) -> Result<&str, NetError> {
        self.addr.as_deref().ok_or(NetError::MissingAddr)
    }
}

/// Connection-establishment failures.
#[derive(Debug)]
pub enum NetError {
    /// `DOSCO_NET_ADDR` is required for this role but unset.
    MissingAddr,
    /// Every connect attempt failed.
    Connect {
        /// The address dialed.
        addr: String,
        /// Attempts made (retries + 1).
        attempts: u32,
        /// The error from the final attempt.
        last: io::Error,
    },
    /// The address did not resolve to any socket address.
    Resolve {
        /// The address as given.
        addr: String,
        /// The resolution error.
        source: io::Error,
    },
    /// The peer connected but violated the wire protocol (bad handshake
    /// frame, shape mismatch, premature close).
    Protocol(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::MissingAddr => {
                write!(f, "DOSCO_NET_ADDR is required for this role but unset")
            }
            NetError::Connect {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "failed to connect to {addr} after {attempts} attempt(s): {last}"
            ),
            NetError::Resolve { addr, source } => {
                write!(f, "address {addr:?} did not resolve: {source}")
            }
            NetError::Protocol(what) => write!(f, "wire protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Backoff before retry `k` (0-based): 20 ms · 2^k, capped at 500 ms.
#[must_use]
pub fn backoff_delay(attempt: u32) -> Duration {
    let ms = 20u64.saturating_mul(1u64 << attempt.min(10));
    Duration::from_millis(ms.min(500))
}

/// Dials `addr` with a per-attempt connect timeout and bounded exponential
/// backoff between attempts (`retries` extra attempts after the first).
///
/// # Errors
///
/// [`NetError::Resolve`] if the address yields no socket addresses,
/// [`NetError::Connect`] naming the address and total attempts otherwise.
pub fn connect_with_retry(
    addr: &str,
    retries: u32,
    timeout: Duration,
) -> Result<TcpStream, NetError> {
    use std::net::ToSocketAddrs;
    let attempts = retries.saturating_add(1);
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(attempt - 1));
        }
        // Re-resolve each attempt: the peer may come up (or move) between
        // retries.
        let resolved = match addr.to_socket_addrs() {
            Ok(it) => it.collect::<Vec<_>>(),
            Err(e) => {
                return Err(NetError::Resolve {
                    addr: addr.to_owned(),
                    source: e,
                })
            }
        };
        if resolved.is_empty() {
            return Err(NetError::Resolve {
                addr: addr.to_owned(),
                source: io::Error::new(io::ErrorKind::NotFound, "no socket addresses"),
            });
        }
        for sock in resolved {
            match TcpStream::connect_timeout(&sock, timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
    }
    Err(NetError::Connect {
        addr: addr.to_owned(),
        attempts,
        last: last.unwrap_or_else(|| io::Error::other("no attempt ran")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lookup(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        move |k: &str| map.get(k).cloned()
    }

    #[test]
    fn defaults_when_unset() {
        let cfg = NetConfig::from_lookup(&lookup(&[])).expect("defaults");
        assert_eq!(cfg, NetConfig::default());
        assert!(matches!(cfg.require_addr(), Err(NetError::MissingAddr)));
    }

    #[test]
    fn full_parse() {
        let cfg = NetConfig::from_lookup(&lookup(&[
            ("DOSCO_NET_ADDR", "127.0.0.1:7171"),
            ("DOSCO_NET_RETRIES", "2"),
            ("DOSCO_NET_TIMEOUT_MS", "250"),
        ]))
        .expect("parse");
        assert_eq!(cfg.addr.as_deref(), Some("127.0.0.1:7171"));
        assert_eq!(cfg.retries, 2);
        assert_eq!(cfg.timeout, Duration::from_millis(250));
    }

    #[test]
    fn malformed_values_name_the_variable() {
        let err = NetConfig::from_lookup(&lookup(&[("DOSCO_NET_TIMEOUT_MS", "0")]))
            .expect_err("zero timeout");
        assert!(err.to_string().contains("DOSCO_NET_TIMEOUT_MS"), "{err}");

        let err = NetConfig::from_lookup(&lookup(&[("DOSCO_NET_RETRIES", "many")]))
            .expect_err("non-numeric");
        assert!(err.to_string().contains("DOSCO_NET_RETRIES"), "{err}");
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        assert_eq!(backoff_delay(0), Duration::from_millis(20));
        assert_eq!(backoff_delay(1), Duration::from_millis(40));
        assert_eq!(backoff_delay(2), Duration::from_millis(80));
        assert_eq!(backoff_delay(10), Duration::from_millis(500));
        assert_eq!(backoff_delay(u32::MAX), Duration::from_millis(500));
    }

    #[test]
    fn connect_to_never_listening_address_fails_after_bounded_attempts() {
        // Bind an ephemeral port, then drop the listener: the port is now
        // known-dead and connecting to it is a fast ECONNREFUSED.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let start = std::time::Instant::now();
        let err = connect_with_retry(&dead_addr, 2, Duration::from_millis(200))
            .expect_err("must not connect");
        match &err {
            NetError::Connect { addr, attempts, .. } => {
                assert_eq!(addr, &dead_addr);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected Connect error, got {other}"),
        }
        // 2 backoffs (20 + 40 ms) plus fast refusals: well under 5 s proves
        // the retry loop is bounded, not spinning.
        assert!(start.elapsed() < Duration::from_secs(5), "retry unbounded?");
        assert!(err.to_string().contains(&dead_addr));
    }
}
