//! Connection establishment: the [`NetConfig`] dial policy and
//! [`connect_with_retry`] (bounded exponential-backoff retry + connect
//! timeout).

use std::fmt;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// The dial policy of [`crate::dial_session`]: how often and how long
/// to try before a connection fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Extra connect attempts after the first (total = retries + 1).
    pub retries: u32,
    /// Per-attempt connect timeout.
    pub timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            retries: 5,
            timeout: Duration::from_millis(2000),
        }
    }
}

/// Connection-establishment failures.
#[derive(Debug)]
pub enum NetError {
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
