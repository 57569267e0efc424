//! Dribbling-client regression tests for the ops HTTP server: a client
//! that writes its request one byte at a time, sleeping between bytes,
//! must get a complete answer — TCP makes no promise that a request
//! head or body arrives in one segment.

use dosco_ctl::{CtlConfig, CtlServer, CtlState};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_server() -> CtlServer {
    CtlServer::start(&CtlConfig::default(), Arc::new(CtlState::new())).expect("start ctl server")
}

/// Writes `request` one byte at a time with a pause between bytes, then
/// reads the full response, returning the status code and body.
fn dribbled_request(addr: SocketAddr, request: &str, pause: Duration) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_nodelay(true);
    for &b in request.as_bytes() {
        stream.write_all(&[b]).expect("write byte");
        stream.flush().expect("flush byte");
        std::thread::sleep(pause);
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A GET whose head arrives one byte per segment is still answered 200.
#[test]
fn get_head_dribbled_one_byte_at_a_time_is_served() {
    let server = start_server();
    let (status, body) = dribbled_request(
        server.addr(),
        "GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        Duration::from_millis(2),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"ok\""), "{body}");
    server.shutdown();
}

/// A POST whose `Content-Length` body dribbles in after the head must
/// be read completely: the malformed-spec error proves the server
/// parsed the *full* body rather than truncating it at a stall.
#[test]
fn post_body_dribbled_one_byte_at_a_time_is_read_completely() {
    let server = start_server();
    let body = "{\"horizon\": \"not a number\"}";
    let request = format!(
        "POST /jobs/train HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let (status, resp) = dribbled_request(server.addr(), &request, Duration::from_millis(2));
    // The spec is intentionally invalid: a 400 naming the field means
    // the whole body arrived and was parsed. A truncated body would
    // have been invalid JSON or hung the request entirely.
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("error"), "{resp}");
    server.shutdown();
}
