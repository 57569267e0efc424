//! Dribbling-peer regression tests: a peer that writes one byte at a
//! time, with pauses long enough to fire the receiver's read timeout
//! mid-frame, must never desync the framed stream.
//!
//! Before the PR-9 fix, `read_frame`'s payload used a raw `read_exact`:
//! the first `SO_RCVTIMEO` expiry inside a payload failed the read,
//! faulted the channel, and every subsequent frame was lost.

use dosco_net::frame::{encode_frame, read_frame, FrameError};
use dosco_net::receiver_on;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

/// Connects a loopback pair, returning (client, server) streams.
fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    (client, server)
}

/// Writes `bytes` one byte at a time, pausing `pause` between bytes so
/// the reader's timeout fires many times inside every frame.
fn dribble(stream: &mut TcpStream, bytes: &[u8], pause: Duration) {
    for &b in bytes {
        stream.write_all(&[b]).expect("write byte");
        stream.flush().expect("flush byte");
        std::thread::sleep(pause);
    }
}

/// Raw `read_frame` on a stream with a read timeout much shorter than
/// the peer's inter-byte pause: both frames decode, then a clean EOF.
#[test]
fn read_frame_survives_a_dribbling_peer_across_timeouts() {
    let (mut client, mut server) = loopback_pair();
    // Timeout shorter than the peer's inter-byte pause: every byte gap
    // fires at least one timeout, most of them mid-frame.
    server
        .set_read_timeout(Some(Duration::from_millis(1)))
        .expect("set timeout");

    let writer = std::thread::spawn(move || {
        let mut wire = encode_frame(b"first frame");
        wire.extend_from_slice(&encode_frame(b"second frame"));
        dribble(&mut client, &wire, Duration::from_millis(3));
        // A long mid-stream silence at a frame boundary, then close.
        std::thread::sleep(Duration::from_millis(30));
        let _ = client.shutdown(Shutdown::Write);
    });

    // The first header byte may race the timeout: retry idle ticks at
    // the boundary (`Io`), which consume nothing.
    let read_resuming = |server: &mut TcpStream| loop {
        match read_frame(server) {
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            other => return other,
        }
    };
    assert_eq!(read_resuming(&mut server).expect("first"), b"first frame");
    assert_eq!(read_resuming(&mut server).expect("second"), b"second frame");
    assert!(matches!(read_resuming(&mut server), Err(FrameError::Eof)));
    writer.join().expect("writer");
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Msg {
    seq: u64,
    body: Vec<f32>,
}

/// The full `receiver_on` channel over a stream with a short read
/// timeout: messages from a dribbling peer arrive intact and in order,
/// and the channel reports no fault — timeouts inside a frame resume
/// instead of killing the reader thread.
#[test]
fn receiver_channel_survives_a_dribbling_peer() {
    let (mut client, server) = loopback_pair();
    server
        .set_read_timeout(Some(Duration::from_millis(1)))
        .expect("set timeout");
    let rx = receiver_on::<Msg>(server, 8);

    let sent: Vec<Msg> = (0..3)
        .map(|i| Msg {
            seq: i,
            body: vec![i as f32 + 0.5],
        })
        .collect();
    let wire: Vec<u8> = sent
        .iter()
        .flat_map(|m| encode_frame(&dosco_net::encode_msg(m)))
        .collect();
    let writer = std::thread::spawn(move || {
        dribble(&mut client, &wire, Duration::from_millis(3));
        let _ = client.shutdown(Shutdown::Write);
    });

    for expected in &sent {
        assert_eq!(&rx.recv().expect("recv"), expected);
    }
    assert!(rx.recv().is_err(), "clean EOF disconnects after draining");
    assert!(
        rx.fault().is_none(),
        "timeouts are not faults: {:?}",
        rx.fault()
    );
    writer.join().expect("writer");
}
