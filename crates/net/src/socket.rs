//! Socket-backed channels: the crossbeam contract over a TCP stream.
//!
//! Each direction of a connection is one typed channel:
//!
//! - [`sender_on`] wraps the write half. Senders enqueue into a bounded
//!   in-process queue; a dedicated writer thread drains it, encoding each
//!   message with [`crate::codec`] and framing it with [`crate::frame`].
//!   When the sender drops, the writer drains what is queued, then shuts
//!   down the write half — the peer sees a clean EOF at a frame boundary,
//!   exactly like the last crossbeam `Sender` dropping.
//! - [`receiver_on`] wraps the read half. A reader thread decodes frames
//!   into a bounded queue; `recv` drains buffered messages before it
//!   reports disconnect, mirroring crossbeam's drain-then-error semantics.
//!
//! Backpressure is end-to-end: a slow receiver fills its bounded queue,
//! which parks the reader thread, which fills the kernel TCP window, which
//! parks the peer's writer thread, which fills the sender-side queue, at
//! which point `send` blocks (each such stall counted as
//! `net_socket_stalls`).

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use crossbeam::channel::{self, RecvError, SendError, TryRecvError, TrySendError};
use dosco_obs::registry::{count, CounterKind};
use serde::{Deserialize, Serialize};

use crate::codec::{decode_msg, encode_msg};
use crate::frame::{read_frame, write_frame, FrameError};
use crate::transport::{BoxRx, BoxTx, Rx, Transport, Tx};

/// What a message type needs to travel over a socket transport.
pub trait Wire: Serialize + Deserialize + Send + 'static {}
impl<T: Serialize + Deserialize + Send + 'static> Wire for T {}

// ---------------------------------------------------------------------------
// Sender half.
// ---------------------------------------------------------------------------

struct SocketTx<T> {
    /// `Some` until drop; dropping it disconnects the writer thread's
    /// receiver, which triggers drain + FIN.
    queue: Option<channel::Sender<T>>,
    writer: Option<JoinHandle<()>>,
}

impl<T: Wire> Tx<T> for SocketTx<T> {
    fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let q = self.queue.as_ref().expect("live sender");
        match q.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(m)) => Err(SendError(m)),
            Err(TrySendError::Full(m)) => {
                count(CounterKind::NetSocketStalls, 1);
                q.send(m)
            }
        }
    }
}

impl<T> Drop for SocketTx<T> {
    fn drop(&mut self) {
        // Release the queue first: the writer thread's `recv` then drains
        // what is queued and errors out. Joining it means the frames for
        // everything sent before drop are on the wire when drop returns —
        // matching the "drop sender, receiver still drains all in-flight
        // messages" crossbeam contract.
        self.queue.take();
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }
}

/// Wraps the write half of `stream` as a typed transport sender with room
/// for `capacity` in-flight messages.
///
/// # Panics
///
/// Panics if the writer thread cannot be spawned or `capacity == 0`.
pub fn sender_on<T: Wire>(stream: TcpStream, capacity: usize) -> BoxTx<T> {
    let _ = stream.set_nodelay(true);
    let (tx, rx) = channel::bounded::<T>(capacity);
    let writer = thread::Builder::new()
        .name("dosco-net-writer".into())
        .spawn(move || {
            let mut stream = stream;
            while let Ok(msg) = rx.recv() {
                let payload = encode_msg(&msg);
                if write_frame(&mut stream, &payload).is_err() {
                    // Peer is gone: exit, dropping `rx` so every queued and
                    // future `send` observes the disconnect.
                    return;
                }
            }
            // All senders dropped and the queue is drained: signal a clean
            // close so the peer's reader sees EOF at a frame boundary.
            let _ = stream.shutdown(Shutdown::Write);
        })
        .expect("spawn dosco-net-writer");
    Box::new(SocketTx {
        queue: Some(tx),
        writer: Some(writer),
    })
}

// ---------------------------------------------------------------------------
// Receiver half.
// ---------------------------------------------------------------------------

struct SocketRx<T> {
    queue: Option<channel::Receiver<T>>,
    /// Clone of the stream used solely to unblock the reader on drop.
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
    /// First decode/transport error the reader hit, if any (a clean EOF is
    /// not an error).
    fault: Arc<Mutex<Option<String>>>,
}

impl<T: Wire> Rx<T> for SocketRx<T> {
    fn recv(&self) -> Result<T, RecvError> {
        self.queue.as_ref().expect("live receiver").recv()
    }

    fn try_recv(&self) -> Result<T, TryRecvError> {
        self.queue.as_ref().expect("live receiver").try_recv()
    }

    fn fault(&self) -> Option<String> {
        self.fault.lock().expect("fault lock").clone()
    }
}

impl<T> Drop for SocketRx<T> {
    fn drop(&mut self) {
        // Order matters: close our queue end (so a reader parked on a full
        // queue errors out), then shut the socket (so a reader parked in
        // `read` errors out), then join.
        self.queue.take();
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Wraps the read half of `stream` as a typed transport receiver buffering
/// up to `capacity` decoded messages.
///
/// A decode failure (corrupt frame, shape mismatch) terminates the stream
/// like a disconnect — after the buffered messages drain, `recv` errors —
/// rather than panicking; the fault description is available via
/// [`Rx::fault`].
///
/// # Panics
///
/// Panics if the reader thread cannot be spawned, the stream cannot be
/// cloned, or `capacity == 0`.
pub fn receiver_on<T: Wire>(stream: TcpStream, capacity: usize) -> BoxRx<T> {
    let _ = stream.set_nodelay(true);
    let (tx, rx) = channel::bounded::<T>(capacity);
    let fault: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let fault_in = Arc::clone(&fault);
    let shutdown_handle = stream.try_clone().expect("clone stream for shutdown");
    let reader = thread::Builder::new()
        .name("dosco-net-reader".into())
        .spawn(move || {
            let mut stream = stream;
            loop {
                let payload = match read_frame(&mut stream) {
                    Ok(p) => p,
                    Err(FrameError::Eof) => return,
                    // A read timeout at a frame boundary (the caller may
                    // have configured `SO_RCVTIMEO` on the stream) is an
                    // idle tick, not a fault: nothing was consumed, so
                    // waiting again cannot desync. Timeouts *inside* a
                    // frame never surface here — `read_frame` resumes
                    // them itself.
                    Err(FrameError::Io(e))
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue;
                    }
                    Err(e) => {
                        *fault_in.lock().expect("fault lock") = Some(e.to_string());
                        return;
                    }
                };
                let msg: T = match decode_msg(&payload) {
                    Ok(m) => m,
                    Err(e) => {
                        *fault_in.lock().expect("fault lock") = Some(e.to_string());
                        return;
                    }
                };
                // Blocking send is the backpressure: a full queue parks this
                // thread, which in turn parks the peer via the TCP window.
                if tx.send(msg).is_err() {
                    return;
                }
            }
        })
        .expect("spawn dosco-net-reader");
    Box::new(SocketRx {
        queue: Some(rx),
        stream: shutdown_handle,
        reader: Some(reader),
        fault,
    })
}

// ---------------------------------------------------------------------------
// Loopback transport: socket channels behind the Transport trait.
// ---------------------------------------------------------------------------

/// A [`Transport`] whose every channel is a real TCP connection over
/// loopback: bind an ephemeral listener, connect, accept, and wrap the two
/// streams with [`sender_on`] / [`receiver_on`].
///
/// This drives the *identical* generic code path a multi-host deployment
/// uses — same codec, framing, threads, and backpressure — which is what
/// the socket equivalence tests pin against the in-process transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketLoopback;

impl<T: Wire> Transport<T> for SocketLoopback {
    fn channel(&self, capacity: usize) -> (BoxTx<T>, BoxRx<T>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        let addr = listener.local_addr().expect("listener addr");
        let accept = thread::Builder::new()
            .name("dosco-net-accept".into())
            .spawn(move || listener.accept().expect("accept loopback peer").0)
            .expect("spawn dosco-net-accept");
        let tx_stream = TcpStream::connect(addr).expect("connect loopback");
        let rx_stream = accept.join().expect("join accept thread");
        (sender_on(tx_stream, capacity), receiver_on(rx_stream, capacity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Msg {
        seq: u64,
        body: Vec<f32>,
    }

    fn loopback_channel(capacity: usize) -> (BoxTx<Msg>, BoxRx<Msg>) {
        <SocketLoopback as Transport<Msg>>::channel(&SocketLoopback, capacity)
    }

    #[test]
    fn messages_arrive_in_order_bitwise() {
        let (tx, rx) = loopback_channel(4);
        let msgs: Vec<Msg> = (0..32)
            .map(|i| Msg {
                seq: i,
                body: vec![i as f32 * 0.5, -1.0 / (i as f32 + 1.0)],
            })
            .collect();
        let sent = msgs.clone();
        let sender = thread::spawn(move || {
            for m in msgs {
                tx.send(m).expect("send");
            }
        });
        for expected in &sent {
            let got = rx.recv().expect("recv");
            assert_eq!(&got, expected);
        }
        sender.join().expect("sender thread");
    }

    #[test]
    fn drop_sender_drains_then_disconnects() {
        let (tx, rx) = loopback_channel(8);
        for i in 0..5 {
            tx.send(Msg {
                seq: i,
                body: vec![],
            })
            .expect("send");
        }
        drop(tx); // writer drains, FINs; reader forwards then closes
        for i in 0..5 {
            assert_eq!(rx.recv().expect("drain").seq, i);
        }
        assert!(rx.recv().is_err());
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
    }

    #[test]
    fn dropping_receiver_does_not_hang_sender_side() {
        let (tx, rx) = loopback_channel(2);
        drop(rx);
        // The writer may only discover the closed peer on write; sends must
        // terminate (either Ok into the doomed queue or an error), never
        // hang forever.
        let mut saw_err = false;
        for i in 0..64 {
            if tx
                .send(Msg {
                    seq: i,
                    body: vec![0.0; 64],
                })
                .is_err()
            {
                saw_err = true;
                break;
            }
        }
        // On loopback the RST is prompt, but the exact send that observes it
        // is timing-dependent; the property under test is termination.
        let _ = saw_err;
    }

    #[test]
    fn nan_payload_survives_the_wire() {
        let (tx, rx) = loopback_channel(1);
        let nan = f32::from_bits(0x7fc0_1234);
        tx.send(Msg {
            seq: 0,
            body: vec![nan, -0.0],
        })
        .expect("send");
        let got = rx.recv().expect("recv");
        assert_eq!(got.body[0].to_bits(), nan.to_bits());
        assert_eq!(got.body[1].to_bits(), (-0.0f32).to_bits());
        drop(tx);
    }

    /// A sender blocked on a full channel counts one `net_socket_stalls`
    /// and completes once the receiver drains.
    #[test]
    fn backpressure_blocks_send_until_the_receiver_drains() {
        const MSGS: u64 = 256;
        let stalls = || dosco_obs::registry::counter_value(CounterKind::NetSocketStalls);
        let before = stalls();
        let (tx, rx) = loopback_channel(1);
        // Nothing reads yet: the sender queue, the reader queue and the
        // TCP buffers fill, and `send` blocks.
        let sender = thread::spawn(move || {
            for seq in 0..MSGS {
                tx.send(Msg {
                    seq,
                    body: vec![1.0; 16384],
                })
                .expect("receiver alive");
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while stalls() == before {
            assert!(
                std::time::Instant::now() < deadline,
                "bounded socket channel never stalled its sender"
            );
            thread::sleep(std::time::Duration::from_millis(5));
        }
        for seq in 0..MSGS {
            assert_eq!(rx.recv().expect("drain").seq, seq);
        }
        sender.join().expect("sender completes once drained");
    }
}
