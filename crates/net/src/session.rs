//! The TCP session of the serving fabric's remote shards (frontend ↔
//! shard): the listening end writes a hello frame (`ShardInit`), then
//! each direction is a typed channel.

use std::any::type_name;
use std::net::TcpStream;

use serde::{Deserialize, Serialize};

use crate::codec::{decode_msg, encode_msg};
use crate::config::{connect_with_retry, NetConfig, NetError};
use crate::frame::{read_frame, write_frame};
use crate::socket::{receiver_on, sender_on, Wire};
use crate::transport::{BoxRx, BoxTx};

fn hello_error<H>(what: &str, e: impl std::fmt::Display) -> NetError {
    NetError::Protocol(format!("{what} {}: {e}", type_name::<H>()))
}

fn split<Out: Wire, In: Wire>(
    stream: TcpStream,
    capacity: usize,
) -> Result<(BoxTx<Out>, BoxRx<In>), NetError> {
    let read_half = stream
        .try_clone()
        .map_err(|e| NetError::Protocol(format!("clone session stream: {e}")))?;
    Ok((
        sender_on(stream, capacity),
        receiver_on(read_half, capacity),
    ))
}

/// Opens the listening end of a session on an accepted `stream`: writes
/// `hello`, then returns the two directions as typed channels with room
/// for `capacity` messages each. Bound as `let (tx, rx)`, `rx` drops
/// first and shuts the socket down, so an error return never blocks
/// flushing a message the peer will not read.
///
/// # Errors
///
/// [`NetError::Protocol`] naming the hello if it cannot be written, or if
/// the stream cannot be split.
///
/// # Panics
///
/// As [`sender_on`] and [`receiver_on`].
pub fn open_session<H: Serialize, Out: Wire, In: Wire>(
    stream: TcpStream,
    hello: &H,
    capacity: usize,
) -> Result<(BoxTx<Out>, BoxRx<In>), NetError> {
    let _ = stream.set_nodelay(true);
    write_frame(&mut &stream, &encode_msg(hello)).map_err(|e| hello_error::<H>("send", e))?;
    split(stream, capacity)
}

/// Dials the listening end at `addr` with `net`'s retry policy and reads
/// its hello, returned with the two directions as typed channels with
/// room for `capacity` messages each.
///
/// # Errors
///
/// [`NetError`] if the connection fails; [`NetError::Protocol`] naming
/// the hello if the peer closes before sending it or it does not decode
/// as `H`.
///
/// # Panics
///
/// As [`sender_on`] and [`receiver_on`].
pub fn dial_session<H: Deserialize, Out: Wire, In: Wire>(
    addr: &str,
    net: &NetConfig,
    capacity: usize,
) -> Result<(H, BoxTx<Out>, BoxRx<In>), NetError> {
    let stream = connect_with_retry(addr, net.retries, net.timeout)?;
    let payload = read_frame(&mut &stream).map_err(|e| hello_error::<H>("read", e))?;
    let hello = decode_msg(&payload).map_err(|e| hello_error::<H>("decode", e))?;
    let (tx, rx) = split(stream, capacity)?;
    Ok((hello, tx, rx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Hello {
        weights: Vec<f32>,
    }

    type Dialed<H> = Result<(H, BoxTx<u64>, BoxRx<String>), NetError>;

    /// Dials a listener whose one accepted connection `listen` handles.
    fn dial<H: Deserialize, T: Send + 'static>(
        listen: impl FnOnce(TcpStream) -> T + Send + 'static,
    ) -> (Dialed<H>, thread::JoinHandle<T>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound address").to_string();
        let peer = thread::spawn(move || listen(listener.accept().expect("accept").0));
        (dial_session(&addr, &NetConfig::default(), 1), peer)
    }

    #[test]
    fn hello_arrives_intact_and_both_directions_carry_a_message() {
        let weights = vec![f32::from_bits(0x7fc0_0001), -0.0, 1.5];
        let sent = Hello {
            weights: weights.clone(),
        };
        let (dialed, peer) = dial::<Hello, _>(move |stream| {
            let (tx, rx) = open_session::<_, String, u64>(stream, &sent, 1).expect("open");
            tx.send("to dialer".into()).expect("send");
            rx.recv().expect("from dialer")
        });
        let (hello, tx, rx) = dialed.expect("dial");
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&hello.weights), bits(&weights));
        assert_eq!(rx.recv().expect("from listener"), "to dialer");
        tx.send(7).expect("send");
        assert_eq!(peer.join().expect("listening end"), 7);
    }

    /// A peer that closes before the hello, or whose hello does not
    /// decode as the expected type, is a protocol error naming the hello.
    #[test]
    fn missing_or_undecodable_hello_is_a_protocol_error() {
        let closes = dial::<Hello, _>(drop);
        let wrong_type = dial::<Hello, _>(|stream| {
            let _ = open_session::<_, u64, u64>(stream, &String::from("not a hello"), 1);
        });
        for (dialed, peer) in [closes, wrong_type] {
            peer.join().expect("listening end");
            match dialed {
                Err(NetError::Protocol(msg)) => assert!(msg.contains("Hello"), "{msg}"),
                Err(other) => panic!("expected a protocol error, got {other}"),
                Ok(_) => panic!("dialed without a valid hello"),
            }
        }
    }
}
