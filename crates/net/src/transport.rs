//! The [`Transport`] abstraction: typed, bounded channels whose two ends
//! may live in one process (crossbeam) or on either side of a socket.
//!
//! The contract every implementation must honor is the crossbeam contract
//! the runtime and serve planes were built on:
//!
//! - `send` blocks while `capacity` messages are in flight (backpressure)
//!   and fails only when the receiving side is gone;
//! - `recv` drains every in-flight message before it reports disconnect;
//! - dropping all senders is the clean shutdown signal for the receiver.
//!
//! An in-process `recv` on an empty channel parks its thread at once. In
//! the lockstep training runtime the actor waits for its reply through a
//! whole learner update, and parked it leaves its core to the update's
//! critic half (on the learner's `dosco_rl::trainer::Helper`); a spinning
//! wait there cost a core. A consumer that gains from polling — the serve
//! shard loop, whose next message is microseconds away — spins on
//! `try_recv` itself before it calls `recv`.
//!
//! Error types are re-used from the vendored crossbeam so generic driver
//! code matches on exactly the arms it matched on before.

use crossbeam::channel::{self, RecvError, SendError, TryRecvError};

/// Sending half of a transport channel (single-producer: every channel
/// in the workspace has one sender).
pub trait Tx<T>: Send {
    /// Blocks until the message is accepted or the receiver is gone.
    ///
    /// # Errors
    ///
    /// Returns the message if the receiving side disconnected.
    fn send(&self, msg: T) -> Result<(), SendError<T>>;
}

/// Receiving half of a transport channel (single-consumer).
pub trait Rx<T>: Send {
    /// Blocks until a message arrives or every sender disconnected.
    ///
    /// # Errors
    ///
    /// Fails only once the channel is drained *and* sender-less.
    fn recv(&self) -> Result<T, RecvError>;

    /// Dequeues without blocking.
    ///
    /// # Errors
    ///
    /// `Empty` if nothing is queued, `Disconnected` once drained and
    /// sender-less.
    fn try_recv(&self) -> Result<T, TryRecvError>;

    /// The transport fault that terminated this channel, if any: `None` for
    /// a healthy channel or a clean disconnect, a description for e.g. a
    /// corrupt frame on a socket transport. In-process channels never fault.
    fn fault(&self) -> Option<String> {
        None
    }
}

/// Boxed sender half.
pub type BoxTx<T> = Box<dyn Tx<T>>;
/// Boxed receiver half.
pub type BoxRx<T> = Box<dyn Rx<T>>;

/// A factory for typed channels of one message type `T`.
pub trait Transport<T> {
    /// Opens a channel with room for `capacity` in-flight messages.
    fn channel(&self, capacity: usize) -> (BoxTx<T>, BoxRx<T>);
}

// ---------------------------------------------------------------------------
// InProcess: the existing crossbeam channels behind the trait.
// ---------------------------------------------------------------------------

/// The in-process transport: channels are exactly the bounded crossbeam
/// channels the planes used before this crate existed, so every code path
/// routed through it is bit-identical to the pre-transport wiring.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

struct ChanTx<T>(channel::Sender<T>);
struct ChanRx<T>(channel::Receiver<T>);

impl<T: Send + 'static> Tx<T> for ChanTx<T> {
    fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.0.send(msg)
    }
}

impl<T: Send + 'static> Rx<T> for ChanRx<T> {
    fn recv(&self) -> Result<T, RecvError> {
        self.0.recv()
    }
    fn try_recv(&self) -> Result<T, TryRecvError> {
        self.0.try_recv()
    }
}

impl<T: Send + 'static> Transport<T> for InProcess {
    fn channel(&self, capacity: usize) -> (BoxTx<T>, BoxRx<T>) {
        let (tx, rx) = channel::bounded(capacity);
        (Box::new(ChanTx(tx)), Box::new(ChanRx(rx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_matches_crossbeam_contract() {
        let (tx, rx) = <InProcess as Transport<u32>>::channel(&InProcess, 2);
        tx.send(1).expect("send");
        tx.send(2).expect("send");
        assert_eq!(rx.recv().expect("recv"), 1);
        tx.send(4).expect("send");
        assert!(matches!(rx.try_recv(), Ok(2)));
        drop(tx);
        // Drain-then-disconnect: in-flight messages first, then the error.
        assert_eq!(rx.recv().expect("drain 4"), 4);
        assert!(rx.recv().is_err());
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
    }

    #[test]
    fn dropping_receiver_fails_sends() {
        let (tx, rx) = <InProcess as Transport<u8>>::channel(&InProcess, 1);
        drop(rx);
        assert!(matches!(tx.send(7), Err(SendError(7))));
    }
}
