//! The in-process duplex channel standing in for one gRPC connection.
//!
//! Every message is *actually encoded* to bytes on send and decoded on
//! receive, so the codec is exercised on every hop and message sizes feed
//! the serialization cost model. The response stream doubles as the Remote
//! Library's **completion queue** (paper Fig. 2, steps 4–5): the manager
//! pushes tagged responses, the client's reactor pulls them and dispatches
//! on the tag.
//!
//! Both directions are **bounded** [`crate::sync::channel`]s of frames
//! (configurable via [`duplex_with_depth`]): a full queue makes
//! [`ClientChannel::try_send`]/[`ServerChannel::try_send`] surface
//! [`TransportError::Backpressure`] while the blocking `send` variants
//! park the caller until the peer drains — explicit flow control instead
//! of unbounded buffering behind a slow peer. Each receive direction can
//! additionally be tapped through a [`FrameRx`] and plugged into a
//! [`crate::Poller`], which is how one dispatcher thread multiplexes many
//! connections.

use std::error::Error;
use std::fmt;
use std::time::Duration;

use bytes::Bytes;

use crate::codec::{CodecError, WireDecode, WireEncode};
use crate::proto::{RequestEnvelope, ResponseEnvelope};
use crate::sync::channel::{bounded, ChannelError, Receiver, RecvView, Sender};

/// Default per-direction frame depth of [`duplex`].
pub const DEFAULT_DEPTH: usize = 256;

/// Transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer hung up.
    Closed,
    /// A frame failed to decode.
    Codec(CodecError),
    /// A blocking receive timed out.
    Timeout,
    /// The bounded queue is full: the peer is not draining fast enough.
    /// Retry after the peer reads, or use the blocking `send`.
    Backpressure,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Codec(e) => write!(f, "frame decode failure: {e}"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::Backpressure => write!(f, "bounded channel full (backpressure)"),
        }
    }
}

impl Error for TransportError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

impl From<ChannelError> for TransportError {
    fn from(e: ChannelError) -> Self {
        match e {
            ChannelError::Disconnected => TransportError::Closed,
            ChannelError::Full => TransportError::Backpressure,
            ChannelError::Timeout => TransportError::Timeout,
        }
    }
}

/// A non-owning tap on one receive direction, registerable with a
/// [`crate::Poller`]. Unlike the channel halves it carries no open/closed
/// ownership: dropping it never closes the connection.
#[derive(Debug, Clone)]
pub struct FrameRx(pub(crate) RecvView<Bytes>);

impl FrameRx {
    /// Non-blocking raw-frame receive. `Ok(None)` means no frame pending.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] once the queue is drained and
    /// every sender is gone.
    pub fn try_recv_frame(&self) -> Result<Option<Bytes>, TransportError> {
        Ok(self.0.try_recv()?)
    }
}

/// Client side of a connection: sends requests, receives tagged responses.
#[derive(Debug, Clone)]
pub struct ClientChannel {
    req: Sender<Bytes>,
    resp: Receiver<Bytes>,
}

/// Server side of a connection: receives requests, pushes tagged responses.
#[derive(Debug, Clone)]
pub struct ServerChannel {
    req: Receiver<Bytes>,
    resp: Sender<Bytes>,
}

/// Creates a connected client/server channel pair with the default
/// per-direction depth ([`DEFAULT_DEPTH`]).
pub fn duplex() -> (ClientChannel, ServerChannel) {
    duplex_with_depth(DEFAULT_DEPTH)
}

/// Creates a connected client/server channel pair whose directions each
/// hold at most `depth` frames (minimum 1).
pub fn duplex_with_depth(depth: usize) -> (ClientChannel, ServerChannel) {
    let (req_tx, req_rx) = bounded(depth);
    let (resp_tx, resp_rx) = bounded(depth);
    (
        ClientChannel {
            req: req_tx,
            resp: resp_rx,
        },
        ServerChannel {
            req: req_rx,
            resp: resp_tx,
        },
    )
}

impl ClientChannel {
    /// Encodes and sends one request, blocking while the request queue is
    /// full (flow control against a busy manager).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the manager hung up.
    pub fn send(&self, req: &RequestEnvelope) -> Result<(), TransportError> {
        Ok(self.req.send(req.to_bytes())?)
    }

    /// Non-blocking send.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Backpressure`] when the request queue is
    /// full, or [`TransportError::Closed`] if the manager hung up.
    pub fn try_send(&self, req: &RequestEnvelope) -> Result<(), TransportError> {
        Ok(self.req.try_send(req.to_bytes())?)
    }

    /// Blocks for the next tagged response from the completion stream.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn recv(&self) -> Result<ResponseEnvelope, TransportError> {
        Ok(ResponseEnvelope::from_bytes(self.resp.recv()?)?)
    }

    /// Like [`ClientChannel::recv`] with a wall-clock timeout (used by
    /// blocking callers to notice shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`], [`TransportError::Closed`] or a
    /// codec failure.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<ResponseEnvelope, TransportError> {
        Ok(ResponseEnvelope::from_bytes(
            self.resp.recv_timeout(timeout)?,
        )?)
    }

    /// Non-blocking poll of the completion stream. `Ok(None)` means no
    /// response is pending.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn try_recv(&self) -> Result<Option<ResponseEnvelope>, TransportError> {
        match self.resp.try_recv()? {
            Some(frame) => Ok(Some(ResponseEnvelope::from_bytes(frame)?)),
            None => Ok(None),
        }
    }

    /// A poller-registerable tap on the completion stream.
    pub fn completions(&self) -> FrameRx {
        FrameRx(self.resp.view())
    }

    /// Per-direction frame capacity.
    pub fn depth(&self) -> usize {
        self.req.capacity()
    }
}

impl ServerChannel {
    /// Blocks for the next request.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn recv(&self) -> Result<RequestEnvelope, TransportError> {
        Ok(RequestEnvelope::from_bytes(self.req.recv()?)?)
    }

    /// Like [`ServerChannel::recv`] with a wall-clock timeout.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`], [`TransportError::Closed`] or a
    /// codec failure.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<RequestEnvelope, TransportError> {
        Ok(RequestEnvelope::from_bytes(
            self.req.recv_timeout(timeout)?,
        )?)
    }

    /// Non-blocking poll of the request stream. `Ok(None)` means no request
    /// is pending.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] or a codec failure.
    pub fn try_recv(&self) -> Result<Option<RequestEnvelope>, TransportError> {
        match self.req.try_recv()? {
            Some(frame) => Ok(Some(RequestEnvelope::from_bytes(frame)?)),
            None => Ok(None),
        }
    }

    /// Pushes one tagged response onto the client's completion stream,
    /// blocking while the stream is full.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] if the client hung up.
    pub fn send(&self, resp: &ResponseEnvelope) -> Result<(), TransportError> {
        Ok(self.resp.send(resp.to_bytes())?)
    }

    /// Non-blocking response push.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Backpressure`] when the completion stream
    /// is full, or [`TransportError::Closed`] if the client hung up.
    pub fn try_send(&self, resp: &ResponseEnvelope) -> Result<(), TransportError> {
        Ok(self.resp.try_send(resp.to_bytes())?)
    }

    /// A poller-registerable tap on the request stream.
    pub fn requests(&self) -> FrameRx {
        FrameRx(self.req.view())
    }

    /// Per-direction frame capacity.
    pub fn depth(&self) -> usize {
        self.resp.capacity()
    }
}

#[cfg(test)]
mod tests {
    use bf_model::VirtualTime;

    use super::*;
    use crate::proto::{ClientId, Request, Response};

    fn req(tag: u64) -> RequestEnvelope {
        RequestEnvelope {
            tag,
            client: ClientId(1),
            sent_at: VirtualTime::from_nanos(10),
            body: Request::CreateContext,
        }
    }

    fn resp(tag: u64) -> ResponseEnvelope {
        ResponseEnvelope {
            tag,
            sent_at: VirtualTime::ZERO,
            body: Response::Ack,
        }
    }

    #[test]
    fn request_response_round_trip() {
        let (client, server) = duplex();
        client.send(&req(1)).expect("send");
        let got = server.recv().expect("recv");
        assert_eq!(got.tag, 1);
        assert_eq!(got.body, Request::CreateContext);
        server
            .send(&ResponseEnvelope {
                tag: 1,
                sent_at: VirtualTime::from_nanos(20),
                body: Response::Handle { id: 5 },
            })
            .expect("send resp");
        let resp = client.recv().expect("recv resp");
        assert_eq!(resp.body, Response::Handle { id: 5 });
    }

    #[test]
    fn closed_peer_is_detected() {
        let (client, server) = duplex();
        drop(server);
        assert_eq!(client.send(&req(1)), Err(TransportError::Closed));
        assert_eq!(client.recv().expect_err("closed"), TransportError::Closed);
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (client, server) = duplex();
        assert_eq!(client.try_recv().expect("empty"), None);
        server.send(&resp(9)).expect("send");
        assert!(client.try_recv().expect("one frame").is_some());
    }

    #[test]
    fn timeout_fires_when_idle() {
        let (client, _server) = duplex();
        let err = client
            .recv_timeout(Duration::from_millis(5))
            .expect_err("should time out");
        assert_eq!(err, TransportError::Timeout);
    }

    #[test]
    fn responses_preserve_order_per_connection() {
        let (client, server) = duplex();
        for tag in 0..10u64 {
            server
                .send(&ResponseEnvelope {
                    tag,
                    sent_at: VirtualTime::ZERO,
                    body: Response::Enqueued,
                })
                .expect("send");
        }
        for tag in 0..10u64 {
            assert_eq!(client.recv().expect("recv").tag, tag);
        }
    }

    #[test]
    fn full_queue_surfaces_backpressure_then_drains() {
        let (client, server) = duplex_with_depth(4);
        for tag in 0..4 {
            client.try_send(&req(tag)).expect("below capacity");
        }
        assert_eq!(client.try_send(&req(4)), Err(TransportError::Backpressure));
        // One read frees one slot.
        assert_eq!(server.recv().expect("recv").tag, 0);
        client.try_send(&req(4)).expect("slot freed");
        // Same in the response direction.
        for tag in 0..4 {
            server.try_send(&resp(tag)).expect("below capacity");
        }
        assert_eq!(server.try_send(&resp(4)), Err(TransportError::Backpressure));
        assert_eq!(client.recv().expect("recv").tag, 0);
        server.try_send(&resp(4)).expect("slot freed");
    }

    #[test]
    fn blocking_send_waits_for_the_reader() {
        let (client, server) = duplex_with_depth(2);
        let producer = std::thread::spawn(move || {
            for tag in 0..32 {
                client.send(&req(tag)).expect("send");
            }
        });
        for tag in 0..32 {
            assert_eq!(server.recv().expect("recv").tag, tag);
        }
        producer.join().expect("producer");
    }

    #[test]
    fn depth_is_clamped_to_at_least_one() {
        let (client, server) = duplex_with_depth(0);
        client.try_send(&req(1)).expect("one slot");
        assert_eq!(client.try_send(&req(2)), Err(TransportError::Backpressure));
        assert_eq!(server.recv().expect("recv").tag, 1);
    }

    #[test]
    fn closed_is_reported_only_after_the_queue_drains() {
        let (client, server) = duplex();
        server.send(&resp(7)).expect("send");
        drop(server);
        // The buffered frame is still delivered before Closed.
        assert_eq!(client.recv().expect("buffered").tag, 7);
        assert_eq!(client.recv().expect_err("drained"), TransportError::Closed);
    }
}
