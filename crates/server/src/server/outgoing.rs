//! What one call into the core produces: [`Outgoing`], a batch of
//! [`Delivery`] items for the transport.

use cosoft_wire::{Message, SharedFrame};

#[cfg(doc)]
use super::ServerCore;

/// One delivery item produced by the server's outgoing path.
///
/// Unicast replies carry an owned [`Message`], encoded by whichever
/// transport actually sends it. Broadcast fan-out instead carries one
/// pre-encoded [`SharedFrame`] next to the full list of destination
/// endpoints: the frame body is encoded exactly once and the cheaply
/// clonable frame is delivered everywhere (§3.2's multiple execution
/// makes broadcast the server's hottest path).
#[derive(Debug, Clone, PartialEq)]
pub enum Delivery<E> {
    /// A message for exactly one endpoint, not yet encoded.
    Unicast(E, Message),
    /// One shared pre-encoded frame for every listed endpoint.
    Shared(Vec<E>, SharedFrame),
}

/// Outgoing deliveries produced by one [`ServerCore::handle`] call.
///
/// Transport-facing consumers either walk [`Outgoing::items`] (or
/// [`Outgoing::into_frames`]) to deliver shared frames without
/// re-encoding, or flatten via [`Outgoing::into_messages`] when
/// per-endpoint owned messages are more convenient (tests, the
/// deterministic simulation's message-level introspection).
#[derive(Debug, Clone, PartialEq)]
pub struct Outgoing<E> {
    items: Vec<Delivery<E>>,
}

impl<E> Default for Outgoing<E> {
    fn default() -> Self {
        Outgoing { items: Vec::new() }
    }
}

impl<E> Outgoing<E> {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues an owned message for one endpoint.
    pub fn push_unicast(&mut self, endpoint: E, msg: Message) {
        self.items.push(Delivery::Unicast(endpoint, msg));
    }

    /// Queues one pre-encoded frame for every endpoint in `endpoints`.
    /// An empty endpoint list is dropped — there is nothing to deliver.
    pub fn push_shared(&mut self, endpoints: Vec<E>, frame: SharedFrame) {
        if !endpoints.is_empty() {
            self.items.push(Delivery::Shared(endpoints, frame));
        }
    }

    /// The queued delivery items, in production order.
    pub fn items(&self) -> &[Delivery<E>] {
        &self.items
    }

    /// Consumes the batch into its delivery items.
    pub fn into_items(self) -> Vec<Delivery<E>> {
        self.items
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of per-endpoint messages this batch delivers (a shared
    /// frame counts once per destination endpoint).
    pub fn message_count(&self) -> usize {
        self.items
            .iter()
            .map(|d| match d {
                Delivery::Unicast(..) => 1,
                Delivery::Shared(endpoints, _) => endpoints.len(),
            })
            .sum()
    }

    /// Appends every item of `other`, preserving order.
    pub fn extend(&mut self, other: Outgoing<E>) {
        self.items.extend(other.items);
    }

    /// Flattens into per-endpoint owned messages. A shared frame is
    /// decoded once and the message cloned per endpoint — the
    /// compatibility path for consumers that want `(endpoint, Message)`
    /// pairs; the TCP hot path uses [`Outgoing::into_frames`] instead.
    pub fn into_messages(self) -> Vec<(E, Message)> {
        let mut flat = Vec::with_capacity(self.items.len());
        for item in self.items {
            match item {
                Delivery::Unicast(e, m) => flat.push((e, m)),
                Delivery::Shared(endpoints, frame) => {
                    #[expect(
                        clippy::expect_used,
                        reason = "frames here are built by SharedFrame::from_message from valid messages"
                    )]
                    let msg = frame.decode().expect("server-encoded frame decodes");
                    let mut endpoints = endpoints.into_iter();
                    if let Some(last) = endpoints.next_back() {
                        for e in endpoints {
                            flat.push((e, msg.clone()));
                        }
                        flat.push((last, msg));
                    }
                }
            }
        }
        flat
    }

    /// Flattens into per-endpoint pre-encoded frames: unicast messages
    /// are framed here (exactly once each), shared frames are cheaply
    /// cloned per destination. The result is ready for a transport
    /// `send_batch`.
    pub fn into_frames(self) -> Vec<(E, SharedFrame)> {
        let mut flat = Vec::with_capacity(self.items.len());
        for item in self.items {
            match item {
                Delivery::Unicast(e, m) => flat.push((e, SharedFrame::from_message(&m))),
                Delivery::Shared(endpoints, frame) => {
                    for e in endpoints {
                        flat.push((e, frame.clone()));
                    }
                }
            }
        }
        flat
    }
}
