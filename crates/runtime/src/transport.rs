//! Abstract transport objects (§7.2).
//!
//! "The Coordinator and the executing actors communicate through abstract
//! transport objects which are subclassed to use a specific message passing
//! mechanism; the mechanism may be selected at run-time."
//!
//! Local delivery is built into the system (mailbox push). A [`Transport`]
//! is the pluggable *uplink* used for actors the local node does not host:
//! the simulated cluster installs one that forwards over inter-node links.

use actorspace_core::{ActorId, Route};

use crate::message::Message;

/// A message-passing mechanism for actors not hosted locally.
pub trait Transport: Send + Sync {
    /// Attempts delivery; returns false if the destination is unknown to
    /// this transport too (the message becomes a dead letter). `route` is
    /// the pattern resolution that chose `to`, when there was one; a
    /// transport that can re-route around failed destinations (the cluster
    /// uplink) uses it, others ignore it.
    fn deliver(&self, to: ActorId, msg: Message, route: Option<&Route>) -> bool;
}
