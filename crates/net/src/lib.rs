//! The inter-node design (§7.3): a simulated cluster of ActorSpace nodes
//! connected by a coordinator bus.
//!
//! "The local coordinator connects to coordinators on other nodes using a
//! (virtual) coordinator bus. … A coordinator process uses the network
//! connection to broadcast information to other coordinators in order to
//! maintain coherence of the state of ActorSpace. This state includes
//! 'live' actors and actorSpaces as well as visibility of actors. The
//! coordinators automatically determine the location of an actor given its
//! name and forward any outgoing messages to the appropriate node. …
//! the current design needs a global ordering on individual broadcasts
//! between coordinators to order visibility changes globally, so that all
//! nodes have the same view of visibility in ActorSpace (although not
//! necessarily the same order on broadcasts to actors)."
//!
//! What the paper's testbed provided in hardware is simulated here
//! (substitution documented in DESIGN.md):
//!
//! * **Nodes** are full [`ActorSystem`](actorspace_runtime::ActorSystem)s
//!   with disjoint address ranges ([`directory`]).
//! * **One event loop per node** ([`event_loop`]) runs every link and
//!   timer of that node; a node's other threads are its workers.
//! * **Links** ([`link`]) are handles onto the receiving node's loop, which
//!   imposes latency, jitter, drop, and duplication from each link's own
//!   seeded RNG; [`reliable`] adds seq/ack/retransmit so data delivery
//!   stays "only finitely delayed" (§5.6) under faults.
//! * **The coordinator bus** carries state-change events ([`bus`]) under a
//!   global total order, via either of the two protocols the paper cites:
//!   a centralized [`sequencer`] (Chang–Maxemchuk style \[9]) or a rotating
//!   [`tokenbus`] (Amoeba style \[23]).
//! * **State coherence**: every node holds a full replica of the
//!   ActorSpace state and applies bus events in sequence order; pattern
//!   resolution is purely local, and resolved recipients are forwarded
//!   point-to-point ([`cluster`]).
//!
//! Data messages between actors take the direct links and are *not*
//! ordered — matching the paper's explicit non-guarantee for broadcasts.

#![deny(unsafe_code)]

pub mod bus;
pub mod cluster;
pub mod directory;
pub mod event_loop;
pub mod failure;
pub mod link;
pub mod obs_stream;
pub mod reliable;
pub mod sequencer;
pub mod tokenbus;

pub use bus::{BusEvent, BusOp, EventLog, OrderedBroadcast, SeqEvent};
pub use cluster::{Cluster, ClusterConfig, NodeHandle, NodeStats, OrderingProtocol};
pub use directory::{id_base, id_range, node_of_actor, NodeId};
pub use failure::{FailureConfig, FailureDetector};
pub use link::{Link, LinkConfig};
pub use obs_stream::{ObsFrame, ObsStream};
