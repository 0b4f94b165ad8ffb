//! The single-node ActorSpace runtime — the paper's §7.2 design.
//!
//! Each node associates "all the executing actors on a node with a single
//! local coordinator". Here:
//!
//! * the **Coordinator** state is an [`actorspace_core::ShardedRegistry`],
//!   carrying out every ActorSpace primitive; it locks per actorSpace, so
//!   it sits behind no node-wide mutex;
//! * the **ActorInterface** is [`Ctx`], the handle behaviors use to invoke
//!   primitives (create / send / become / make_visible / …);
//! * the **three message ports** of the prototype (Behavior, Invocation,
//!   RPC) are per-actor FIFO queues in [`mailbox`], with Behavior-port
//!   traffic (next-behavior installation) processed first;
//! * **transport objects** are the [`transport::Transport`] trait — local
//!   delivery is a mailbox push, and an installed uplink carries messages
//!   for actors this node does not host (used by the cluster layer).
//!
//! Scheduling is a fixed pool of workers over a shared injector queue;
//! every actor processes one message at a time, so behavior state needs no
//! internal synchronization.
//!
//! ```
//! use actorspace_runtime::{ActorSystem, Config, Value, from_fn};
//! use actorspace_atoms::path;
//! use actorspace_pattern::pattern;
//! use std::time::Duration;
//!
//! let system = ActorSystem::new(Config::default());
//! let space = system.create_space(None).unwrap();
//! let (inbox, rx) = system.inbox();
//!
//! let doubler = system.spawn(from_fn(move |ctx, msg| {
//!     let n = msg.body.as_int().unwrap_or(0);
//!     ctx.send_addr(inbox, Value::int(n * 2));
//! }));
//! system.make_visible(doubler.id(), &path("math/double"), space, None).unwrap();
//!
//! system.send_pattern(&pattern("math/*"), space, Value::int(21), None).unwrap();
//! let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!(reply.body, Value::int(42));
//! system.shutdown();
//! ```

#![deny(unsafe_code)]

pub mod actor;
pub mod codec;
pub mod ctx;
pub mod hook;
pub mod mailbox;
pub mod message;
pub mod scheduler;
pub mod system;
pub mod transport;
pub mod value;

pub use actor::{from_fn, Behavior, BoxBehavior};
pub use ctx::Ctx;
pub use hook::CoordinatorHook;
pub use message::{Envelope, Message, Port};
pub use system::{ActorHandle, ActorSystem, Config, Stats};
pub use transport::Transport;
pub use value::Value;
