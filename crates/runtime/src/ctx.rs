//! The context handle a behavior uses to act on the world — the paper's
//! ActorInterface (§7.2): "actors communicate explicitly with the local
//! coordinator which carries out the ActorSpace primitives."

use std::sync::Arc;

use actorspace_atoms::Path;
use actorspace_capability::Capability;
use actorspace_core::{ActorId, Disposition, MemberId, Pattern, Result, SpaceId};

use crate::actor::{Behavior, BoxBehavior};
use crate::message::{Envelope, Message, Port};
use crate::system::Shared;
use crate::value::Value;

/// Capabilities of a running behavior: the Actor primitives (`create`,
/// `send to`, `become`) plus the ActorSpace extensions (pattern send and
/// broadcast, visibility control, space creation).
pub struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    self_id: ActorId,
    sender: Option<ActorId>,
    next_behavior: Option<BoxBehavior>,
    stop: bool,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(shared: &'a Arc<Shared>, self_id: ActorId, sender: Option<ActorId>) -> Self {
        Ctx {
            shared,
            self_id,
            sender,
            next_behavior: None,
            stop: false,
        }
    }

    pub(crate) fn into_effects(self) -> (Option<BoxBehavior>, bool) {
        (self.next_behavior, self.stop)
    }

    /// This actor's own mail address.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// The sender of the message being processed, if revealed.
    pub fn sender(&self) -> Option<ActorId> {
        self.sender
    }

    /// The space this actor was created in — the default scope for pattern
    /// resolution (§7.1: "patterns are resolved inside the sender's host
    /// actorSpace, unless the pattern explicitly refers to another
    /// actorSpace").
    pub fn host_space(&self) -> SpaceId {
        self.shared
            .registry
            .actor(self.self_id)
            .map(|r| r.host)
            .unwrap_or(actorspace_core::ROOT_SPACE)
    }

    // ------------------------------------------------------------------
    // Actor primitives (§4)
    // ------------------------------------------------------------------

    /// `create`: a new actor hosted in this actor's host space. The new
    /// address is returned immediately (the RPC-port round trip of §7.2 is
    /// collapsed because the coordinator is in-process).
    pub fn create(&mut self, behavior: impl Behavior) -> ActorId {
        let host = self.host_space();
        self.create_in(host, behavior, None)
            .expect("own host space exists")
    }

    /// `create` into an explicit host space with an optional capability.
    pub fn create_in(
        &mut self,
        space: SpaceId,
        behavior: impl Behavior,
        cap: Option<&Capability>,
    ) -> Result<ActorId> {
        self.shared.op_create_actor(space, cap, Box::new(behavior))
    }

    /// `send to`: point-to-point by mail address (the locality-preserving
    /// Actor primitive). Returns false if the address is dead.
    pub fn send_addr(&mut self, to: ActorId, body: Value) -> bool {
        self.shared
            .deliver(Envelope::user(to, Message::from_sender(self.self_id, body)))
    }

    /// Replies to the current message's sender, if any.
    pub fn reply(&mut self, body: Value) -> bool {
        match self.sender {
            Some(to) => self.send_addr(to, body),
            None => false,
        }
    }

    /// Sends an RPC-port reply (system-call return values, §7.2).
    pub fn reply_rpc(&mut self, to: ActorId, body: Value) -> bool {
        self.shared.deliver(Envelope::user(
            to,
            Message {
                from: Some(self.self_id),
                body,
                port: Port::Rpc,
            },
        ))
    }

    /// `become`: this actor's next behavior, applied after the current
    /// message is fully processed (§4).
    pub fn become_(&mut self, behavior: impl Behavior) {
        self.next_behavior = Some(Box::new(behavior));
    }

    /// Stops this actor after the current message: it is removed from the
    /// actor table and the registry, and later messages become dead
    /// letters.
    pub fn stop(&mut self) {
        self.stop = true;
    }

    // ------------------------------------------------------------------
    // ActorSpace primitives (§5)
    // ------------------------------------------------------------------

    /// `send(pattern@space, message)` (§5.3).
    pub fn send_pattern(
        &mut self,
        pattern: &Pattern,
        space: SpaceId,
        body: Value,
    ) -> Result<Disposition> {
        let msg = Message::from_sender(self.self_id, body);
        self.shared
            .with_registry(|reg, sink| reg.send(pattern, space, msg, sink))
    }

    /// `send(pattern, message)` resolved in this actor's host space (§7.1).
    pub fn send_here(&mut self, pattern: &Pattern, body: Value) -> Result<Disposition> {
        let space = self.host_space();
        self.send_pattern(pattern, space, body)
    }

    /// `broadcast(pattern@space, message)` (§5.3).
    pub fn broadcast(
        &mut self,
        pattern: &Pattern,
        space: SpaceId,
        body: Value,
    ) -> Result<Disposition> {
        let msg = Message::from_sender(self.self_id, body);
        self.shared
            .with_registry(|reg, sink| reg.broadcast(pattern, space, msg, sink))
    }

    /// `broadcast` resolved in this actor's host space.
    pub fn broadcast_here(&mut self, pattern: &Pattern, body: Value) -> Result<Disposition> {
        let space = self.host_space();
        self.broadcast(pattern, space, body)
    }

    /// `create_actorSpace(capability)` (§5.2).
    pub fn create_space(&mut self, cap: Option<&Capability>) -> SpaceId {
        self.shared.op_create_space(cap)
    }

    /// `new_capability()` (§5.4).
    pub fn new_capability(&mut self) -> Capability {
        self.shared.minter.new_capability()
    }

    /// Makes this actor itself visible — "actors are autonomous entities,
    /// so they are able to make themselves visible or invisible given an
    /// actorSpace" (§5.4). Self-visibility still requires this actor's own
    /// capability if one was bound at creation.
    pub fn make_self_visible(
        &mut self,
        attr: &Path,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.make_visible(
            MemberId::Actor(self.self_id),
            vec![attr.clone()],
            space,
            cap,
        )
    }

    /// Makes this actor invisible in `space`.
    pub fn make_self_invisible(&mut self, space: SpaceId, cap: Option<&Capability>) -> Result<()> {
        self.shared
            .op_make_invisible(MemberId::Actor(self.self_id), space, cap)
    }

    /// `make_visible` for any member this actor holds a capability for.
    pub fn make_visible(
        &mut self,
        member: impl Into<MemberId>,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let member = member.into();
        self.shared.op_make_visible(member, attrs, space, cap)
    }

    /// `make_invisible` for any member.
    pub fn make_invisible(
        &mut self,
        member: impl Into<MemberId>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared.op_make_invisible(member.into(), space, cap)
    }

    /// `change_attributes` (§5.4).
    pub fn change_attributes(
        &mut self,
        member: impl Into<MemberId>,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared
            .op_change_attributes(member.into(), attrs, space, cap)
    }

    /// Resolves a pattern without sending.
    pub fn resolve(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<ActorId>> {
        self.shared.registry.resolve(pattern, space)
    }

    /// Self-reports this actor's load for least-loaded arbitration in
    /// `space` (§8 scheduling experimentation).
    pub fn report_load(&mut self, space: SpaceId, load: u64) -> Result<()> {
        let me = self.self_id;
        self.shared.registry.report_load(space, me, load)
    }
}
