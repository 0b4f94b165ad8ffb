//! The coordinator hook: routing state-changing primitives through an
//! external coordinator.
//!
//! On a single node, visibility operations apply directly to the local
//! [`ShardedRegistry`](actorspace_core::ShardedRegistry). In a cluster
//! (§7.3), "the current design needs a global ordering on individual
//! broadcasts between coordinators to order visibility changes globally,
//! so that all nodes have the same view of visibility" — so every
//! state-changing primitive must go through the coordinator bus instead of
//! mutating local state immediately. Installing a [`CoordinatorHook`]
//! reroutes the primitives invoked by behaviors ([`Ctx`](crate::Ctx)) and
//! by the system API.
//!
//! Hook implementations typically return before the operation has applied
//! anywhere; the suspended-message semantics of §5.6 absorb the resulting
//! window (a send racing a not-yet-applied `make_visible` simply suspends
//! until the visibility event arrives).

use actorspace_atoms::Path;
use actorspace_capability::Capability;
use actorspace_core::{ActorId, MemberId, Result, SpaceId};

use crate::actor::BoxBehavior;

/// Reroutes state-changing ActorSpace primitives (visibility, attribute,
/// creation, destruction). Pattern sends and broadcasts are *not* routed:
/// they resolve against the local replica per the paper's design.
pub trait CoordinatorHook: Send + Sync {
    /// `make_visible` (§5.4).
    fn make_visible(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<Capability>,
    ) -> Result<()>;

    /// `make_invisible` (§5.4).
    fn make_invisible(
        &self,
        member: MemberId,
        space: SpaceId,
        cap: Option<Capability>,
    ) -> Result<()>;

    /// `change_attributes` (§5.4).
    fn change_attributes(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<Capability>,
    ) -> Result<()>;

    /// `create_actorSpace` (§5.2). The id must be allocated from the local
    /// node's range.
    fn create_space(&self, cap: Option<Capability>) -> SpaceId;

    /// Space destruction (§7.1).
    fn destroy_space(&self, space: SpaceId, cap: Option<Capability>) -> Result<()>;

    /// Actor creation (§4): the hook allocates the id, installs the
    /// behavior cell locally, and replicates the record.
    fn create_actor(
        &self,
        host: SpaceId,
        cap: Option<Capability>,
        behavior: BoxBehavior,
    ) -> Result<ActorId>;
}
