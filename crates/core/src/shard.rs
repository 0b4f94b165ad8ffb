//! The coordinator: every actor, every actorSpace, and the visibility
//! relation between them, with one lock per actorSpace instead of one lock
//! per node.
//!
//! The paper's coordinator "maintains coherence of the state of
//! ActorSpace. This state includes 'live' actors and actorSpaces as well
//! as visibility of actors" (§7.3). One big critical section would
//! serialize every `send(pattern@space)`, broadcast, and visibility change
//! on a node. But pattern matching is already *scoped*: a resolution at
//! `space` can only observe `space` itself plus the sub-spaces transitively
//! visible in it (§7.1), so spaces whose visibility subtrees are disjoint
//! never contend. The [`ShardedRegistry`] exploits exactly that: each
//! space — its visible members, suspended sends, and persistent broadcasts
//! (§5.6) — lives behind its own mutex, and an operation locks only the
//! shards its scope can reach.
//!
//! ## Lock-ordering invariant
//!
//! Two lock levels, acquired strictly top-down:
//!
//! 1. **meta** (`RwLock`): the cross-space tables — actor records, the
//!    reverse-visibility `containers` map, the forward visibility-edge
//!    map, GC roots, and the shard directory itself. Read-locked by
//!    delivery operations, write-locked by topology changes
//!    (create/destroy/make_visible/make_invisible/purge/GC).
//! 2. **shards** (`Mutex<Space>` each): locked *while holding meta*, always
//!    in ascending [`SpaceId`] order, as one batch computed up front from
//!    the meta tables (the visibility closure of the operation's scope).
//!
//! Every send, broadcast, resend, `resolve` and `resolve_spaces` takes its
//! batch the same way: the closure of its scope, or, when the scope has no
//! visible sub-spaces, that one shard alone, with no map. All four
//! deliveries then run one path, which resolves, hands the message to one
//! matching actor or to all of them, and otherwise applies the §5.6
//! unmatched policy; woken suspended messages reach their recipients
//! through the same hand-off.
//!
//! No code path acquires meta after a shard lock, and no path acquires a
//! lower-id shard after a higher-id one, so the wait-for graph is acyclic
//! and the coordinator is deadlock-free by construction. Operations that
//! genuinely span spaces — overlapping membership, DAG edges (§5.7),
//! broadcasts traversing nested spaces, cross-space wakes — simply have
//! bigger lock sets; disjoint sends proceed fully in parallel under the
//! shared meta read lock.
//!
//! Sinks are invoked with shard locks held and must not re-enter the
//! coordinator.
//!
//! All of the above is *checked*, not just documented: every lock here is
//! an [`actorspace_lockcheck`] wrapper tagged `Meta` or `Shard(id)`, each
//! public operation opens a [`enter_coordinator`] section, and each sink or
//! manager callback runs inside an [`enter_callback`] section. Built with
//! `--features lockcheck`, the checker enforces meta-before-shard,
//! ascending shard order, no callback re-entry, and (per §5.7) re-verifies
//! the visibility DAG after every topology mutation. Without the feature
//! all of it compiles away.
//!
//! The coordinator is generic over the message payload `M` and performs
//! deliveries through a caller-supplied [`Sink`], so the same type backs
//! the single-node runtime, the simulated cluster, and plain in-test use.
//! `tests/differential_oracle.rs` replays random operation sequences
//! against it and against a deliberately naive executable specification,
//! asserting identical outcomes, delivery multisets, suspension sets, and
//! [`SpaceInfo`] snapshots.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use actorspace_atoms::Path;
use actorspace_capability::{Capability, Guard, GuardError, Rights};
use actorspace_lockcheck::{
    enter_callback, enter_coordinator, LockClass, Mutex, MutexGuard, RwLock,
};
use actorspace_obs::{names, Counter, Histogram, Obs, ObsConfig, Stage, TraceId};
use actorspace_pattern::Pattern;

use crate::delivery::{Disposition, Route, Sink};
use crate::error::{Error, Result};
use crate::gc::GcReport;
use crate::ids::{ActorId, IdGen, MemberId, SpaceId, ROOT_SPACE};
use crate::manager::Manager;
use crate::matching;
use crate::policy::{ManagerPolicy, UnmatchedPolicy};
use crate::space::{DeliveryKind, Pending, PersistentBroadcast, Space, SpaceInfo};
use crate::visibility;

/// Per-actor bookkeeping.
#[derive(Debug, Clone)]
pub struct ActorRecord {
    /// The capability guard protecting this actor's visibility/attributes.
    pub guard: Guard,
    /// The space the actor was created in (§7.1: its "host" space). Used as
    /// the default pattern-resolution scope; does *not* imply visibility.
    pub host: SpaceId,
}

/// Pre-resolved metric handles for the delivery hot paths, so sends touch
/// only relaxed atomics, never the registry mutex inside `Obs`.
pub(crate) struct CoreMetrics {
    pub sends: Arc<Counter>,
    pub broadcasts: Arc<Counter>,
    pub matched: Arc<Counter>,
    pub suspended: Arc<Counter>,
    pub woken: Arc<Counter>,
    pub discarded: Arc<Counter>,
    pub match_ns: Arc<Histogram>,
    pub dwell_ns: Arc<Histogram>,
}

impl CoreMetrics {
    pub(crate) fn resolve(obs: &Obs, node: u16) -> CoreMetrics {
        CoreMetrics {
            sends: obs.metrics.counter(names::CORE_SENDS, node),
            broadcasts: obs.metrics.counter(names::CORE_BROADCASTS, node),
            matched: obs.metrics.counter(names::CORE_MATCHED, node),
            suspended: obs.metrics.counter(names::CORE_SUSPENDED, node),
            woken: obs.metrics.counter(names::CORE_WOKEN, node),
            discarded: obs.metrics.counter(names::CORE_DISCARDED, node),
            match_ns: obs.metrics.histogram(names::CORE_MATCH_NS, node),
            dwell_ns: obs.metrics.histogram(names::CORE_DWELL_NS, node),
        }
    }
}

/// Pre-resolved per-space metric handles (`core.space.*`, `core.index.*`),
/// labeled with the shard's space id in [`Obs`] snapshots.
#[derive(Clone)]
struct ShardMetrics {
    sends: Arc<Counter>,
    broadcasts: Arc<Counter>,
    index_hits: Arc<Counter>,
    index_misses: Arc<Counter>,
}

impl ShardMetrics {
    fn resolve(obs: &Obs, node: u16, space: SpaceId) -> ShardMetrics {
        ShardMetrics {
            sends: obs
                .metrics
                .counter_for_space(names::CORE_SPACE_SENDS, node, space.0),
            broadcasts: obs
                .metrics
                .counter_for_space(names::CORE_SPACE_BROADCASTS, node, space.0),
            index_hits: obs
                .metrics
                .counter_for_space(names::CORE_INDEX_HITS, node, space.0),
            index_misses: obs
                .metrics
                .counter_for_space(names::CORE_INDEX_MISSES, node, space.0),
        }
    }
}

/// One shard: the space state behind its own lock, plus the data needed
/// *without* the lock — the immutable creation guard (so capability checks
/// never contend with deliveries) and the shard's metric handles.
struct ShardHandle<M> {
    space: Arc<Mutex<Space<M>>>,
    /// Duplicate of the space's guard. Guards are immutable after creation,
    /// so the copy can never diverge.
    guard: Guard,
    m: ShardMetrics,
}

/// The cross-space tables, all behind one `RwLock` (level 1 of the lock
/// order).
struct Meta<M> {
    /// Shard directory, ordered by id — iteration order *is* lock order.
    shards: BTreeMap<SpaceId, ShardHandle<M>>,
    actors: HashMap<ActorId, ActorRecord>,
    /// Reverse visibility: member → spaces it is visible in. Kept in exact
    /// correspondence with each shard's membership table.
    containers: HashMap<MemberId, HashSet<SpaceId>>,
    /// Forward visibility: space → sub-spaces visible in it. The mirror of
    /// the `MemberId::Space` entries in the shards' membership tables; kept
    /// here so lock sets and §5.7 cycle checks need no shard locks.
    edges: HashMap<SpaceId, HashSet<SpaceId>>,
    /// Actors with live external handles — garbage-collection roots.
    roots: HashSet<ActorId>,
}

/// The shard mutexes an operation holds. A scope with no visible
/// sub-spaces has a one-shard lock set and takes `One`, with no map; every
/// other set is `Many`, keyed (and therefore iterated and locked) in
/// ascending `SpaceId` order. The resolution walks in [`matching`] read
/// spaces through it; a missing space reads as absent, like a remote stub.
pub(crate) enum Locked<'a, M> {
    One(SpaceId, MutexGuard<'a, Space<M>>),
    Many(BTreeMap<SpaceId, MutexGuard<'a, Space<M>>>),
}

impl<'a, M> Locked<'a, M> {
    pub(crate) fn get(&self, id: SpaceId) -> Option<&Space<M>> {
        match self {
            Locked::One(one, g) => (*one == id).then_some(&**g),
            Locked::Many(map) => map.get(&id).map(|g| &**g),
        }
    }

    fn get_mut(&mut self, id: SpaceId) -> Option<&mut Space<M>> {
        match self {
            Locked::One(one, g) => (*one == id).then_some(&mut **g),
            Locked::Many(map) => map.get_mut(&id).map(|g| &mut **g),
        }
    }
}

/// The `Arc` handles the guards borrow from; owning them locally lets the
/// meta tables stay mutable while shard locks are held.
type ShardArcs<M> = Vec<(SpaceId, Arc<Mutex<Space<M>>>)>;

/// Clones the shard `Arc`s for `ids` (missing spaces are skipped — the
/// resolution walks treat them like remote stubs), sorted ascending so a
/// subsequent [`lock_all`] respects the global lock order.
fn arcs_for<M>(meta: &Meta<M>, ids: impl IntoIterator<Item = SpaceId>) -> ShardArcs<M> {
    let set: BTreeSet<SpaceId> = ids.into_iter().collect();
    set.into_iter()
        .filter_map(|id| meta.shards.get(&id).map(|sh| (id, sh.space.clone())))
        .collect()
}

/// Locks every shard in `arcs`, in the ascending id order `arcs` is built
/// in — the lock set of an operation that changes the meta tables.
fn lock_all<M>(arcs: &ShardArcs<M>) -> Locked<'_, M> {
    Locked::Many(arcs.iter().map(|(id, m)| (*id, m.lock())).collect())
}

/// The lock set of a read-path operation scoped to `scope` (a delivery or
/// a resolution): the shards its resolution can reach. They are borrowed
/// from `meta`, which the caller holds read-locked. A scope with no visible
/// sub-spaces locks its one shard in place (a singleton set trivially
/// satisfies the ascending-order protocol); a missing scope locks nothing.
fn lock_scope<M>(meta: &Meta<M>, scope: SpaceId) -> Locked<'_, M> {
    if meta.edges.get(&scope).is_some_and(|subs| !subs.is_empty()) {
        let ids: BTreeSet<SpaceId> = visibility::reachable(&meta.edges, scope)
            .into_iter()
            .collect();
        return Locked::Many(
            ids.into_iter()
                .filter_map(|id| meta.shards.get(&id).map(|sh| (id, sh.space.lock())))
                .collect(),
        );
    }
    match meta.shards.get(&scope) {
        Some(sh) => Locked::One(scope, sh.space.lock()),
        None => Locked::Many(BTreeMap::new()),
    }
}

fn member_guard<M>(meta: &Meta<M>, member: MemberId) -> Result<&Guard> {
    match member {
        MemberId::Actor(a) => Ok(&meta.actors.get(&a).ok_or(Error::NoSuchActor(a))?.guard),
        MemberId::Space(s) => Ok(&meta.shards.get(&s).ok_or(Error::NoSuchSpace(s))?.guard),
    }
}

/// Removes a space from the meta tables and from every locked parent. The
/// space's members survive; actors it hosted are re-hosted to the root.
/// The caller must hold the space's own shard and all its parents in
/// `guards`.
fn remove_space_locked<M>(meta: &mut Meta<M>, guards: &mut Locked<'_, M>, id: SpaceId) {
    if meta.shards.remove(&id).is_some() {
        // Drop reverse edges of its members.
        if let Some(sp) = guards.get(id) {
            for member in sp.members().keys() {
                if let Some(set) = meta.containers.get_mut(member) {
                    set.remove(&id);
                    if set.is_empty() {
                        meta.containers.remove(member);
                    }
                }
            }
        }
        meta.edges.remove(&id);
    }
    // Remove the space from any space it was visible in.
    let as_member = MemberId::Space(id);
    if let Some(parents) = meta.containers.remove(&as_member) {
        for p in parents {
            if let Some(ps) = guards.get_mut(p) {
                ps.remove_member(as_member);
            }
            if let Some(e) = meta.edges.get_mut(&p) {
                e.remove(&id);
                if e.is_empty() {
                    meta.edges.remove(&p);
                }
            }
        }
    }
    // Actors hosted in the destroyed space are re-hosted to the root so
    // later sends from them still have a resolution scope.
    for rec in meta.actors.values_mut() {
        if rec.host == id {
            rec.host = ROOT_SPACE;
        }
    }
}

/// Removes an actor entirely (death): its record, memberships and root
/// mark. The caller must hold every space the actor is visible in.
fn remove_actor_locked<M>(meta: &mut Meta<M>, guards: &mut Locked<'_, M>, id: ActorId) {
    meta.actors.remove(&id);
    let as_member = MemberId::Actor(id);
    if let Some(parents) = meta.containers.remove(&as_member) {
        for p in parents {
            if let Some(ps) = guards.get_mut(p) {
                ps.remove_member(as_member);
            }
        }
    }
    meta.roots.remove(&id);
}

/// The ActorSpace universe for one node, sharded by space. Every operation
/// takes `&self`, and operations on disjoint spaces never contend.
pub struct ShardedRegistry<M> {
    ids: IdGen,
    meta: RwLock<Meta<M>>,
    /// Policy template applied to newly created spaces.
    default_policy: ManagerPolicy,
    obs: Arc<Obs>,
    node: u16,
    m: CoreMetrics,
}

impl<M: Clone> ShardedRegistry<M> {
    /// Creates a sharded coordinator whose root space (§7.1) uses
    /// `default_policy`, reporting to a private default observer (see
    /// [`ShardedRegistry::set_obs`]).
    pub fn new(default_policy: ManagerPolicy) -> ShardedRegistry<M> {
        let obs = Obs::shared(ObsConfig::default());
        let m = CoreMetrics::resolve(&obs, 0);
        let reg = ShardedRegistry {
            ids: IdGen::default(),
            meta: RwLock::new(
                LockClass::Meta,
                Meta {
                    shards: BTreeMap::new(),
                    actors: HashMap::new(),
                    containers: HashMap::new(),
                    edges: HashMap::new(),
                    roots: HashSet::new(),
                },
            ),
            default_policy,
            obs,
            node: 0,
            m,
        };
        let root = reg.mk_shard(ROOT_SPACE, Guard::Open);
        reg.meta.write().shards.insert(ROOT_SPACE, root);
        reg
    }

    /// Creates a coordinator whose id generator starts at `base` — used by
    /// the cluster layer to give each node a disjoint address range.
    pub fn with_id_base(default_policy: ManagerPolicy, base: u64) -> ShardedRegistry<M> {
        let mut r = ShardedRegistry::new(default_policy);
        r.ids = IdGen::new(base.max(1));
        r
    }

    /// Redirects metrics and trace events to `obs`, stamped with `node`,
    /// re-resolving every shard's per-space handles.
    pub fn set_obs(&mut self, obs: Arc<Obs>, node: u16) {
        self.m = CoreMetrics::resolve(&obs, node);
        {
            let mut meta = self.meta.write();
            for (&id, sh) in meta.shards.iter_mut() {
                sh.m = ShardMetrics::resolve(&obs, node, id);
            }
        }
        self.obs = obs;
        self.node = node;
    }

    /// The observer receiving this coordinator's telemetry.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The node label stamped on this coordinator's telemetry.
    pub fn node_label(&self) -> u16 {
        self.node
    }

    fn mk_shard(&self, id: SpaceId, guard: Guard) -> ShardHandle<M> {
        ShardHandle {
            space: Arc::new(Mutex::new(
                LockClass::Shard(id.0),
                Space::new(id, guard, self.default_policy.clone()),
            )),
            guard,
            m: ShardMetrics::resolve(&self.obs, self.node, id),
        }
    }

    /// §5.7 validator: under `--features lockcheck`, re-verifies the
    /// visibility relation is still acyclic after a topology mutation.
    /// Compiles to nothing otherwise (`ENABLED` is a constant false).
    fn validate_dag_after_mutation(meta: &Meta<M>, op: &str) {
        if !actorspace_lockcheck::ENABLED {
            return;
        }
        let nodes: HashSet<SpaceId> = meta.shards.keys().copied().collect();
        assert!(
            visibility::is_dag_edges(&nodes, &meta.edges),
            "lockcheck: §5.7 invariant violated: visibility relation has a cycle after `{op}`"
        );
    }

    // ------------------------------------------------------------------
    // Creation and destruction
    // ------------------------------------------------------------------

    /// `create_actorSpace(capability)` (§5.2): a fresh space, in a fresh
    /// shard.
    pub fn create_space(&self, cap: Option<&Capability>) -> SpaceId {
        let _op = enter_coordinator("ShardedRegistry::create_space");
        let id = self.ids.next_space();
        let sh = self.mk_shard(id, Guard::from_creation(cap));
        self.meta.write().shards.insert(id, sh);
        id
    }

    /// Registers a new actor created in `host` (§7.1).
    pub fn create_actor(&self, host: SpaceId, cap: Option<&Capability>) -> Result<ActorId> {
        let _op = enter_coordinator("ShardedRegistry::create_actor");
        let mut meta = self.meta.write();
        if !meta.shards.contains_key(&host) {
            return Err(Error::NoSuchSpace(host));
        }
        let id = self.ids.next_actor();
        meta.actors.insert(
            id,
            ActorRecord {
                guard: Guard::from_creation(cap),
                host,
            },
        );
        Ok(id)
    }

    /// Allocates a fresh actor id without creating a record (§7.3 replica
    /// protocol).
    pub fn allocate_actor_id(&self) -> ActorId {
        self.ids.next_actor()
    }

    /// Allocates a fresh space id without creating a record.
    pub fn allocate_space_id(&self) -> SpaceId {
        self.ids.next_space()
    }

    /// Inserts an actor record with a caller-chosen id (replica apply).
    /// Returns false if the id was already present.
    pub fn insert_actor_record(&self, id: ActorId, host: SpaceId, guard: Guard) -> bool {
        let _op = enter_coordinator("ShardedRegistry::insert_actor_record");
        let mut meta = self.meta.write();
        if meta.actors.contains_key(&id) {
            return false;
        }
        meta.actors.insert(id, ActorRecord { guard, host });
        true
    }

    /// Inserts a space record with a caller-chosen id (replica apply).
    /// Returns false if present.
    pub fn insert_space_record(&self, id: SpaceId, guard: Guard) -> bool {
        let _op = enter_coordinator("ShardedRegistry::insert_space_record");
        let mut meta = self.meta.write();
        if meta.shards.contains_key(&id) {
            return false;
        }
        let sh = self.mk_shard(id, guard);
        meta.shards.insert(id, sh);
        true
    }

    /// Removes an actor (death / remote destroy event).
    pub fn remove_actor(&self, id: ActorId) {
        let _op = enter_coordinator("ShardedRegistry::remove_actor");
        let mut meta = self.meta.write();
        let parents: BTreeSet<SpaceId> = meta
            .containers
            .get(&MemberId::Actor(id))
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let arcs = arcs_for(&meta, parents);
        let mut guards = lock_all(&arcs);
        remove_actor_locked(&mut meta, &mut guards, id);
    }

    /// Purges every actor whose raw id lies in `[lo, hi)` — the failover
    /// sweep for a crashed node. Returns how many actors were purged.
    pub fn purge_actor_range(&self, lo: u64, hi: u64) -> usize {
        let _op = enter_coordinator("ShardedRegistry::purge_actor_range");
        let mut meta = self.meta.write();
        let doomed: Vec<ActorId> = meta
            .actors
            .keys()
            .filter(|a| (lo..hi).contains(&a.0))
            .copied()
            .collect();
        let mut parents: BTreeSet<SpaceId> = BTreeSet::new();
        for a in &doomed {
            parents.extend(
                meta.containers
                    .get(&MemberId::Actor(*a))
                    .into_iter()
                    .flatten()
                    .copied(),
            );
        }
        let arcs = arcs_for(&meta, parents);
        let mut guards = lock_all(&arcs);
        for &a in &doomed {
            remove_actor_locked(&mut meta, &mut guards, a);
        }
        doomed.len()
    }

    /// Raises the id allocator so future ids are minted past `raw`.
    pub fn ensure_id_floor(&self, raw: u64) {
        self.ids.ensure_floor(raw);
    }

    /// Destroys a space (§7.1). Requires `Rights::MANAGE` when guarded.
    /// Locks the doomed shard plus every parent it is visible in.
    pub fn destroy_space(&self, id: SpaceId, cap: Option<&Capability>) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::destroy_space");
        if id == ROOT_SPACE {
            return Err(Error::RootImmortal);
        }
        let mut meta = self.meta.write();
        let sh = meta.shards.get(&id).ok_or(Error::NoSuchSpace(id))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        let mut set: BTreeSet<SpaceId> = BTreeSet::new();
        set.insert(id);
        if let Some(parents) = meta.containers.get(&MemberId::Space(id)) {
            set.extend(parents.iter().copied());
        }
        let arcs = arcs_for(&meta, set);
        let mut guards = lock_all(&arcs);
        remove_space_locked(&mut meta, &mut guards, id);
        Self::validate_dag_after_mutation(&meta, "destroy_space");
        Ok(())
    }

    // ------------------------------------------------------------------
    // Visibility (§5.4)
    // ------------------------------------------------------------------

    /// The lock set for an operation that changes what is matchable in
    /// `space`: every space that can observe the change (the containment
    /// ancestors of `space`, §7.1) together with everything those spaces'
    /// resolutions can descend into. Computed from the meta tables alone,
    /// in one walk from all ancestors at once, so a deep chain costs
    /// linear, not quadratic, time.
    fn wake_lock_set(meta: &Meta<M>, space: SpaceId) -> BTreeSet<SpaceId> {
        let mut set = BTreeSet::new();
        let mut stack: Vec<SpaceId> = visibility::ancestors(&meta.containers, space)
            .into_iter()
            .collect();
        while let Some(s) = stack.pop() {
            if set.insert(s) {
                stack.extend(meta.edges.get(&s).into_iter().flatten().copied());
            }
        }
        set
    }

    /// `make_visible(a, attributes @ space, capability)` (§5.4). Checks run
    /// in order: the member's capability, the space's existence, then the
    /// §5.7 cycle rule on the meta edge map, before any lock set is taken.
    /// Only then does it lock the full wake closure (plus, for a space
    /// member, the child's own subtree, which becomes reachable by the
    /// insertion), ask the manager, and mutate — so a failed check never
    /// needs rollback.
    pub fn make_visible(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
        sink: Sink<'_, M>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::make_visible");
        let mut meta = self.meta.write();
        member_guard(&meta, member)?.check(cap, Rights::VISIBILITY)?;
        if !meta.shards.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        // §5.7: reject cycles before inserting, from the meta edges alone.
        if let MemberId::Space(child) = member {
            if visibility::would_cycle_edges(&meta.edges, child, space) {
                return Err(Error::WouldCycle {
                    child,
                    parent: space,
                });
            }
        }
        let mut set = Self::wake_lock_set(&meta, space);
        if let MemberId::Space(child) = member {
            set.extend(visibility::reachable(&meta.edges, child));
        }
        let arcs = arcs_for(&meta, set);
        let mut guards = lock_all(&arcs);
        {
            let sp = guards.get_mut(space).expect("scope is in the lock set");
            let authorized = {
                let _cb = enter_callback("Manager::authorize_visibility");
                sp.manager_mut().authorize_visibility(member, &attrs)
            };
            if !authorized {
                return Err(Error::Denied(GuardError::Missing));
            }
            sp.add_member(member, attrs);
            let _cb = enter_callback("Manager::on_change");
            sp.manager_mut().on_change(member);
        }
        meta.containers.entry(member).or_default().insert(space);
        if let MemberId::Space(child) = member {
            meta.edges.entry(space).or_default().insert(child);
        }
        Self::validate_dag_after_mutation(&meta, "make_visible");
        self.wake_locked(&meta, &mut guards, space, sink);
        Ok(())
    }

    /// `make_invisible(actor, space, capability)`: removal from `space`
    /// suffices for all enclosing spaces (they reach members only through
    /// it), so only this one shard is locked.
    pub fn make_invisible(
        &self,
        member: MemberId,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::make_invisible");
        let mut meta = self.meta.write();
        member_guard(&meta, member)?.check(cap, Rights::VISIBILITY)?;
        if !meta.shards.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        let arcs = arcs_for(&meta, [space]);
        let mut guards = lock_all(&arcs);
        {
            let sp = guards.get_mut(space).expect("existence checked above");
            if !sp.remove_member(member) {
                return Err(Error::NotVisible { member, space });
            }
            let _cb = enter_callback("Manager::on_change");
            sp.manager_mut().on_change(member);
        }
        if let Some(setm) = meta.containers.get_mut(&member) {
            setm.remove(&space);
            if setm.is_empty() {
                meta.containers.remove(&member);
            }
        }
        if let MemberId::Space(child) = member {
            if let Some(e) = meta.edges.get_mut(&space) {
                e.remove(&child);
                if e.is_empty() {
                    meta.edges.remove(&space);
                }
            }
        }
        Self::validate_dag_after_mutation(&meta, "make_invisible");
        Ok(())
    }

    /// `change_attributes(member, attrs @ space, capability)` (§5.4). The
    /// topology is unchanged, so meta is only read-locked; the wake closure
    /// of `space` is still locked because new matches may wake suspended
    /// messages in any ancestor.
    pub fn change_attributes(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
        sink: Sink<'_, M>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::change_attributes");
        let meta = self.meta.read();
        member_guard(&meta, member)?.check(cap, Rights::ATTRIBUTES)?;
        if !meta.shards.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        let set = Self::wake_lock_set(&meta, space);
        let arcs = arcs_for(&meta, set);
        let mut guards = lock_all(&arcs);
        {
            let sp = guards.get_mut(space).expect("scope is in the lock set");
            let authorized = {
                let _cb = enter_callback("Manager::authorize_visibility");
                sp.manager_mut().authorize_visibility(member, &attrs)
            };
            if !authorized {
                return Err(Error::Denied(GuardError::Missing));
            }
            if !sp.set_attributes(member, attrs) {
                return Err(Error::NotVisible { member, space });
            }
            let _cb = enter_callback("Manager::on_change");
            sp.manager_mut().on_change(member);
        }
        self.wake_locked(&meta, &mut guards, space, sink);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Manager customization (§8)
    // ------------------------------------------------------------------

    /// Replaces a space's policy table. Requires `Rights::MANAGE`.
    pub fn set_space_policy(
        &self,
        space: SpaceId,
        policy: ManagerPolicy,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::set_space_policy");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        sh.space.lock().set_policy(policy);
        Ok(())
    }

    /// Installs a custom manager on a space. Requires `Rights::MANAGE`.
    pub fn set_space_manager(
        &self,
        space: SpaceId,
        manager: Box<dyn Manager>,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::set_space_manager");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        sh.space.lock().set_manager(manager);
        Ok(())
    }

    /// Installs (or clears) a custom matching rule on a space. Requires
    /// `Rights::MANAGE`.
    pub fn set_match_filter(
        &self,
        space: SpaceId,
        filter: Option<crate::space::MatchFilter>,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::set_match_filter");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        sh.space.lock().set_match_filter(filter);
        Ok(())
    }

    /// Reports an actor's load for `LeastLoaded` arbitration in `space`.
    pub fn report_load(&self, space: SpaceId, actor: ActorId, load: u64) -> Result<()> {
        let _op = enter_coordinator("ShardedRegistry::report_load");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.space.lock().selector_mut().set_load(actor, load);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Roots (external handles) — GC anchoring
    // ------------------------------------------------------------------

    /// Marks an actor as externally referenced (a live handle exists).
    pub fn add_root(&self, a: ActorId) {
        let _op = enter_coordinator("ShardedRegistry::add_root");
        self.meta.write().roots.insert(a);
    }

    /// Clears the external-reference mark.
    pub fn remove_root(&self, a: ActorId) {
        let _op = enter_coordinator("ShardedRegistry::remove_root");
        self.meta.write().roots.remove(&a);
    }

    // ------------------------------------------------------------------
    // Communication (§5.3, §5.6)
    // ------------------------------------------------------------------

    /// `send(pattern@space, message)` — deliver to one non-deterministically
    /// chosen matching actor (§5.3). Locks the visibility closure of
    /// `space` only.
    pub fn send(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        sink: Sink<'_, M>,
    ) -> Result<Disposition> {
        let _op = enter_coordinator("ShardedRegistry::send");
        self.submit(DeliveryKind::Send, pattern, space, msg, sink)
    }

    /// `broadcast(pattern@space, message)` — deliver to all matching actors
    /// (§5.3), persisting under [`UnmatchedPolicy::Persistent`] (§5.6).
    pub fn broadcast(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        sink: Sink<'_, M>,
    ) -> Result<Disposition> {
        let _op = enter_coordinator("ShardedRegistry::broadcast");
        self.submit(DeliveryKind::Broadcast, pattern, space, msg, sink)
    }

    /// Re-resolves a previously routed message against the current state —
    /// the failover path after its original recipient (or the node holding
    /// it) died. Semantics match a fresh `send`/`broadcast` under the
    /// space's unmatched policy, but the message's existing lifecycle trace
    /// is *continued*: no new trace is begun, no `submitted` stage is
    /// emitted, and node- and space-level submit counters are not
    /// re-incremented.
    pub fn resend(&self, route: &Route, msg: M, sink: Sink<'_, M>) -> Result<Disposition> {
        let _op = enter_coordinator("ShardedRegistry::resend");
        let meta = self.meta.read();
        self.deliver(
            &meta,
            route.kind,
            &route.pattern,
            route.space,
            msg,
            sink,
            route.trace,
        )
    }

    /// Cancels every persistent broadcast registered on `space`. Requires
    /// `Rights::MANAGE` when guarded.
    pub fn cancel_persistent(&self, space: SpaceId, cap: Option<&Capability>) -> Result<usize> {
        let _op = enter_coordinator("ShardedRegistry::cancel_persistent");
        let meta = self.meta.read();
        let sh = meta.shards.get(&space).ok_or(Error::NoSuchSpace(space))?;
        sh.guard.check(cap, Rights::MANAGE)?;
        let n = sh.space.lock().clear_persistent();
        Ok(n)
    }

    /// A fresh send or broadcast: begins its trace, counts the submit on
    /// the node and on the scope space, and delivers it.
    fn submit(
        &self,
        kind: DeliveryKind,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        sink: Sink<'_, M>,
    ) -> Result<Disposition> {
        let trace = self.obs.tracer.begin();
        let meta = self.meta.read();
        let shard = meta.shards.get(&space).map(|sh| &sh.m);
        let (on_node, on_space) = match kind {
            DeliveryKind::Send => (&self.m.sends, shard.map(|m| &m.sends)),
            DeliveryKind::Broadcast => (&self.m.broadcasts, shard.map(|m| &m.broadcasts)),
        };
        on_node.inc();
        if let Some(c) = on_space {
            c.inc();
        }
        let broadcast = kind == DeliveryKind::Broadcast;
        self.obs
            .tracer
            .record(trace, self.node, Stage::Submitted { broadcast });
        self.deliver(&meta, kind, pattern, space, msg, sink, trace)
    }

    /// Resolution with exact-prefix-index accounting: a literal pattern
    /// takes the index fast path (E12), and the scope shard's per-space
    /// hit/miss counter is bumped by outcome.
    fn resolve_counted(
        &self,
        meta: &Meta<M>,
        guards: &Locked<'_, M>,
        pattern: &Pattern,
        scope: SpaceId,
    ) -> Result<Vec<ActorId>> {
        let via_index = pattern.as_literal().is_some();
        let out = matching::resolve_actors(guards, pattern, scope)?;
        if via_index {
            if let Some(sh) = meta.shards.get(&scope) {
                if out.is_empty() {
                    sh.m.index_misses.inc();
                } else {
                    sh.m.index_hits.inc();
                }
            }
        }
        Ok(out)
    }

    /// Every pattern-directed delivery, fresh or resent (§5.3, §5.6): locks
    /// the scope's shards, resolves, hands the message to the matches, and
    /// otherwise suspends, discards or fails it as the unmatched policy
    /// says. A send asks that policy only when nothing matched; a broadcast
    /// always does, because a persistent broadcast registers even when it
    /// matched.
    #[allow(clippy::too_many_arguments)] // internal delivery plumbing carries its full context
    fn deliver(
        &self,
        meta: &Meta<M>,
        kind: DeliveryKind,
        pattern: &Pattern,
        space: SpaceId,
        msg: M,
        sink: Sink<'_, M>,
        trace: TraceId,
    ) -> Result<Disposition> {
        let mut guards = lock_scope(meta, space);
        let t0 = if trace.is_some() {
            self.obs.now_nanos()
        } else {
            0
        };
        let candidates = self.resolve_counted(meta, &guards, pattern, space)?;
        let sp = guards.get_mut(space).ok_or(Error::NoSuchSpace(space))?;
        let policy = match kind {
            DeliveryKind::Send if !candidates.is_empty() => None,
            DeliveryKind::Send => {
                let _cb = enter_callback("Manager::unmatched_send");
                Some(
                    sp.manager_mut()
                        .unmatched_send()
                        .unwrap_or(sp.policy().unmatched_send),
                )
            }
            DeliveryKind::Broadcast => {
                let _cb = enter_callback("Manager::unmatched_broadcast");
                Some(
                    sp.manager_mut()
                        .unmatched_broadcast()
                        .unwrap_or(sp.policy().unmatched_broadcast),
                )
            }
        };
        if !candidates.is_empty() {
            self.m.matched.add(match kind {
                DeliveryKind::Send => 1,
                DeliveryKind::Broadcast => candidates.len() as u64,
            });
            if trace.is_some() {
                self.m
                    .match_ns
                    .record(self.obs.now_nanos().saturating_sub(t0));
                self.obs.tracer.record(
                    trace,
                    self.node,
                    Stage::Matched {
                        candidates: candidates.len() as u32,
                    },
                );
            }
        }
        let persistent =
            kind == DeliveryKind::Broadcast && policy == Some(UnmatchedPolicy::Persistent);
        if persistent || !candidates.is_empty() {
            let route = Route {
                pattern: pattern.clone(),
                space,
                kind,
                trace,
            };
            if !persistent {
                let n = Self::dispatch(sp, &candidates, msg, &route, sink);
                return Ok(Disposition::Delivered(n));
            }
            let n = if candidates.is_empty() {
                0
            } else {
                Self::dispatch(sp, &candidates, msg.clone(), &route, sink)
            };
            sp.push_persistent(PersistentBroadcast {
                pattern: route.pattern,
                msg,
                delivered: candidates.into_iter().collect(),
            });
            return Ok(Disposition::Persistent(n));
        }
        match policy.expect("an unmatched delivery asked its policy") {
            UnmatchedPolicy::Suspend | UnmatchedPolicy::Persistent => {
                self.m.suspended.inc();
                self.obs.tracer.record(trace, self.node, Stage::Suspended);
                sp.push_pending(Pending {
                    pattern: pattern.clone(),
                    msg,
                    kind,
                    trace,
                    since_nanos: self.obs.now_nanos(),
                });
                Ok(Disposition::Suspended)
            }
            UnmatchedPolicy::Discard => {
                self.m.discarded.inc();
                self.obs
                    .tracer
                    .record(trace, self.node, Stage::DeadLettered);
                Ok(Disposition::Discarded)
            }
            UnmatchedPolicy::Error => {
                self.obs
                    .tracer
                    .record(trace, self.node, Stage::DeadLettered);
                Err(Error::NoMatch {
                    pattern: pattern.text().to_owned(),
                    space,
                })
            }
        }
    }

    /// Hands `msg` to the recipients of one delivery among `candidates`
    /// (non-empty, sorted): for a send, the one that the scope's manager
    /// chooses or, failing that, its selector picks; for a broadcast, every
    /// candidate, each but the last getting a clone. Returns how many were
    /// reached.
    fn dispatch(
        scope: &mut Space<M>,
        candidates: &[ActorId],
        msg: M,
        route: &Route,
        sink: Sink<'_, M>,
    ) -> usize {
        match route.kind {
            DeliveryKind::Send => {
                let pick = {
                    let _cb = enter_callback("Manager::choose");
                    match scope.manager_mut().choose(candidates) {
                        Some(choice) => choice,
                        None => scope.selector_mut().select(candidates),
                    }
                };
                let _cb = enter_callback("sink");
                sink(pick, msg, Some(route));
                1
            }
            DeliveryKind::Broadcast => {
                let (&last, rest) = candidates
                    .split_last()
                    .expect("dispatch is called with candidates");
                let _cb = enter_callback("sink");
                for &c in rest {
                    sink(c, msg.clone(), Some(route));
                }
                sink(last, msg, Some(route));
                candidates.len()
            }
        }
    }

    /// Retries suspended and persistent messages after a visibility or
    /// attribute change in `changed`. A change is observable from `changed`
    /// itself and from every space that can reach it through the visibility
    /// DAG, so all of those queues are swept, in ascending id order (the
    /// model leaves cross-space sweep order unspecified).
    fn wake_locked(
        &self,
        meta: &Meta<M>,
        guards: &mut Locked<'_, M>,
        changed: SpaceId,
        sink: Sink<'_, M>,
    ) {
        let mut affected: Vec<SpaceId> = visibility::ancestors(&meta.containers, changed)
            .into_iter()
            .collect();
        affected.sort_unstable();
        for s in affected {
            self.retry_space_locked(guards, s, &mut *sink);
        }
    }

    /// Re-resolves each waiting message in `space`. These are retries, not
    /// fresh sends, so they go straight to the matcher and leave the
    /// index hit/miss counters alone.
    fn retry_space_locked(&self, guards: &mut Locked<'_, M>, space: SpaceId, sink: Sink<'_, M>) {
        // --- Suspended messages (§5.6) ---
        let pending = match guards.get_mut(space) {
            Some(sp) if !sp.pending().is_empty() => sp.take_pending(),
            _ => Vec::new(),
        };
        let mut still_waiting = Vec::new();
        for p in pending {
            let candidates =
                matching::resolve_actors(guards, &p.pattern, space).unwrap_or_default();
            if candidates.is_empty() {
                still_waiting.push(p);
                continue;
            }
            self.m.woken.inc();
            self.m
                .dwell_ns
                .record(self.obs.now_nanos().saturating_sub(p.since_nanos));
            self.obs.tracer.record(p.trace, self.node, Stage::Woken);
            let route = Route {
                pattern: p.pattern,
                space,
                kind: p.kind,
                trace: p.trace,
            };
            if let Some(sp) = guards.get_mut(space) {
                Self::dispatch(sp, &candidates, p.msg, &route, &mut *sink);
            }
        }
        if !still_waiting.is_empty() {
            if let Some(sp) = guards.get_mut(space) {
                for p in still_waiting {
                    sp.push_pending(p);
                }
            }
        }

        // --- Persistent broadcasts: exactly-once to new matches (§5.6) ---
        let mut persistent = match guards.get_mut(space) {
            Some(sp) if !sp.persistent().is_empty() => std::mem::take(sp.persistent_mut()),
            _ => return,
        };
        for pb in &mut persistent {
            let mut fresh =
                matching::resolve_actors(guards, &pb.pattern, space).unwrap_or_default();
            fresh.retain(|&c| pb.delivered.insert(c));
            if fresh.is_empty() {
                continue;
            }
            // Late persistent deliveries are not tied back to the original
            // broadcast's trace: it may have terminated long ago, and an
            // open-ended stream of `delivered` events would make "exactly
            // one terminal stage" meaningless.
            let route = Route {
                pattern: pb.pattern.clone(),
                space,
                kind: DeliveryKind::Broadcast,
                trace: TraceId::NONE,
            };
            if let Some(sp) = guards.get_mut(space) {
                Self::dispatch(sp, &fresh, pb.msg.clone(), &route, &mut *sink);
            }
        }
        if let Some(sp) = guards.get_mut(space) {
            let mut merged = persistent;
            // Sinks do not re-enter the coordinator, but be defensive and
            // keep anything registered while the list was detached.
            merged.extend(std::mem::take(sp.persistent_mut()));
            *sp.persistent_mut() = merged;
        }
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves `pattern` in `space` to the set of matching visible actors,
    /// descending through visible sub-spaces per the structured-attribute
    /// rule (§7.1). The result is deduplicated and sorted (an actor visible
    /// via several attribute paths is returned once).
    pub fn resolve(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<ActorId>> {
        let _op = enter_coordinator("ShardedRegistry::resolve");
        let meta = self.meta.read();
        let guards = lock_scope(&meta, space);
        self.resolve_counted(&meta, &guards, pattern, space)
    }

    /// Resolves `pattern` to matching *spaces* (§5.3 pattern-based space
    /// specification).
    pub fn resolve_spaces(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<SpaceId>> {
        let _op = enter_coordinator("ShardedRegistry::resolve_spaces");
        let meta = self.meta.read();
        let guards = lock_scope(&meta, space);
        matching::resolve_spaces(&guards, pattern, space)
    }

    // ------------------------------------------------------------------
    // Garbage collection (§5.5)
    // ------------------------------------------------------------------

    /// Runs a stop-the-world mark/sweep collection (§5.5, see [`crate::gc`]):
    /// meta write-locked, every shard locked in ascending order.
    /// `acquaintances` reports, for a live actor, every mail address its
    /// current behavior holds; pass `|_| Vec::new()` when behaviors hold
    /// no addresses.
    pub fn collect_garbage(&self, acquaintances: &dyn Fn(ActorId) -> Vec<MemberId>) -> GcReport {
        let _op = enter_coordinator("ShardedRegistry::collect_garbage");
        let mut meta = self.meta.write();
        let all: Vec<SpaceId> = meta.shards.keys().copied().collect();
        let arcs = arcs_for(&meta, all);
        let mut guards = lock_all(&arcs);

        let mut live_actors: HashSet<ActorId> = HashSet::new();
        let mut live_spaces: HashSet<SpaceId> = HashSet::new();
        let mut work: Vec<MemberId> = Vec::new();
        work.push(MemberId::Space(ROOT_SPACE));
        for &a in &meta.roots {
            work.push(MemberId::Actor(a));
        }
        while let Some(m) = work.pop() {
            match m {
                MemberId::Actor(a) => {
                    if !meta.actors.contains_key(&a) || !live_actors.insert(a) {
                        continue;
                    }
                    let _cb = enter_callback("gc::acquaintances");
                    work.extend(acquaintances(a));
                }
                MemberId::Space(s) => {
                    if !live_spaces.insert(s) {
                        continue;
                    }
                    let Some(space) = guards.get(s) else {
                        continue;
                    };
                    work.extend(space.members().keys().copied());
                }
            }
        }

        let mut collected_actors: Vec<ActorId> = meta
            .actors
            .keys()
            .filter(|a| !live_actors.contains(a))
            .copied()
            .collect();
        let mut collected_spaces: Vec<SpaceId> = meta
            .shards
            .keys()
            .filter(|s| !live_spaces.contains(s))
            .copied()
            .collect();
        collected_actors.sort_unstable();
        collected_spaces.sort_unstable();

        for &s in &collected_spaces {
            remove_space_locked(&mut meta, &mut guards, s);
        }
        for &a in &collected_actors {
            remove_actor_locked(&mut meta, &mut guards, a);
        }
        Self::validate_dag_after_mutation(&meta, "collect_garbage");

        GcReport {
            collected_actors,
            collected_spaces,
            live_actors: meta.actors.len(),
            live_spaces: meta.shards.len(),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Does this space exist?
    pub fn space_exists(&self, id: SpaceId) -> bool {
        let _op = enter_coordinator("ShardedRegistry::space_exists");
        // Bind the guard: a tail-expression temporary would outlive `_op`.
        let meta = self.meta.read();
        meta.shards.contains_key(&id)
    }

    /// Does this actor exist?
    pub fn actor_exists(&self, id: ActorId) -> bool {
        let _op = enter_coordinator("ShardedRegistry::actor_exists");
        let meta = self.meta.read();
        meta.actors.contains_key(&id)
    }

    /// The actor's record (owned — the record lives behind the meta lock).
    pub fn actor(&self, id: ActorId) -> Result<ActorRecord> {
        let _op = enter_coordinator("ShardedRegistry::actor");
        let meta = self.meta.read();
        meta.actors.get(&id).cloned().ok_or(Error::NoSuchActor(id))
    }

    /// All spaces a member is directly visible in, sorted.
    pub fn containers_of(&self, member: MemberId) -> Vec<SpaceId> {
        let _op = enter_coordinator("ShardedRegistry::containers_of");
        let meta = self.meta.read();
        let mut v: Vec<SpaceId> = meta
            .containers
            .get(&member)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        v.sort_unstable();
        v
    }

    /// Number of live actors.
    pub fn actor_count(&self) -> usize {
        let _op = enter_coordinator("ShardedRegistry::actor_count");
        let meta = self.meta.read();
        meta.actors.len()
    }

    /// Number of live spaces (including the root).
    pub fn space_count(&self) -> usize {
        let _op = enter_coordinator("ShardedRegistry::space_count");
        let meta = self.meta.read();
        meta.shards.len()
    }

    /// Live actor ids, sorted.
    pub fn actor_ids(&self) -> Vec<ActorId> {
        let _op = enter_coordinator("ShardedRegistry::actor_ids");
        let mut v: Vec<ActorId> = self.meta.read().actors.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Live space ids, ascending.
    pub fn space_ids(&self) -> Vec<SpaceId> {
        let _op = enter_coordinator("ShardedRegistry::space_ids");
        let meta = self.meta.read();
        meta.shards.keys().copied().collect()
    }

    /// An observability snapshot of one space.
    pub fn space_info(&self, id: SpaceId) -> Result<SpaceInfo> {
        let _op = enter_coordinator("ShardedRegistry::space_info");
        let meta = self.meta.read();
        let sh = meta.shards.get(&id).ok_or(Error::NoSuchSpace(id))?;
        let sp = sh.space.lock();
        let mut actor_members = 0usize;
        let mut space_members = 0usize;
        for m in sp.members().keys() {
            match m {
                MemberId::Actor(_) => actor_members += 1,
                MemberId::Space(_) => space_members += 1,
            }
        }
        Ok(SpaceInfo {
            id,
            actor_members,
            space_members,
            pending_messages: sp.pending().len(),
            persistent_broadcasts: sp.persistent().len(),
            guarded: !sp.guard().is_open(),
        })
    }

    /// Runs `f` against one locked space, for inspection.
    pub fn with_space<R>(&self, id: SpaceId, f: impl FnOnce(&Space<M>) -> R) -> Result<R> {
        let _op = enter_coordinator("ShardedRegistry::with_space");
        let meta = self.meta.read();
        let sh = meta.shards.get(&id).ok_or(Error::NoSuchSpace(id))?;
        let sp = sh.space.lock();
        let _cb = enter_callback("with_space closure");
        Ok(f(&sp))
    }

    /// Validates the visibility relation is acyclic — property-test hook.
    pub fn is_dag(&self) -> bool {
        let _op = enter_coordinator("ShardedRegistry::is_dag");
        let meta = self.meta.read();
        let nodes: HashSet<SpaceId> = meta.shards.keys().copied().collect();
        visibility::is_dag_edges(&nodes, &meta.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actorspace_atoms::path;
    use actorspace_capability::CapMinter;
    use actorspace_pattern::pattern;

    type Sharded = ShardedRegistry<&'static str>;

    fn reg() -> Sharded {
        let p = ManagerPolicy {
            selection_seed: Some(7),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    type Log = std::rc::Rc<std::cell::RefCell<Vec<(ActorId, &'static str)>>>;

    fn collector() -> (Log, impl FnMut(ActorId, &'static str, Option<&Route>)) {
        let v: Log = Default::default();
        let v2 = v.clone();
        (v, move |a, m, _| v2.borrow_mut().push((a, m)))
    }

    #[test]
    fn root_space_exists_at_birth() {
        let r = reg();
        assert!(r.space_exists(ROOT_SPACE));
        assert_eq!(r.space_count(), 1);
    }

    #[test]
    fn create_space_and_actor() {
        let r = reg();
        let s = r.create_space(None);
        assert!(r.space_exists(s));
        let a = r.create_actor(s, None).unwrap();
        assert!(r.actor_exists(a));
        assert_eq!(r.actor(a).unwrap().host, s);
    }

    #[test]
    fn create_actor_in_missing_space_fails() {
        let r = reg();
        let err = r.create_actor(SpaceId(999), None).unwrap_err();
        assert_eq!(err, Error::NoSuchSpace(SpaceId(999)));
    }

    #[test]
    fn make_visible_then_invisible() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let m = MemberId::Actor(a);
        let (_, mut sink) = collector();
        r.make_visible(m, vec![path("w")], s, None, &mut sink)
            .unwrap();
        assert!(r.with_space(s, |sp| sp.contains(m)).unwrap());
        assert_eq!(r.containers_of(m), vec![s]);
        r.make_invisible(m, s, None).unwrap();
        assert!(!r.with_space(s, |sp| sp.contains(m)).unwrap());
        assert_eq!(r.containers_of(m).len(), 0);
    }

    #[test]
    fn make_invisible_when_not_visible_errors() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let err = r.make_invisible(MemberId::Actor(a), s, None).unwrap_err();
        assert!(matches!(err, Error::NotVisible { .. }));
    }

    #[test]
    fn actors_are_not_visible_by_default() {
        // §5.4: "When an actor or an actorSpace is created, it is not
        // automatically placed in an actorSpace."
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        assert!(!r
            .with_space(s, |sp| sp.contains(MemberId::Actor(a)))
            .unwrap());
        assert!(!r
            .with_space(ROOT_SPACE, |sp| sp.contains(MemberId::Actor(a)))
            .unwrap());
    }

    #[test]
    fn capability_guards_visibility() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let wrong = mint.new_capability();
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, Some(&cap)).unwrap();
        let m = MemberId::Actor(a);
        let (_, mut sink) = collector();
        // No capability → denied.
        assert!(matches!(
            r.make_visible(m, vec![path("w")], s, None, &mut sink),
            Err(Error::Denied(_))
        ));
        // Wrong capability → denied.
        assert!(matches!(
            r.make_visible(m, vec![path("w")], s, Some(&wrong), &mut sink),
            Err(Error::Denied(_))
        ));
        // Right capability → ok.
        r.make_visible(m, vec![path("w")], s, Some(&cap), &mut sink)
            .unwrap();
        // Restricted capability lacking VISIBILITY → denied for invisibility.
        let weak = cap.restrict(Rights::ATTRIBUTES);
        assert!(matches!(
            r.make_invisible(m, s, Some(&weak)),
            Err(Error::Denied(_))
        ));
        r.make_invisible(m, s, Some(&cap)).unwrap();
    }

    #[test]
    fn change_attributes_requires_visibility_and_right() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, Some(&cap)).unwrap();
        let m = MemberId::Actor(a);
        let (_, mut sink) = collector();
        // Not visible yet.
        assert!(matches!(
            r.change_attributes(m, vec![path("x")], s, Some(&cap), &mut sink),
            Err(Error::NotVisible { .. })
        ));
        r.make_visible(m, vec![path("w")], s, Some(&cap), &mut sink)
            .unwrap();
        r.change_attributes(m, vec![path("x")], s, Some(&cap), &mut sink)
            .unwrap();
        assert_eq!(
            r.with_space(s, |sp| sp.members()[&m].clone()).unwrap(),
            vec![path("x")]
        );
        // VISIBILITY-only capability cannot change attributes.
        let weak = cap.restrict(Rights::VISIBILITY);
        assert!(matches!(
            r.change_attributes(m, vec![path("y")], s, Some(&weak), &mut sink),
            Err(Error::Denied(_))
        ));
    }

    #[test]
    fn self_visibility_is_rejected() {
        // §5.7: "we do not allow an actorSpace to be made visible in itself".
        let r = reg();
        let s = r.create_space(None);
        let (_, mut sink) = collector();
        let err = r
            .make_visible(MemberId::Space(s), vec![path("me")], s, None, &mut sink)
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldCycle {
                child: s,
                parent: s
            }
        );
    }

    #[test]
    fn indirect_cycles_are_rejected() {
        // a visible in b, b visible in c ⇒ c cannot become visible in a.
        let r = reg();
        let a = r.create_space(None);
        let b = r.create_space(None);
        let c = r.create_space(None);
        let (_, mut sink) = collector();
        r.make_visible(MemberId::Space(a), vec![path("a")], b, None, &mut sink)
            .unwrap();
        r.make_visible(MemberId::Space(b), vec![path("b")], c, None, &mut sink)
            .unwrap();
        let err = r
            .make_visible(MemberId::Space(c), vec![path("c")], a, None, &mut sink)
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldCycle {
                child: c,
                parent: a
            }
        );
        // The non-cyclic direction still works: a may also be visible in c.
        r.make_visible(MemberId::Space(a), vec![path("a2")], c, None, &mut sink)
            .unwrap();
    }

    #[test]
    fn overlap_is_allowed() {
        // §3: "actorSpaces may overlap arbitrarily" — one actor in many
        // spaces, with different attributes in each.
        let r = reg();
        let s1 = r.create_space(None);
        let s2 = r.create_space(None);
        let a = r.create_actor(s1, None).unwrap();
        let m = MemberId::Actor(a);
        let (_, mut sink) = collector();
        r.make_visible(m, vec![path("red")], s1, None, &mut sink)
            .unwrap();
        r.make_visible(m, vec![path("blue")], s2, None, &mut sink)
            .unwrap();
        assert_eq!(
            r.with_space(s1, |sp| sp.members()[&m].clone()).unwrap(),
            vec![path("red")]
        );
        assert_eq!(
            r.with_space(s2, |sp| sp.members()[&m].clone()).unwrap(),
            vec![path("blue")]
        );
        let parents = r.containers_of(m);
        let mut want = vec![s1, s2];
        want.sort_unstable();
        assert_eq!(parents, want);
    }

    #[test]
    fn destroy_space_spares_members() {
        // §5.5: "when an actorSpace is garbage collected, the actors
        // contained in that actorSpace themselves are not deleted."
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let m = MemberId::Actor(a);
        let (_, mut sink) = collector();
        r.make_visible(m, vec![path("w")], s, None, &mut sink)
            .unwrap();
        r.destroy_space(s, None).unwrap();
        assert!(!r.space_exists(s));
        assert!(r.actor_exists(a));
        assert_eq!(r.containers_of(m).len(), 0);
        // The orphaned actor is re-hosted to the root.
        assert_eq!(r.actor(a).unwrap().host, ROOT_SPACE);
    }

    #[test]
    fn destroy_root_fails() {
        let r = reg();
        assert_eq!(
            r.destroy_space(ROOT_SPACE, None).unwrap_err(),
            Error::RootImmortal
        );
    }

    #[test]
    fn destroy_guarded_space_needs_manage_right() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let s = r.create_space(Some(&cap));
        assert!(matches!(r.destroy_space(s, None), Err(Error::Denied(_))));
        let weak = cap.restrict(Rights::VISIBILITY);
        assert!(matches!(
            r.destroy_space(s, Some(&weak)),
            Err(Error::Denied(_))
        ));
        r.destroy_space(s, Some(&cap)).unwrap();
    }

    #[test]
    fn space_info_snapshots_membership_and_queues() {
        let r = reg();
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let s = r.create_space(Some(&cap));
        let sub = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let (_, mut k) = collector();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.make_visible(sub.into(), vec![path("sub")], s, None, &mut k)
            .unwrap();
        // One suspended message.
        r.send(&pattern("ghost"), s, "x", &mut k).unwrap();
        let info = r.space_info(s).unwrap();
        assert_eq!(info.actor_members, 1);
        assert_eq!(info.space_members, 1);
        assert_eq!(info.pending_messages, 1);
        assert_eq!(info.persistent_broadcasts, 0);
        assert!(info.guarded);
        let sub_info = r.space_info(sub).unwrap();
        assert!(!sub_info.guarded);
        assert_eq!(sub_info.actor_members, 0);
        assert!(r.space_info(SpaceId(404)).is_err());
    }

    #[test]
    fn manager_can_veto_visibility() {
        struct Veto;
        impl Manager for Veto {
            fn authorize_visibility(&mut self, _m: MemberId, attrs: &[Path]) -> bool {
                !attrs.iter().any(|p| p.to_string().starts_with("secret"))
            }
        }
        let r = reg();
        let s = r.create_space(None);
        r.set_space_manager(s, Box::new(Veto), None).unwrap();
        let a = r.create_actor(s, None).unwrap();
        let (_, mut sink) = collector();
        assert!(r
            .make_visible(
                MemberId::Actor(a),
                vec![path("secret/x")],
                s,
                None,
                &mut sink
            )
            .is_err());
        r.make_visible(MemberId::Actor(a), vec![path("open/x")], s, None, &mut sink)
            .unwrap();
    }
    #[test]
    fn send_reaches_one_matching_actor() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let (got, mut sink) = collector();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut sink)
            .unwrap();
        let d = r.send(&pattern("w"), s, "job", &mut sink).unwrap();
        assert_eq!(d, Disposition::Delivered(1));
        assert_eq!(got.borrow().as_slice(), &[(a, "job")]);
    }

    #[test]
    fn suspended_send_wakes_on_arrival() {
        let r = reg();
        let s = r.create_space(None);
        let (got, mut sink) = collector();
        assert_eq!(
            r.send(&pattern("late"), s, "early", &mut sink).unwrap(),
            Disposition::Suspended
        );
        assert_eq!(r.space_info(s).unwrap().pending_messages, 1);
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("late")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.borrow().as_slice(), &[(a, "early")]);
        assert_eq!(r.space_info(s).unwrap().pending_messages, 0);
    }

    #[test]
    fn wake_crosses_shards_to_ancestors() {
        // Suspended in OUTER, woken by an arrival in the nested INNER shard.
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let (got, mut sink) = collector();
        r.make_visible(inner.into(), vec![path("pool")], outer, None, &mut sink)
            .unwrap();
        r.send(&pattern("pool/worker"), outer, "job", &mut sink)
            .unwrap();
        assert!(got.borrow().is_empty());
        let a = r.create_actor(inner, None).unwrap();
        r.make_visible(a.into(), vec![path("worker")], inner, None, &mut sink)
            .unwrap();
        assert_eq!(got.borrow().as_slice(), &[(a, "job")]);
    }

    #[test]
    fn cycles_rejected_through_edge_map() {
        let r = reg();
        let a = r.create_space(None);
        let b = r.create_space(None);
        let c = r.create_space(None);
        let (_, mut sink) = collector();
        r.make_visible(MemberId::Space(a), vec![path("a")], b, None, &mut sink)
            .unwrap();
        r.make_visible(MemberId::Space(b), vec![path("b")], c, None, &mut sink)
            .unwrap();
        let err = r
            .make_visible(MemberId::Space(c), vec![path("c")], a, None, &mut sink)
            .unwrap_err();
        assert_eq!(
            err,
            Error::WouldCycle {
                child: c,
                parent: a
            }
        );
        assert!(r.is_dag());
    }

    #[test]
    fn make_visible_checks_guard_then_space_then_cycle_then_manager() {
        struct Veto;
        impl Manager for Veto {
            fn authorize_visibility(&mut self, _: MemberId, _: &[Path]) -> bool {
                false
            }
        }
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let child = r.create_space(Some(&cap));
        let parent = r.create_space(None);
        let other = r.create_space(None);
        let (_, mut sink) = collector();
        r.make_visible(parent.into(), vec![path("p")], child, None, &mut sink)
            .unwrap();
        for s in [parent, other] {
            r.set_space_manager(s, Box::new(Veto), None).unwrap();
        }
        let mut try_into = |space, cap| {
            r.make_visible(child.into(), vec![path("c")], space, cap, &mut sink)
                .unwrap_err()
        };
        assert!(matches!(try_into(parent, None), Error::Denied(_)));
        assert_eq!(
            try_into(SpaceId(404), Some(&cap)),
            Error::NoSuchSpace(SpaceId(404))
        );
        assert_eq!(
            try_into(parent, Some(&cap)),
            Error::WouldCycle { child, parent }
        );
        assert_eq!(
            try_into(other, Some(&cap)),
            Error::Denied(GuardError::Missing)
        );
    }

    #[test]
    fn destroy_space_detaches_and_rehosts() {
        let r = reg();
        let parent = r.create_space(None);
        let child = r.create_space(None);
        let a = r.create_actor(child, None).unwrap();
        let (_, mut sink) = collector();
        r.make_visible(
            MemberId::Space(child),
            vec![path("c")],
            parent,
            None,
            &mut sink,
        )
        .unwrap();
        r.destroy_space(child, None).unwrap();
        assert!(!r.space_exists(child));
        assert!(r
            .with_space(parent, |sp| !sp.contains(MemberId::Space(child)))
            .unwrap());
        assert_eq!(r.actor(a).unwrap().host, ROOT_SPACE);
        assert!(r.is_dag());
    }

    #[test]
    fn guarded_space_checks_without_shard_lock() {
        let mint = CapMinter::new();
        let cap = mint.new_capability();
        let r = reg();
        let s = r.create_space(Some(&cap));
        assert!(matches!(r.destroy_space(s, None), Err(Error::Denied(_))));
        assert!(r.space_info(s).unwrap().guarded);
        r.destroy_space(s, Some(&cap)).unwrap();
    }

    #[test]
    fn per_space_counters_label_snapshots() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let (_, mut sink) = collector();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut sink)
            .unwrap();
        r.send(&pattern("w"), s, "x", &mut sink).unwrap();
        r.send(&pattern("w"), s, "y", &mut sink).unwrap();
        r.broadcast(&pattern("w"), s, "z", &mut sink).unwrap();
        let snap = r.obs().snapshot();
        assert_eq!(
            snap.counter_for_space(names::CORE_SPACE_SENDS, 0, s.0),
            Some(2)
        );
        assert_eq!(
            snap.counter_for_space(names::CORE_SPACE_BROADCASTS, 0, s.0),
            Some(1)
        );
        // Literal sends took the index fast path: two hits.
        assert_eq!(
            snap.counter_for_space(names::CORE_INDEX_HITS, 0, s.0),
            Some(3)
        );
    }

    #[test]
    fn wake_sweeps_do_not_count_index_lookups() {
        let r = reg();
        let s = r.create_space(None);
        let (_, mut sink) = collector();
        assert_eq!(
            r.send(&pattern("w"), s, "x", &mut sink).unwrap(),
            Disposition::Suspended
        );
        // Five changes that cannot match the waiting literal send: each
        // sweeps it again, and none of the sweeps is an index lookup.
        for i in 0..5 {
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(
                a.into(),
                vec![path(&format!("other{i}"))],
                s,
                None,
                &mut sink,
            )
            .unwrap();
        }
        assert_eq!(r.space_info(s).unwrap().pending_messages, 1);
        let snap = r.obs().snapshot();
        assert_eq!(
            snap.counter_for_space(names::CORE_INDEX_MISSES, 0, s.0),
            Some(1)
        );
        assert_eq!(
            snap.counter_for_space(names::CORE_INDEX_HITS, 0, s.0),
            Some(0)
        );
    }

    #[test]
    fn purge_range_sweeps_memberships() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let (_, mut sink) = collector();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut sink)
            .unwrap();
        r.make_visible(b.into(), vec![path("w")], s, None, &mut sink)
            .unwrap();
        assert_eq!(r.purge_actor_range(a.0, b.0), 1);
        assert!(!r.actor_exists(a));
        assert!(r.actor_exists(b));
        assert_eq!(r.resolve(&pattern("w"), s).unwrap(), vec![b]);
    }

    /// A manager that logs each arbitration and unmatched-policy hook the
    /// coordinator asks, and leaves every decision to the policy table.
    #[derive(Clone, Default)]
    struct Recorder(Arc<std::sync::Mutex<Vec<&'static str>>>);

    impl Recorder {
        fn log(&self, hook: &'static str) {
            self.0.lock().unwrap().push(hook);
        }

        fn take(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.0.lock().unwrap())
        }
    }

    impl Manager for Recorder {
        fn choose(&mut self, _: &[ActorId]) -> Option<ActorId> {
            self.log("choose");
            None
        }

        fn unmatched_send(&mut self) -> Option<UnmatchedPolicy> {
            self.log("unmatched_send");
            None
        }

        fn unmatched_broadcast(&mut self) -> Option<UnmatchedPolicy> {
            self.log("unmatched_broadcast");
            None
        }
    }

    /// A scope under `policy` whose manager is a [`Recorder`]. With
    /// `nested`, a sub-space is visible in it, so deliveries lock the
    /// scope's closure instead of its one shard.
    fn recorded_scope(policy: UnmatchedPolicy, nested: bool) -> (Sharded, SpaceId, Recorder) {
        let r = ShardedRegistry::new(ManagerPolicy {
            unmatched_send: policy,
            unmatched_broadcast: policy,
            selection_seed: Some(7),
            ..Default::default()
        });
        let s = r.create_space(None);
        if nested {
            let sub = r.create_space(None);
            r.make_visible(sub.into(), vec![path("sub")], s, None, &mut |_, _, _| {})
                .unwrap();
        }
        let rec = Recorder::default();
        r.set_space_manager(s, Box::new(rec.clone()), None).unwrap();
        (r, s, rec)
    }

    #[test]
    fn manager_hooks_follow_the_delivery_kind() {
        for nested in [false, true] {
            let (r, s, rec) = recorded_scope(UnmatchedPolicy::Suspend, nested);
            let (got, mut sink) = collector();
            assert_eq!(
                r.send(&pattern("w"), s, "a", &mut sink).unwrap(),
                Disposition::Suspended
            );
            assert_eq!(rec.take(), ["unmatched_send"]);
            assert_eq!(
                r.broadcast(&pattern("b"), s, "b", &mut sink).unwrap(),
                Disposition::Suspended
            );
            assert_eq!(rec.take(), ["unmatched_broadcast"]);
            // A match wakes the suspended send: arbitration only.
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(a.into(), vec![path("w")], s, None, &mut sink)
                .unwrap();
            assert_eq!(got.borrow().as_slice(), &[(a, "a")]);
            assert_eq!(rec.take(), ["choose"]);
            // A matched send never asks the unmatched hook.
            assert_eq!(
                r.send(&pattern("w"), s, "c", &mut sink).unwrap(),
                Disposition::Delivered(1)
            );
            assert_eq!(rec.take(), ["choose"]);
            // A matched broadcast still asks it (it might persist), and
            // never arbitrates.
            assert_eq!(
                r.broadcast(&pattern("w"), s, "d", &mut sink).unwrap(),
                Disposition::Delivered(1)
            );
            assert_eq!(rec.take(), ["unmatched_broadcast"]);
            assert_eq!(got.borrow().len(), 3, "nested: {nested}");
        }
    }

    #[test]
    fn persistent_policy_suspends_sends_and_registers_broadcasts() {
        for nested in [false, true] {
            let (r, s, rec) = recorded_scope(UnmatchedPolicy::Persistent, nested);
            let (got, mut sink) = collector();
            assert_eq!(
                r.send(&pattern("w"), s, "a", &mut sink).unwrap(),
                Disposition::Suspended
            );
            assert_eq!(rec.take(), ["unmatched_send"]);
            assert_eq!(
                r.broadcast(&pattern("w"), s, "b", &mut sink).unwrap(),
                Disposition::Persistent(0)
            );
            assert_eq!(rec.take(), ["unmatched_broadcast"]);
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(a.into(), vec![path("w")], s, None, &mut sink)
                .unwrap();
            assert_eq!(got.borrow().as_slice(), &[(a, "a"), (a, "b")]);
            assert_eq!(rec.take(), ["choose"]);
            // A matched broadcast registers too.
            assert_eq!(
                r.broadcast(&pattern("w"), s, "c", &mut sink).unwrap(),
                Disposition::Persistent(1)
            );
            assert_eq!(rec.take(), ["unmatched_broadcast"]);
            let info = r.space_info(s).unwrap();
            assert_eq!((info.pending_messages, info.persistent_broadcasts), (0, 2));
        }
    }

    /// `(core.sends, core.broadcasts, core.space.sends, core.space.broadcasts,
    /// core.matched)` on node 0.
    fn submit_counters(r: &Sharded, s: SpaceId) -> [Option<u64>; 5] {
        let snap = r.obs().snapshot();
        [
            snap.counter(names::CORE_SENDS, 0),
            snap.counter(names::CORE_BROADCASTS, 0),
            snap.counter_for_space(names::CORE_SPACE_SENDS, 0, s.0),
            snap.counter_for_space(names::CORE_SPACE_BROADCASTS, 0, s.0),
            snap.counter(names::CORE_MATCHED, 0),
        ]
    }

    fn count_stage(r: &Sharded, trace: TraceId, submitted: bool) -> usize {
        r.obs()
            .tracer
            .events_for(trace)
            .iter()
            .filter(|e| match e.stage {
                Stage::Submitted { .. } => submitted,
                Stage::Matched { .. } => !submitted,
                _ => false,
            })
            .count()
    }

    #[test]
    fn resend_continues_its_trace_without_counting_a_submit() {
        for nested in [false, true] {
            let mut r = reg();
            r.set_obs(Obs::shared(ObsConfig::all()), 0);
            let s = r.create_space(None);
            let routes: std::rc::Rc<std::cell::RefCell<Vec<Route>>> = Default::default();
            let log = routes.clone();
            let mut sink = move |_: ActorId, _: &'static str, route: Option<&Route>| {
                log.borrow_mut().extend(route.cloned());
            };
            if nested {
                let sub = r.create_space(None);
                r.make_visible(sub.into(), vec![path("sub")], s, None, &mut sink)
                    .unwrap();
            }
            for _ in 0..2 {
                let a = r.create_actor(s, None).unwrap();
                r.make_visible(a.into(), vec![path("w")], s, None, &mut sink)
                    .unwrap();
            }
            r.send(&pattern("w"), s, "x", &mut sink).unwrap();
            r.broadcast(&pattern("w"), s, "y", &mut sink).unwrap();
            let (send, bcast) = (routes.borrow()[0].clone(), routes.borrow()[1].clone());
            assert_eq!(
                (send.kind, bcast.kind),
                (DeliveryKind::Send, DeliveryKind::Broadcast)
            );
            // One submit of each kind; matched counts 1 per send, n per broadcast.
            let fresh = [Some(1), Some(1), Some(1), Some(1), Some(3)];
            assert_eq!(submit_counters(&r, s), fresh);

            assert_eq!(
                r.resend(&send, "x", &mut sink).unwrap(),
                Disposition::Delivered(1)
            );
            assert_eq!(
                r.resend(&bcast, "y", &mut sink).unwrap(),
                Disposition::Delivered(2)
            );
            assert_eq!(routes.borrow().len(), 6);
            assert_eq!(routes.borrow()[3].trace, send.trace);
            assert_eq!(routes.borrow()[4].trace, bcast.trace);
            // Only `core.matched` moves; each trace keeps its one
            // submission and records a second match.
            let resent = [Some(1), Some(1), Some(1), Some(1), Some(6)];
            assert_eq!(submit_counters(&r, s), resent, "nested: {nested}");
            for trace in [send.trace, bcast.trace] {
                assert!(trace.is_some());
                assert_eq!(count_stage(&r, trace, true), 1);
                assert_eq!(count_stage(&r, trace, false), 2);
            }
        }
    }
}
