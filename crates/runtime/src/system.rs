//! The actor system: shared node state, worker pool, and the public API.
//!
//! One [`ActorSystem`] is a *node* in the paper's architecture (§7.2): it
//! owns the local Coordinator state (the [`ShardedRegistry`] — one lock
//! per actorSpace, see `actorspace_core::shard`), the actor table, and a
//! pool of worker threads draining mailboxes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_lockcheck::{Condvar, LockClass, Mutex, RwLock};
use crossbeam::deque::Injector;

use actorspace_atoms::Path;
use actorspace_capability::{CapMinter, Capability};
use actorspace_core::{
    ActorId, Disposition, GcReport, ManagerPolicy, MemberId, Pattern, Result, Route,
    ShardedRegistry, SpaceId,
};
use actorspace_obs::{names, Counter, DeadLetter, DeadLetterReason, Obs, Stage, TraceId};

use crate::actor::{ActorCell, Behavior};
use crate::message::{Envelope, Message, Payload};
use crate::scheduler;
use crate::transport::Transport;
use crate::value::Value;

/// Node configuration.
#[derive(Clone)]
pub struct Config {
    /// Worker threads. Defaults to `min(available_parallelism, 4)`.
    pub workers: usize,
    /// Messages processed per actor per scheduling slot.
    pub batch: usize,
    /// Policy template for new actorSpaces (and the root space).
    pub policy: ManagerPolicy,
    /// First raw id this node allocates — cluster nodes use disjoint
    /// ranges (`node << 48`).
    pub id_base: u64,
    /// The observer receiving this node's metrics, traces, and dead
    /// letters. `None` creates a private default
    /// ([`ObsConfig::default`](actorspace_obs::ObsConfig::default)); the
    /// cluster layer shares one observer across all nodes so counters
    /// survive restarts and timestamps share an epoch.
    pub obs: Option<Arc<Obs>>,
    /// Node label stamped on this system's telemetry (0 standalone).
    pub node: u16,
}

impl Default for Config {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(4);
        Config {
            workers,
            batch: 16,
            policy: ManagerPolicy::default(),
            id_base: 1,
            obs: None,
            node: 0,
        }
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Messages enqueued but not yet fully processed.
    pub pending: usize,
    /// Messages whose destination did not exist (locally or via uplink).
    pub dead_letters: usize,
    /// Live local actors.
    pub actors: usize,
    /// Live spaces.
    pub spaces: usize,
    /// Remote nodes this node has declared failed (failure detector).
    pub suspicions: usize,
    /// Messages re-routed to a surviving replica after a node failure.
    pub failovers: usize,
    /// Node re-registrations (restarts) observed through the directory.
    pub re_registrations: usize,
}

/// State shared between the API, workers, and contexts.
pub(crate) struct Shared {
    pub actors: RwLock<HashMap<ActorId, Arc<ActorCell>>>,
    pub injector: Injector<Arc<ActorCell>>,
    /// The sharded coordinator. Operations take `&self` and lock only the
    /// shards their scope reaches; no outer mutex. The registry may take
    /// the `actors` read lock through its sinks (delivery), so no path may
    /// hold the `actors` lock while entering the registry.
    pub registry: ShardedRegistry<Message>,
    pub minter: CapMinter,
    /// Enqueued-but-unprocessed message count; zero ⇒ quiescent.
    pub pending: AtomicUsize,
    pub idle_lock: Mutex<()>,
    pub idle_cv: Condvar,
    /// Count of parked workers, under its own lock (wakeup protocol).
    pub sleep_lock: Mutex<usize>,
    pub sleep_cv: Condvar,
    pub shutdown: AtomicBool,
    /// The shared observer and this node's label on it.
    pub obs: Arc<Obs>,
    pub node: u16,
    /// Pre-resolved counter handles (`runtime.*` metrics, labeled by
    /// node). Resolved from `obs` by `(name, node)`, so a restarted
    /// incarnation picks up the *same* atoms — totals are cumulative.
    pub dead_letters: Arc<Counter>,
    /// Failure-detector events, counted on the node that observed them.
    pub suspicions: Arc<Counter>,
    pub failovers: Arc<Counter>,
    pub re_registrations: Arc<Counter>,
    pub deliveries: Arc<Counter>,
    /// Delivery fallback for non-local actors (§7.2 transport objects).
    pub uplink: RwLock<Option<Arc<dyn Transport>>>,
    /// Reroutes state-changing primitives through an external coordinator
    /// (the cluster bus). `None` on a standalone node.
    pub hook: RwLock<Option<Arc<dyn crate::hook::CoordinatorHook>>>,
    pub batch: usize,
}

impl Shared {
    /// Delivers an envelope: local mailbox, else uplink, else dead letter.
    /// Returns true if the message found a home.
    pub fn deliver(&self, env: Envelope) -> bool {
        let cell = self.actors.read().get(&env.to).cloned();
        let port = env.port();
        let Envelope { to, payload, route } = env;
        match cell {
            Some(cell) => {
                if let Some(r) = route.as_ref() {
                    self.obs
                        .tracer
                        .record(r.trace, self.node, Stage::Routed { node: self.node });
                }
                self.pending.fetch_add(1, Ordering::AcqRel);
                if cell.mailbox.push(port, payload, route) {
                    self.injector.push(cell);
                    self.notify_worker();
                }
                true
            }
            None => {
                let trace = route.as_ref().map(|r| r.trace).unwrap_or(TraceId::NONE);
                if let Payload::User(msg) = payload {
                    if let Some(up) = self.uplink.read().clone() {
                        if up.deliver(to, msg, route.as_ref()) {
                            return true;
                        }
                    }
                }
                self.note_dead_letter(DeadLetterReason::NoRecipient, Some(to), trace);
                false
            }
        }
    }

    /// Records a dead letter: counter, last-N ring, and terminal trace
    /// stage, all on this node's label.
    pub fn note_dead_letter(&self, reason: DeadLetterReason, to: Option<ActorId>, trace: TraceId) {
        self.dead_letters.inc();
        self.obs.dead_letters.record(DeadLetter {
            at_nanos: self.obs.now_nanos(),
            node: self.node,
            to: to.map(|a| a.0),
            trace,
            reason,
        });
        self.obs
            .tracer
            .record(trace, self.node, Stage::DeadLettered);
    }

    pub fn notify_worker(&self) {
        let _g = self.sleep_lock.lock();
        self.sleep_cv.notify_one();
    }

    /// Decrements the pending counter, waking idle waiters at zero.
    pub fn dec_pending(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.idle_lock.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Runs `f` with the registry and a sink that enqueues deliveries.
    pub fn with_registry<R>(
        &self,
        f: impl FnOnce(&ShardedRegistry<Message>, &mut dyn FnMut(ActorId, Message, Option<&Route>)) -> R,
    ) -> R {
        let mut sink = |to: ActorId, msg: Message, route: Option<&Route>| {
            self.deliver(Envelope::user_routed(to, msg, route.cloned()));
        };
        f(&self.registry, &mut sink)
    }

    /// Registers a new actor and schedules its start signal.
    pub fn spawn_cell(
        &self,
        host: SpaceId,
        cap: Option<&Capability>,
        behavior: Box<dyn Behavior>,
        rooted: bool,
    ) -> Result<ActorId> {
        let id = self.registry.create_actor(host, cap)?;
        if rooted {
            self.registry.add_root(id);
        }
        let cell = Arc::new(ActorCell::new(id, behavior));
        self.actors.write().insert(id, cell);
        self.deliver(Envelope::start(id));
        Ok(id)
    }

    /// Removes an actor: table entry, registry record, memberships.
    pub fn stop_actor(&self, id: ActorId) {
        self.actors.write().remove(&id);
        self.registry.remove_actor(id);
    }

    /// Installs a behavior cell without creating a registry record or
    /// scheduling the start signal — the cluster layer's creation path
    /// (record and activation arrive via the ordered bus).
    pub fn install_cell(&self, id: ActorId, behavior: Box<dyn Behavior>) {
        let cell = Arc::new(ActorCell::new(id, behavior));
        self.actors.write().insert(id, cell);
    }

    /// Schedules the start signal for an installed cell.
    pub fn send_start(&self, id: ActorId) {
        self.deliver(Envelope::start(id));
    }

    // -- hook-aware primitive dispatch -----------------------------------

    pub fn op_make_visible(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        if let Some(h) = self.hook.read().clone() {
            return h.make_visible(member, attrs, space, cap.copied());
        }
        self.with_registry(|reg, sink| reg.make_visible(member, attrs, space, cap, sink))
    }

    pub fn op_make_invisible(
        &self,
        member: MemberId,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        if let Some(h) = self.hook.read().clone() {
            return h.make_invisible(member, space, cap.copied());
        }
        self.registry.make_invisible(member, space, cap)
    }

    pub fn op_change_attributes(
        &self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        if let Some(h) = self.hook.read().clone() {
            return h.change_attributes(member, attrs, space, cap.copied());
        }
        self.with_registry(|reg, sink| reg.change_attributes(member, attrs, space, cap, sink))
    }

    pub fn op_create_space(&self, cap: Option<&Capability>) -> SpaceId {
        if let Some(h) = self.hook.read().clone() {
            return h.create_space(cap.copied());
        }
        self.registry.create_space(cap)
    }

    pub fn op_destroy_space(&self, space: SpaceId, cap: Option<&Capability>) -> Result<()> {
        if let Some(h) = self.hook.read().clone() {
            return h.destroy_space(space, cap.copied());
        }
        self.registry.destroy_space(space, cap)
    }

    pub fn op_create_actor(
        &self,
        host: SpaceId,
        cap: Option<&Capability>,
        behavior: Box<dyn Behavior>,
    ) -> Result<ActorId> {
        if let Some(h) = self.hook.read().clone() {
            return h.create_actor(host, cap.copied(), behavior);
        }
        self.spawn_cell(host, cap, behavior, false)
    }
}

/// A single-node ActorSpace runtime.
pub struct ActorSystem {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ActorSystem {
    /// Boots a node: registry with its root space, plus `config.workers`
    /// scheduler threads.
    pub fn new(config: Config) -> ActorSystem {
        let obs = config
            .obs
            .unwrap_or_else(|| Obs::shared(actorspace_obs::ObsConfig::default()));
        let node = config.node;
        let mut registry = ShardedRegistry::with_id_base(config.policy.clone(), config.id_base);
        registry.set_obs(obs.clone(), node);
        let shared = Arc::new(Shared {
            actors: RwLock::new(LockClass::Actors, HashMap::new()),
            injector: Injector::new(),
            registry,
            minter: CapMinter::new(),
            pending: AtomicUsize::new(0),
            idle_lock: Mutex::new(LockClass::Scheduler, ()),
            idle_cv: Condvar::new(),
            sleep_lock: Mutex::new(LockClass::Scheduler, 0),
            sleep_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dead_letters: obs.metrics.counter(names::RT_DEAD_LETTERS, node),
            suspicions: obs.metrics.counter(names::RT_SUSPICIONS, node),
            failovers: obs.metrics.counter(names::RT_FAILOVERS, node),
            re_registrations: obs.metrics.counter(names::RT_REREGISTRATIONS, node),
            deliveries: obs.metrics.counter(names::RT_DELIVERIES, node),
            obs,
            node,
            uplink: RwLock::new(LockClass::Other("runtime.uplink"), None),
            hook: RwLock::new(LockClass::Other("runtime.hook"), None),
            batch: config.batch.max(1),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let s = shared.clone();
                std::thread::Builder::new()
                    .name(format!("actorspace-worker-{i}"))
                    .spawn(move || scheduler::run_worker(s))
                    .expect("spawn worker")
            })
            .collect();
        ActorSystem {
            shared,
            workers: Mutex::new(LockClass::Other("runtime.workers"), workers),
        }
    }

    // ------------------------------------------------------------------
    // Spawning
    // ------------------------------------------------------------------

    /// Spawns an actor hosted in the root space, returning a handle that
    /// keeps it alive (GC root) until dropped.
    pub fn spawn(&self, behavior: impl Behavior) -> ActorHandle {
        self.spawn_in(actorspace_core::ROOT_SPACE, behavior, None)
            .expect("root space always exists")
    }

    /// Spawns an actor hosted in `space`, optionally binding a capability
    /// guard to it.
    pub fn spawn_in(
        &self,
        space: SpaceId,
        behavior: impl Behavior,
        cap: Option<&Capability>,
    ) -> Result<ActorHandle> {
        let id = self
            .shared
            .op_create_actor(space, cap, Box::new(behavior))?;
        self.shared.registry.add_root(id);
        Ok(ActorHandle {
            id,
            shared: self.shared.clone(),
        })
    }

    /// Creates a channel-backed receiver actor: messages sent to the
    /// returned [`ActorId`] appear on the returned `Receiver`. The inbox is
    /// permanently rooted.
    pub fn inbox(&self) -> (ActorId, std::sync::mpsc::Receiver<Message>) {
        let (tx, rx) = std::sync::mpsc::channel::<Message>();
        let behavior = crate::actor::from_fn(move |_ctx, msg| {
            let _ = tx.send(msg);
        });
        let id = self
            .shared
            .spawn_cell(actorspace_core::ROOT_SPACE, None, Box::new(behavior), true)
            .expect("root space always exists");
        (id, rx)
    }

    // ------------------------------------------------------------------
    // ActorSpace primitives (system-level: no sending actor)
    // ------------------------------------------------------------------

    /// `create_actorSpace(capability)` (§5.2).
    pub fn create_space(&self, cap: Option<&Capability>) -> Result<SpaceId> {
        Ok(self.shared.op_create_space(cap))
    }

    /// Destroys a space (§7.1). Requires `Rights::MANAGE` when guarded.
    pub fn destroy_space(&self, space: SpaceId, cap: Option<&Capability>) -> Result<()> {
        self.shared.op_destroy_space(space, cap)
    }

    /// `new_capability()` (§5.4).
    pub fn new_capability(&self) -> Capability {
        self.minter().new_capability()
    }

    /// The capability mint.
    pub fn minter(&self) -> &CapMinter {
        &self.shared.minter
    }

    /// `make_visible(member, attrs @ space, capability)` (§5.4). May wake
    /// suspended messages, which are delivered asynchronously.
    pub fn make_visible(
        &self,
        member: impl Into<MemberId>,
        attr: &Path,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.make_visible_all(member, vec![attr.clone()], space, cap)
    }

    /// [`ActorSystem::make_visible`] with several attributes at once.
    pub fn make_visible_all(
        &self,
        member: impl Into<MemberId>,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        let member = member.into();
        self.shared.op_make_visible(member, attrs, space, cap)
    }

    /// `make_invisible(member, space, capability)` (§5.4).
    pub fn make_invisible(
        &self,
        member: impl Into<MemberId>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared.op_make_invisible(member.into(), space, cap)
    }

    /// `change_attributes(member, attrs @ space, capability)` (§5.4).
    pub fn change_attributes(
        &self,
        member: impl Into<MemberId>,
        attrs: Vec<Path>,
        space: SpaceId,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared
            .op_change_attributes(member.into(), attrs, space, cap)
    }

    /// `send(pattern@space, message)` from outside the system (no sender
    /// address).
    pub fn send_pattern(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        body: Value,
        from: Option<ActorId>,
    ) -> Result<Disposition> {
        let msg = Message {
            from,
            body,
            port: crate::message::Port::Invocation,
        };
        self.shared
            .with_registry(|reg, sink| reg.send(pattern, space, msg, sink))
    }

    /// `broadcast(pattern@space, message)` from outside the system.
    pub fn broadcast(
        &self,
        pattern: &Pattern,
        space: SpaceId,
        body: Value,
        from: Option<ActorId>,
    ) -> Result<Disposition> {
        let msg = Message {
            from,
            body,
            port: crate::message::Port::Invocation,
        };
        self.shared
            .with_registry(|reg, sink| reg.broadcast(pattern, space, msg, sink))
    }

    /// Point-to-point send by mail address — the Actor special case.
    /// Returns false if the address is unknown here and via the uplink.
    pub fn send_to(&self, to: ActorId, body: Value) -> bool {
        self.shared.deliver(Envelope::user(to, Message::new(body)))
    }

    /// Installs a new behavior via the actor's Behavior port (§7.2).
    pub fn send_behavior(&self, to: ActorId, behavior: impl Behavior) -> bool {
        self.shared
            .deliver(Envelope::become_(to, Box::new(behavior)))
    }

    /// Resolves a pattern without sending (inspection).
    pub fn resolve(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<ActorId>> {
        self.shared.registry.resolve(pattern, space)
    }

    /// Resolves a pattern to matching spaces (§5.3: pattern-based
    /// actorSpace specification).
    pub fn resolve_spaces(&self, pattern: &Pattern, space: SpaceId) -> Result<Vec<SpaceId>> {
        self.shared.registry.resolve_spaces(pattern, space)
    }

    /// Replaces a space's policy table. Requires `Rights::MANAGE`.
    pub fn set_space_policy(
        &self,
        space: SpaceId,
        policy: ManagerPolicy,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared.registry.set_space_policy(space, policy, cap)
    }

    /// Installs a custom manager on a space. Requires `Rights::MANAGE`.
    pub fn set_space_manager(
        &self,
        space: SpaceId,
        manager: Box<dyn actorspace_core::Manager>,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared.registry.set_space_manager(space, manager, cap)
    }

    /// Cancels persistent broadcasts on a space.
    pub fn cancel_persistent(&self, space: SpaceId, cap: Option<&Capability>) -> Result<usize> {
        self.shared.registry.cancel_persistent(space, cap)
    }

    /// Installs (or clears) a custom matching rule on a space (§5
    /// matching-rule customization). Requires `Rights::MANAGE`.
    pub fn set_match_filter(
        &self,
        space: SpaceId,
        filter: Option<actorspace_core::MatchFilter>,
        cap: Option<&Capability>,
    ) -> Result<()> {
        self.shared.registry.set_match_filter(space, filter, cap)
    }

    /// Reports an actor's load for least-loaded arbitration in `space`.
    pub fn report_load(&self, space: SpaceId, actor: ActorId, load: u64) -> Result<()> {
        self.shared.registry.report_load(space, actor, load)
    }

    /// Observability snapshot of one space.
    pub fn space_info(&self, space: SpaceId) -> Result<actorspace_core::SpaceInfo> {
        self.shared.registry.space_info(space)
    }

    /// Ids of all live spaces (including the root), ascending.
    pub fn space_ids(&self) -> Vec<SpaceId> {
        self.shared.registry.space_ids()
    }

    /// Runs a garbage collection pass (§5.5). The runtime cannot see inside
    /// behaviors, so callers supply the acquaintance map (or none, to
    /// collect purely by visibility/handle reachability). Stopped actors'
    /// cells are removed along with their registry records.
    pub fn collect_garbage(&self, acquaintances: &dyn Fn(ActorId) -> Vec<MemberId>) -> GcReport {
        let report = self.shared.registry.collect_garbage(acquaintances);
        let mut actors = self.shared.actors.write();
        for a in &report.collected_actors {
            actors.remove(a);
        }
        report
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Blocks until no messages are queued or being processed, or the
    /// timeout elapses. Returns true on quiescence.
    pub fn await_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.shared.idle_lock.lock();
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.shared.idle_cv.wait_for(&mut g, deadline - now);
        }
        true
    }

    /// Counters snapshot. Counter values come from the node's observer, so
    /// under a shared cluster observer they are cumulative across restarts
    /// of this node (the registry-derived `actors`/`spaces` and the queue
    /// gauge `pending` remain per-incarnation by nature).
    pub fn stats(&self) -> Stats {
        Stats {
            pending: self.shared.pending.load(Ordering::Acquire),
            dead_letters: self.shared.dead_letters.get() as usize,
            actors: self.shared.registry.actor_count(),
            spaces: self.shared.registry.space_count(),
            suspicions: self.shared.suspicions.get() as usize,
            failovers: self.shared.failovers.get() as usize,
            re_registrations: self.shared.re_registrations.get() as usize,
        }
    }

    /// The observer receiving this system's metrics, traces, and dead
    /// letters.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.shared.obs
    }

    /// The node label stamped on this system's telemetry.
    pub fn node_label(&self) -> u16 {
        self.shared.node
    }

    /// Records that this node's failure detector declared a peer failed.
    pub fn note_suspicion(&self) {
        self.shared.suspicions.inc();
    }

    /// Records one message re-routed to a survivor after a node failure.
    pub fn note_failover(&self) {
        self.shared.failovers.inc();
    }

    /// Records a node re-registration (restart) observed via the directory.
    pub fn note_reregistration(&self) {
        self.shared.re_registrations.inc();
    }

    /// Records a message that could not be failed over (no route).
    pub fn note_dead_letter(&self) {
        self.shared
            .note_dead_letter(DeadLetterReason::Undeliverable, None, TraceId::NONE);
    }

    /// Records a dead letter with its reason, destination, and trace —
    /// the cluster layer's crash/harvest paths use this so the drop shows
    /// up in the last-N ring and terminates the message's trace.
    pub fn note_dead_letter_traced(
        &self,
        reason: DeadLetterReason,
        to: Option<ActorId>,
        trace: TraceId,
    ) {
        self.shared.note_dead_letter(reason, to, trace);
    }

    /// Installs the non-local delivery fallback (§7.2 transport selection).
    pub fn set_uplink(&self, transport: Arc<dyn Transport>) {
        *self.shared.uplink.write() = Some(transport);
    }

    /// Installs the coordinator hook rerouting state-changing primitives
    /// through the cluster bus (§7.3).
    pub fn set_coordinator_hook(&self, hook: Arc<dyn crate::hook::CoordinatorHook>) {
        *self.shared.hook.write() = Some(hook);
    }

    /// Installs a behavior cell without registry record or start signal —
    /// the cluster layer's creation path (see
    /// [`hook::CoordinatorHook::create_actor`](crate::hook::CoordinatorHook::create_actor)).
    pub fn install_cell(&self, id: ActorId, behavior: impl Behavior) {
        self.shared.install_cell(id, Box::new(behavior));
    }

    /// [`ActorSystem::install_cell`] for an already-boxed behavior.
    pub fn install_cell_boxed(&self, id: ActorId, behavior: crate::actor::BoxBehavior) {
        self.shared.install_cell(id, behavior);
    }

    /// Schedules the start signal for a previously installed cell.
    pub fn send_start(&self, id: ActorId) {
        self.shared.send_start(id);
    }

    /// Delivers a message arriving from another node to a local actor.
    pub fn deliver_remote(&self, to: ActorId, msg: Message) -> bool {
        self.shared.deliver(Envelope::user(to, msg))
    }

    /// [`ActorSystem::deliver_remote`] preserving the originating pattern
    /// resolution, so the message stays re-routable if this node dies with
    /// it still queued.
    pub fn deliver_remote_routed(&self, to: ActorId, msg: Message, route: Option<Route>) -> bool {
        self.shared.deliver(Envelope::user_routed(to, msg, route))
    }

    /// Re-resolves a previously routed message against the current registry
    /// state — the failover path after its original recipient died. The
    /// space's unmatched policy applies as for a fresh `send`, but the
    /// message's existing lifecycle trace is continued rather than a new
    /// one being started.
    pub fn resend_routed(&self, route: &Route, msg: Message) -> Result<Disposition> {
        self.shared
            .with_registry(|reg, sink| reg.resend(route, msg, sink))
    }

    /// Whether this node currently hosts a behavior cell for `id`.
    pub fn has_actor(&self, id: ActorId) -> bool {
        self.shared.actors.read().contains_key(&id)
    }

    /// Empties every local mailbox, returning the user messages that were
    /// accepted but never processed, with the pattern resolution that
    /// produced each (when there was one). Called on a crashed node after
    /// its workers have stopped; the cluster re-routes the routed ones and
    /// dead-letters the rest. Non-user payloads (starts, behaviors) are
    /// dropped — they die with the actor.
    pub fn drain_unprocessed(&self) -> Vec<(Option<Route>, Message)> {
        let cells: Vec<Arc<ActorCell>> = self.shared.actors.read().values().cloned().collect();
        let mut out = Vec::new();
        for cell in cells {
            for (payload, route) in cell.mailbox.drain() {
                self.shared.dec_pending();
                if let Payload::User(msg) = payload {
                    out.push((route, msg));
                }
            }
        }
        out
    }

    /// Direct registry access for the cluster layer (replica application).
    /// The closure receives the registry and a delivery sink.
    pub fn with_registry<R>(
        &self,
        f: impl FnOnce(&ShardedRegistry<Message>, &mut dyn FnMut(ActorId, Message, Option<&Route>)) -> R,
    ) -> R {
        self.shared.with_registry(f)
    }

    /// Stops all workers. Queued messages may be dropped. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep_lock.lock();
            self.shared.sleep_cv.notify_all();
        }
        let mut workers = self.workers.lock();
        for h in workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ActorSystem {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An external handle to a spawned actor. The actor is a GC root while the
/// handle lives; dropping the handle lets [`ActorSystem::collect_garbage`]
/// reclaim the actor once nothing else reaches it.
pub struct ActorHandle {
    id: ActorId,
    shared: Arc<Shared>,
}

impl ActorHandle {
    /// The actor's mail address.
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// Point-to-point send to this actor.
    pub fn send(&self, body: Value) -> bool {
        self.shared
            .deliver(Envelope::user(self.id, Message::new(body)))
    }

    /// Keeps the actor rooted forever and discards the handle.
    pub fn leak(self) -> ActorId {
        let id = self.id;
        std::mem::forget(self);
        id
    }
}

impl std::fmt::Debug for ActorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ActorHandle({})", self.id)
    }
}

impl Drop for ActorHandle {
    fn drop(&mut self) {
        self.shared.registry.remove_root(self.id);
    }
}
