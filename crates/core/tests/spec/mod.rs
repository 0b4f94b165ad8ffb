//! A naive executable specification of the ActorSpace coordinator, for
//! differential testing only: the most direct reading of the paper's
//! rules. One `HashMap` of spaces, each with its members and their
//! attributes (§5.4), its recipient selector, its suspended messages and
//! its persistent broadcasts (§5.6). No reverse-visibility table, no
//! literal index, no fast path, no lock. Resolution enumerates every
//! joined attribute path (§7.1) and asks [`Pattern::matches`] about each.
//!
//! Only value types come from `actorspace_core`, never its coordinator,
//! `Space` or matching code, so a disagreement with `ShardedRegistry` is a
//! real finding about one of the two. Every entry point acts without a
//! capability; managers and match filters are not modelled.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use actorspace_atoms::Path;
use actorspace_capability::{Guard, Rights};
use actorspace_core::policy::{CyclePolicy, ManagerPolicy, Selector, UnmatchedPolicy};
use actorspace_core::{
    ActorId, DeliveryKind, Disposition, Error, GcReport, IdGen, MemberId, Result, SpaceId,
    SpaceInfo, ROOT_SPACE,
};
use actorspace_pattern::Pattern;

/// Deliveries made by one operation, in the order the spec made them.
pub type Out<M> = Vec<(ActorId, M)>;

/// A message suspended because its pattern matched nothing (§5.6).
struct Parked<M> {
    pattern: Pattern,
    msg: M,
    broadcast: bool,
}

/// A persistent broadcast and the actors that already received it (§5.6).
struct Persistent<M> {
    pattern: Pattern,
    msg: M,
    delivered: BTreeSet<ActorId>,
}

/// One actorSpace.
struct SpecSpace<M> {
    guard: Guard,
    /// Each visible member with its attributes as viewed by this space.
    members: HashMap<MemberId, Vec<Path>>,
    selector: Selector,
    /// Suspended messages, oldest first: retries draw the selector in order.
    pending: Vec<Parked<M>>,
    persistent: Vec<Persistent<M>>,
}

/// The whole ActorSpace universe of one node.
pub struct Spec<M> {
    ids: IdGen,
    /// Every space takes its policy from this one template.
    policy: ManagerPolicy,
    spaces: HashMap<SpaceId, SpecSpace<M>>,
    actors: BTreeMap<ActorId, Guard>,
    /// GC roots. Ids are never reused, so a dead root is simply skipped.
    roots: BTreeSet<ActorId>,
}

impl<M: Clone + Ord> Spec<M> {
    /// A universe holding only the root space (§7.1).
    pub fn new(policy: ManagerPolicy) -> Spec<M> {
        let mut spec = Spec {
            ids: IdGen::default(),
            policy,
            spaces: HashMap::new(),
            actors: BTreeMap::new(),
            roots: BTreeSet::new(),
        };
        spec.insert_space(ROOT_SPACE);
        spec
    }

    fn insert_space(&mut self, id: SpaceId) {
        let selector = Selector::new(self.policy.selection.clone(), self.policy.selection_seed);
        let space = SpecSpace {
            guard: Guard::Open,
            members: HashMap::new(),
            selector,
            pending: Vec::new(),
            persistent: Vec::new(),
        };
        self.spaces.insert(id, space);
    }

    fn space_mut(&mut self, id: SpaceId) -> Result<&mut SpecSpace<M>> {
        self.spaces.get_mut(&id).ok_or(Error::NoSuchSpace(id))
    }

    /// `create_actorSpace()` (§5.2).
    pub fn create_space(&mut self) -> SpaceId {
        let id = self.ids.next_space();
        self.insert_space(id);
        id
    }

    /// Creates an actor hosted in `host`, visible nowhere (§5.4).
    pub fn create_actor(&mut self, host: SpaceId) -> Result<ActorId> {
        if !self.spaces.contains_key(&host) {
            return Err(Error::NoSuchSpace(host));
        }
        let id = self.ids.next_actor();
        self.actors.insert(id, Guard::Open);
        Ok(id)
    }

    /// Marks an actor as externally referenced (a GC root).
    pub fn add_root(&mut self, actor: ActorId) {
        self.roots.insert(actor);
    }

    /// The member must exist, and its guard must admit `rights`.
    fn check_member(&self, member: MemberId, rights: Rights) -> Result<()> {
        let guard = match member {
            MemberId::Actor(a) => self.actors.get(&a).ok_or(Error::NoSuchActor(a))?,
            MemberId::Space(s) => &self.spaces.get(&s).ok_or(Error::NoSuchSpace(s))?.guard,
        };
        Ok(guard.check(None, rights)?)
    }

    /// Can a resolution scoped to `from` descend into `to`? True when
    /// `from == to`.
    fn reaches(&self, from: SpaceId, to: SpaceId) -> bool {
        let mut seen = HashSet::new();
        let mut stack = vec![from];
        while let Some(s) = stack.pop() {
            if s == to {
                return true;
            }
            if seen.insert(s) {
                if let Some(sp) = self.spaces.get(&s) {
                    stack.extend(sp.members.keys().filter_map(|m| m.as_space()));
                }
            }
        }
        false
    }

    /// `make_visible(member, attrs @ space)` (§5.4), refusing cycles
    /// (§5.7), then retrying every queue that can now see more.
    pub fn make_visible(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Out<M>,
    ) -> Result<()> {
        self.check_member(member, Rights::VISIBILITY)?;
        if !self.spaces.contains_key(&space) {
            return Err(Error::NoSuchSpace(space));
        }
        if let MemberId::Space(child) = member {
            if self.policy.cycles == CyclePolicy::Forbid && self.reaches(child, space) {
                return Err(Error::WouldCycle {
                    child,
                    parent: space,
                });
            }
        }
        let list = self.space_mut(space)?.members.entry(member).or_default();
        for a in attrs {
            if !list.contains(&a) {
                list.push(a);
            }
        }
        self.wake(space, out);
        Ok(())
    }

    /// `make_invisible(member, space)` (§5.4).
    pub fn make_invisible(&mut self, member: MemberId, space: SpaceId) -> Result<()> {
        self.check_member(member, Rights::VISIBILITY)?;
        match self.space_mut(space)?.members.remove(&member) {
            Some(_) => Ok(()),
            None => Err(Error::NotVisible { member, space }),
        }
    }

    /// `change_attributes(member, attrs @ space)` (§5.4).
    pub fn change_attributes(
        &mut self,
        member: MemberId,
        attrs: Vec<Path>,
        space: SpaceId,
        out: &mut Out<M>,
    ) -> Result<()> {
        self.check_member(member, Rights::ATTRIBUTES)?;
        let list = self
            .space_mut(space)?
            .members
            .get_mut(&member)
            .ok_or(Error::NotVisible { member, space })?;
        *list = attrs;
        self.wake(space, out);
        Ok(())
    }

    /// Destroys a space (§7.1); its members survive, its queues do not.
    pub fn destroy_space(&mut self, id: SpaceId) -> Result<()> {
        if id == ROOT_SPACE {
            return Err(Error::RootImmortal);
        }
        self.space_mut(id)?.guard.check(None, Rights::MANAGE)?;
        self.spaces.remove(&id);
        self.unlink(id.into());
        Ok(())
    }

    /// Removes `m` from every space it is visible in.
    fn unlink(&mut self, m: MemberId) {
        for sp in self.spaces.values_mut() {
            sp.members.remove(&m);
        }
    }

    /// `send(pattern@scope, msg)` (§5.3): one recipient chosen by the
    /// scope's selector, else the unmatched-send policy (§5.6).
    pub fn send(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: M,
        out: &mut Out<M>,
    ) -> Result<Disposition> {
        let candidates = self.resolve(pattern, scope)?;
        if !candidates.is_empty() {
            let pick = self.space_mut(scope)?.selector.select(&candidates);
            out.push((pick, msg));
            return Ok(Disposition::Delivered(1));
        }
        self.unmatched(pattern, scope, msg, false, self.policy.unmatched_send)
    }

    /// `broadcast(pattern@scope, msg)` (§5.3): every match, and under the
    /// persistent policy every future match exactly once (§5.6).
    pub fn broadcast(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: M,
        out: &mut Out<M>,
    ) -> Result<Disposition> {
        let candidates = self.resolve(pattern, scope)?;
        for &c in &candidates {
            out.push((c, msg.clone()));
        }
        let n = candidates.len();
        if self.policy.unmatched_broadcast == UnmatchedPolicy::Persistent {
            self.space_mut(scope)?.persistent.push(Persistent {
                pattern: pattern.clone(),
                msg,
                delivered: candidates.into_iter().collect(),
            });
            return Ok(Disposition::Persistent(n));
        }
        if n > 0 {
            return Ok(Disposition::Delivered(n));
        }
        self.unmatched(pattern, scope, msg, true, self.policy.unmatched_broadcast)
    }

    /// A failover resend of a routed message: to the model, a fresh send
    /// or broadcast of the same pattern in the same scope. Only its trace
    /// and the submit counters, which the spec does not model, differ.
    pub fn resend(
        &mut self,
        kind: DeliveryKind,
        pattern: &Pattern,
        scope: SpaceId,
        msg: M,
        out: &mut Out<M>,
    ) -> Result<Disposition> {
        match kind {
            DeliveryKind::Send => self.send(pattern, scope, msg, out),
            DeliveryKind::Broadcast => self.broadcast(pattern, scope, msg, out),
        }
    }

    /// What becomes of a message no visible actor matches (§5.6). A
    /// persistent *send* waits like a suspended one.
    fn unmatched(
        &mut self,
        pattern: &Pattern,
        scope: SpaceId,
        msg: M,
        broadcast: bool,
        policy: UnmatchedPolicy,
    ) -> Result<Disposition> {
        match policy {
            UnmatchedPolicy::Suspend | UnmatchedPolicy::Persistent => {
                self.space_mut(scope)?.pending.push(Parked {
                    pattern: pattern.clone(),
                    msg,
                    broadcast,
                });
                Ok(Disposition::Suspended)
            }
            UnmatchedPolicy::Discard => Ok(Disposition::Discarded),
            UnmatchedPolicy::Error => Err(Error::NoMatch {
                pattern: pattern.text().to_owned(),
                space: scope,
            }),
        }
    }

    /// Drops every persistent broadcast of `space`, returning how many.
    pub fn cancel_persistent(&mut self, space: SpaceId) -> Result<usize> {
        let sp = self.space_mut(space)?;
        sp.guard.check(None, Rights::MANAGE)?;
        Ok(std::mem::take(&mut sp.persistent).len())
    }

    /// After `changed` gained a member or attribute, retries the queues of
    /// every space whose resolutions can descend into it.
    fn wake(&mut self, changed: SpaceId, out: &mut Out<M>) {
        let watchers: Vec<SpaceId> = self
            .spaces
            .keys()
            .copied()
            .filter(|&s| self.reaches(s, changed))
            .collect();
        for s in watchers {
            self.retry(s, out);
        }
    }

    fn retry(&mut self, s: SpaceId, out: &mut Out<M>) {
        let pending = std::mem::take(&mut self.spaces.get_mut(&s).expect("live").pending);
        for p in pending {
            let candidates = self.resolve(&p.pattern, s).unwrap_or_default();
            let sp = self.spaces.get_mut(&s).expect("live");
            if candidates.is_empty() {
                sp.pending.push(p);
            } else if p.broadcast {
                out.extend(candidates.into_iter().map(|c| (c, p.msg.clone())));
            } else {
                out.push((sp.selector.select(&candidates), p.msg));
            }
        }
        let mut persistent = std::mem::take(&mut self.spaces.get_mut(&s).expect("live").persistent);
        for pb in &mut persistent {
            for c in self.resolve(&pb.pattern, s).unwrap_or_default() {
                if pb.delivered.insert(c) {
                    out.push((c, pb.msg.clone()));
                }
            }
        }
        self.spaces.get_mut(&s).expect("live").persistent = persistent;
    }

    /// The actors `pattern` matches from `scope`, sorted: every actor with
    /// some attribute path, joined through visible sub-spaces no deeper
    /// than `max_match_depth`, that the pattern accepts.
    pub fn resolve(&self, pattern: &Pattern, scope: SpaceId) -> Result<Vec<ActorId>> {
        if !self.spaces.contains_key(&scope) {
            return Err(Error::NoSuchSpace(scope));
        }
        let (mut paths, depth) = (Vec::new(), self.policy.max_match_depth);
        self.joined_paths(scope, &Path::empty(), depth, &mut paths);
        let hits: BTreeSet<ActorId> = paths
            .into_iter()
            .filter(|(_, p)| pattern.matches(p))
            .map(|(a, _)| a)
            .collect();
        Ok(hits.into_iter().collect())
    }

    fn joined_paths(
        &self,
        space: SpaceId,
        prefix: &Path,
        depth: usize,
        out: &mut Vec<(ActorId, Path)>,
    ) {
        let Some(sp) = self.spaces.get(&space) else {
            return;
        };
        for (member, attrs) in &sp.members {
            for a in attrs {
                let full = prefix.join(a);
                match *member {
                    MemberId::Actor(id) => out.push((id, full)),
                    MemberId::Space(sub) if depth > 0 => {
                        self.joined_paths(sub, &full, depth - 1, out)
                    }
                    MemberId::Space(_) => {}
                }
            }
        }
    }

    /// Mark/sweep from the root space and the rooted actors (§5.5): a live
    /// space keeps its visible members alive; actors know no one here.
    pub fn collect_garbage(&mut self) -> GcReport {
        let mut live: HashSet<MemberId> = HashSet::new();
        let mut work = vec![MemberId::Space(ROOT_SPACE)];
        work.extend(self.roots.iter().map(|&a| MemberId::Actor(a)));
        while let Some(m) = work.pop() {
            let exists = match m {
                MemberId::Actor(a) => self.actors.contains_key(&a),
                MemberId::Space(s) => self.spaces.contains_key(&s),
            };
            if exists && live.insert(m) {
                if let MemberId::Space(s) = m {
                    work.extend(self.spaces[&s].members.keys().copied());
                }
            }
        }
        let collected_spaces: Vec<SpaceId> = self
            .space_ids()
            .into_iter()
            .filter(|&s| !live.contains(&MemberId::Space(s)))
            .collect();
        let collected_actors: Vec<ActorId> = self
            .actor_ids()
            .into_iter()
            .filter(|&a| !live.contains(&MemberId::Actor(a)))
            .collect();
        for &s in &collected_spaces {
            self.spaces.remove(&s);
            self.unlink(s.into());
        }
        for &a in &collected_actors {
            self.actors.remove(&a);
            self.unlink(a.into());
        }
        GcReport {
            collected_actors,
            collected_spaces,
            live_actors: self.actors.len(),
            live_spaces: self.spaces.len(),
        }
    }

    /// Live space ids, sorted.
    pub fn space_ids(&self) -> Vec<SpaceId> {
        let mut v: Vec<SpaceId> = self.spaces.keys().copied().collect();
        v.sort();
        v
    }

    /// Live actor ids, sorted.
    pub fn actor_ids(&self) -> Vec<ActorId> {
        self.actors.keys().copied().collect()
    }

    /// The spaces `member` is directly visible in, sorted.
    pub fn containers_of(&self, member: MemberId) -> Vec<SpaceId> {
        let mut v: Vec<SpaceId> = self
            .spaces
            .iter()
            .filter(|(_, sp)| sp.members.contains_key(&member))
            .map(|(&id, _)| id)
            .collect();
        v.sort();
        v
    }

    /// The observability snapshot of one space.
    pub fn space_info(&self, id: SpaceId) -> Option<SpaceInfo> {
        let sp = self.spaces.get(&id)?;
        let actor_members = sp.members.keys().filter(|m| m.as_actor().is_some()).count();
        Some(SpaceInfo {
            id,
            actor_members,
            space_members: sp.members.len() - actor_members,
            pending_messages: sp.pending.len(),
            persistent_broadcasts: sp.persistent.len(),
            guarded: !sp.guard.is_open(),
        })
    }

    /// Suspended messages of a space as sorted (pattern text, payload,
    /// is-broadcast) triples.
    pub fn pending_set(&self, id: SpaceId) -> Vec<(String, M, bool)> {
        let mut v: Vec<(String, M, bool)> = self.spaces.get(&id).map_or(Vec::new(), |sp| {
            sp.pending
                .iter()
                .map(|p| (p.pattern.text().to_owned(), p.msg.clone(), p.broadcast))
                .collect()
        });
        v.sort();
        v
    }

    /// Persistent broadcasts of a space as sorted (pattern text, payload,
    /// delivered-to) triples.
    pub fn persistent_set(&self, id: SpaceId) -> Vec<(String, M, Vec<ActorId>)> {
        let mut v: Vec<(String, M, Vec<ActorId>)> = self.spaces.get(&id).map_or(Vec::new(), |sp| {
            sp.persistent
                .iter()
                .map(|pb| {
                    let delivered = pb.delivered.iter().copied().collect();
                    (pb.pattern.text().to_owned(), pb.msg.clone(), delivered)
                })
                .collect()
        });
        v.sort();
        v
    }

    /// Is the space-in-space visibility relation acyclic (§5.7)?
    pub fn is_dag(&self) -> bool {
        self.spaces.iter().all(|(&s, sp)| {
            sp.members
                .keys()
                .filter_map(|m| m.as_space())
                .all(|sub| !self.reaches(sub, s))
        })
    }
}
