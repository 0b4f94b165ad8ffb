//! Garbage collection of actors and actorSpaces (§5.5).
//!
//! "As long as an actor (or actorSpace) is visible in an actorSpace, it may
//! be potentially reachable and thus cannot be garbage collected until the
//! container actorSpace has been garbage collected. … when an actorSpace is
//! garbage collected, the actors contained in that actorSpace themselves
//! are not deleted. … since actorSpaces are viewed as passive containers,
//! garbage collecting them is simpler than actors: inverse reachability
//! need not be considered."
//!
//! The collector is a stop-the-world mark/sweep over two kinds of edges:
//!
//! * **space → member**: a live space keeps its visible members
//!   potentially-reachable (a pattern can still select them);
//! * **actor → acquaintance**: a live actor keeps alive every mail address
//!   it knows. The coordinator cannot see inside behaviors, so the runtime
//!   supplies acquaintances through a callback.
//!
//! Roots are the automatically-created root space (globally visible, §7.1)
//! and actors with live external handles. The pass itself is
//! [`ShardedRegistry::collect_garbage`](crate::ShardedRegistry::collect_garbage).

use crate::ids::{ActorId, SpaceId};

/// What a collection pass found and freed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcReport {
    /// Actors freed this pass (sorted).
    pub collected_actors: Vec<ActorId>,
    /// Spaces freed this pass (sorted).
    pub collected_spaces: Vec<SpaceId>,
    /// Actors surviving.
    pub live_actors: usize,
    /// Spaces surviving (including the root).
    pub live_spaces: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{MemberId, ROOT_SPACE};
    use crate::policy::ManagerPolicy;
    use crate::shard::ShardedRegistry;
    use actorspace_atoms::path;

    type Reg = ShardedRegistry<u32>;

    fn reg() -> Reg {
        ShardedRegistry::new(ManagerPolicy::default())
    }

    fn no_acq(_: ActorId) -> Vec<MemberId> {
        Vec::new()
    }

    fn sink() -> impl FnMut(ActorId, u32, Option<&crate::delivery::Route>) {
        |_, _, _| {}
    }

    #[test]
    fn unreferenced_invisible_actor_is_collected() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let report = r.collect_garbage(&no_acq);
        assert_eq!(report.collected_actors, vec![a]);
        assert!(!r.actor_exists(a));
    }

    #[test]
    fn rooted_actor_survives() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        r.add_root(a);
        let report = r.collect_garbage(&no_acq);
        assert!(report.collected_actors.is_empty());
        assert!(r.actor_exists(a));
        // Dropping the handle frees it on the next pass.
        r.remove_root(a);
        let report = r.collect_garbage(&no_acq);
        assert_eq!(report.collected_actors, vec![a]);
    }

    #[test]
    fn visible_actor_in_reachable_space_survives() {
        // §5.5: visibility implies potential reachability.
        let r = reg();
        let s = r.create_space(None);
        let holder = r.create_actor(s, None).unwrap();
        r.add_root(holder);
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        // `holder` knows the space; the space keeps `a` alive.
        let acq = move |x: ActorId| {
            if x == holder {
                vec![MemberId::Space(s)]
            } else {
                Vec::new()
            }
        };
        let report = r.collect_garbage(&acq);
        assert!(report.collected_actors.is_empty());
        assert!(r.actor_exists(a));
        assert!(r.space_exists(s));
    }

    #[test]
    fn actor_visible_only_in_dead_space_is_collected_with_it() {
        let r = reg();
        let s = r.create_space(None); // nobody references s
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        let report = r.collect_garbage(&no_acq);
        assert_eq!(report.collected_spaces, vec![s]);
        assert_eq!(report.collected_actors, vec![a]);
    }

    #[test]
    fn actor_in_root_space_survives_forever() {
        let r = reg();
        let a = r.create_actor(ROOT_SPACE, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], ROOT_SPACE, None, &mut k)
            .unwrap();
        let report = r.collect_garbage(&no_acq);
        assert!(report.collected_actors.is_empty());
        assert!(r.space_exists(ROOT_SPACE));
    }

    #[test]
    fn root_space_is_never_collected() {
        let r = reg();
        let report = r.collect_garbage(&no_acq);
        assert!(report.collected_spaces.is_empty());
        assert_eq!(report.live_spaces, 1);
    }

    #[test]
    fn acquaintance_chains_keep_actors_alive() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        let c = r.create_actor(s, None).unwrap();
        let dead = r.create_actor(s, None).unwrap();
        r.add_root(a);
        // a → b → c; `dead` is unreachable.
        let acq = move |x: ActorId| {
            if x == a {
                vec![MemberId::Actor(b)]
            } else if x == b {
                vec![MemberId::Actor(c)]
            } else {
                Vec::new()
            }
        };
        let report = r.collect_garbage(&acq);
        assert_eq!(report.collected_actors, vec![dead]);
        assert!(r.actor_exists(a) && r.actor_exists(b) && r.actor_exists(c));
    }

    #[test]
    fn space_reachable_only_through_nesting_survives() {
        // inner visible in outer; outer visible in root ⇒ both live.
        let r = reg();
        let outer = r.create_space(None);
        let inner = r.create_space(None);
        let mut k = sink();
        r.make_visible(inner.into(), vec![path("i")], outer, None, &mut k)
            .unwrap();
        r.make_visible(outer.into(), vec![path("o")], ROOT_SPACE, None, &mut k)
            .unwrap();
        let report = r.collect_garbage(&no_acq);
        assert!(report.collected_spaces.is_empty());
        assert!(r.space_exists(outer) && r.space_exists(inner));
    }

    #[test]
    fn collecting_space_does_not_collect_its_rooted_members() {
        // §5.5: "the actors contained in that actorSpace themselves are not
        // deleted" — when otherwise reachable.
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = sink();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.add_root(a);
        let report = r.collect_garbage(&no_acq);
        assert_eq!(report.collected_spaces, vec![s]);
        assert!(report.collected_actors.is_empty());
        assert!(r.actor_exists(a));
    }

    #[test]
    fn report_counts_are_consistent() {
        let r = reg();
        let s = r.create_space(None);
        for _ in 0..10 {
            r.create_actor(s, None).unwrap();
        }
        let keep = r.create_actor(s, None).unwrap();
        r.add_root(keep);
        let report = r.collect_garbage(&no_acq);
        assert_eq!(report.collected_actors.len(), 10);
        assert_eq!(report.live_actors, 1);
        assert_eq!(report.live_spaces, 1); // root only; s was unreachable
    }
}
