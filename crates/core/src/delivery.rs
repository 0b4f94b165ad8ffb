//! The communication primitives: `send` and `broadcast` (§5.3), plus the
//! suspended-message machinery of §5.6.
//!
//! * `send(pattern@space, msg)` — "a single target actor is
//!   non-deterministically chosen out of the group of potential receivers",
//!   giving automatic load balancing over replicated services.
//! * `broadcast(pattern@space, msg)` — "all of the actors whose attributes
//!   match the pattern receive the message."
//!
//! When a pattern matches nothing, the space's manager policy decides:
//! suspend until a matching actor appears (the paper's default), discard,
//! error, or — for broadcasts — persist with exactly-once delivery to every
//! future matching actor.
//!
//! [`ShardedRegistry::send`](crate::ShardedRegistry::send) and
//! [`ShardedRegistry::broadcast`](crate::ShardedRegistry::broadcast)
//! implement them; this module holds the types they share with callers.
//! Deliveries are emitted through a caller-supplied [`Sink`]; the
//! coordinator itself never touches mailboxes, which keeps ordering concerns
//! (deliberately unspecified for broadcasts, §5.3) in the runtime layer.

use actorspace_obs::TraceId;
use actorspace_pattern::Pattern;

use crate::ids::{ActorId, SpaceId};
use crate::space::DeliveryKind;

/// What became of a send/broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Delivered immediately to this many recipients (1 for `send`).
    Delivered(usize),
    /// No match; suspended until a matching actor appears (§5.6).
    Suspended,
    /// No match; dropped per policy.
    Discarded,
    /// Registered as a persistent broadcast; delivered immediately to this
    /// many current matches, and exactly once to each future match.
    Persistent(usize),
}

impl Disposition {
    /// Recipients reached immediately.
    pub fn delivered_now(&self) -> usize {
        match self {
            Disposition::Delivered(n) | Disposition::Persistent(n) => *n,
            _ => 0,
        }
    }
}

/// The pattern resolution that produced a delivery.
///
/// Every sink invocation that came from a `send`/`broadcast` (rather than a
/// point-to-point delivery) carries the originating pattern and space. A
/// distribution layer can use it to *re-resolve* the message when the chosen
/// recipient turns out to be unreachable — the failover path for node
/// crashes: pattern-addressed messages are retargetable by construction,
/// exactly because §5.3 never promised a particular recipient.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The destination pattern of the originating communication.
    pub pattern: Pattern,
    /// The space the pattern was resolved against.
    pub space: SpaceId,
    /// Send (re-resolvable to one new recipient) or broadcast (not
    /// re-resolvable: the surviving matches already have their copies).
    pub kind: DeliveryKind,
    /// Lifecycle trace of the originating communication
    /// ([`TraceId::NONE`] when unsampled). Rides with the message through
    /// routing, suspension, and failover so every later stage lands in the
    /// same trace.
    pub trace: TraceId,
}

/// A sink receiving `(recipient, message, route)` triples as the
/// coordinator decides deliveries. The runtime's sink enqueues into
/// mailboxes; tests collect into vectors. The [`Route`] is present for
/// pattern-resolved deliveries and lets distribution layers re-resolve a
/// message whose recipient has since become unreachable.
pub type Sink<'a, M> = &'a mut dyn FnMut(ActorId, M, Option<&Route>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::policy::{ManagerPolicy, SelectionPolicy, UnmatchedPolicy};
    use crate::shard::ShardedRegistry;
    use actorspace_atoms::path;
    use actorspace_pattern::pattern;

    type Reg = ShardedRegistry<&'static str>;

    fn reg() -> Reg {
        let p = ManagerPolicy {
            selection_seed: Some(7),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    fn reg_with(unmatched: UnmatchedPolicy) -> Reg {
        let p = ManagerPolicy {
            unmatched_send: unmatched,
            unmatched_broadcast: unmatched,
            selection_seed: Some(7),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    /// Collects deliveries into a vec for assertions.
    struct Collect(std::rc::Rc<std::cell::RefCell<Vec<(ActorId, &'static str)>>>);
    fn collector() -> (Collect, impl FnMut(ActorId, &'static str, Option<&Route>)) {
        let v = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let v2 = v.clone();
        (Collect(v), move |a, m, _| v2.borrow_mut().push((a, m)))
    }

    impl Collect {
        fn take(&self) -> Vec<(ActorId, &'static str)> {
            std::mem::take(&mut self.0.borrow_mut())
        }
        fn len(&self) -> usize {
            self.0.borrow().len()
        }
    }

    fn setup_workers(r: &Reg, n: usize) -> (SpaceId, Vec<ActorId>) {
        let s = r.create_space(None);
        let mut workers = Vec::new();
        let mut k = |_: ActorId, _: &'static str, _: Option<&Route>| {};
        for _ in 0..n {
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(a.into(), vec![path("worker")], s, None, &mut k)
                .unwrap();
            workers.push(a);
        }
        (s, workers)
    }

    #[test]
    fn send_reaches_exactly_one_matching_actor() {
        let r = reg();
        let (s, workers) = setup_workers(&r, 4);
        let (got, mut sink) = collector();
        let d = r.send(&pattern("worker"), s, "job", &mut sink).unwrap();
        assert_eq!(d, Disposition::Delivered(1));
        let deliveries = got.take();
        assert_eq!(deliveries.len(), 1);
        assert!(workers.contains(&deliveries[0].0));
        assert_eq!(deliveries[0].1, "job");
    }

    #[test]
    fn send_balances_load_across_replicas() {
        // §5.3: "the load may be balanced automatically by an
        // implementation, and none of the clients need to know the exact
        // number of potential receivers."
        let r = reg();
        let (s, workers) = setup_workers(&r, 4);
        let mut counts: std::collections::HashMap<ActorId, u32> = Default::default();
        for _ in 0..400 {
            let (got, mut sink) = collector();
            r.send(&pattern("worker"), s, "j", &mut sink).unwrap();
            for (a, _) in got.take() {
                *counts.entry(a).or_insert(0) += 1;
            }
        }
        assert_eq!(
            counts.len(),
            workers.len(),
            "every replica should be exercised"
        );
        for (_, c) in counts {
            assert!((40..200).contains(&c), "grossly unbalanced: {c}");
        }
    }

    #[test]
    fn broadcast_reaches_all_matching_actors() {
        let r = reg();
        let (s, workers) = setup_workers(&r, 8);
        let (got, mut sink) = collector();
        let d = r
            .broadcast(&pattern("worker"), s, "bound=17", &mut sink)
            .unwrap();
        assert_eq!(d, Disposition::Delivered(8));
        let mut who: Vec<ActorId> = got.take().into_iter().map(|(a, _)| a).collect();
        who.sort_unstable();
        let mut want = workers.clone();
        want.sort_unstable();
        assert_eq!(who, want);
    }

    #[test]
    fn broadcast_respects_pattern() {
        let r = reg();
        let s = r.create_space(None);
        let mut k = |_: ActorId, _: &'static str, _: Option<&Route>| {};
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("srv/fib")], s, None, &mut k)
            .unwrap();
        r.make_visible(b.into(), vec![path("cli/fib")], s, None, &mut k)
            .unwrap();
        let (got, mut sink) = collector();
        r.broadcast(&pattern("srv/**"), s, "x", &mut sink).unwrap();
        assert_eq!(got.take(), vec![(a, "x")]);
    }

    #[test]
    fn suspended_broadcast_wakes_to_all_present_matches() {
        let r = reg();
        let s = r.create_space(None);
        let (got, mut sink) = collector();
        r.broadcast(&pattern("w/*"), s, "b", &mut sink).unwrap();
        assert_eq!(got.len(), 0);
        // Two actors arrive before the wake trigger... the first
        // make_visible wakes the broadcast with only one present.
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("w/1")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.take(), vec![(a, "b")]);
        // Later arrivals do NOT receive the already-released broadcast.
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(b.into(), vec![path("w/2")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn attribute_change_can_wake_suspended_message() {
        let r = reg();
        let s = r.create_space(None);
        let a = r.create_actor(s, None).unwrap();
        let mut k = |_: ActorId, _: &'static str, _: Option<&Route>| {};
        r.make_visible(a.into(), vec![path("idle")], s, None, &mut k)
            .unwrap();
        let (got, mut sink) = collector();
        r.send(&pattern("ready"), s, "m", &mut sink).unwrap();
        assert_eq!(got.len(), 0);
        r.change_attributes(a.into(), vec![path("ready")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.take(), vec![(a, "m")]);
    }

    #[test]
    fn discard_policy_drops() {
        let r = reg_with(UnmatchedPolicy::Discard);
        let s = r.create_space(None);
        let (got, mut sink) = collector();
        assert_eq!(
            r.send(&pattern("none"), s, "x", &mut sink).unwrap(),
            Disposition::Discarded
        );
        assert_eq!(
            r.broadcast(&pattern("none"), s, "x", &mut sink).unwrap(),
            Disposition::Discarded
        );
        assert_eq!(got.len(), 0);
        assert!(r.space_info(s).unwrap().pending_messages == 0);
    }

    #[test]
    fn error_policy_reports_no_match() {
        let r = reg_with(UnmatchedPolicy::Error);
        let s = r.create_space(None);
        let (_, mut sink) = collector();
        assert!(matches!(
            r.send(&pattern("none"), s, "x", &mut sink),
            Err(Error::NoMatch { .. })
        ));
        assert!(matches!(
            r.broadcast(&pattern("none"), s, "x", &mut sink),
            Err(Error::NoMatch { .. })
        ));
    }

    #[test]
    fn persistent_broadcast_delivers_exactly_once_to_every_future_match() {
        // §5.6: "broadcasting could be persistent, so that any actor
        // (existing or created in the future) whose attributes match the
        // pattern will receive the broadcast message exactly once."
        let r = reg_with(UnmatchedPolicy::Persistent);
        let s = r.create_space(None);
        let mut k = |_: ActorId, _: &'static str, _: Option<&Route>| {};
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("node")], s, None, &mut k)
            .unwrap();

        let (got, mut sink) = collector();
        let d = r
            .broadcast(&pattern("node"), s, "protocol-v2", &mut sink)
            .unwrap();
        assert_eq!(d, Disposition::Persistent(1));
        assert_eq!(got.take(), vec![(a, "protocol-v2")]);

        // A future arrival gets it exactly once.
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(b.into(), vec![path("node")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.take(), vec![(b, "protocol-v2")]);

        // Repeated attribute churn does not re-deliver.
        r.change_attributes(b.into(), vec![path("node")], s, None, &mut sink)
            .unwrap();
        r.change_attributes(a.into(), vec![path("node")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.len(), 0);

        // An actor leaving and re-arriving still does not get a duplicate.
        r.make_invisible(a.into(), s, None).unwrap();
        r.make_visible(a.into(), vec![path("node")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn cancel_persistent_stops_future_deliveries() {
        let r = reg_with(UnmatchedPolicy::Persistent);
        let s = r.create_space(None);
        let (got, mut sink) = collector();
        r.broadcast(&pattern("node"), s, "hello", &mut sink)
            .unwrap();
        assert_eq!(r.cancel_persistent(s, None).unwrap(), 1);
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("node")], s, None, &mut sink)
            .unwrap();
        assert_eq!(got.len(), 0);
    }

    #[test]
    fn round_robin_selection_policy() {
        let p = ManagerPolicy {
            selection: SelectionPolicy::RoundRobin,
            ..Default::default()
        };
        let r: Reg = ShardedRegistry::new(p);
        let (s, mut workers) = {
            let s = r.create_space(None);
            let mut v = Vec::new();
            let mut k = |_: ActorId, _: &'static str, _: Option<&Route>| {};
            for _ in 0..3 {
                let a = r.create_actor(s, None).unwrap();
                r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
                    .unwrap();
                v.push(a);
            }
            (s, v)
        };
        workers.sort_unstable();
        let mut picks = Vec::new();
        for _ in 0..6 {
            let (got, mut sink) = collector();
            r.send(&pattern("w"), s, "j", &mut sink).unwrap();
            picks.push(got.take()[0].0);
        }
        assert_eq!(picks[0..3], workers[..]);
        assert_eq!(picks[3..6], workers[..]);
    }

    #[test]
    fn custom_manager_arbitration_wins() {
        use crate::manager::Manager;
        struct AlwaysMax;
        impl Manager for AlwaysMax {
            fn choose(&mut self, c: &[ActorId]) -> Option<ActorId> {
                c.iter().max().copied()
            }
        }
        let r = reg();
        let (s, workers) = setup_workers(&r, 5);
        r.set_space_manager(s, Box::new(AlwaysMax), None).unwrap();
        let top = *workers.iter().max().unwrap();
        for _ in 0..10 {
            let (got, mut sink) = collector();
            r.send(&pattern("worker"), s, "j", &mut sink).unwrap();
            assert_eq!(got.take()[0].0, top);
        }
    }

    #[test]
    fn send_to_missing_space_errors() {
        let r = reg();
        let (_, mut sink) = collector();
        assert!(matches!(
            r.send(&pattern("x"), SpaceId(404), "m", &mut sink),
            Err(Error::NoSuchSpace(_))
        ));
    }
}
