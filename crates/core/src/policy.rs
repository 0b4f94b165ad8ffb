//! Per-actorSpace manager policies.
//!
//! The paper deliberately leaves several semantic choices open and assigns
//! them to *customizable managers* (§5.6, §5.7, §8): what happens to a
//! message whose pattern matches no visible actor, and how one recipient is
//! chosen from a matching group. These enums are the concrete, swappable
//! policy knobs; the [`Manager`](crate::manager::Manager) trait allows
//! fully programmable replacements.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ids::ActorId;

/// What to do when a pattern matches no visible actor (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnmatchedPolicy {
    /// Suspend the message "until at least one actor appears whose
    /// attribute is matched by the pattern" — the paper's implementation
    /// choice: "the cheapest option that avoids repeated synchronization".
    #[default]
    Suspend,
    /// Drop the message silently.
    Discard,
    /// Treat the unmatched message as an error, "forcing additional
    /// synchronization".
    Error,
    /// For broadcasts: remember the message forever and deliver it to every
    /// actor — existing or created in the future — whose attributes match,
    /// exactly once. "The last case may be useful in enforcing a protocol
    /// or assuming some other common knowledge in a group." For sends this
    /// behaves like [`UnmatchedPolicy::Suspend`].
    Persistent,
}

/// How `send(pattern@space, msg)` picks one recipient out of the matching
/// group. The paper specifies a "non-deterministic" choice and proposes
/// experimenting with "arbitration mechanisms … instead of the current
/// indeterminate choice" (§8).
#[derive(Debug, Clone, Default)]
pub enum SelectionPolicy {
    /// Uniformly random — the default; gives the automatic load balancing
    /// of §5.3 ("the load may be balanced automatically by an
    /// implementation").
    #[default]
    Random,
    /// Cycle through recipients in address order.
    RoundRobin,
    /// Pick the recipient with the lowest reported load; ties broken by
    /// address. Loads are reported via [`Selector::set_load`].
    LeastLoaded,
}

/// The runtime state behind a [`SelectionPolicy`] (RNG, round-robin cursor,
/// load table). One per actorSpace.
#[derive(Debug)]
pub struct Selector {
    policy: SelectionPolicy,
    rng: SmallRng,
    cursor: usize,
    loads: std::collections::HashMap<ActorId, u64>,
}

impl Selector {
    /// Creates a selector. A deterministic seed may be supplied for
    /// reproducible tests; `None` seeds from the OS.
    pub fn new(policy: SelectionPolicy, seed: Option<u64>) -> Selector {
        let rng = match seed {
            Some(s) => SmallRng::seed_from_u64(s),
            None => SmallRng::from_entropy(),
        };
        Selector {
            policy,
            rng,
            cursor: 0,
            loads: Default::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &SelectionPolicy {
        &self.policy
    }

    /// Replaces the policy (manager customization, §8).
    pub fn set_policy(&mut self, policy: SelectionPolicy) {
        self.policy = policy;
    }

    /// Reports an actor's current load for [`SelectionPolicy::LeastLoaded`].
    pub fn set_load(&mut self, actor: ActorId, load: u64) {
        self.loads.insert(actor, load);
    }

    /// Chooses one recipient from a non-empty candidate list. Candidates
    /// must be deduplicated by the caller; order does not matter for
    /// `Random`, and is normalized internally for the deterministic
    /// policies.
    pub fn select(&mut self, candidates: &[ActorId]) -> ActorId {
        assert!(
            !candidates.is_empty(),
            "select() requires at least one candidate"
        );
        match self.policy {
            SelectionPolicy::Random => candidates[self.rng.gen_range(0..candidates.len())],
            SelectionPolicy::RoundRobin => {
                let mut sorted: Vec<ActorId> = candidates.to_vec();
                sorted.sort_unstable();
                let pick = sorted[self.cursor % sorted.len()];
                self.cursor = self.cursor.wrapping_add(1);
                pick
            }
            SelectionPolicy::LeastLoaded => {
                let mut sorted: Vec<ActorId> = candidates.to_vec();
                sorted.sort_unstable();
                *sorted
                    .iter()
                    .min_by_key(|a| (self.loads.get(a).copied().unwrap_or(0), a.0))
                    .expect("non-empty")
            }
        }
    }
}

/// Full per-space manager configuration.
#[derive(Debug, Clone)]
pub struct ManagerPolicy {
    /// Unmatched-message handling for `send`.
    pub unmatched_send: UnmatchedPolicy,
    /// Unmatched-message handling for `broadcast`.
    pub unmatched_broadcast: UnmatchedPolicy,
    /// Recipient selection for `send`.
    pub selection: SelectionPolicy,
    /// Maximum nesting depth pattern resolution descends through visible
    /// sub-spaces. The visibility relation is a DAG so resolution always
    /// terminates; the limit bounds work on deep hierarchies.
    pub max_match_depth: usize,
    /// Deterministic RNG seed for selection (tests); `None` = OS entropy.
    pub selection_seed: Option<u64>,
}

impl Default for ManagerPolicy {
    fn default() -> Self {
        ManagerPolicy {
            unmatched_send: UnmatchedPolicy::Suspend,
            unmatched_broadcast: UnmatchedPolicy::Suspend,
            selection: SelectionPolicy::Random,
            max_match_depth: 64,
            selection_seed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<ActorId> {
        v.iter().map(|&i| ActorId(i)).collect()
    }

    #[test]
    fn random_selection_covers_all_candidates() {
        let mut s = Selector::new(SelectionPolicy::Random, Some(42));
        let cands = ids(&[1, 2, 3, 4]);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(s.select(&cands));
        }
        assert_eq!(
            seen.len(),
            4,
            "random selection should eventually hit every candidate"
        );
    }

    #[test]
    fn random_is_roughly_uniform() {
        let mut s = Selector::new(SelectionPolicy::Random, Some(7));
        let cands = ids(&[1, 2, 3, 4]);
        let mut counts = std::collections::HashMap::new();
        let n = 4000;
        for _ in 0..n {
            *counts.entry(s.select(&cands)).or_insert(0u32) += 1;
        }
        for (_, c) in counts {
            // Expected 1000 each; allow generous slack.
            assert!((700..1300).contains(&c), "count {c} badly non-uniform");
        }
    }

    #[test]
    fn round_robin_cycles_in_order() {
        let mut s = Selector::new(SelectionPolicy::RoundRobin, Some(0));
        let cands = ids(&[30, 10, 20]);
        let picks: Vec<u64> = (0..6).map(|_| s.select(&cands).0).collect();
        assert_eq!(picks, [10, 20, 30, 10, 20, 30]);
    }

    #[test]
    fn least_loaded_prefers_low_load() {
        let mut s = Selector::new(SelectionPolicy::LeastLoaded, Some(0));
        let cands = ids(&[1, 2, 3]);
        s.set_load(ActorId(1), 10);
        s.set_load(ActorId(2), 3);
        s.set_load(ActorId(3), 7);
        assert_eq!(s.select(&cands), ActorId(2));
        s.set_load(ActorId(2), 99);
        assert_eq!(s.select(&cands), ActorId(3));
    }

    #[test]
    fn least_loaded_defaults_unknown_to_zero() {
        let mut s = Selector::new(SelectionPolicy::LeastLoaded, Some(0));
        s.set_load(ActorId(1), 5);
        // Actor 2 never reported → load 0 → wins.
        assert_eq!(s.select(&ids(&[1, 2])), ActorId(2));
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn select_on_empty_panics() {
        let mut s = Selector::new(SelectionPolicy::Random, Some(0));
        s.select(&[]);
    }

    #[test]
    fn seeded_selectors_are_reproducible() {
        let cands = ids(&[1, 2, 3, 4, 5]);
        let runs: Vec<Vec<ActorId>> = (0..2)
            .map(|_| {
                let mut s = Selector::new(SelectionPolicy::Random, Some(123));
                (0..50).map(|_| s.select(&cands)).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn default_policy_matches_paper() {
        let p = ManagerPolicy::default();
        assert_eq!(p.unmatched_send, UnmatchedPolicy::Suspend);
        assert_eq!(p.unmatched_broadcast, UnmatchedPolicy::Suspend);
        assert!(matches!(p.selection, SelectionPolicy::Random));
    }
}
