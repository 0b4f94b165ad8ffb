//! Ready-made manager customizations (§8).
//!
//! "We intend to develop customizable managers to allow experimentation
//! with different coordination and scheduling mechanisms. … More powerful
//! managers could use daemons to monitor actors in an actorSpace and
//! update attributes in order to maintain specified coordination
//! constraints."
//!
//! These are concrete [`Manager`] implementations exercising each hook:
//! admission control ([`QuotaManager`]), attribute-shape constraints
//! ([`NamespaceManager`]), custom arbitration ([`StickyManager`]), and a
//! monitoring daemon ([`AuditDaemon`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use actorspace_atoms::Path;

use crate::ids::{ActorId, MemberId};
use crate::manager::Manager;

/// Admission control: caps how many members may ever be admitted to the
/// space (visibility requests beyond the quota are refused).
pub struct QuotaManager {
    limit: u64,
    admitted: AtomicU64,
}

impl QuotaManager {
    /// A manager admitting at most `limit` visibility grants.
    pub fn new(limit: u64) -> QuotaManager {
        QuotaManager {
            limit,
            admitted: AtomicU64::new(0),
        }
    }
}

impl Manager for QuotaManager {
    fn authorize_visibility(&mut self, _member: MemberId, _attrs: &[Path]) -> bool {
        // fetch_add then check: refusals give the slot back.
        let n = self.admitted.fetch_add(1, Ordering::Relaxed);
        if n >= self.limit {
            self.admitted.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// Attribute-shape constraint: every attribute registered in the space
/// must begin with a fixed namespace prefix — the kind of "coordination
/// constraint" a §8 daemon maintains, enforced at admission instead.
pub struct NamespaceManager {
    prefix: Path,
}

impl NamespaceManager {
    /// Requires every attribute to start with `prefix`.
    pub fn new(prefix: Path) -> NamespaceManager {
        NamespaceManager { prefix }
    }
}

impl Manager for NamespaceManager {
    fn authorize_visibility(&mut self, _member: MemberId, attrs: &[Path]) -> bool {
        attrs.iter().all(|a| a.starts_with(&self.prefix))
    }
}

/// Sticky arbitration: `send` keeps choosing the same recipient until that
/// recipient leaves the candidate set — session affinity, one of the §8
/// "arbitration mechanisms which may be used instead of the current
/// indeterminate choice".
#[derive(Default)]
pub struct StickyManager {
    current: Option<ActorId>,
}

impl StickyManager {
    /// A fresh sticky arbiter.
    pub fn new() -> StickyManager {
        StickyManager::default()
    }
}

impl Manager for StickyManager {
    fn choose(&mut self, candidates: &[ActorId]) -> Option<ActorId> {
        if let Some(cur) = self.current {
            if candidates.contains(&cur) {
                return Some(cur);
            }
        }
        let pick = candidates.iter().min().copied();
        self.current = pick;
        pick
    }

    fn on_change(&mut self, member: MemberId) {
        // If the sticky target's visibility changed, re-arbitrate next time.
        if member.as_actor() == self.current {
            self.current = None;
        }
    }
}

/// A monitoring daemon (§8): counts every visibility/attribute change in
/// the space, observable from outside through the shared counter.
pub struct AuditDaemon {
    changes: Arc<AtomicU64>,
}

impl AuditDaemon {
    /// Creates the daemon and the counter it reports through.
    pub fn new() -> (AuditDaemon, Arc<AtomicU64>) {
        let counter = Arc::new(AtomicU64::new(0));
        (
            AuditDaemon {
                changes: counter.clone(),
            },
            counter,
        )
    }
}

impl Manager for AuditDaemon {
    fn on_change(&mut self, _member: MemberId) {
        self.changes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ManagerPolicy;
    use crate::shard::ShardedRegistry;
    use actorspace_atoms::path;
    use actorspace_pattern::pattern;

    type Reg = ShardedRegistry<u32>;

    fn reg() -> Reg {
        let p = ManagerPolicy {
            selection_seed: Some(3),
            ..Default::default()
        };
        ShardedRegistry::new(p)
    }

    fn sink() -> impl FnMut(ActorId, u32, Option<&crate::delivery::Route>) {
        |_, _, _| {}
    }

    #[test]
    fn quota_manager_caps_admissions() {
        let r = reg();
        let s = r.create_space(None);
        r.set_space_manager(s, Box::new(QuotaManager::new(2)), None)
            .unwrap();
        let mut k = sink();
        let mut admitted = 0;
        for i in 0..5 {
            let a = r.create_actor(s, None).unwrap();
            if r.make_visible(a.into(), vec![path(&format!("w{i}"))], s, None, &mut k)
                .is_ok()
            {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 2);
        assert_eq!(r.resolve(&pattern("**"), s).unwrap().len(), 2);
    }

    #[test]
    fn quota_refusal_returns_the_slot() {
        let r = reg();
        let s = r.create_space(None);
        r.set_space_manager(s, Box::new(QuotaManager::new(1)), None)
            .unwrap();
        let mut k = sink();
        let a = r.create_actor(s, None).unwrap();
        let b = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        assert!(r
            .make_visible(b.into(), vec![path("w")], s, None, &mut k)
            .is_err());
        // a leaves; the quota slot is... NOT returned (admissions counter
        // is cumulative by design — the quota is an admission budget).
        r.make_invisible(a.into(), s, None).unwrap();
        assert!(r
            .make_visible(b.into(), vec![path("w")], s, None, &mut k)
            .is_err());
    }

    #[test]
    fn namespace_manager_constrains_attribute_shapes() {
        let r = reg();
        let s = r.create_space(None);
        r.set_space_manager(s, Box::new(NamespaceManager::new(path("public"))), None)
            .unwrap();
        let mut k = sink();
        let a = r.create_actor(s, None).unwrap();
        assert!(r
            .make_visible(a.into(), vec![path("public/svc")], s, None, &mut k)
            .is_ok());
        let b = r.create_actor(s, None).unwrap();
        assert!(r
            .make_visible(b.into(), vec![path("private/svc")], s, None, &mut k)
            .is_err());
        // Mixed lists are refused whole.
        let c = r.create_actor(s, None).unwrap();
        assert!(r
            .make_visible(
                c.into(),
                vec![path("public/x"), path("oops")],
                s,
                None,
                &mut k
            )
            .is_err());
    }

    #[test]
    fn sticky_manager_pins_a_recipient() {
        let r = reg();
        let s = r.create_space(None);
        r.set_space_manager(s, Box::new(StickyManager::new()), None)
            .unwrap();
        let mut k = sink();
        let mut workers = Vec::new();
        for _ in 0..3 {
            let a = r.create_actor(s, None).unwrap();
            r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
                .unwrap();
            workers.push(a);
        }
        let mut picks = Vec::new();
        for _ in 0..5 {
            let mut sink = |to: ActorId, _: u32, _: Option<&crate::delivery::Route>| picks.push(to);
            r.send(&pattern("w"), s, 1, &mut sink).unwrap();
        }
        assert!(picks.windows(2).all(|w| w[0] == w[1]), "sticky: {picks:?}");
        // The pinned worker leaves → a new one is chosen and pinned.
        let pinned = picks[0];
        r.make_invisible(pinned.into(), s, None).unwrap();
        let mut later = Vec::new();
        for _ in 0..3 {
            let mut sink = |to: ActorId, _: u32, _: Option<&crate::delivery::Route>| later.push(to);
            r.send(&pattern("w"), s, 1, &mut sink).unwrap();
        }
        assert!(later.iter().all(|&t| t != pinned));
        assert!(later.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn audit_daemon_observes_changes() {
        let r = reg();
        let s = r.create_space(None);
        let (daemon, counter) = AuditDaemon::new();
        r.set_space_manager(s, Box::new(daemon), None).unwrap();
        let mut k = sink();
        let a = r.create_actor(s, None).unwrap();
        r.make_visible(a.into(), vec![path("w")], s, None, &mut k)
            .unwrap();
        r.change_attributes(a.into(), vec![path("w2")], s, None, &mut k)
            .unwrap();
        r.make_invisible(a.into(), s, None).unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }
}
