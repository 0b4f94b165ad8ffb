//! Simulated point-to-point links.
//!
//! A [`Link`] is a unidirectional channel into the event loop of the
//! receiving node ([`crate::event_loop`]). The loop imposes latency (base +
//! uniform jitter), probabilistic drops, and probabilistic duplication,
//! drawing every decision from the link's own seeded RNG, so a link's
//! faults do not depend on what else shares its loop. Jitter makes delivery
//! order differ from send order — deliberately, since the paper guarantees
//! no order on messages (§5.3/§5.6); tests that need loss-free links set
//! the probabilities to zero. The faulty configurations are what
//! [`crate::reliable`] is built to survive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_lockcheck::{LockClass, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event_loop::{LoopHandle, TimerQueue};

/// Fault and delay model for one link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform extra delay in `[0, jitter]` per message.
    pub jitter: Duration,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// RNG seed (deterministic faults for tests).
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: Duration::from_micros(50),
            jitter: Duration::from_micros(20),
            drop_prob: 0.0,
            dup_prob: 0.0,
            seed: 0x5eed,
        }
    }
}

impl LinkConfig {
    /// A loss-free, low-latency configuration.
    pub fn ideal() -> LinkConfig {
        LinkConfig {
            jitter: Duration::ZERO,
            ..LinkConfig::default()
        }
    }

    /// A lossy configuration for failure-injection tests.
    pub fn lossy(drop_prob: f64, dup_prob: f64, seed: u64) -> LinkConfig {
        LinkConfig {
            drop_prob,
            dup_prob,
            seed,
            ..LinkConfig::default()
        }
    }
}

/// The receiving end of a link: its fault model, RNG and delivery
/// callback. Only the loop touches the RNG, so its lock is never contended.
struct LinkCore<T> {
    cfg: LinkConfig,
    rng: Mutex<SmallRng>,
    deliver: Box<dyn Fn(T) + Send + Sync>,
}

impl<T: Clone + Send + 'static> LinkCore<T> {
    /// Runs on the loop as each item arrives: drop it, or schedule its
    /// delivery (twice, if duplicated) after latency plus jitter.
    fn arrive(self: Arc<Self>, q: &mut TimerQueue, item: T) {
        let mut rng = self.rng.lock();
        if rng.gen_bool(self.cfg.drop_prob.clamp(0.0, 1.0)) {
            return; // dropped on the wire
        }
        let copies = 1 + usize::from(rng.gen_bool(self.cfg.dup_prob.clamp(0.0, 1.0)));
        for item in std::iter::repeat_n(item, copies) {
            let jitter = if self.cfg.jitter.is_zero() {
                Duration::ZERO
            } else {
                self.cfg.jitter.mul_f64(rng.gen::<f64>())
            };
            let core = self.clone();
            q.at(Instant::now() + self.cfg.latency + jitter, move |_| {
                (core.deliver)(item)
            });
        }
    }
}

/// A unidirectional, fault-injected, delayed delivery channel: a handle
/// onto the receiving node's event loop.
pub struct Link<T> {
    lp: LoopHandle,
    core: Arc<LinkCore<T>>,
}

impl<T: Clone + Send + 'static> Link<T> {
    /// Builds a link whose messages `lp`'s loop hands to `deliver` after
    /// the configured delay — possibly dropped, duplicated or reordered.
    pub fn new(
        lp: &LoopHandle,
        cfg: LinkConfig,
        deliver: impl Fn(T) + Send + Sync + 'static,
    ) -> Link<T> {
        Link {
            lp: lp.clone(),
            core: Arc::new(LinkCore {
                rng: Mutex::new(
                    LockClass::Other("net.link"),
                    SmallRng::seed_from_u64(cfg.seed),
                ),
                cfg,
                deliver: Box::new(deliver),
            }),
        }
    }

    /// Sends an item into the link. Returns false if the loop has stopped.
    pub fn send(&self, item: T) -> bool {
        let core = self.core.clone();
        self.lp.run(move |q| core.arrive(q, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{settle, EventLoop};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn test_loop() -> EventLoop {
        EventLoop::new("test-loop".into())
    }

    fn log() -> Arc<Mutex<Vec<u32>>> {
        Arc::new(Mutex::new(
            LockClass::Other("test.net.link_log"),
            Vec::new(),
        ))
    }

    #[test]
    fn delivers_after_latency() {
        let lp = test_loop();
        let got = Arc::new(AtomicUsize::new(0));
        let g = got.clone();
        let cfg = LinkConfig {
            latency: Duration::from_millis(20),
            jitter: Duration::ZERO,
            ..LinkConfig::ideal()
        };
        let link = Link::new(lp.handle(), cfg, move |x: u32| {
            g.store(x as usize, Ordering::Release);
        });
        let t0 = Instant::now();
        assert!(link.send(7));
        while got.load(Ordering::Acquire) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(18),
            "{:?}",
            t0.elapsed()
        );
        assert_eq!(got.load(Ordering::Acquire), 7);
    }

    #[test]
    fn all_messages_arrive_without_faults() {
        let lp = test_loop();
        let got = log();
        let g = got.clone();
        let link = Link::new(lp.handle(), LinkConfig::ideal(), move |x: u32| {
            g.lock().push(x);
        });
        for i in 0..500 {
            link.send(i);
        }
        settle(lp.handle(), Duration::from_millis(1));
        let mut v = got.lock().clone();
        v.sort_unstable();
        assert_eq!(v, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_can_reorder() {
        let lp = test_loop();
        let got = log();
        let g = got.clone();
        let cfg = LinkConfig {
            latency: Duration::from_micros(100),
            jitter: Duration::from_millis(5),
            seed: 42,
            ..LinkConfig::ideal()
        };
        let link = Link::new(lp.handle(), cfg, move |x: u32| {
            g.lock().push(x);
        });
        for i in 0..200 {
            link.send(i);
        }
        settle(lp.handle(), Duration::from_millis(6));
        let v = got.lock().clone();
        assert_eq!(v.len(), 200);
        assert_ne!(
            v,
            (0..200).collect::<Vec<_>>(),
            "jitter should reorder some pair"
        );
    }

    #[test]
    fn drops_lose_messages_and_dups_duplicate() {
        let lp = test_loop();
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let cfg = LinkConfig {
            drop_prob: 0.5,
            seed: 7,
            ..LinkConfig::ideal()
        };
        let link = Link::new(lp.handle(), cfg, move |_x: u32| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..1000 {
            link.send(i);
        }
        settle(lp.handle(), Duration::from_millis(1));
        let n = count.load(Ordering::Relaxed);
        assert!((300..700).contains(&n), "≈50% should survive, got {n}");

        let count2 = Arc::new(AtomicUsize::new(0));
        let c2 = count2.clone();
        let cfg = LinkConfig {
            dup_prob: 1.0,
            seed: 9,
            ..LinkConfig::ideal()
        };
        let link2 = Link::new(lp.handle(), cfg, move |_x: u32| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        for i in 0..100 {
            link2.send(i);
        }
        settle(lp.handle(), Duration::from_millis(1));
        assert_eq!(
            count2.load(Ordering::Relaxed),
            200,
            "dup_prob=1 doubles every message"
        );
    }

    #[test]
    fn seeded_faults_stay_per_link_when_links_share_a_loop() {
        // Two links from one seed, each on its own loop; the first loop
        // also carries a busy link with another seed, interleaved item by
        // item. Drop and dup decisions come from each link's own RNG, so
        // both seeded links deliver the same multiset.
        let (a, b) = (test_loop(), test_loop());
        let cfg = LinkConfig::lossy(0.5, 0.3, 0xfa11);
        let (got_a, got_b, got_noise) = (log(), log(), log());
        let sink = |log: &Arc<Mutex<Vec<u32>>>| {
            let log = log.clone();
            move |x: u32| log.lock().push(x)
        };
        let on_a = Link::new(a.handle(), cfg.clone(), sink(&got_a));
        let noise = Link::new(
            a.handle(),
            LinkConfig::lossy(0.5, 0.3, 77),
            sink(&got_noise),
        );
        let on_b = Link::new(b.handle(), cfg.clone(), sink(&got_b));
        for i in 0..1000 {
            on_a.send(i);
            noise.send(i);
            on_b.send(i);
        }
        let after = cfg.latency + cfg.jitter + Duration::from_millis(1);
        settle(a.handle(), after);
        settle(b.handle(), after);
        let sorted = |log: &Arc<Mutex<Vec<u32>>>| {
            let mut v = log.lock().clone();
            v.sort_unstable();
            v
        };
        let (va, vb, vn) = (sorted(&got_a), sorted(&got_b), sorted(&got_noise));
        assert_eq!(va, vb, "same seed, same faults, whatever shares the loop");
        assert_ne!(va, vn, "another seed makes other decisions");
        let mut distinct = va.clone();
        distinct.dedup();
        assert!(distinct.len() < 1000, "some items must be dropped");
        assert!(distinct.len() < va.len(), "some items must be duplicated");
    }
}
