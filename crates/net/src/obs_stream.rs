//! Cluster-wide observability streaming.
//!
//! Each node periodically publishes a delta-encoded view of its own
//! slice of the metrics registry ([`Snapshot::filter_node`] keeps the
//! series labeled with that node, plus the process-global `lock.*`
//! tables on node 0). Frames ride dedicated [`Link`]s — deliberately
//! *not* the coordinator bus, whose global ordering and `submitted()`
//! accounting must stay reserved for protocol events — and any node can
//! [`ObsStream::subscribe`] to fold the frames into a [`ClusterView`].
//! Late subscribers are seeded with each publisher's cumulative state
//! (see [`ClusterView::seed`]), so joining mid-stream converges instead
//! of parking forever on frames published before the subscription.
//!
//! Delta state lives in the stream, not the node: a node incarnation
//! that dies and restarts keeps appending to the same cumulative
//! [`Obs`], so the per-node `PubState` survives the churn and the
//! sequence of deltas stays continuous across restarts. The failure
//! detector marks publishers down in every subscriber's view; the next
//! frame from a restarted node flips the peer back to live and bumps
//! its rejoin counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use actorspace_lockcheck::{LockClass, Mutex, RwLock};
use actorspace_obs::{ClusterView, Obs, Snapshot, SnapshotDelta};

use crate::event_loop::LoopHandle;
use crate::link::{Link, LinkConfig};

/// One delta frame on the observability stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsFrame {
    /// Publishing node.
    pub node: u16,
    /// Per-node frame sequence number, continuous across restarts.
    pub seq: u64,
    /// Changes since the previous frame from this node.
    pub delta: SnapshotDelta,
}

/// Per-node publisher state: the last snapshot shipped and the next
/// sequence number. Owned by the stream so it outlives node restarts.
struct PubState {
    last: Snapshot,
    seq: u64,
}

struct Subscriber {
    link: Link<ObsFrame>,
    view: Arc<ClusterView>,
}

/// Fan-out hub for delta-encoded snapshot frames.
pub struct ObsStream {
    every: Duration,
    lp: LoopHandle,
    link_cfg: LinkConfig,
    states: Vec<Mutex<PubState>>,
    subs: RwLock<Vec<Subscriber>>,
    next_sub: AtomicU64,
}

impl ObsStream {
    /// A stream for `nodes` publishers, each expected to publish every
    /// `every`. Subscribers observe from `lp`'s loop, over links that
    /// inherit latency/jitter from `link_cfg` but are loss-free: the delta
    /// codec assumes in-stream frames are eventually delivered (reordering
    /// and duplication are fine).
    pub fn new(lp: &LoopHandle, nodes: usize, every: Duration, link_cfg: LinkConfig) -> ObsStream {
        ObsStream {
            every,
            lp: lp.clone(),
            link_cfg: LinkConfig {
                drop_prob: 0.0,
                dup_prob: 0.0,
                ..link_cfg
            },
            states: (0..nodes)
                .map(|_| {
                    Mutex::new(
                        LockClass::Other("net.obs_pub"),
                        PubState {
                            last: Snapshot::default(),
                            seq: 0,
                        },
                    )
                })
                .collect(),
            subs: RwLock::new(LockClass::Other("net.obs_subs"), Vec::new()),
            next_sub: AtomicU64::new(0),
        }
    }

    /// Publish interval the cluster was configured with.
    pub fn every(&self) -> Duration {
        self.every
    }

    /// Takes a snapshot of `node`'s slice of `obs`, diffs it against
    /// the last published frame, and fans the delta out to every
    /// subscriber. Empty deltas are still sent: they double as
    /// liveness keepalives for staleness tracking.
    pub fn publish(&self, node: u16, obs: &Obs) {
        // Snapshot before taking the publisher lock: `Obs::snapshot`
        // locks the metrics registry, and nesting it under our state
        // mutex would serialize publishers behind each other's
        // registry walks.
        let snap = obs.snapshot().filter_node(node);
        let frame = {
            let mut st = self.states[node as usize].lock();
            let delta = snap.delta_since(&st.last);
            let seq = st.seq;
            st.seq += 1;
            st.last = snap;
            ObsFrame { node, seq, delta }
        };
        for sub in self.subs.read().iter() {
            sub.link.send(frame.clone());
        }
    }

    /// Marks `node` down in every subscriber's view (driven by the
    /// failure detector's NodeDown verdicts).
    pub fn mark_down(&self, node: u16) {
        for sub in self.subs.read().iter() {
            sub.view.mark_down(node);
        }
    }

    /// Registers a new observer and returns its live aggregate view.
    /// Frames published from now on are folded into the view after the
    /// stream's simulated link delay.
    ///
    /// A subscriber that joins after frames have already been published
    /// is *seeded*: for every node, the cumulative snapshot behind that
    /// node's next frame is installed directly in the view at the
    /// publisher's current sequence watermark, so the view converges
    /// without the frames it never received. Registration happens before
    /// seeding, and the seed is read under the publisher lock, so every
    /// frame falls on one side of the seed: frames diffed before the
    /// seed was read are covered by it (and dropped as stale if they
    /// straggle in later), frames diffed after it apply on top.
    pub fn subscribe(&self) -> Arc<ClusterView> {
        let view = Arc::new(ClusterView::new());
        let sink = view.clone();
        let idx = self.next_sub.fetch_add(1, Ordering::Relaxed);
        let cfg = LinkConfig {
            seed: self.link_cfg.seed.wrapping_add(idx.wrapping_mul(0x9e37)),
            ..self.link_cfg
        };
        let link = Link::new(&self.lp, cfg, move |f: ObsFrame| {
            sink.apply_frame(f.node, f.seq, f.delta);
        });
        self.subs.write().push(Subscriber {
            link,
            view: view.clone(),
        });
        for (node, state) in self.states.iter().enumerate() {
            let st = state.lock();
            view.seed(node as u16, st.seq, st.last.clone());
        }
        view
    }
}
