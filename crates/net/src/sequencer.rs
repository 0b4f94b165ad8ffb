//! The centralized sequencer protocol.
//!
//! §7.3: "The broadcasting between the coordinators could, for instance, be
//! done using either the Amoeba broadcast protocol \[23] or a centralized
//! broadcaster and sequencer \[9]; both have orderings of some sort on
//! broadcast messages."
//!
//! This is the \[9]-style protocol (Chang–Maxemchuk's central variant): one
//! process receives every submission, stamps it with the next global
//! sequence number, and multicasts it to all nodes. Submissions travel an
//! uplink with latency; stamped events travel per-node downlinks with
//! latency and jitter, so arrivals can be out of order — the per-node
//! [`Applier`](crate::bus::Applier) restores sequence order. Bus links are
//! loss-free: the paper assumes a reliable broadcast protocol underneath
//! (see DESIGN.md substitutions).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bus::{BusEvent, OrderedBroadcast, SeqEvent};
use crate::event_loop::LoopHandle;
use crate::link::{Link, LinkConfig};

/// The centralized broadcaster/sequencer.
pub struct Sequencer {
    uplink: Link<BusEvent>,
    submitted: AtomicU64,
    issued: Arc<AtomicU64>,
}

impl Sequencer {
    /// Builds the sequencer on `lp`'s loop. `downlinks[n]` delivers
    /// sequenced events to node `n`'s applier; `bus_cfg` models the
    /// uplink/downlink latency.
    pub fn new(lp: &LoopHandle, bus_cfg: LinkConfig, downlinks: Vec<Link<SeqEvent>>) -> Sequencer {
        let issued = Arc::new(AtomicU64::new(0));
        let stamped = issued.clone();
        // The sequencer process is the receiving end of the shared uplink:
        // submissions experience link latency, then are stamped and
        // multicast on the one loop, so the counter needs no lock.
        let uplink = Link::new(
            lp,
            LinkConfig {
                drop_prob: 0.0,
                dup_prob: 0.0,
                ..bus_cfg
            },
            move |event: BusEvent| {
                let seq = stamped.load(Ordering::Relaxed);
                for link in &downlinks {
                    link.send(SeqEvent {
                        seq,
                        event: event.clone(),
                    });
                }
                stamped.store(seq + 1, Ordering::Release);
            },
        );

        Sequencer {
            uplink,
            submitted: AtomicU64::new(0),
            issued,
        }
    }
}

impl OrderedBroadcast for Sequencer {
    fn submit(&self, event: BusEvent) {
        self.submitted.fetch_add(1, Ordering::AcqRel);
        self.uplink.send(event);
    }

    fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Acquire)
    }

    fn issued(&self) -> u64 {
        self.issued.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Applier, BusOp};
    use crate::directory::NodeId;
    use crate::event_loop::EventLoop;
    use actorspace_core::ActorId;
    use actorspace_lockcheck::{LockClass, Mutex};
    use std::time::{Duration, Instant};

    #[test]
    fn all_nodes_see_the_same_total_order() {
        let n_nodes = 4;
        let logs: Vec<Arc<Mutex<Vec<u64>>>> = (0..n_nodes)
            .map(|_| {
                Arc::new(Mutex::new(
                    LockClass::Other("test.net.sequencer_log"),
                    Vec::new(),
                ))
            })
            .collect();
        let appliers: Vec<Arc<Applier>> = logs
            .iter()
            .map(|log| {
                let log = log.clone();
                Arc::new(Applier::new(move |e| {
                    if let BusOp::RemoveActor { id } = e.op {
                        log.lock().push(id.0);
                    }
                }))
            })
            .collect();
        let loops: Vec<EventLoop> = (0..n_nodes)
            .map(|i| EventLoop::new(format!("test-loop@{i}")))
            .collect();
        let downlinks: Vec<Link<SeqEvent>> = appliers
            .iter()
            .zip(&loops)
            .map(|(a, lp)| {
                let a = a.clone();
                // Jittered downlinks: arrival order differs per node.
                Link::new(
                    lp.handle(),
                    LinkConfig {
                        latency: Duration::from_micros(100),
                        jitter: Duration::from_millis(2),
                        seed: 11,
                        ..LinkConfig::ideal()
                    },
                    move |e| a.on_event(e),
                )
            })
            .collect();
        let seq = Sequencer::new(loops[0].handle(), LinkConfig::ideal(), downlinks);

        // Two "nodes" submit interleaved.
        for i in 0..50u64 {
            seq.submit(BusEvent {
                origin: NodeId((i % 2) as u16),
                op: BusOp::RemoveActor { id: ActorId(i) },
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while appliers.iter().any(|a| a.applied() < 50) {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for application"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let first = logs[0].lock().clone();
        assert_eq!(first.len(), 50);
        for log in &logs[1..] {
            assert_eq!(*log.lock(), first, "nodes disagree on the total order");
        }
        assert_eq!(seq.issued(), 50);
        assert_eq!(seq.submitted(), 50);
    }
}
