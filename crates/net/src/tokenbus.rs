//! The rotating-token protocol — the Amoeba-style alternative \[23].
//!
//! Instead of a central sequencer, a logical token circulates among the
//! nodes. A node buffers its submissions until it holds the token; while
//! holding it, the node stamps its buffered events with consecutive global
//! sequence numbers and multicasts them. The token hop cost models the
//! rotation latency. Total order holds because only the token holder
//! stamps, and the counter travels with the token.
//!
//! Compared to the sequencer, submissions pay an average of half a rotation
//! of extra latency when idle, but there is no central process to saturate
//! — the trade-off benchmark E3 measures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use actorspace_lockcheck::{LockClass, Mutex};

use crate::bus::{BusEvent, OrderedBroadcast, SeqEvent};
use crate::event_loop::LoopHandle;
use crate::link::Link;

/// Per-node submission buffers and the global sequence counter.
struct Ring {
    pending: Vec<Mutex<VecDeque<BusEvent>>>,
    issued: AtomicU64,
}

/// The token-rotation ordered broadcast.
pub struct TokenBus {
    ring: Arc<Ring>,
    submitted: AtomicU64,
}

impl TokenBus {
    /// Builds the bus. `hop` is the token's per-node hold/travel time; the
    /// rotation is a repeating timer on `lp`'s loop that stops once the
    /// bus is dropped.
    pub fn new(
        lp: &LoopHandle,
        n_nodes: usize,
        hop: Duration,
        downlinks: Vec<Link<SeqEvent>>,
    ) -> TokenBus {
        let ring = Arc::new(Ring {
            pending: (0..n_nodes)
                .map(|_| Mutex::new(LockClass::Bus, VecDeque::new()))
                .collect(),
            issued: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&ring);
        let mut holder = 0usize;
        lp.every(hop, move || {
            let Some(ring) = weak.upgrade() else {
                return false;
            };
            // The holder drains its buffered submissions, stamping them
            // with consecutive sequence numbers; then the token moves on.
            let drained: Vec<BusEvent> = ring.pending[holder].lock().drain(..).collect();
            let mut seq = ring.issued.load(Ordering::Relaxed);
            for event in drained {
                for link in &downlinks {
                    link.send(SeqEvent {
                        seq,
                        event: event.clone(),
                    });
                }
                seq += 1;
            }
            ring.issued.store(seq, Ordering::Release);
            holder = (holder + 1) % ring.pending.len();
            true
        });

        TokenBus {
            ring,
            submitted: AtomicU64::new(0),
        }
    }
}

impl OrderedBroadcast for TokenBus {
    fn submit(&self, event: BusEvent) {
        self.submitted.fetch_add(1, Ordering::AcqRel);
        let node = event.origin.0 as usize % self.ring.pending.len();
        self.ring.pending[node].lock().push_back(event);
    }

    fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Acquire)
    }

    fn issued(&self) -> u64 {
        self.ring.issued.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{Applier, BusOp};
    use crate::directory::NodeId;
    use crate::event_loop::EventLoop;
    use crate::link::LinkConfig;
    use actorspace_core::ActorId;
    use std::time::Instant;

    #[test]
    fn token_bus_preserves_total_order_across_nodes() {
        let n_nodes = 3;
        let logs: Vec<Arc<Mutex<Vec<u64>>>> = (0..n_nodes)
            .map(|_| {
                Arc::new(Mutex::new(
                    LockClass::Other("test.net.tokenbus_log"),
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
                Link::new(
                    lp.handle(),
                    LinkConfig {
                        jitter: Duration::from_millis(1),
                        seed: 5,
                        ..LinkConfig::ideal()
                    },
                    move |e| a.on_event(e),
                )
            })
            .collect();
        let bus = TokenBus::new(
            loops[0].handle(),
            n_nodes,
            Duration::from_micros(200),
            downlinks,
        );

        for i in 0..60u64 {
            bus.submit(BusEvent {
                origin: NodeId((i % n_nodes as u64) as u16),
                op: BusOp::RemoveActor { id: ActorId(i) },
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while appliers.iter().any(|a| a.applied() < 60) {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
        let first = logs[0].lock().clone();
        assert_eq!(first.len(), 60);
        for log in &logs[1..] {
            assert_eq!(*log.lock(), first, "token bus order diverged");
        }
        // Per-origin FIFO: events from the same origin appear in
        // submission order.
        for origin in 0..n_nodes as u64 {
            let seen: Vec<u64> = first.iter().copied().filter(|i| i % 3 == origin).collect();
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(seen, sorted, "origin {origin} reordered");
        }
        assert_eq!(bus.issued(), 60);
    }
}
