//! Reliable at-least-once delivery with receiver-side deduplication —
//! exactly-once end to end over lossy links.
//!
//! The paper's delivery guarantee is "message delivery is only finitely
//! delayed" (§5.3/§5.6); this layer restores that guarantee over a link
//! that drops and duplicates. Classic mechanism: the sender numbers
//! packets and retransmits unacknowledged ones on a timer; the receiver
//! delivers each sequence number once and (re-)acknowledges everything it
//! has seen. No ordering is imposed — reordering remains visible to the
//! application, as the paper allows.
//!
//! Delivery is *conditional*: the receiving side may reject a packet (a
//! crashed node refuses traffic), in which case nothing is acknowledged
//! and the packet stays in the sender's journal. That journal is what the
//! failover path drains: [`ReliablePipe::drain_undelivered`] removes every
//! packet the receiver has provably not accepted, so a crashed
//! destination's in-flight messages can be re-routed elsewhere without
//! ever duplicating one that did land.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use actorspace_lockcheck::{LockClass, Mutex};
use actorspace_obs::Counter;

use crate::event_loop::LoopHandle;
use crate::link::{Link, LinkConfig};

/// A numbered packet or an acknowledgment.
#[derive(Debug, Clone)]
pub enum Packet<T> {
    /// Payload with sender-assigned sequence number.
    Data {
        /// Sender-assigned, strictly increasing.
        seq: u64,
        /// The payload.
        payload: T,
    },
    /// Cumulative-free ack of one sequence number.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

/// A journalled packet and when it last went on the wire.
struct Unacked<T> {
    payload: T,
    sent: Instant,
}

struct SenderState<T> {
    unacked: HashMap<u64, Unacked<T>>,
    next_seq: u64,
}

/// The sending half. Its retransmit timer runs on the sending node's loop
/// and holds only a [`Weak`] to it, so dropping the sender stops the timer
/// at its next tick without waiting for it.
struct Sender<T> {
    state: Mutex<SenderState<T>>,
    link: Link<Packet<T>>,
    retx_every: Duration,
    retransmits: Arc<Counter>,
}

impl<T: Clone + Send + 'static> Sender<T> {
    fn send(&self, payload: T) {
        let sent = Instant::now();
        let seq = {
            let mut st = self.state.lock();
            let seq = st.next_seq;
            st.next_seq += 1;
            let payload = payload.clone();
            st.unacked.insert(seq, Unacked { payload, sent });
            seq
        };
        self.link.send(Packet::Data { seq, payload });
    }

    /// One timer tick: re-sends the packets that have gone unacknowledged
    /// for a full period. Younger ones may still have their ack in flight.
    fn retransmit(&self) {
        let now = Instant::now();
        let due: Vec<(u64, T)> = self
            .state
            .lock()
            .unacked
            .iter_mut()
            .filter(|(_, u)| now.duration_since(u.sent) >= self.retx_every)
            .map(|(&seq, u)| {
                u.sent = now;
                (seq, u.payload.clone())
            })
            .collect();
        for (seq, payload) in due {
            if !self.link.send(Packet::Data { seq, payload }) {
                return; // loop stopped
            }
            self.retransmits.inc();
        }
    }
}

/// The receiving half: deduplicates and acks.
pub struct ReliableReceiver {
    seen: Mutex<HashSet<u64>>,
}

impl ReliableReceiver {
    /// Fresh receiver state.
    pub fn new() -> ReliableReceiver {
        ReliableReceiver {
            seen: Mutex::new(LockClass::Reliable, HashSet::new()),
        }
    }

    /// Handles an incoming data packet. First receipt is offered to
    /// `accept`; only an accepted packet is recorded and acknowledged, so a
    /// rejected one keeps retransmitting until the destination can take it
    /// (or the sender's journal is drained for failover). Duplicates are
    /// re-acknowledged without redelivery.
    pub fn on_data<T>(
        &self,
        seq: u64,
        payload: T,
        send_ack: impl FnOnce(u64),
        accept: impl FnOnce(T) -> bool,
    ) {
        if self.seen.lock().contains(&seq) {
            send_ack(seq); // duplicate: the original ack may have been lost
            return;
        }
        if accept(payload) {
            self.seen.lock().insert(seq);
            send_ack(seq);
        }
    }

    /// Whether `seq` has been accepted by this receiver.
    pub fn contains(&self, seq: u64) -> bool {
        self.seen.lock().contains(&seq)
    }
}

impl Default for ReliableReceiver {
    fn default() -> Self {
        ReliableReceiver::new()
    }
}

/// A reliable pipe from node `a` to node `b` over two lossy links — the
/// cluster's data plane, and what the tests drive.
pub struct ReliablePipe<T: Clone + Send + 'static> {
    sender: Arc<Sender<T>>,
    receiver: Arc<ReliableReceiver>,
}

impl<T: Clone + Send + 'static> ReliablePipe<T> {
    /// Builds the forward path `a → b` over `cfg`-faulty links: data rides
    /// a link on `b`'s loop, acks a link back on `a`'s loop, and the
    /// retransmit timer ticks every `retx_every` on `a`'s loop, counting
    /// each re-sent packet into `retransmits`. `deliver` receives each
    /// payload at most once on the `b` side; returning `false` rejects the
    /// packet, leaving it unacknowledged in the sender's journal for
    /// retransmission (or failover draining).
    pub fn new(
        a: &LoopHandle,
        b: &LoopHandle,
        cfg: LinkConfig,
        retx_every: Duration,
        retransmits: Arc<Counter>,
        deliver: impl Fn(T) -> bool + Send + Sync + 'static,
    ) -> ReliablePipe<T> {
        let receiver = Arc::new(ReliableReceiver::new());
        let sender = Arc::new_cyclic(|weak: &Weak<Sender<T>>| {
            // The ack (reverse) link shares the fault model. It holds the
            // sender weakly: acks arriving after a drop are discarded.
            let weak = weak.clone();
            let ack = Link::new(
                a,
                LinkConfig {
                    seed: cfg.seed.wrapping_add(1),
                    ..cfg.clone()
                },
                move |pkt: Packet<T>| {
                    if let (Packet::Ack { seq }, Some(sender)) = (pkt, weak.upgrade()) {
                        sender.state.lock().unacked.remove(&seq);
                    }
                },
            );
            let rx = receiver.clone();
            let data = Link::new(b, cfg, move |pkt| {
                if let Packet::Data { seq, payload } = pkt {
                    rx.on_data(
                        seq,
                        payload,
                        |s| {
                            ack.send(Packet::Ack { seq: s });
                        },
                        &deliver,
                    );
                }
            });
            Sender {
                state: Mutex::new(
                    LockClass::Reliable,
                    SenderState {
                        unacked: HashMap::new(),
                        next_seq: 0,
                    },
                ),
                link: data,
                retx_every,
                retransmits,
            }
        });
        let weak = Arc::downgrade(&sender);
        a.every(retx_every, move || match weak.upgrade() {
            Some(sender) => {
                sender.retransmit();
                true
            }
            None => false,
        });
        ReliablePipe { sender, receiver }
    }

    /// Sends a payload with the exactly-once guarantee.
    pub fn send(&self, payload: T) {
        self.sender.send(payload);
    }

    /// Outstanding unacknowledged packets.
    pub fn unacked(&self) -> usize {
        self.sender.state.lock().unacked.len()
    }

    /// Removes and returns every journalled packet the receiver has
    /// provably *not* accepted. Packets the receiver accepted but whose
    /// acks were lost are dropped from the journal without being returned —
    /// they already reached the destination, and returning them would
    /// duplicate. Used on suspicion of the destination node to re-route
    /// in-flight messages.
    pub fn drain_undelivered(&self) -> Vec<T> {
        let taken: Vec<(u64, Unacked<T>)> = self.sender.state.lock().unacked.drain().collect();
        taken
            .into_iter()
            .filter(|(seq, _)| !self.receiver.contains(*seq))
            .map(|(_, u)| u.payload)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{settle, EventLoop};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn wait_for(pred: impl Fn() -> bool, secs: u64) {
        let deadline = Instant::now() + Duration::from_secs(secs);
        while !pred() {
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The two ends' loops and the sender's retransmission counter.
    struct Ends {
        a: EventLoop,
        b: EventLoop,
        retx: Arc<Counter>,
    }

    fn ends() -> Ends {
        Ends {
            a: EventLoop::new("test-loop-a".into()),
            b: EventLoop::new("test-loop-b".into()),
            retx: Arc::new(Counter::new()),
        }
    }

    impl Ends {
        fn pipe<T: Clone + Send + 'static>(
            &self,
            cfg: LinkConfig,
            retx_every: Duration,
            deliver: impl Fn(T) -> bool + Send + Sync + 'static,
        ) -> ReliablePipe<T> {
            ReliablePipe::new(
                self.a.handle(),
                self.b.handle(),
                cfg,
                retx_every,
                self.retx.clone(),
                deliver,
            )
        }
    }

    #[test]
    fn exactly_once_over_clean_link() {
        let e = ends();
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let pipe = e.pipe(
            LinkConfig::ideal(),
            Duration::from_millis(20),
            move |_x: u32| {
                c.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        for i in 0..200 {
            pipe.send(i);
        }
        wait_for(|| count.load(Ordering::Relaxed) >= 200, 10);
        // Let retransmits run a bit; duplicates must NOT appear.
        settle(e.a.handle(), Duration::from_millis(200));
        assert_eq!(count.load(Ordering::Relaxed), 200);
        wait_for(|| pipe.unacked() == 0, 10);
    }

    #[test]
    fn no_retransmits_on_a_loss_free_link() {
        // A packet is re-sent only once it has gone unacked for a whole
        // period; on a loss-free link every ack beats that by far, however
        // close to a timer tick the packet was sent.
        let e = ends();
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let pipe = e.pipe(
            LinkConfig::ideal(),
            Duration::from_millis(200),
            move |_x: u32| {
                c.fetch_add(1, Ordering::Relaxed);
                true
            },
        );
        let until = Instant::now() + Duration::from_secs(1);
        let mut sent = 0;
        while Instant::now() < until {
            pipe.send(sent);
            sent += 1;
            std::thread::sleep(Duration::from_micros(500));
        }
        wait_for(|| pipe.unacked() == 0, 10);
        assert_eq!(count.load(Ordering::Relaxed), sent as usize);
        assert_eq!(e.retx.get(), 0, "nothing was lost, nothing may be re-sent");
    }

    #[test]
    fn exactly_once_under_heavy_loss_and_duplication() {
        let e = ends();
        let got = Arc::new(Mutex::new(
            LockClass::Other("test.net.reliable_log"),
            Vec::new(),
        ));
        let g = got.clone();
        let cfg = LinkConfig::lossy(0.4, 0.3, 99);
        let pipe = e.pipe(cfg, Duration::from_millis(10), move |x: u32| {
            g.lock().push(x);
            true
        });
        let n = 300u32;
        for i in 0..n {
            pipe.send(i);
        }
        wait_for(|| got.lock().len() >= n as usize, 30);
        wait_for(|| pipe.unacked() == 0, 30);
        settle(e.b.handle(), Duration::from_millis(50));
        let mut v = got.lock().clone();
        let len = v.len();
        v.sort_unstable();
        v.dedup();
        assert_eq!(len, v.len(), "duplicates leaked through");
        assert_eq!(v, (0..n).collect::<Vec<_>>(), "payloads missing");
        assert!(e.retx.get() > 0, "a lossy link needs retransmission");
    }

    #[test]
    fn rejected_packets_stay_unacked_until_accepted() {
        let e = ends();
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let got = Arc::new(Mutex::new(
            LockClass::Other("test.net.reliable_log"),
            Vec::new(),
        ));
        let (g2, gt2) = (gate.clone(), got.clone());
        let pipe = e.pipe(
            LinkConfig::ideal(),
            Duration::from_millis(5),
            move |x: u32| {
                if g2.load(Ordering::Acquire) {
                    gt2.lock().push(x);
                    true
                } else {
                    false
                }
            },
        );
        pipe.send(1);
        pipe.send(2);
        wait_for(|| e.retx.get() >= 4, 10);
        assert_eq!(pipe.unacked(), 2, "rejected packets must stay journalled");
        assert!(got.lock().is_empty());
        gate.store(true, Ordering::Release);
        wait_for(|| pipe.unacked() == 0, 10);
        let mut v = got.lock().clone();
        v.sort_unstable();
        assert_eq!(
            v,
            vec![1, 2],
            "retransmission must deliver after acceptance"
        );
    }

    #[test]
    fn drain_undelivered_returns_only_unaccepted_packets() {
        // Accept only even payloads; odd ones stay journalled and must be
        // the exact drain result.
        let e = ends();
        let pipe = e.pipe(
            LinkConfig::ideal(),
            Duration::from_secs(60),
            move |x: u32| x.is_multiple_of(2),
        );
        for i in 0..10 {
            pipe.send(i);
        }
        wait_for(|| pipe.unacked() == 5, 10);
        let mut drained = pipe.drain_undelivered();
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 3, 5, 7, 9]);
        assert_eq!(pipe.unacked(), 0, "drain must empty the journal");
        assert!(pipe.drain_undelivered().is_empty());
    }

    #[test]
    fn dropping_a_pipe_stops_its_retransmit_timer() {
        // Dropping must not wait out a long period...
        let e = ends();
        let pipe = e.pipe(LinkConfig::ideal(), Duration::from_secs(60), |_: u32| true);
        pipe.send(7);
        let start = Instant::now();
        drop(pipe);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drop must not wait out the retransmission period"
        );

        // ...and no retransmit may fire after it. The receiver rejects
        // everything, so a live timer would re-send on every tick.
        let period = Duration::from_millis(5);
        let pipe = e.pipe(LinkConfig::ideal(), period, |_: u32| false);
        pipe.send(7);
        wait_for(|| e.retx.get() >= 2, 10);
        drop(pipe);
        // A tick that began before the drop finishes before this returns.
        settle(e.a.handle(), Duration::ZERO);
        let after_drop = e.retx.get();
        settle(e.a.handle(), period * 10);
        assert_eq!(e.retx.get(), after_drop, "timer fired after the drop");
    }
}
