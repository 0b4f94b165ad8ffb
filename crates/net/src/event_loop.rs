//! One event loop per node.
//!
//! Every simulated link, retransmit timer, bus stamp and metrics publisher
//! in this crate runs on the event loop of the node it belongs to, not on a
//! thread of its own. A loop is one thread that owns a timer queue ordered
//! by due time, fed by one channel: other threads hand it work through a
//! [`LoopHandle`], and work already on the loop schedules more on the
//! queue directly. In the actor model the order of arrival is the
//! essential nondeterminism; here it enters each node through that single
//! queue.
//!
//! Loop work must not block: a task that waits holds up every link and
//! timer of its node.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Task = Box<dyn FnOnce(&mut TimerQueue) + Send>;

enum Cmd {
    Run(Task),
    Stop,
}

/// A loop's pending timers, handed to every task the loop runs. Keyed by
/// due time, then by scheduling order, so the first entry is the next due.
#[derive(Default)]
pub(crate) struct TimerQueue {
    timers: BTreeMap<(Instant, u64), Task>,
    scheduled: u64,
}

impl TimerQueue {
    /// Runs `task` on this loop once `due` has passed. Timers with the same
    /// due time run in the order they were scheduled.
    pub(crate) fn at(&mut self, due: Instant, task: impl FnOnce(&mut TimerQueue) + Send + 'static) {
        self.timers.insert((due, self.scheduled), Box::new(task));
        self.scheduled += 1;
    }
}

/// A cheap, cloneable handle for handing work to one loop; links, pipes and
/// bus protocols take the handle of the loop they run on.
#[derive(Clone)]
pub struct LoopHandle {
    tx: mpsc::Sender<Cmd>,
}

impl LoopHandle {
    /// Runs `task` on the loop, after everything handed over before it.
    /// Returns false once the loop has stopped.
    pub(crate) fn run(&self, task: impl FnOnce(&mut TimerQueue) + Send + 'static) -> bool {
        self.tx.send(Cmd::Run(Box::new(task))).is_ok()
    }

    /// Calls `tick` on the loop every `period`, the first time one period
    /// from now, until it returns false. A late tick is not made up: the
    /// next one is due a full period after the late one finished.
    pub(crate) fn every(&self, period: Duration, tick: impl FnMut() -> bool + Send + 'static) {
        self.run(move |q| rearm(q, period, tick));
    }
}

fn rearm<F: FnMut() -> bool + Send + 'static>(q: &mut TimerQueue, period: Duration, mut tick: F) {
    q.at(Instant::now() + period, move |q| {
        if tick() {
            rearm(q, period, tick);
        }
    });
}

/// One node's event-loop thread. Dropping it stops the loop and joins the
/// thread; timers still pending are dropped, not run.
pub struct EventLoop {
    handle: LoopHandle,
    thread: Option<JoinHandle<()>>,
}

impl EventLoop {
    /// Starts a loop on a new thread called `name`.
    pub fn new(name: String) -> EventLoop {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || run(rx))
            .expect("spawn event loop");
        EventLoop {
            handle: LoopHandle { tx },
            thread: Some(thread),
        }
    }

    /// A handle for handing work to this loop.
    pub fn handle(&self) -> &LoopHandle {
        &self.handle
    }
}

impl Drop for EventLoop {
    fn drop(&mut self) {
        let _ = self.handle.tx.send(Cmd::Stop);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn run(rx: mpsc::Receiver<Cmd>) {
    let mut queue = TimerQueue::default();
    loop {
        let now = Instant::now();
        while let Some(timer) = queue.timers.first_entry().filter(|t| t.key().0 <= now) {
            timer.remove()(&mut queue);
        }
        let cmd = match queue.timers.first_key_value() {
            Some(((due, _), _)) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };
        match cmd {
            Ok(Cmd::Run(task)) => task(&mut queue),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Ok(Cmd::Stop) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Test helper: waits until every timer `lp` has due within `after` of
/// now has run. Work handed to the loop earlier is scheduled first, so a
/// link's deliveries are settled once `after` covers its latency and jitter.
#[cfg(test)]
pub(crate) fn settle(lp: &LoopHandle, after: Duration) {
    let (tx, rx) = mpsc::channel();
    lp.run(move |q| {
        q.at(Instant::now() + after, move |_| {
            let _ = tx.send(());
        })
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("loop settles");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_run_in_due_order_then_schedule_order() {
        let lp = EventLoop::new("test-loop".into());
        let (tx, rx) = mpsc::channel();
        lp.handle().run(move |q| {
            let base = Instant::now() + Duration::from_millis(5);
            for (i, due) in [(0, 2u64), (1, 0), (2, 1), (3, 0)] {
                let tx = tx.clone();
                q.at(base + Duration::from_millis(due), move |_| {
                    let _ = tx.send(i);
                });
            }
        });
        let got: Vec<i32> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        assert_eq!(got, vec![1, 3, 2, 0]);
    }

    #[test]
    fn repeating_timer_stops_when_tick_returns_false() {
        let lp = EventLoop::new("test-loop".into());
        let (tx, rx) = mpsc::channel();
        let mut left = 3;
        lp.handle().every(Duration::from_millis(1), move || {
            left -= 1;
            let _ = tx.send(left);
            left > 0
        });
        let got: Vec<i32> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        assert_eq!(got, vec![2, 1, 0]);
        settle(lp.handle(), Duration::from_millis(20));
        assert!(rx.try_recv().is_err(), "no tick after the last");
    }

    #[test]
    fn dropping_the_loop_joins_it_and_refuses_more_work() {
        let lp = EventLoop::new("test-loop".into());
        let handle = lp.handle().clone();
        handle.every(Duration::from_secs(60), || true);
        let start = Instant::now();
        drop(lp);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(!handle.run(|_| {}), "a stopped loop refuses work");
    }
}
