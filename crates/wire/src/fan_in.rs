//! The PS's fan-in: every worker slot's uploads, in arrival order, to
//! the one PS thread — each slot's queued bytes bounded by credit.
//!
//! A frame enters stamped with the slot it came from: a channel worker's
//! sender is tagged with its slot at spawn, and a socket reader stamps
//! the slot its connection was admitted to. The round engine learns a
//! frame's sender from that stamp, not from the frame
//! ([`RoundCore::ingest`](crate::RoundCore::ingest)).
//!
//! Credit, per slot:
//!
//! * a sender blocks while its slot's queued, not-yet-taken bytes are at
//!   or above [`CREDIT`]. A frame to a slot with nothing queued always
//!   passes, so a slot never holds more than `CREDIT` plus its largest
//!   frame;
//! * credit comes back when the PS takes a frame off the queue, whatever
//!   the round then does with it;
//! * the PS wakes a slot's blocked senders only if one waits, and only
//!   once that slot's queue has fallen below half of `CREDIT`; a sender
//!   wakes the PS only if it is parked;
//! * a socket reader that is out of credit stops reading its socket, so
//!   TCP flow control holds the rest in the kernel's socket buffer, not
//!   in the PS heap.
//!
//! When the PS loop is done, [`FanIn::open`] lifts the credit: blocked
//! senders finish their sends, and `train_run`'s end-of-job drain books
//! what they sent. Dropping the [`FanIn`] closes it: queued frames are freed and
//! every send, a blocked one included, fails with [`Closed`].

use crate::tcp::READ_BLOCK_LEN;
use bytes::Bytes;
use crossbeam::channel::{RecvTimeoutError, TryRecvError};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Bytes one slot may have queued at the PS before its sender waits:
/// four read blocks.
pub(crate) const CREDIT: usize = 4 * READ_BLOCK_LEN;

/// A send into a fan-in whose PS end is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Closed;

struct State {
    frames: VecDeque<(usize, Bytes)>,
    /// Queued, not-yet-taken bytes per slot.
    queued: Vec<usize>,
    /// Senders waiting for credit, per slot.
    waiting: Vec<usize>,
    /// The most bytes each slot ever had queued.
    #[cfg(test)]
    high_water: Vec<usize>,
    /// Live [`Feed`]s: with none left and nothing queued, a receive
    /// reports the disconnect.
    feeds: usize,
    /// The PS waits for a frame.
    parked: bool,
    /// The credit is lifted: the PS loop is done.
    open: bool,
    /// The PS end is gone.
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Where the PS waits for a frame.
    arrived: Condvar,
    /// Where each slot's senders wait for credit.
    credit: Vec<Condvar>,
}

impl Shared {
    // Poison recovery: no critical section here can panic halfway
    // through an update, and a fan-in hiccup must not take the PS down.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes every sender blocked on any slot.
    fn release_all(&self, state: &State) {
        for (slot, &waiting) in state.waiting.iter().enumerate() {
            if waiting > 0 {
                self.credit[slot].notify_all();
            }
        }
    }
}

/// A fan-in over `slots` worker slots: a [`Feed`] to clone for every
/// sender, and the PS's end.
pub(crate) fn fan_in(slots: usize) -> (Feed, FanIn) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            frames: VecDeque::new(),
            queued: vec![0; slots],
            waiting: vec![0; slots],
            #[cfg(test)]
            high_water: vec![0; slots],
            feeds: 1,
            parked: false,
            open: false,
            closed: false,
        }),
        arrived: Condvar::new(),
        credit: (0..slots).map(|_| Condvar::new()).collect(),
    });
    (
        Feed {
            shared: Arc::clone(&shared),
        },
        FanIn { shared },
    )
}

/// A sending end of a fan-in: every frame goes in stamped with its slot.
pub(crate) struct Feed {
    shared: Arc<Shared>,
}

impl Feed {
    /// Queues `frame` as `slot`'s, first waiting while the slot is out
    /// of credit. A sender that had to wait goes on once the PS has
    /// taken the slot's queue below half of [`CREDIT`].
    ///
    /// # Errors
    ///
    /// [`Closed`] once the PS end is gone; a blocked send returns it at
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not a slot of the fan-in.
    pub(crate) fn send(&self, slot: usize, frame: Bytes) -> Result<(), Closed> {
        let mut state = self.shared.lock();
        let mut limit = CREDIT;
        while !state.open && !state.closed && state.queued[slot] >= limit {
            state.waiting[slot] += 1;
            state = self.shared.credit[slot]
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting[slot] -= 1;
            limit = CREDIT / 2;
        }
        if state.closed {
            return Err(Closed);
        }
        state.queued[slot] += frame.len();
        #[cfg(test)]
        {
            state.high_water[slot] = state.high_water[slot].max(state.queued[slot]);
        }
        state.frames.push_back((slot, frame));
        let parked = state.parked;
        drop(state);
        if parked {
            self.shared.arrived.notify_one();
        }
        Ok(())
    }

    /// A sender that stamps every frame with `slot`.
    pub(crate) fn slot(&self, slot: usize) -> SlotSender {
        SlotSender {
            feed: self.clone(),
            slot,
        }
    }

    /// The most bytes `slot` ever had queued.
    #[cfg(test)]
    pub(crate) fn high_water(&self, slot: usize) -> usize {
        self.shared.lock().high_water[slot]
    }
}

impl Clone for Feed {
    fn clone(&self) -> Self {
        self.shared.lock().feeds += 1;
        Feed {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for Feed {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.feeds -= 1;
        if state.feeds == 0 && state.parked {
            self.shared.arrived.notify_one();
        }
    }
}

/// One worker slot's sender, tagged at spawn.
pub(crate) struct SlotSender {
    feed: Feed,
    slot: usize,
}

impl SlotSender {
    /// [`Feed::send`] as this sender's slot.
    ///
    /// # Errors
    ///
    /// [`Closed`] once the PS end is gone.
    pub(crate) fn send(&self, frame: Bytes) -> Result<(), Closed> {
        self.feed.send(self.slot, frame)
    }
}

/// The PS's end of a fan-in: frames in arrival order, each with the slot
/// it came from.
pub(crate) struct FanIn {
    shared: Arc<Shared>,
}

impl FanIn {
    /// Waits up to `timeout` for the next frame.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when none arrived in time,
    /// [`RecvTimeoutError::Disconnected`] when nothing is queued and
    /// every [`Feed`] is gone.
    pub(crate) fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<(usize, Bytes), RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(taken) = self.take(&mut state) {
                return Ok(taken);
            }
            if state.feeds == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            state.parked = true;
            state = self
                .shared
                .arrived
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.parked = false;
        }
    }

    /// The next frame if one is queued; never waits.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] when, besides, every [`Feed`] is
    /// gone.
    pub(crate) fn try_recv(&self) -> Result<(usize, Bytes), TryRecvError> {
        let mut state = self.shared.lock();
        match self.take(&mut state) {
            Some(taken) => Ok(taken),
            None if state.feeds == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Lifts the credit for good: every blocked sender goes on, and no
    /// send waits again.
    pub(crate) fn open(&self) {
        let mut state = self.shared.lock();
        state.open = true;
        self.shared.release_all(&state);
    }

    /// Pops the oldest frame and gives its bytes back to its slot,
    /// waking the slot's blocked senders as its queue falls below half
    /// of [`CREDIT`].
    fn take(&self, state: &mut State) -> Option<(usize, Bytes)> {
        let (slot, frame) = state.frames.pop_front()?;
        let before = state.queued[slot];
        state.queued[slot] -= frame.len();
        if state.waiting[slot] > 0 && before >= CREDIT / 2 && state.queued[slot] < CREDIT / 2 {
            self.shared.credit[slot].notify_all();
        }
        Some((slot, frame))
    }

    /// Senders of `slot` waiting for credit now.
    #[cfg(test)]
    pub(crate) fn waiting(&self, slot: usize) -> usize {
        self.shared.lock().waiting[slot]
    }
}

impl Drop for FanIn {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.closed = true;
        state.queued.fill(0);
        let frames = std::mem::take(&mut state.frames);
        self.shared.release_all(&state);
        drop(state);
        drop(frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// A frame of `len` bytes.
    fn frame(len: usize) -> Bytes {
        Bytes::from(vec![0xA5u8; len])
    }

    /// Waits up to 5 s for `slot` to have `n` senders blocked.
    fn await_waiting(fan_in: &FanIn, slot: usize, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while fan_in.waiting(slot) != n {
            assert!(Instant::now() < deadline, "slot {slot}: no sender blocked");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_slot_out_of_credit_does_not_block_another_slot() {
        let (feed, fan_in) = fan_in(2);
        feed.send(0, frame(CREDIT)).unwrap();
        let blocked = thread::scope(|scope| {
            let blocked = scope.spawn(|| feed.send(0, frame(1)));
            await_waiting(&fan_in, 0, 1);
            // Slot 1 spends its own credit past a full slot 0: under the
            // credit, then one frame over it.
            feed.send(1, frame(CREDIT - 1)).unwrap();
            feed.send(1, frame(CREDIT)).unwrap();
            assert_eq!(fan_in.waiting(0), 1, "slot 0 still waits");
            assert!(!blocked.is_finished());
            drop(fan_in);
            blocked.join().unwrap()
        });
        assert_eq!(blocked, Err(Closed));
        assert_eq!(feed.high_water(1), 2 * CREDIT - 1);
    }

    #[test]
    fn an_empty_slot_admits_any_one_frame() {
        let (feed, fan_in) = fan_in(1);
        // A batch frame several times the credit passes an empty slot.
        feed.send(0, frame(5 * CREDIT)).unwrap();
        assert_eq!(feed.high_water(0), 5 * CREDIT);
        let (slot, taken) = fan_in.try_recv().unwrap();
        assert_eq!((slot, taken.len()), (0, 5 * CREDIT));
        // Just under the credit, one more frame still passes.
        feed.send(0, frame(CREDIT - 1)).unwrap();
        feed.send(0, frame(CREDIT)).unwrap();
        assert_eq!(feed.high_water(0), 5 * CREDIT);
        assert_eq!(fan_in.waiting(0), 0);
    }

    #[test]
    fn a_blocked_sender_wakes_once_its_queue_falls_below_half() {
        let (feed, fan_in) = fan_in(1);
        for _ in 0..4 {
            feed.send(0, frame(CREDIT / 4)).unwrap();
        }
        thread::scope(|scope| {
            let sender = scope.spawn(|| feed.send(0, frame(CREDIT / 4)));
            await_waiting(&fan_in, 0, 1);
            // Three quarters, then half, of the credit still queued: the
            // sender keeps waiting.
            for _ in 0..2 {
                fan_in.try_recv().unwrap();
                thread::sleep(Duration::from_millis(20));
                assert!(!sender.is_finished(), "woken at or above half the credit");
            }
            fan_in.try_recv().unwrap();
            assert_eq!(sender.join().unwrap(), Ok(()));
        });
        assert_eq!(fan_in.waiting(0), 0);
        let left = std::iter::from_fn(|| fan_in.try_recv().ok()).count();
        assert_eq!(left, 2, "one frame queued before, one after the wake");
    }

    #[test]
    fn closing_releases_blocked_senders_with_closed() {
        let (feed, fan_in) = fan_in(3);
        for slot in 0..3 {
            feed.send(slot, frame(CREDIT)).unwrap();
        }
        let results = thread::scope(|scope| {
            let senders: Vec<_> = (0..3)
                .map(|slot| {
                    let feed = feed.clone();
                    scope.spawn(move || feed.send(slot, frame(1)))
                })
                .collect();
            (0..3).for_each(|slot| await_waiting(&fan_in, slot, 1));
            drop(fan_in);
            senders
                .into_iter()
                .map(|s| s.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(results, vec![Err(Closed); 3]);
        assert_eq!(
            feed.send(0, frame(1)),
            Err(Closed),
            "and fails every later send"
        );
    }

    #[test]
    fn opening_lets_every_blocked_sender_finish() {
        let (feed, fan_in) = fan_in(1);
        feed.send(0, frame(CREDIT)).unwrap();
        thread::scope(|scope| {
            let sender = scope.spawn(|| feed.send(0, frame(1)));
            await_waiting(&fan_in, 0, 1);
            fan_in.open();
            assert_eq!(sender.join().unwrap(), Ok(()));
        });
        // Open for good: a full slot takes more without a wait.
        feed.send(0, frame(CREDIT)).unwrap();
        let left = std::iter::from_fn(|| fan_in.try_recv().ok()).count();
        assert_eq!(left, 3);
    }

    #[test]
    fn a_parked_receiver_wakes_on_a_send_and_on_the_last_feed_drop() {
        let (feed, fan_in) = fan_in(1);
        thread::scope(|scope| {
            let receiver = scope.spawn(|| fan_in.recv_timeout(Duration::from_secs(10)));
            thread::sleep(Duration::from_millis(20));
            feed.send(0, frame(3)).unwrap();
            let (slot, taken) = receiver.join().unwrap().unwrap();
            assert_eq!((slot, taken.len()), (0, 3));
        });
        let started = Instant::now();
        thread::scope(|scope| {
            let receiver = scope.spawn(|| fan_in.recv_timeout(Duration::from_secs(10)));
            thread::sleep(Duration::from_millis(20));
            drop(feed);
            assert_eq!(
                receiver.join().unwrap(),
                Err(RecvTimeoutError::Disconnected)
            );
        });
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
