//! A coarse hashed timer wheel for connection deadlines.
//!
//! The serving workload has tens of thousands of timers (one idle/read
//! deadline per connection) that are nearly all *cancelled* before they
//! fire — a keep-alive connection re-arms its deadline on every request.
//! A wheel makes arm O(1) and cancellation free: entries carry a
//! generation, the owner bumps its generation to cancel, and stale
//! entries are discarded when their slot comes around.
//!
//! Precision is deliberately coarse: one tick (default 25 ms). A
//! deadline fires in `[deadline, deadline + tick)` — the contract the
//! slowloris regression test asserts as "deadline ± one tick".

use std::time::{Duration, Instant};

/// Default tick granularity.
pub const DEFAULT_TICK: Duration = Duration::from_millis(25);

/// One armed deadline: the wheel hands `(token, gen)` back when it
/// fires; the owner compares `gen` against its live generation to
/// detect stale (logically cancelled) entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// The owner's cookie (connection slot, listener, …).
    pub token: u64,
    /// The owner's generation when armed.
    pub gen: u64,
}

struct Slot {
    /// (absolute tick, entry) — entries hashed into this slot whose
    /// tick has not arrived yet stay for a later revolution.
    entries: Vec<(u64, TimerEntry)>,
}

/// The wheel: `slots × tick` covers one revolution; deadlines beyond
/// that simply stay in their slot for another revolution (hashed wheel).
pub struct TimerWheel {
    slots: Vec<Slot>,
    tick: Duration,
    start: Instant,
    /// The next tick index `advance` will collect.
    cursor: u64,
    /// Live (non-discarded) entries, for scheduling poll timeouts.
    armed: usize,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `tick` granularity. 256 slots at
    /// 25 ms cover 6.4 s per revolution — longer deadlines wrap and
    /// cost one extra scan per revolution, which is fine at this scale.
    pub fn new(slots: usize, tick: Duration) -> TimerWheel {
        let slots = slots.max(2);
        TimerWheel {
            slots: (0..slots)
                .map(|_| Slot {
                    entries: Vec::new(),
                })
                .collect(),
            tick: tick.max(Duration::from_millis(1)),
            start: Instant::now(),
            cursor: 0,
            armed: 0,
        }
    }

    /// The tick granularity.
    pub fn tick(&self) -> Duration {
        self.tick
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.start);
        (since.as_nanos() / self.tick.as_nanos()) as u64
    }

    /// Arms a deadline. Cancellation is implicit: bump the generation
    /// you compare against when the entry comes back from [`Self::advance`].
    pub fn arm(&mut self, deadline: Instant, token: u64, gen: u64) {
        // Never schedule into the tick `advance` is about to collect —
        // round up so the deadline has fully elapsed when it fires.
        let tick = self.tick_of(deadline).max(self.cursor) + 1;
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot]
            .entries
            .push((tick, TimerEntry { token, gen }));
        self.armed += 1;
    }

    /// Collects every entry whose tick has arrived into `fired`,
    /// advancing the wheel cursor up to `now`. Returns the number fired.
    pub fn advance(&mut self, now: Instant, fired: &mut Vec<TimerEntry>) -> usize {
        let target = self.tick_of(now);
        let before = fired.len();
        let nslots = self.slots.len() as u64;
        // Scan at most one full revolution: past that, every slot has
        // been visited once and all due entries collected.
        let span = (target.saturating_sub(self.cursor)).min(nslots - 1);
        for t in self.cursor..=self.cursor + span {
            let slot = &mut self.slots[(t % nslots) as usize];
            let mut i = 0;
            while i < slot.entries.len() {
                if slot.entries[i].0 <= target {
                    let (_, e) = slot.entries.swap_remove(i);
                    fired.push(e);
                    self.armed -= 1;
                } else {
                    i += 1;
                }
            }
        }
        self.cursor = target;
        fired.len() - before
    }

    /// How long `poll` may sleep before the next tick needs collecting;
    /// `None` when nothing is armed.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        // Sleep to the next tick boundary; the wheel does not track
        // which tick fires next (that is the coarseness tradeoff).
        let now_ns = now.saturating_duration_since(self.start).as_nanos();
        let tick_ns = self.tick.as_nanos();
        let next = (now_ns / tick_ns + 1) * tick_ns;
        Some(Duration::from_nanos((next - now_ns) as u64))
    }

    /// Live entries (including logically cancelled ones not yet swept).
    pub fn armed(&self) -> usize {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_deadline_within_one_tick() {
        let mut w = TimerWheel::new(8, Duration::from_millis(10));
        let t0 = Instant::now();
        w.arm(t0 + Duration::from_millis(25), 7, 1);
        let mut fired = Vec::new();
        // Before the deadline: nothing.
        assert_eq!(w.advance(t0 + Duration::from_millis(10), &mut fired), 0);
        // Deadline + one tick: must have fired.
        assert_eq!(w.advance(t0 + Duration::from_millis(45), &mut fired), 1);
        assert_eq!(fired, vec![TimerEntry { token: 7, gen: 1 }]);
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn deadlines_beyond_one_revolution_wait_their_turn() {
        let mut w = TimerWheel::new(4, Duration::from_millis(10));
        let t0 = Instant::now();
        // 4 slots × 10 ms = one 40 ms revolution; arm at 95 ms.
        w.arm(t0 + Duration::from_millis(95), 1, 0);
        let mut fired = Vec::new();
        for ms in [20, 40, 60, 80] {
            w.advance(t0 + Duration::from_millis(ms), &mut fired);
            assert!(fired.is_empty(), "fired early at {ms}ms");
        }
        w.advance(t0 + Duration::from_millis(120), &mut fired);
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn many_timers_fire_in_bulk_and_stale_generations_are_the_callers_problem() {
        let mut w = TimerWheel::new(16, Duration::from_millis(5));
        let t0 = Instant::now();
        for i in 0..100 {
            w.arm(t0 + Duration::from_millis(10 + (i % 3)), i, i);
        }
        assert_eq!(w.armed(), 100);
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(30), &mut fired);
        assert_eq!(fired.len(), 100);
    }

    #[test]
    fn cancel_and_rearm_within_same_tick_fires_only_the_live_generation() {
        // The slowloris pattern the multi-reactor audit worried about: a
        // connection's deadline is cancelled and re-armed *within one
        // tick* (client trickling bytes faster than the 25 ms wheel
        // granularity), so both the stale and the live entry land in the
        // same slot with the same absolute tick.
        let mut w = TimerWheel::new(8, Duration::from_millis(10));
        let t0 = Instant::now();
        w.arm(t0 + Duration::from_millis(15), 7, 1);
        // The owner cancels by bumping its live generation, then re-arms.
        let live_gen = 2;
        w.arm(t0 + Duration::from_millis(15), 7, live_gen);
        assert_eq!(w.armed(), 2);
        let mut fired = Vec::new();
        w.advance(t0 + Duration::from_millis(40), &mut fired);
        // The wheel hands back both entries (cancellation is lazy), each
        // carrying the generation it was armed with — the owner's
        // staleness compare must discard exactly the cancelled one.
        assert_eq!(fired.len(), 2);
        let live: Vec<&TimerEntry> = fired.iter().filter(|e| e.gen == live_gen).collect();
        assert_eq!(
            live,
            vec![&TimerEntry {
                token: 7,
                gen: live_gen
            }]
        );
        assert_eq!(w.armed(), 0);
    }

    #[test]
    fn next_timeout_tracks_armed_state() {
        let mut w = TimerWheel::new(8, Duration::from_millis(10));
        let now = Instant::now();
        assert_eq!(w.next_timeout(now), None);
        w.arm(now + Duration::from_millis(50), 0, 0);
        let t = w.next_timeout(now).unwrap();
        assert!(t <= Duration::from_millis(10), "{t:?}");
    }
}
