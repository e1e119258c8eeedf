//! The arena-backed event calendar: a slab of event slots addressed by
//! stable [`EventKey`] handles, a hierarchical timer wheel for near-future
//! events, and a plain binary heap kept only as far-future overflow.
//!
//! # Ordering contract
//!
//! The calendar dispatches in **exact `(time, seq)` order**, byte-for-byte
//! identical to a global `BinaryHeap` ordered the same way. The wheel only
//! *partitions* events into time ranges; whenever a range becomes current
//! its entries are moved into a small exact-order staging buffer (`cur`)
//! that produces the final order. Determinism therefore does not depend on
//! bucket granularity, cascade timing or insertion pattern.
//!
//! # Structure
//!
//! * **Arena.** Every scheduled event lives in a slab slot — payload,
//!   `(time, seq)` and an intrusive chain link — recycled through a free
//!   list, so the steady-state run loop allocates nothing per event. The
//!   `(idx, gen)` pair is the public [`EventKey`]: stale keys (popped,
//!   cancelled or recycled slots) are detected by a generation mismatch.
//! * **Wheel.** [`LEVELS`] levels of 64 slots; a wheel slot is just the
//!   `u32` head of a chain threaded through the arena's link fields, so
//!   parking an event is two stores and no allocation. A level-`k` slot
//!   spans `64^k` ticks of [`TICK_NS`] nanoseconds; level `k` covers the
//!   next `64^(k+1)` ticks. Insertion picks the level by distance from
//!   the wheel's current tick (O(1)); per-level occupancy bitmaps make
//!   "find the earliest non-empty slot" O(1). Entering a level-`k>0`
//!   slot cascades its chain one level down; entering a level-0 slot
//!   moves it into `cur` (one bulk sort per bucket, O(1) tail pops).
//!   Empty stretches of virtual time are skipped without touching any
//!   slot.
//! * **Overflow.** Events farther than the wheel horizon (~68 s of
//!   virtual time) wait in a binary heap and are folded into the wheel
//!   as the clock approaches them. Experiments in this repo rarely put
//!   anything there; it exists so the wheel never needs resizing.
//!
//! # Cancellation
//!
//! Entries are removed lazily (the industry-standard tombstone scheme —
//! eagerly unlinking from a wheel chain or a heap would be O(n)):
//!
//! * [`EventCalendar::cancel`] frees the payload now and leaves a
//!   tombstone that is silently dropped — it never surfaces from
//!   [`EventCalendar::pop`] and its arena slot returns to the free list
//!   as soon as its container releases it.
//! * [`EventCalendar::detach`] frees the payload now but keeps the
//!   dispatch slot: `pop` still yields `(time, seq, None)` at the
//!   scheduled instant. The kernel uses this for timers of dead actor
//!   incarnations so that event accounting (`events_processed`, clock
//!   advancement) stays byte-identical to the historical behaviour of
//!   dropping them at dispatch time via a generation check.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Nanoseconds per wheel tick (level-0 slot width). Events inside the
/// same tick are ordered exactly by the `cur` staging buffer, so this is
/// a pure performance knob, not a resolution limit.
pub const TICK_NS: u64 = 1 << 12; // 4.096 us
const TICK_SHIFT: u32 = 12;
/// Bits per wheel level (64 slots each).
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; the horizon is `64^LEVELS` ticks (~68.7 s).
pub const LEVELS: usize = 4;
/// End-of-chain marker for the intrusive wheel lists.
const NIL: u32 = u32::MAX;

/// Ticks covered by one slot of `level`.
#[inline]
const fn slot_span(level: usize) -> u64 {
    1u64 << (LEVEL_BITS * level as u32)
}

/// Ticks covered by the whole of `level` (64 slots).
#[inline]
const fn level_span(level: usize) -> u64 {
    1u64 << (LEVEL_BITS * (level as u32 + 1))
}

#[inline]
fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> TICK_SHIFT
}

/// Stable handle on a scheduled event. Survives any amount of wheel
/// cascading; invalidated when the event pops, is cancelled, or (for
/// detached events) finally dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    idx: u32,
    gen: u32,
}

/// Ordering data plus the arena address, as staged in `cur` and the
/// overflow heap. 24 bytes, `Copy`.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One arena slot: the event itself plus its chain link.
///
/// `payload == None` means detached (still dispatches as a counted
/// no-op) or, with `tombstone` set, cancelled (silently dropped). A slot
/// is only returned to the free list by whichever container holds it —
/// a wheel chain, `cur`, or the overflow heap — so chains never dangle.
struct ArenaSlot<T> {
    gen: u32,
    next: u32,
    time: SimTime,
    seq: u64,
    payload: Option<T>,
    tombstone: bool,
}

/// See module docs. `T` is the event payload; the simulation kernel uses
/// its `Event` enum, tests and benches use plain integers.
pub struct EventCalendar<T> {
    slots: Vec<ArenaSlot<T>>,
    free: Vec<u32>,
    seq: u64,
    /// Exact-order staging buffer for the currently active time window,
    /// sorted by `(time, seq)` ascending; `cur_head` is the next dispatch
    /// position (the consumed prefix is reclaimed when the buffer
    /// drains). Refill bulk-sorts a whole bucket once; a later arrival
    /// inside the window is placed by binary search — for the common
    /// burst shape (same tick, rising sequence numbers) that position is
    /// the end, an O(1) push.
    cur: Vec<Entry>,
    cur_head: usize,
    /// Exclusive end of the active window: every pending entry with
    /// `time < cur_end` is in `cur`; everything in the wheel or overflow
    /// is at `cur_end` or later.
    cur_end: SimTime,
    /// Chain heads into the arena, one per wheel slot.
    heads: [[u32; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    /// Current wheel position in ticks; never exceeds the earliest
    /// pending wheel/overflow entry's tick.
    wheel_tick: u64,
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Pending pops: live + detached entries (tombstones excluded).
    len: usize,
}

impl<T> Default for EventCalendar<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventCalendar<T> {
    pub fn new() -> Self {
        EventCalendar {
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            cur: Vec::new(),
            cur_head: 0,
            cur_end: SimTime::ZERO,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            wheel_tick: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending dispatches (live and detached events).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` at `time`. Events are dispatched in `(time,
    /// insertion order)`; `time` must not be earlier than the last popped
    /// entry (the kernel asserts this at its own layer).
    pub fn schedule(&mut self, time: SimTime, payload: T) -> EventKey {
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                debug_assert!(slot.payload.is_none() && !slot.tombstone);
                slot.time = time;
                slot.seq = seq;
                slot.payload = Some(payload);
                slot.next = NIL;
                i
            }
            None => {
                self.slots.push(ArenaSlot {
                    gen: 0,
                    next: NIL,
                    time,
                    seq,
                    payload: Some(payload),
                    tombstone: false,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let gen = self.slots[idx as usize].gen;
        self.insert(Entry { time, seq, idx });
        self.len += 1;
        EventKey { idx, gen }
    }

    /// The `(time, seq)` dispatch position of a pending live entry, or
    /// `None` for a stale key (popped, cancelled, or detached). The
    /// schedule-policy seam uses this to hand a policy the authoritative
    /// dispatch position of an event it just deferred.
    pub fn position_of(&self, key: EventKey) -> Option<(SimTime, u64)> {
        let slot = self.slots.get(key.idx as usize)?;
        (slot.gen == key.gen && slot.payload.is_some() && !slot.tombstone)
            .then_some((slot.time, slot.seq))
    }

    /// Cancels a pending event: the payload is freed immediately and the
    /// event will never be observed by `pop` (the arena slot is recycled
    /// once its container releases the tombstone). Returns the payload,
    /// or `None` if the key is stale (already popped, cancelled, or
    /// detached).
    pub fn cancel(&mut self, key: EventKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen || slot.payload.is_none() {
            return None;
        }
        let payload = slot.payload.take();
        slot.tombstone = true;
        // Invalidate every copy of the key right away; the slot itself
        // stays parked until the wheel/heap/cur naturally reaches it.
        slot.gen = slot.gen.wrapping_add(1);
        self.len -= 1;
        payload
    }

    /// Detaches a pending event: the payload is freed immediately but the
    /// dispatch slot is kept — `pop` still yields `(time, seq, None)` at
    /// the scheduled instant. Returns the payload, or `None` for a stale
    /// key.
    pub fn detach(&mut self, key: EventKey) -> Option<T> {
        let slot = self.slots.get_mut(key.idx as usize)?;
        if slot.gen != key.gen || slot.tombstone {
            return None;
        }
        slot.payload.take()
    }

    /// Time of the next dispatch (live or detached), if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.prepare() {
            self.cur.get(self.cur_head).map(|e| e.time)
        } else {
            None
        }
    }

    /// Pops the next entry in exact `(time, seq)` order. The payload is
    /// `None` for detached events.
    pub fn pop(&mut self) -> Option<(SimTime, u64, EventKey, Option<T>)> {
        if !self.prepare() {
            return None;
        }
        let e = self.cur_pop().expect("prepare guaranteed a head");
        let gen = self.slots[e.idx as usize].gen;
        let payload = self.release(e.idx);
        self.len -= 1;
        Some((e.time, e.seq, EventKey { idx: e.idx, gen }, payload))
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn is_tombstone(&self, e: &Entry) -> bool {
        self.slots[e.idx as usize].tombstone
    }

    /// Advances past the staging head, reclaiming the buffer once the
    /// consumed prefix reaches the end.
    #[inline]
    fn cur_pop(&mut self) -> Option<Entry> {
        let e = self.cur.get(self.cur_head).copied()?;
        self.cur_head += 1;
        if self.cur_head == self.cur.len() {
            self.cur.clear();
            self.cur_head = 0;
        }
        Some(e)
    }

    /// Frees an arena slot and returns whatever payload it still held.
    #[inline]
    fn release(&mut self, idx: u32) -> Option<T> {
        let slot = &mut self.slots[idx as usize];
        let payload = slot.payload.take();
        slot.tombstone = false;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
        payload
    }

    /// Routes an entry to the staging buffer, a wheel chain, or overflow.
    fn insert(&mut self, e: Entry) {
        let t = tick_of(e.time);
        // Into the active exact-order window — or behind the wheel
        // position (possible when tombstone purging advanced the wheel
        // past a fully-cancelled future): `cur` keeps exact order either
        // way, and everything in the wheel/overflow is provably later.
        if e.time < self.cur_end || t < self.wheel_tick {
            // Ascending order: find the first pending entry that sorts
            // after the newcomer. New events carry the highest sequence
            // number, so a same-time burst lands at the end — a plain
            // push with nothing to shift.
            let pos =
                self.cur_head + self.cur[self.cur_head..].partition_point(|x| x.cmp(&e).is_lt());
            self.cur.insert(pos, e);
            return;
        }
        let delta = t - self.wheel_tick;
        for level in 0..LEVELS {
            if delta < level_span(level) {
                let slot = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[e.idx as usize].next = self.heads[level][slot];
                self.heads[level][slot] = e.idx;
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(Reverse(e));
    }

    /// Earliest candidate wheel slot as `(lower_bound_tick, level, slot)`,
    /// taking wrap-around into account (slots "behind" the current index
    /// belong to the next frame of their level).
    ///
    /// The bound is exact enough to drive the search: for every slot
    /// except the one holding `wheel_tick` itself, entries provably lie
    /// in a single frame, so the arithmetic range start is a reachable
    /// lower bound. The index slot of a level > 0 is the one place where
    /// current-frame and next-frame entries can legally mix (an insert
    /// near the end of a frame may wrap into the same slot one frame
    /// later while its delta stays within the level span), so its bound
    /// is computed from its actual minimum entry — otherwise a
    /// next-frame resident would shadow genuinely earlier slots and
    /// cascading it would re-insert it in place, looping forever.
    fn earliest_wheel_slot(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let idx = ((self.wheel_tick >> shift) & (SLOTS as u64 - 1)) as u32;
            let span = slot_span(level);
            let frame = level_span(level);
            let frame_base = self.wheel_tick & !(frame - 1);
            let ahead = occ & (u64::MAX << idx);
            let wrapped = occ & !(u64::MAX << idx);
            let mut cand: Option<(u64, usize)> = None;
            let mut consider = |bound: u64, slot: usize| {
                if cand.is_none_or(|(b, _)| bound < b) {
                    cand = Some((bound, slot));
                }
            };
            if ahead != 0 {
                let s = ahead.trailing_zeros() as usize;
                if level > 0 && s as u32 == idx {
                    // The index slot can mix current-frame entries with
                    // next-frame ones; its true minimum decides, and the
                    // following ahead slot / first wrapped slot may beat
                    // an all-next-frame index slot.
                    let mut min = u64::MAX;
                    let mut link = self.heads[level][s];
                    while link != NIL {
                        let slot = &self.slots[link as usize];
                        min = min.min(tick_of(slot.time));
                        link = slot.next;
                    }
                    consider(min, s);
                    let rest = ahead & (ahead - 1);
                    if rest != 0 {
                        let s2 = rest.trailing_zeros() as usize;
                        consider(frame_base + s2 as u64 * span, s2);
                    }
                    if wrapped != 0 {
                        let w = wrapped.trailing_zeros() as usize;
                        consider(frame_base + frame + w as u64 * span, w);
                    }
                } else {
                    consider((frame_base + s as u64 * span).max(self.wheel_tick), s);
                }
            } else {
                let w = wrapped.trailing_zeros() as usize;
                consider(frame_base + frame + w as u64 * span, w);
            }
            let (start, slot) = cand.expect("level was occupied");
            // `<=` prefers cascading the highest level on ties: a coarser
            // slot starting at the same tick may hold an equally early
            // entry, so it must be broken up before a level-0 take.
            if best.is_none_or(|(bs, _, _)| start <= bs) {
                best = Some((start, level, slot));
            }
        }
        best
    }

    /// Detaches a wheel slot's chain and returns its head.
    fn take_chain(&mut self, level: usize, slot: usize) -> u32 {
        let head = self.heads[level][slot];
        self.heads[level][slot] = NIL;
        self.occupied[level] &= !(1 << slot);
        head
    }

    /// Refills `cur` from the wheel/overflow. Returns false when the
    /// calendar has nothing pending at all. `cur` must be empty.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        loop {
            // Drop cancelled overflow heads so they never steer refill.
            while let Some(Reverse(e)) = self.overflow.peek() {
                if self.is_tombstone(e) {
                    let idx = e.idx;
                    self.overflow.pop();
                    self.release(idx);
                } else {
                    break;
                }
            }
            let wheel_next = self.earliest_wheel_slot();
            let overflow_next = self.overflow.peek().map(|Reverse(e)| tick_of(e.time));
            match (wheel_next, overflow_next) {
                (None, None) => return false,
                // Wheel empty: jump straight to the overflow head (no
                // occupied slot exists, so no cascade is owed) and fold
                // one level-0 frame's worth of overflow in.
                (None, Some(ot)) => {
                    debug_assert!(ot >= self.wheel_tick);
                    self.wheel_tick = ot;
                    self.fold_overflow_upto(ot + slot_span(1));
                }
                // Overflow head is at or before the earliest wheel slot:
                // fold it (and everything up to that slot) into the wheel
                // so the ordinary wheel path below sees all of it.
                (Some((wt, _, _)), Some(ot)) if ot <= wt => {
                    self.fold_overflow_upto(wt + 1);
                }
                (Some((wt, level, slot)), _) => {
                    debug_assert!(wt >= self.wheel_tick);
                    self.wheel_tick = wt;
                    let mut link = self.take_chain(level, slot);
                    if level == 0 {
                        // This tick becomes the active window.
                        self.cur_end =
                            SimTime::from_nanos((wt << TICK_SHIFT).saturating_add(TICK_NS));
                        while link != NIL {
                            let slot = &self.slots[link as usize];
                            let (e, next) = (
                                Entry {
                                    time: slot.time,
                                    seq: slot.seq,
                                    idx: link,
                                },
                                slot.next,
                            );
                            if slot.tombstone {
                                self.release(link);
                            } else {
                                self.cur.push(e);
                            }
                            link = next;
                        }
                        if !self.cur.is_empty() {
                            self.cur.sort_unstable();
                            return true;
                        }
                        // Chain held only tombstones; keep searching.
                    } else {
                        // Cascade one level down (strictly: re-insertion
                        // lands below `level` because the slot spans
                        // fewer ticks than `level`'s own span).
                        while link != NIL {
                            let slot = &self.slots[link as usize];
                            let (e, next) = (
                                Entry {
                                    time: slot.time,
                                    seq: slot.seq,
                                    idx: link,
                                },
                                slot.next,
                            );
                            if slot.tombstone {
                                self.release(link);
                            } else {
                                self.insert(e);
                            }
                            link = next;
                        }
                    }
                }
            }
        }
    }

    /// Moves overflow entries with `tick < bound` into the wheel.
    fn fold_overflow_upto(&mut self, bound: u64) {
        while let Some(Reverse(e)) = self.overflow.peek() {
            if tick_of(e.time) >= bound {
                break;
            }
            let Reverse(e) = self.overflow.pop().unwrap();
            if self.is_tombstone(&e) {
                self.release(e.idx);
            } else {
                self.insert(e);
            }
        }
    }

    /// Ensures the head of `cur` is a live or detached entry. Returns
    /// false when the calendar is fully drained.
    fn prepare(&mut self) -> bool {
        loop {
            while let Some(e) = self.cur.get(self.cur_head) {
                if self.is_tombstone(e) {
                    let idx = e.idx;
                    self.cur_pop();
                    self.release(idx);
                } else {
                    return true;
                }
            }
            if !self.refill() {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cal: &mut EventCalendar<u32>) -> Vec<(u64, u64, Option<u32>)> {
        let mut out = Vec::new();
        while let Some((t, s, _k, p)) = cal.pop() {
            out.push((t.as_nanos(), s, p));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime::from_nanos(50), 0);
        cal.schedule(SimTime::from_nanos(10), 1);
        cal.schedule(SimTime::from_nanos(10), 2);
        cal.schedule(SimTime::from_nanos(7), 3);
        assert_eq!(
            drain(&mut cal),
            vec![
                (7, 3, Some(3)),
                (10, 1, Some(1)),
                (10, 2, Some(2)),
                (50, 0, Some(0))
            ]
        );
    }

    #[test]
    fn spans_every_level_and_overflow() {
        // One event per magnitude: same tick, next tick, each wheel
        // level, far beyond the horizon.
        let times: Vec<u64> = vec![
            1,
            TICK_NS + 1,
            TICK_NS * 100,
            TICK_NS * 5_000,
            TICK_NS * 300_000,
            TICK_NS * 10_000_000,
            TICK_NS * (1 << 25), // beyond the 64^4-tick horizon
        ];
        let mut cal = EventCalendar::new();
        for (i, t) in times.iter().enumerate().rev() {
            cal.schedule(SimTime::from_nanos(*t), i as u32);
        }
        let popped = drain(&mut cal);
        let got: Vec<u64> = popped.iter().map(|(t, _, _)| *t).collect();
        assert_eq!(got, times);
        assert!(popped.iter().all(|(_, _, p)| p.is_some()));
    }

    #[test]
    fn cancel_removes_detach_keeps_slot() {
        let mut cal = EventCalendar::new();
        let a = cal.schedule(SimTime::from_nanos(10), 1u32);
        let b = cal.schedule(SimTime::from_nanos(20), 2);
        let c = cal.schedule(SimTime::from_nanos(30), 3);
        assert_eq!(cal.cancel(a), Some(1));
        assert_eq!(cal.cancel(a), None, "double cancel is a no-op");
        assert_eq!(cal.detach(b), Some(2));
        assert_eq!(cal.detach(b), None, "double detach is a no-op");
        assert_eq!(cal.len(), 2);
        assert_eq!(
            drain(&mut cal),
            vec![(20, 1, None), (30, 2, Some(3))],
            "cancelled entry vanished, detached entry kept its dispatch slot"
        );
        let _ = c;
    }

    #[test]
    fn keys_are_stale_after_pop_and_reuse() {
        let mut cal = EventCalendar::new();
        let a = cal.schedule(SimTime::from_nanos(5), 1u32);
        assert!(cal.pop().is_some());
        assert_eq!(cal.cancel(a), None, "popped key is stale");
        // The freed slot is recycled with a new generation.
        let b = cal.schedule(SimTime::from_nanos(9), 2);
        assert_ne!(a, b);
        assert_eq!(cal.cancel(b), Some(2));
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_exact_order() {
        // Steady-state churn: every popped event schedules a successor a
        // little later, crossing many tick and frame boundaries.
        let mut cal = EventCalendar::new();
        let mut scheduled = Vec::new();
        for i in 0..4u64 {
            cal.schedule(SimTime::from_nanos(i * 37), i as u32);
            scheduled.push((i * 37, i as u32));
        }
        let mut next_id = 4u32;
        let mut popped = Vec::new();
        while let Some((t, _s, _k, p)) = cal.pop() {
            popped.push((t.as_nanos(), p.unwrap()));
            if next_id < 400 {
                // Deterministic pseudo-random stride, often same-tick.
                let stride = (next_id as u64 * 2_654_435_761) % 9_001;
                let at = t + crate::time::SimDuration::from_nanos(stride);
                cal.schedule(at, next_id);
                scheduled.push((at.as_nanos(), next_id));
                next_id += 1;
            }
        }
        // Ground truth: `scheduled` is in sequence order, so a *stable*
        // sort by time is exactly the `(time, seq)` dispatch order —
        // same-time ties included.
        let mut expect = scheduled;
        expect.sort_by_key(|&(t, _)| t);
        assert_eq!(popped, expect);
    }

    #[test]
    fn empty_calendar_behaves() {
        let mut cal = EventCalendar::<u32>::new();
        assert!(cal.is_empty());
        assert_eq!(cal.peek_time(), None);
        assert!(cal.pop().is_none());
    }

    #[test]
    fn slots_are_reused_without_growing_the_arena() {
        let mut cal = EventCalendar::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                cal.schedule(
                    SimTime::from_nanos(round * 1000 + i),
                    (round * 8 + i) as u32,
                );
            }
            for _ in 0..8 {
                assert!(cal.pop().is_some());
            }
        }
        // Steady-state churn of 8 in flight never needs more than 8
        // arena slots (free-list reuse), regardless of total volume.
        assert!(cal.slots.len() <= 8, "arena grew to {}", cal.slots.len());
    }
}
