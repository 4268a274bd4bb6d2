//! The future-event list and simulation driver.
//!
//! [`EventQueue`] is a priority queue ordered by event time with ties broken
//! by insertion order, which makes runs fully deterministic: two simulations
//! that schedule the same events in the same order execute them identically.
//!
//! Internally it is a hierarchical timing wheel rather than a binary heap:
//! near-future events land in per-nanosecond buckets whose push and pop are
//! amortized `O(1)`, and only events beyond the wheel horizon (~4.9 hours
//! of simulated time) fall back to a heap. Buckets are intrusive singly
//! linked lists threaded through one entry arena, so a push is an arena
//! append plus a head link and a cascade relinks pointers without moving
//! events. The first level is deliberately wide (256 one-nanosecond slots)
//! so steady-state patterns whose horizon fits inside it never pay for a
//! cascade, and a bucket holding a single event is served in place — the
//! small-occupancy fast paths. See `DESIGN.md` §"Future-event list" for the
//! layout and the determinism argument; `crate::heap_fel::HeapQueue` is the
//! reference implementation the wheel is differentially tested against.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::{EventHandler, SimTime};

/// Ancestor push instants carried in a [`TieKey`] (including the
/// event's own push instant). Two same-time events whose causal chains
/// differ anywhere in the last sixteen hops order exactly as a
/// sequential run would; chains in lockstep for longer than that
/// collide, which [`EventQueue::ambiguous_ties`] detects so sharded
/// runs can fall back rather than diverge. Deeper keys buy rarer
/// fallbacks at a memory-bandwidth cost on every event a keyed queue
/// schedules.
const KEY_DEPTH: usize = 16;

/// An opaque FEL tie-breaking key: the instant an event was pushed plus
/// a bounded window of its ancestors' push instants, compared
/// lexicographically before insertion order. Only keyed queues
/// ([`EventQueue::enable_tie_keys`]) track keys: [`EventQueue::push`]
/// derives one automatically (the key of the event being handled seeds
/// its children's keys). Conservative-parallel runs capture a sender's
/// key with [`EventQueue::current_tie_key`] and replay it on another
/// shard via [`EventQueue::push_ordered`], so a message physically
/// inserted at a window barrier still sorts where the sequential run's
/// push (made mid-handling at the send instant) would have placed it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct TieKey([u64; KEY_DEPTH]);

/// The key of every event pushed before the first pop, and the one a
/// `NIL` key index stands for.
const ZERO_KEY: TieKey = TieKey([0; KEY_DEPTH]);

/// Low bits of a `seq` holding the per-queue push counter. The high bits
/// tag cross-shard insertions ([`SEQ_MSG_BIT`] plus the source stream),
/// so the ambiguity detector can tell whether a full-key collision is
/// benign (plain FIFO pushes, or messages from one stream whose barrier
/// order already reproduces the sender's emission order) or genuinely
/// unresolvable from local information.
const SEQ_COUNTER_BITS: u32 = 40;
/// Marks a `seq` as belonging to a [`EventQueue::push_ordered`] insertion.
const SEQ_MSG_BIT: u64 = 1 << 63;

/// log2 of the slot count of the first wheel level. Level 0 slots are a
/// single nanosecond wide, so one slot holds events of exactly one
/// timestamp; making the level wide (256 slots) lets short-horizon
/// steady states (e.g. a NIC serializing back-to-back packets) run
/// entirely inside it without cascading.
const L0_BITS: u32 = 8;
/// Slots on level 0 (256).
const L0_SLOTS: usize = 1 << L0_BITS;
/// 64-bit occupancy words covering level 0.
const L0_WORDS: usize = L0_SLOTS / 64;
/// log2 of the slot count per upper wheel level.
const UP_BITS: u32 = 6;
/// Slots per upper level (64).
const UP_SLOTS: usize = 1 << UP_BITS;
/// Upper wheel levels. Upper level `k` (1-based) slots are
/// `2^(8 + 6(k-1))` ns wide.
const UP_LEVELS: usize = 6;
/// Bits covered by the wheel. Events more than `2^44` ns (~4.9 h) past
/// the clock's current `2^44` ns window go to the overflow heap.
const WHEEL_BITS: u32 = L0_BITS + UP_BITS * UP_LEVELS as u32;
/// Total slots across all levels.
const SLOT_COUNT: usize = L0_SLOTS + UP_SLOTS * UP_LEVELS;
/// Null link in the arena's intrusive lists, and the key-slab index of
/// the all-zero [`TieKey`].
const NIL: u32 = u32::MAX;

/// Bit shift selecting the digit of upper level `level` (1-based).
const fn up_shift(level: usize) -> u32 {
    L0_BITS + UP_BITS * (level as u32 - 1)
}

/// Index of upper level `level`'s first slot in the flat head table.
const fn up_base(level: usize) -> usize {
    L0_SLOTS + (level - 1) * UP_SLOTS
}

/// An arena node: one scheduled event threaded into a slot's list.
/// `event` is `None` only while the node sits on the free list.
struct Node<E> {
    at: u64,
    seq: u64,
    next: u32,
    /// The event's [`KeyState`] slab index (`NIL` on an unkeyed queue).
    key: u32,
    event: Option<E>,
}

/// An event out of the arena: staged in the batch for immediate
/// service, or waiting in the overflow heap, which orders entries by
/// `(at, seq)` — the full order of an unkeyed queue. A keyed queue
/// stages each overflow instant whole and lets the batch sort apply the
/// keys (see [`EventQueue::sort_batch`]).
struct Staged<E> {
    at: u64,
    seq: u64,
    /// The event's [`KeyState`] slab index (`NIL` on an unkeyed queue).
    key: u32,
    event: E,
}

impl<E> PartialEq for Staged<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Staged<E> {}
impl<E> PartialOrd for Staged<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Staged<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (at, seq)
        // pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Tie-key bookkeeping of a keyed queue. Keys live out of line, so an
/// unkeyed queue's nodes carry only a 4-byte index that stays `NIL`.
struct KeyState {
    /// Keys of pending events, indexed by `Node::key` / `Staged::key`;
    /// a served event's slot is recycled through `free`.
    slab: Vec<TieKey>,
    free: Vec<u32>,
    /// Key of the event most recently popped (the one being handled);
    /// pushes made while handling it derive their keys from it.
    cur: TieKey,
    /// `true` once [`EventQueue::push_ordered`] has been used: only then
    /// can a tie be ambiguous, so the detector stays off until then.
    tagged: bool,
    /// `(at, key, seq)` of the most recently served event, for the
    /// adjacency check in [`served`](Self::served).
    last_pop: (u64, TieKey, u64),
    /// See [`EventQueue::ambiguous_ties`].
    ambiguous_ties: u64,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState {
            slab: Vec::new(),
            free: Vec::new(),
            cur: ZERO_KEY,
            tagged: false,
            last_pop: (u64::MAX, ZERO_KEY, 0),
            ambiguous_ties: 0,
        }
    }
}

impl KeyState {
    fn get(&self, idx: u32) -> &TieKey {
        if idx == NIL {
            &ZERO_KEY
        } else {
            &self.slab[idx as usize]
        }
    }

    /// The key a push at `now` receives: `now` prepended to the handled
    /// event's ancestor window.
    fn derive(&self, now: u64) -> TieKey {
        let mut k = [0; KEY_DEPTH];
        k[0] = now;
        k[1..].copy_from_slice(&self.cur.0[..KEY_DEPTH - 1]);
        TieKey(k)
    }

    /// Stores `key` for a pending event and returns its index.
    fn insert(&mut self, key: TieKey) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = key;
                idx
            }
            None => {
                self.slab.push(key);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Records a served event: its key becomes the current one (freeing
    /// its slot) and feeds the ambiguity detector. Comparing the seqs'
    /// tag bits before the keys keeps the common cases — differing
    /// instants, two plain pushes — to a few integer compares.
    #[inline(never)]
    fn served(&mut self, at: u64, idx: u32, seq: u64) {
        self.cur = *self.get(idx);
        if idx != NIL {
            self.free.push(idx);
        }
        if !self.tagged {
            return;
        }
        let (p_at, p_key, p_seq) = self.last_pop;
        if p_at == at && p_seq >> SEQ_COUNTER_BITS != seq >> SEQ_COUNTER_BITS && p_key == self.cur {
            self.ambiguous_ties += 1;
        }
        self.last_pop = (at, self.cur, seq);
    }
}

/// Panic message for key operations on an unkeyed queue.
const UNKEYED: &str =
    "tie keys are off on this EventQueue: call enable_tie_keys before the first pop";

/// A deterministic future-event list.
///
/// Events pop in nondecreasing time order; events scheduled for the same
/// instant pop in the order they were pushed (FIFO), never arbitrarily:
/// the full order is `(time, push order)`. A *keyed* queue
/// ([`EventQueue::enable_tie_keys`], used by the sharded runtime) breaks
/// ties by `(key, push order)` instead, where `key` is a [`TieKey`] —
/// the push instant plus a window of ancestor push instants. Plain
/// pushes derive nondecreasing keys, so a keyed sequential run pops the
/// same FIFO order (with one caveat, see
/// [`enable_tie_keys`](EventQueue::enable_tie_keys));
/// [`EventQueue::push_ordered`] lets a sharded run
/// insert a cross-shard message with the sender's key so it sorts where
/// its sequential push would have occurred.
///
/// # Example
///
/// ```
/// use pmsb_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), 'b');
/// q.push(SimTime::from_nanos(10), 'c');
/// q.push(SimTime::from_nanos(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Backing store for every event resident in a wheel slot. Nodes are
    /// recycled through `free_head`, so steady-state operation allocates
    /// only when concurrency grows past its high-water mark.
    arena: Vec<Node<E>>,
    /// Head of the free-node list threaded through `Node::next`.
    free_head: u32,
    /// `heads[0..L0_SLOTS]` are the level-0 buckets; slot `i` holds events
    /// whose time agrees with the clock above bit `L0_BITS` and whose low
    /// 8 bits are `i`. `heads[up_base(k)..up_base(k) + UP_SLOTS]` are
    /// upper level `k`'s buckets keyed by that level's 6-bit digit. Each
    /// bucket is an unordered intrusive list into `arena` (consumers sort
    /// by seq or redistribute). Invariant: every stored event is strictly
    /// later than `now`, so a slot at or below the clock's digit on its
    /// level is always empty. Lazily allocated on the first wheel
    /// placement.
    heads: Box<[u32]>,
    /// Bit `i % 64` of `occ0[i / 64]` is set iff level-0 slot `i` is
    /// non-empty.
    occ0: [u64; L0_WORDS],
    /// Bit `i` of `occ_up[k - 1]` is set iff upper level `k`'s slot `i`
    /// is non-empty.
    occ_up: [u64; UP_LEVELS],
    /// Events beyond the wheel horizon. Always strictly later than every
    /// event in the wheel, so they only need inspecting when the wheel
    /// drains or the clock approaches them.
    overflow: BinaryHeap<Staged<E>>,
    /// Events at exactly `now`, in pop order. `pop` serves from here;
    /// pushes at the current instant append here directly.
    batch: VecDeque<Staged<E>>,
    now: u64,
    next_seq: u64,
    /// Number of events resident in wheel slots (not batch or overflow):
    /// a one-load emptiness test for the overflow fast path.
    wheel_len: usize,
    /// Tie-key state, present only on a keyed queue.
    keys: Option<Box<KeyState>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in the wheel arena — the FEL's
    /// per-event memory floor for an event type `E`.
    pub fn node_bytes() -> usize {
        std::mem::size_of::<Node<E>>()
    }

    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    ///
    /// Allocation-free: the slot-head table materializes on the first
    /// push that lands inside the wheel horizon, so queues whose events
    /// all sit in the far future (or that are built and thrown away
    /// often) never pay for it.
    pub fn new() -> Self {
        EventQueue {
            arena: Vec::new(),
            free_head: NIL,
            heads: Box::default(),
            occ0: [0; L0_WORDS],
            occ_up: [0; UP_LEVELS],
            overflow: BinaryHeap::new(),
            batch: VecDeque::new(),
            now: 0,
            next_seq: 0,
            wheel_len: 0,
            keys: None,
        }
    }

    /// Creates an empty queue sized for roughly `events` concurrently
    /// pending events (see [`EventQueue::reserve`]).
    pub fn with_capacity(events: usize) -> Self {
        let mut q = Self::new();
        q.reserve(events);
        q
    }

    /// Pre-sizes internal storage for `additional` more concurrently
    /// pending events, so steady-state operation does not grow buffers.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional);
        self.ensure_heads();
        self.batch
            .reserve(additional.div_ceil(L0_SLOTS).max(UP_SLOTS));
    }

    /// Makes this a *keyed* queue: from now on every push records a
    /// [`TieKey`], same-instant events pop in `(key, push order)`, and
    /// [`current_tie_key`](Self::current_tie_key),
    /// [`push_ordered`](Self::push_ordered) and
    /// [`ambiguous_ties`](Self::ambiguous_ties) become meaningful. The
    /// sharded runtime switches this on for each logical process at
    /// set-up; a sequential run never needs it, since plain pushes order
    /// identically without keys — provided nothing is pushed between a
    /// declined [`pop_at_or_before`](Self::pop_at_or_before) and the next
    /// served event (the clock then sits past the handled event, so such
    /// a push's key may sort it ahead of earlier same-time pushes).
    /// Events already pending keep the all-zero key, which is the key
    /// they would have received.
    ///
    /// # Panics
    ///
    /// Panics if the queue has served an event or advanced its clock:
    /// the keys of everything pushed since would be unknown.
    pub fn enable_tie_keys(&mut self) {
        assert!(
            self.now == 0 && self.next_seq == self.len() as u64,
            "EventQueue::enable_tie_keys must be called before the first pop"
        );
        self.keys.get_or_insert_with(Box::default);
    }

    /// The slab index of the key a push at this point receives.
    #[inline]
    fn push_key(&mut self) -> u32 {
        match self.keys.as_deref_mut() {
            None => NIL,
            Some(k) => {
                let key = k.derive(self.now);
                k.insert(key)
            }
        }
    }

    /// Schedules `event` to occur at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when scheduling into the past — that is always
    /// a logic error in the model.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at.as_nanos() >= self.now,
            "scheduling into the past: at={at} now={}",
            SimTime::from_nanos(self.now)
        );
        // Release builds clamp instead of corrupting the wheel.
        let at = at.as_nanos().max(self.now);
        let key = self.push_key();
        let seq = self.next_seq;
        self.next_seq += 1;
        let x = at ^ self.now;
        if x == 0 {
            // At the current instant. The overflow heap may still hold
            // events at `now` (the fast pop path leaves same-instant
            // siblings behind); they sort ahead of this push, so stage
            // them first to keep the batch ordered.
            if !self.overflow.is_empty() {
                self.stage_overflow_instant();
            }
            self.batch.push_back(Staged {
                at,
                seq,
                key,
                event,
            });
        } else if x >> WHEEL_BITS != 0 {
            self.overflow.push(Staged {
                at,
                seq,
                key,
                event,
            });
        } else {
            self.ensure_heads();
            let idx = self.alloc_node(at, seq, key, event);
            self.link(idx, at, x);
            self.wheel_len += 1;
        }
    }

    /// The [`TieKey`] a [`push`](Self::push) made at this point in
    /// execution would receive: the current instant prepended to the
    /// handled event's ancestor window. A sharded run captures this on
    /// the sending shard when it emits a cross-shard message.
    ///
    /// # Panics
    ///
    /// Panics unless the queue is keyed
    /// ([`enable_tie_keys`](Self::enable_tie_keys)).
    #[inline]
    pub fn current_tie_key(&self) -> TieKey {
        self.keys.as_deref().expect(UNKEYED).derive(self.now)
    }

    /// Schedules `event` at `at` with an explicit tie-break `key` (a
    /// sender-side [`EventQueue::current_tie_key`] capture). Same-time
    /// events pop in ascending `(key, push order)`; [`EventQueue::push`]
    /// derives keys from the current instant, so mixing the two is
    /// well-defined.
    ///
    /// This exists for conservative-parallel runs: a cross-shard message
    /// is physically inserted at a window barrier (late push order) but
    /// was logically sent at an earlier instant on another shard. Keying
    /// it by the sequential push's key reproduces the sequential pop
    /// order wherever the causal chains differ inside the key window.
    ///
    /// `stream` identifies the sending shard. Callers must insert
    /// same-instant messages in `(source, emission order)` sequence —
    /// then a full-key collision between two messages of one stream is
    /// still served in the sender's emission order, and only collisions
    /// across streams (or against local pushes) are counted by
    /// [`EventQueue::ambiguous_ties`].
    ///
    /// # Panics
    ///
    /// Panics unless the queue is keyed
    /// ([`enable_tie_keys`](Self::enable_tie_keys)). Panics in debug
    /// builds unless the key's push instant precedes `at` and `at` is
    /// strictly in the future — lookahead guarantees both for message
    /// delivery.
    pub fn push_ordered(&mut self, at: SimTime, key: TieKey, stream: u32, event: E) {
        let keys = self.keys.as_deref_mut().expect(UNKEYED);
        let at = at.as_nanos();
        debug_assert!(
            key.0[0] <= at,
            "tie key after the event time: key={key:?} at={at}"
        );
        debug_assert!(
            at > self.now,
            "ordered push must target the strict future: at={at} now={}",
            self.now
        );
        debug_assert!(
            u64::from(stream) < SEQ_MSG_BIT >> SEQ_COUNTER_BITS,
            "stream id too large to tag: {stream}"
        );
        if at <= self.now {
            // Release-build fallback: degrade to a plain push.
            return self.push(SimTime::from_nanos(at), event);
        }
        keys.tagged = true;
        let key = keys.insert(key);
        debug_assert!(
            self.next_seq >> SEQ_COUNTER_BITS == 0,
            "seq counter overflow"
        );
        let seq = SEQ_MSG_BIT | u64::from(stream) << SEQ_COUNTER_BITS | self.next_seq;
        self.next_seq += 1;
        let x = at ^ self.now;
        if x >> WHEEL_BITS != 0 {
            self.overflow.push(Staged {
                at,
                seq,
                key,
                event,
            });
        } else {
            self.ensure_heads();
            let idx = self.alloc_node(at, seq, key, event);
            self.link(idx, at, x);
            self.wheel_len += 1;
        }
    }

    /// Materializes the lazily-allocated slot-head table.
    #[cold]
    fn alloc_heads(&mut self) {
        self.heads = vec![NIL; SLOT_COUNT].into_boxed_slice();
    }

    /// Ensures the slot-head table is allocated before a wheel placement.
    #[inline]
    fn ensure_heads(&mut self) {
        if self.heads.is_empty() {
            self.alloc_heads();
        }
    }

    /// Takes a node off the free list or grows the arena.
    #[inline]
    fn alloc_node(&mut self, at: u64, seq: u64, key: u32, event: E) -> u32 {
        let idx = self.free_head;
        if idx != NIL {
            let n = &mut self.arena[idx as usize];
            self.free_head = n.next;
            n.at = at;
            n.seq = seq;
            n.key = key;
            n.event = Some(event);
            idx
        } else {
            let idx = self.arena.len() as u32;
            if self.arena.capacity() < 64 {
                // Skip the smallest rungs of the doubling ladder: a queue
                // that wheel-places anything almost always holds tens of
                // events, and the early grow-and-copy rounds are a
                // measurable share of cold-queue push cost (~64 nodes is
                // ~2.5 KiB, cheaper than four reallocation memcpys).
                self.arena.reserve(64 - self.arena.len());
            }
            self.arena.push(Node {
                at,
                seq,
                next: NIL,
                key,
                event: Some(event),
            });
            idx
        }
    }

    /// Returns a node (whose event has been taken) to the free list.
    #[inline]
    fn free_node(&mut self, idx: u32) {
        debug_assert!(self.arena[idx as usize].event.is_none());
        self.arena[idx as usize].next = self.free_head;
        self.free_head = idx;
    }

    /// Threads arena node `idx` (scheduled for `at`, `x = at ^ now`) into
    /// its wheel slot. The caller accounts for `wheel_len`.
    #[inline]
    fn link(&mut self, idx: u32, at: u64, x: u64) {
        debug_assert!(x != 0 && x >> WHEEL_BITS == 0);
        let slot = if x >> L0_BITS == 0 {
            let slot = (at & (L0_SLOTS as u64 - 1)) as usize;
            self.occ0[slot >> 6] |= 1 << (slot & 63);
            slot
        } else {
            // Highest bit where `at` differs from the clock picks the
            // upper level; the event's digit on that level picks the slot.
            let level = ((63 - x.leading_zeros() - L0_BITS) / UP_BITS) as usize + 1;
            let slot = ((at >> up_shift(level)) & (UP_SLOTS as u64 - 1)) as usize;
            self.occ_up[level - 1] |= 1 << slot;
            up_base(level) + slot
        };
        self.arena[idx as usize].next = self.heads[slot];
        self.heads[slot] = idx;
    }

    /// Same-instant pop adjacencies whose order the sequential contract
    /// does not determine: the events' full tie keys collide and at
    /// least one side is a [`push_ordered`](Self::push_ordered) insertion
    /// from a different stream than the other. The causal chains agree
    /// through the whole `KEY_DEPTH` window (e.g. two ports serializing
    /// identical packets in lockstep), so no bounded key can recover
    /// where the sequential push would have fallen.
    ///
    /// Zero means the pop sequence served so far is exactly the
    /// sequential run's schedule projected onto this shard: shards share
    /// no state except messages, messages with distinct keys sort where
    /// the key dictates, and the remaining collision classes (plain
    /// local FIFO pairs, one stream's emission order) are reproduced by
    /// construction. Callers use a non-zero count to discard a sharded
    /// run and fall back to the sequential path. Always zero on an
    /// unkeyed queue.
    pub fn ambiguous_ties(&self) -> u64 {
        self.keys.as_deref().map_or(0, |k| k.ambiguous_ties)
    }

    /// Hands a dequeued event to the caller, first recording its key on
    /// a keyed queue.
    #[inline]
    fn serve(&mut self, e: Staged<E>) -> Option<(SimTime, E)> {
        if let Some(k) = self.keys.as_deref_mut() {
            k.served(e.at, e.key, e.seq);
        }
        Some((SimTime::from_nanos(e.at), e.event))
    }

    /// Sorts the batch (every entry at `now`) into pop order: by seq on
    /// an unkeyed queue, by `(key, seq)` on a keyed one.
    fn sort_batch(&mut self) {
        let batch = self.batch.make_contiguous();
        match self.keys.as_deref() {
            None => batch.sort_unstable_by_key(|e| e.seq),
            Some(k) => batch
                .sort_unstable_by(|a, b| k.get(a.key).cmp(k.get(b.key)).then(a.seq.cmp(&b.seq))),
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Hot path 1: the current instant's batch is already staged.
        if let Some(e) = self.batch.pop_front() {
            debug_assert_eq!(e.at, self.now);
            return self.serve(e);
        }
        // Hot path 2: nothing in the wheel — serve the overflow heap
        // directly; it already orders an unkeyed queue by (time, seq).
        if self.wheel_len == 0 && self.keys.is_none() {
            let s = self.overflow.pop()?;
            self.now = s.at;
            return self.serve(s);
        }
        self.pop_slow(u64::MAX)
    }

    /// Like [`pop`](Self::pop), but returns `None` (leaving the event
    /// queued) when the earliest event is strictly after `deadline`.
    ///
    /// This is the driver-loop primitive: it locates the next event once,
    /// where a `peek_time` + `pop` pair would scan the wheel twice. When
    /// it declines past-deadline work the clock may still have advanced to
    /// that pending event's timestamp — the same instant `pop` would
    /// report — so subsequent pushes must not target earlier times, which
    /// holds for any handler that only schedules at or after the events it
    /// receives.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if let Some(e) = self.batch.pop_front() {
            debug_assert_eq!(e.at, self.now);
            if e.at > deadline.as_nanos() {
                self.batch.push_front(e);
                return None;
            }
            return self.serve(e);
        }
        self.pop_slow(deadline.as_nanos())
    }

    /// Takes the staged event out of arena node `idx` and recycles the
    /// node.
    #[inline]
    fn unstage(&mut self, idx: u32) -> Staged<E> {
        let n = &mut self.arena[idx as usize];
        let staged = Staged {
            at: n.at,
            seq: n.seq,
            key: n.key,
            event: n.event.take().expect("live arena node"),
        };
        self.free_node(idx);
        staged
    }

    /// Locates, dequeues, and returns the earliest event when the live
    /// batch is empty: serves single events straight from the overflow
    /// heap or a single-entry bucket (the small-occupancy fast paths), and
    /// only stages a batch when an instant holds several events or a
    /// cascade is required.
    fn pop_slow(&mut self, deadline: u64) -> Option<(SimTime, E)> {
        loop {
            // A migration or cascade from a previous round may have
            // deposited events at exactly `now`; they arrive out of
            // order, so sort before serving.
            if !self.batch.is_empty() {
                self.sort_batch();
                if self.now > deadline {
                    return None;
                }
                let e = self.batch.pop_front().expect("batch is non-empty");
                return self.serve(e);
            }
            // Empty wheel: serve the overflow heap directly instead of
            // round-tripping events through slots. The heap ties on seq,
            // so same-instant events already pop FIFO; siblings left
            // behind are staged by `push` if anything is pushed at their
            // instant. Later in-window overflow events stay put; the
            // migration pass below (and the overflow comparison in
            // `peek_time`) keeps them ordered against anything pushed
            // into the wheel meanwhile.
            if self.wheel_len == 0 {
                let s = self.overflow.pop()?;
                self.now = s.at;
                if self.keys.is_some() {
                    // Keys order ties, but the heap does not see them:
                    // stage the whole instant for the batch sort.
                    self.batch.push_back(s);
                    self.stage_overflow_instant();
                    continue;
                }
                if s.at > deadline {
                    // Declined: stage the event so it stays ahead of any
                    // later push at this instant.
                    self.batch.push_back(s);
                    return None;
                }
                return self.serve(s);
            }
            // Pull overflow events that have entered the wheel horizon so
            // wheel order alone decides the next slot.
            if !self.overflow.is_empty() {
                while self
                    .overflow
                    .peek()
                    .is_some_and(|top| (top.at ^ self.now) >> WHEEL_BITS == 0)
                {
                    let s = self.overflow.pop().expect("peeked entry pops");
                    let x = s.at ^ self.now;
                    if x == 0 {
                        self.batch.push_back(s);
                    } else {
                        let idx = self.alloc_node(s.at, s.seq, s.key, s.event);
                        self.link(idx, s.at, x);
                        self.wheel_len += 1;
                    }
                }
                if !self.batch.is_empty() {
                    continue;
                }
            }
            // Level 0: the slot index *is* the timestamp's low 8 bits, so
            // the first occupied slot at/after the cursor is the minimum.
            let cur = (self.now & (L0_SLOTS as u64 - 1)) as usize;
            let w0 = cur >> 6;
            #[cfg(debug_assertions)]
            for w in 0..w0 {
                debug_assert_eq!(self.occ0[w], 0, "level-0 word in the past");
            }
            let mut hit = {
                let m = self.occ0[w0] & (!0u64 << (cur & 63) as u32);
                debug_assert_eq!(m, self.occ0[w0], "level-0 slot in the past");
                (m != 0).then_some((w0, m))
            };
            if hit.is_none() {
                for w in w0 + 1..L0_WORDS {
                    if self.occ0[w] != 0 {
                        hit = Some((w, self.occ0[w]));
                        break;
                    }
                }
            }
            if let Some((w, m)) = hit {
                let slot = w * 64 + m.trailing_zeros() as usize;
                self.occ0[w] &= !(1u64 << (slot & 63));
                self.now = (self.now & !(L0_SLOTS as u64 - 1)) | slot as u64;
                let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
                if self.arena[idx as usize].next == NIL && self.now <= deadline {
                    // Single resident event: skip the sort and the batch.
                    self.wheel_len -= 1;
                    let e = self.unstage(idx);
                    return self.serve(e);
                }
                while idx != NIL {
                    let next = self.arena[idx as usize].next;
                    self.wheel_len -= 1;
                    let staged = self.unstage(idx);
                    self.batch.push_back(staged);
                    idx = next;
                }
                // Loop back: the batch serve at the top sorts by seq and
                // applies the deadline.
                continue;
            }
            // Cascade: take the earliest occupied slot of the lowest
            // non-empty level, jump the clock to its start (nothing can
            // exist before it), and redistribute at finer granularity.
            let mut cascaded = false;
            for level in 1..=UP_LEVELS {
                let shift = up_shift(level);
                let m = self.occ_up[level - 1]
                    & (!0u64 << ((self.now >> shift) & (UP_SLOTS as u64 - 1)) as u32);
                debug_assert_eq!(m, self.occ_up[level - 1], "wheel slot in the past");
                if m == 0 {
                    continue;
                }
                let s = m.trailing_zeros() as usize;
                let slot = up_base(level) + s;
                self.occ_up[level - 1] &= !(1u64 << s);
                let mut idx = std::mem::replace(&mut self.heads[slot], NIL);
                if self.arena[idx as usize].next == NIL {
                    // Every lower level is empty, so this lone entry is the
                    // wheel minimum: serve it without redistribution.
                    self.wheel_len -= 1;
                    let e = self.unstage(idx);
                    self.now = e.at;
                    if e.at > deadline {
                        self.batch.push_back(e);
                        return None;
                    }
                    return self.serve(e);
                }
                let window_mask = (1u64 << (shift + UP_BITS)) - 1;
                let start = (self.now & !window_mask) | ((s as u64) << shift);
                debug_assert!(start > self.now);
                self.now = start;
                while idx != NIL {
                    let next = self.arena[idx as usize].next;
                    let at = self.arena[idx as usize].at;
                    let x = at ^ start;
                    if x == 0 {
                        // Lands exactly on the window start: stage it.
                        self.wheel_len -= 1;
                        let staged = self.unstage(idx);
                        self.batch.push_back(staged);
                    } else {
                        // Relink at finer granularity; no data moves.
                        self.link(idx, at, x);
                    }
                    idx = next;
                }
                cascaded = true;
                break;
            }
            debug_assert!(cascaded, "non-empty wheel must yield a slot");
        }
    }

    /// Moves every overflow event scheduled for exactly `now` into the
    /// batch (the heap pops them in seq order, so appending keeps an
    /// unkeyed batch sorted).
    fn stage_overflow_instant(&mut self) {
        while self.overflow.peek().is_some_and(|t| t.at == self.now) {
            let s = self.overflow.pop().expect("peeked entry pops");
            self.batch.push_back(s);
        }
    }

    /// The time of the earliest pending event, if any. Never advances the
    /// clock or reorganizes the wheel.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.batch.is_empty() {
            return Some(SimTime::from_nanos(self.now));
        }
        // The overflow heap can hold events inside the current window
        // (left behind by the empty-wheel fast path in `pop_slow`), so
        // the wheel minimum must be compared against the overflow top.
        let over = self.overflow.peek().map(|s| SimTime::from_nanos(s.at));
        let wheel = self.wheel_min_time();
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// The earliest timestamp stored in the wheel slots, if any.
    fn wheel_min_time(&self) -> Option<SimTime> {
        let cur = (self.now & (L0_SLOTS as u64 - 1)) as usize;
        let w0 = cur >> 6;
        let m = self.occ0[w0] & (!0u64 << (cur & 63) as u32);
        if m != 0 {
            let slot = (w0 * 64) as u64 + m.trailing_zeros() as u64;
            return Some(SimTime::from_nanos(
                (self.now & !(L0_SLOTS as u64 - 1)) | slot,
            ));
        }
        for w in w0 + 1..L0_WORDS {
            if self.occ0[w] != 0 {
                let slot = (w * 64) as u64 + self.occ0[w].trailing_zeros() as u64;
                return Some(SimTime::from_nanos(
                    (self.now & !(L0_SLOTS as u64 - 1)) | slot,
                ));
            }
        }
        for level in 1..=UP_LEVELS {
            let shift = up_shift(level);
            let m = self.occ_up[level - 1]
                & (!0u64 << ((self.now >> shift) & (UP_SLOTS as u64 - 1)) as u32);
            if m != 0 {
                // Events on lower levels always precede higher ones, and
                // slots within a level are time-ordered, so the earliest
                // event sits in this slot; its entries are unordered.
                let s = m.trailing_zeros() as usize;
                let mut idx = self.heads[up_base(level) + s];
                let mut min = u64::MAX;
                while idx != NIL {
                    let n = &self.arena[idx as usize];
                    min = min.min(n.at);
                    idx = n.next;
                }
                debug_assert_ne!(min, u64::MAX, "slot is occupied");
                return Some(SimTime::from_nanos(min));
            }
        }
        None
    }

    /// The current simulation clock: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len() + self.batch.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress/complexity
    /// counter for benchmarks).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("now", &SimTime::from_nanos(self.now))
            .finish()
    }
}

/// Drives an [`EventHandler`] until a deadline or event exhaustion.
///
/// # Example
///
/// ```
/// use pmsb_simcore::{EventHandler, EventQueue, Simulation, SimDuration, SimTime};
///
/// struct Counter(u32);
/// impl EventHandler for Counter {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
///         self.0 += 1;
///         if self.0 < 10 {
///             q.push(now + SimDuration::from_micros(1), ());
///         }
///     }
/// }
///
/// let mut sim = Simulation::new(Counter(0));
/// sim.queue.push(SimTime::ZERO, ());
/// sim.run_until(SimTime::from_nanos(u64::MAX));
/// assert_eq!(sim.handler.0, 10);
/// ```
pub struct Simulation<H: EventHandler> {
    /// The model being simulated.
    pub handler: H,
    /// The future-event list.
    pub queue: EventQueue<H::Event>,
}

impl<H: EventHandler> Simulation<H> {
    /// Creates a simulation around `handler` with an empty event queue.
    pub fn new(handler: H) -> Self {
        Simulation {
            handler,
            queue: EventQueue::new(),
        }
    }

    /// Runs until the queue drains or the next event is strictly after
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((now, ev)) = self.queue.pop_at_or_before(deadline) {
            self.handler.handle(now, ev, &mut self.queue);
            processed += 1;
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "past-scheduling is a debug_assert; release builds clamp"
    )]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), ());
        q.pop();
        q.push(SimTime::from_nanos(5), ());
    }

    #[test]
    fn run_until_respects_deadline() {
        struct Ticker;
        impl EventHandler for Ticker {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), q: &mut EventQueue<()>) {
                q.push(now + SimDuration::from_micros(1), ());
            }
        }
        let mut sim = Simulation::new(Ticker);
        sim.queue.push(SimTime::ZERO, ());
        let n = sim.run_until(SimTime::from_nanos(10_500));
        // Events at 0, 1us, ..., 10us inclusive = 11 events.
        assert_eq!(n, 11);
        assert_eq!(sim.queue.peek_time(), Some(SimTime::from_nanos(11_000)));
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn push_at_current_instant_pops_after_pending_ties() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), 1);
        q.push(SimTime::from_nanos(5), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Clock is now at 5; scheduling more work at 5 is legal and must
        // run after the already-pending event at 5.
        q.push(SimTime::from_nanos(5), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn push_at_current_instant_stays_behind_overflow_siblings() {
        // Far-future same-instant events are served straight from the
        // overflow heap; a push at that instant must sort behind the
        // not-yet-served siblings, not jump ahead of them.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(20_000_000_000_000);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(t, 4);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut q = EventQueue::new();
        // Far beyond the 2^44 ns wheel horizon.
        q.push(SimTime::from_nanos(20_000_000_000_000), "idle timer");
        q.push(SimTime::from_nanos(4_000_000_000), "rto"); // upper levels
        q.push(SimTime::from_nanos(30), "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(30)));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(30), "soon"));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4_000_000_000)));
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_nanos(4_000_000_000), "rto")
        );
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_nanos(20_000_000_000_000), "idle timer")
        );
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_pushes_preserve_order_across_cascades() {
        // Alternate pops with pushes that straddle level boundaries so
        // events must survive redistribution; order must stay (time, seq).
        let mut q = EventQueue::with_capacity(64);
        let mut expect = Vec::new();
        for i in 0u64..32 {
            let t = 1 + i * 97; // crosses several level-0/1 windows
            q.push(SimTime::from_nanos(t), (t, i));
            expect.push((t, i));
        }
        expect.sort_unstable();
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn len_tracks_batch_wheel_and_overflow() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), ());
        q.push(SimTime::from_nanos(1_000), ());
        q.push(SimTime::from_nanos(20_000_000_000_000), ());
        assert_eq!(q.len(), 3);
        q.pop();
        q.push(SimTime::from_nanos(1), ()); // at the current instant
        assert_eq!(q.len(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_count(), 4);
    }

    #[test]
    fn ordered_push_sorts_by_sender_key_among_ties() {
        // A cross-shard message is inserted late (after a local push at
        // the same target time) but carries the tie key of its logical
        // send at an earlier instant — it must pop first, where the
        // sequential run's push would have placed it.
        let mut q = EventQueue::new();
        q.enable_tie_keys();
        q.push(SimTime::from_nanos(10), "early handler");
        q.push(SimTime::from_nanos(20), "late handler");
        assert_eq!(q.pop().unwrap().1, "early handler");
        let sent_at_10 = q.current_tie_key();
        assert_eq!(q.pop().unwrap().1, "late handler");
        q.push(SimTime::from_nanos(100), "local push at 20");
        q.push_ordered(
            SimTime::from_nanos(100),
            sent_at_10,
            1,
            "message sent at 10",
        );
        assert_eq!(q.pop().unwrap().1, "message sent at 10");
        assert_eq!(q.pop().unwrap().1, "local push at 20");
        assert!(q.is_empty());
        // The keys differ (send instants 10 vs 20), so the tie was
        // resolved, not ambiguous.
        assert_eq!(q.ambiguous_ties(), 0);
    }

    #[test]
    fn ordered_push_reaches_the_overflow_heap() {
        let mut q = EventQueue::new();
        q.enable_tie_keys();
        q.push(SimTime::from_nanos(10), "tick");
        q.push(SimTime::from_nanos(20), "tock");
        assert_eq!(q.pop().unwrap().1, "tick");
        let key = q.current_tie_key();
        assert_eq!(q.pop().unwrap().1, "tock");
        // Beyond the 2^44 ns wheel horizon: both land in overflow, and
        // the explicit key still decides the tie.
        let far = SimTime::from_nanos(30_000_000_000_000);
        q.push(far, "plain push at 20");
        q.push_ordered(far, key, 1, "keyed at 10");
        assert_eq!(q.pop().unwrap().1, "keyed at 10");
        assert_eq!(q.pop().unwrap().1, "plain push at 20");
    }

    #[test]
    fn full_key_collisions_across_streams_count_as_ambiguous() {
        // Two messages from different shards whose causal chains agree
        // through the whole key window: no bounded key can order them the
        // way the sequential run did, so the detector must flag the pair.
        let mut q = EventQueue::new();
        q.enable_tie_keys();
        q.push(SimTime::from_nanos(10), 0);
        q.pop();
        let key = q.current_tie_key();
        q.push_ordered(SimTime::from_nanos(50), key, 1, 100);
        q.push_ordered(SimTime::from_nanos(50), key, 2, 200);
        // Barrier insertion order (source 1 before 2) is all that orders
        // them; both still pop, and the collision is counted once.
        assert_eq!(q.pop().unwrap().1, 100);
        assert_eq!(q.pop().unwrap().1, 200);
        assert_eq!(q.ambiguous_ties(), 1);
    }

    #[test]
    fn full_key_collision_against_local_push_is_ambiguous() {
        let mut q = EventQueue::new();
        q.enable_tie_keys();
        q.push(SimTime::from_nanos(10), 0);
        q.pop();
        // A local push and a message captured at the same handling point
        // carry identical keys; their relative sequential order is lost.
        let key = q.current_tie_key();
        q.push(SimTime::from_nanos(50), 1);
        q.push_ordered(SimTime::from_nanos(50), key, 3, 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.ambiguous_ties(), 1);
    }

    #[test]
    fn same_stream_key_collisions_stay_unambiguous() {
        // One sender emitting two same-key messages: barrier order is the
        // sender's emission order, which is exactly the sequential order.
        let mut q = EventQueue::new();
        q.enable_tie_keys();
        q.push(SimTime::from_nanos(10), 0);
        q.pop();
        let key = q.current_tie_key();
        q.push_ordered(SimTime::from_nanos(50), key, 4, 100);
        q.push_ordered(SimTime::from_nanos(50), key, 4, 200);
        assert_eq!(q.pop().unwrap().1, 100);
        assert_eq!(q.pop().unwrap().1, 200);
        assert_eq!(q.ambiguous_ties(), 0);
    }

    #[test]
    fn arena_nodes_are_recycled() {
        // Steady-state hold pattern: the arena's high-water mark must not
        // grow past the concurrent-event count.
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(SimTime::from_nanos(1 + i), i);
        }
        for _ in 0..10_000 {
            let (at, e) = q.pop().unwrap();
            q.push(at + SimDuration::from_nanos(8), e);
        }
        assert_eq!(q.len(), 8);
        assert!(q.arena.len() <= 16, "arena grew to {}", q.arena.len());
    }

    #[test]
    fn keyed_queue_recycles_its_key_slots() {
        // The same hold pattern on a keyed queue: served events free
        // their key slots, so the slab stays at the pending population.
        let mut q = EventQueue::new();
        q.enable_tie_keys();
        for i in 0..8u64 {
            q.push(SimTime::from_nanos(1 + i), i);
        }
        for _ in 0..10_000 {
            let (at, e) = q.pop().unwrap();
            q.push(at + SimDuration::from_nanos(8), e);
        }
        let keys = q.keys.as_deref().unwrap();
        assert!(
            keys.slab.len() <= 16,
            "key slab grew to {}",
            keys.slab.len()
        );
    }

    #[test]
    #[should_panic(expected = "tie keys are off")]
    fn push_ordered_needs_a_keyed_queue() {
        let mut q = EventQueue::new();
        q.push_ordered(SimTime::from_nanos(5), TieKey::default(), 1, ());
    }

    #[test]
    #[should_panic(expected = "tie keys are off")]
    fn current_tie_key_needs_a_keyed_queue() {
        let q: EventQueue<()> = EventQueue::new();
        q.current_tie_key();
    }

    #[test]
    #[should_panic(expected = "before the first pop")]
    fn tie_keys_cannot_be_enabled_after_a_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.pop();
        q.enable_tie_keys();
    }

    #[test]
    fn tie_keys_can_be_enabled_with_events_pending() {
        // Events pushed before any pop carry the all-zero key — the key
        // they would have received on a keyed queue.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(3), 'a');
        q.push(SimTime::from_nanos(3), 'b');
        q.enable_tie_keys();
        assert_eq!(q.current_tie_key(), TieKey::default());
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    /// Arena nodes carry only a 4-byte key index, never the 128-byte
    /// key itself: the node is the FEL's per-event memory floor.
    #[test]
    fn nodes_fit_their_budget() {
        assert!(
            EventQueue::<u64>::node_bytes() <= 40,
            "Node<u64> is {} bytes",
            EventQueue::<u64>::node_bytes()
        );
    }
}
