//! The event queue: pending completions on the virtual clock.
//!
//! The engine is a fluid discrete-event simulation: between events every
//! active flow drains at a constant rate, so its completion time is
//! predictable the moment its rate is known. Those predictions live here,
//! in a [`BinaryHeap`] ordered so its top is the earliest entry.
//!
//! A rate change makes a flow's old prediction stale. Removing it from
//! the middle of the heap would be `O(n)`, so every flow carries a
//! generation counter and stale entries are skipped on pop. The engine
//! reports each superseded prediction via [`EventQueue::note_stale`];
//! once more than half the stored entries are stale (and the queue is
//! big enough to matter) the next pop compacts first, dropping every
//! stale entry in one `O(n)` sweep, so a rate-churn-heavy replay cannot
//! grow the queue unboundedly.
//!
//! Pop order is the total order `(time, seq)`: `seq` is the push sequence
//! number, so simultaneous predictions pop in push order and the replay
//! is deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which of a rank's concurrent flows an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowId {
    /// The rank's main segment chain (host, kernel, blocking transfer,
    /// collective).
    Main,
    /// The head of the rank's asynchronous transfer stream (only active
    /// under [`crate::node::NodeConfig::overlap_transfers`]).
    Stream,
}

impl FlowId {
    /// Stable lowercase name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            FlowId::Main => "main",
            FlowId::Stream => "stream",
        }
    }
}

/// A predicted completion of one flow.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Rank index (node-local in sharded replays).
    pub rank: usize,
    /// Which of the rank's flows completes.
    pub flow: FlowId,
    /// Generation of the flow when the prediction was made; compared
    /// against the flow's current generation on pop.
    pub gen: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    time: f64,
    /// Push sequence number: makes the ordering total and deterministic
    /// when times tie (earlier predictions pop first).
    seq: u64,
    completion: Completion,
}

impl Ord for Entry {
    /// Reversed on `(time, seq)`, so the max-heap's top is the earliest
    /// entry. Times are finite (asserted on push).
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// Minimum entries before staleness triggers compaction: tiny queues are
/// cheap to pop through and compacting them would be pure overhead.
const COMPACT_MIN_LEN: usize = 64;

/// Min-heap of predicted completions on the virtual clock.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Entries known stale via [`EventQueue::note_stale`].
    stale: usize,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `completion` at virtual `time` (must be finite).
    pub fn push(&mut self, time: f64, completion: Completion) {
        debug_assert!(time.is_finite(), "event at non-finite time {time}");
        self.seq += 1;
        self.heap.push(Entry {
            time,
            seq: self.seq,
            completion,
        });
    }

    /// The engine superseded a live prediction (bumped a flow's
    /// generation while its previous prediction was still queued): one
    /// more stored entry is now stale.
    pub fn note_stale(&mut self) {
        self.stale += 1;
    }

    /// Pop the earliest prediction whose generation still matches,
    /// discarding stale entries along the way. `current_gen` maps a
    /// `(rank, flow)` to its live generation. Compacts first when more
    /// than half the stored entries are known stale.
    pub fn pop_valid(
        &mut self,
        mut current_gen: impl FnMut(usize, FlowId) -> u64,
    ) -> Option<(f64, Completion)> {
        if self.heap.len() >= COMPACT_MIN_LEN && self.stale * 2 > self.heap.len() {
            self.compact(&mut current_gen);
        }
        while let Some(entry) = self.heap.pop() {
            if current_gen(entry.completion.rank, entry.completion.flow) == entry.completion.gen {
                return Some((entry.time, entry.completion));
            }
            self.stale = self.stale.saturating_sub(1);
        }
        None
    }

    /// Drop every stale entry.
    pub fn compact(&mut self, mut current_gen: impl FnMut(usize, FlowId) -> u64) {
        self.heap
            .retain(|e| current_gen(e.completion.rank, e.completion.flow) == e.completion.gen);
        self.stale = 0;
    }

    /// Number of entries, including stale ones awaiting lazy removal.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(rank: usize, gen: u64) -> Completion {
        Completion {
            rank,
            flow: FlowId::Main,
            gen,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventQueue::new();
        h.push(3.0, c(0, 0));
        h.push(1.0, c(1, 0));
        h.push(2.0, c(2, 0));
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_valid(|_, _| 0))
            .map(|(_, e)| e.rank)
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_push_order() {
        let mut h = EventQueue::new();
        h.push(1.0, c(7, 0));
        h.push(1.0, c(9, 0));
        assert_eq!(h.pop_valid(|_, _| 0).unwrap().1.rank, 7);
        assert_eq!(h.pop_valid(|_, _| 0).unwrap().1.rank, 9);
    }

    #[test]
    fn stale_generations_are_skipped() {
        let mut h = EventQueue::new();
        h.push(1.0, c(0, 0)); // stale: rank 0 is at generation 2
        h.push(5.0, c(0, 2));
        h.push(3.0, c(1, 1));
        let gens = |rank: usize, _: FlowId| match rank {
            0 => 2,
            _ => 1,
        };
        assert_eq!(h.pop_valid(gens).unwrap().0, 3.0);
        assert_eq!(h.pop_valid(gens).unwrap().0, 5.0);
        assert!(h.pop_valid(gens).is_none());
        assert!(h.is_empty());
    }

    #[test]
    fn survives_growth_shrink_and_wide_time_spread() {
        // Times spread over 12 orders of magnitude force year wraps,
        // rebuilds in both directions, and cursor re-parking.
        let mut h = EventQueue::new();
        let mut times: Vec<f64> = (0..500)
            .map(|i| {
                let i = i as f64;
                (i * 9973.0) % 17.0 * 10f64.powf((i as u64 % 12) as f64) + i * 1e-9
            })
            .collect();
        for (i, &t) in times.iter().enumerate() {
            h.push(t, c(i, 0));
        }
        assert_eq!(h.len(), 500);
        times.sort_by(f64::total_cmp);
        let popped: Vec<f64> = std::iter::from_fn(|| h.pop_valid(|_, _| 0))
            .map(|(t, _)| t)
            .collect();
        assert_eq!(popped, times);
        assert!(h.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut h = EventQueue::new();
        let mut expect = Vec::new();
        for round in 0..50u64 {
            for k in 0..10u64 {
                let t = round as f64 + (k as f64) * 0.01;
                h.push(t, c((round * 10 + k) as usize, 0));
                expect.push(t);
            }
            // Drain half before the next round lands.
            for _ in 0..5 {
                let (t, _) = h.pop_valid(|_, _| 0).unwrap();
                let i = expect
                    .iter()
                    .position(|&e| e == t)
                    .expect("popped an unknown time");
                // Must be the minimum outstanding.
                assert!(expect.iter().all(|&e| e >= t), "popped {t} early");
                expect.remove(i);
            }
        }
        while let Some((t, _)) = h.pop_valid(|_, _| 0) {
            assert!(expect.iter().all(|&e| e >= t));
            let i = expect.iter().position(|&e| e == t).unwrap();
            expect.remove(i);
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn compaction_bounds_stale_growth() {
        // A rate-churn-heavy replay: rank 0's prediction far in the
        // future is superseded thousands of times while rank 1's nearby
        // events pop normally. Without compaction the queue would end up
        // holding all 4096 superseded entries; the stale bound keeps the
        // population within a small multiple of the compaction threshold
        // at every step.
        let mut h = EventQueue::new();
        let churn = 4096u64;
        let mut max_len = 0usize;
        for g in 0..churn {
            if g > 0 {
                h.note_stale(); // the engine superseded the previous prediction
            }
            let rank0_gen = g;
            h.push(1000.0 + g as f64 * 1e-6, c(0, g));
            // A foreground event pops every few churns, as in a real
            // replay; the pop is where the compaction check runs. Rank
            // 1's events are earliest, so popping them never discards
            // rank 0's live prediction.
            if g % 16 == 15 {
                h.push(g as f64 * 1e-3, c(1, 0));
                let gens = |rank: usize, _: FlowId| if rank == 0 { rank0_gen } else { 0 };
                let (_, e) = h.pop_valid(gens).expect("foreground event pops");
                assert_eq!(e.rank, 1);
            }
            max_len = max_len.max(h.len());
        }
        // Live population is 1-2 entries; the queue may run up to the
        // compaction threshold plus the pushes between foreground pops,
        // but never anywhere near the 4096 a lazy-only queue would hold.
        assert!(max_len <= 2 * COMPACT_MIN_LEN, "queue grew to {max_len}");
        assert!(h.len() <= 2 * COMPACT_MIN_LEN, "queue ended at {}", h.len());
        let live_gen = churn - 1;
        let (t, e) = h.pop_valid(|_, _| live_gen).expect("live entry survives");
        assert_eq!(e.gen, live_gen);
        assert!((t - (1000.0 + live_gen as f64 * 1e-6)).abs() < 1e-9);
    }

    #[test]
    fn explicit_compact_drops_only_stale_entries() {
        let mut h = EventQueue::new();
        for g in 0..100u64 {
            h.push(g as f64, c(g as usize % 4, g));
        }
        // Ranks report generation 96 + rank as live: exactly 4 survive.
        h.compact(|rank, _| 96 + rank as u64);
        assert_eq!(h.len(), 4);
        let mut times: Vec<f64> = std::iter::from_fn(|| h.pop_valid(|rank, _| 96 + rank as u64))
            .map(|(t, _)| t)
            .collect();
        times.sort_by(f64::total_cmp);
        assert_eq!(times, vec![96.0, 97.0, 98.0, 99.0]);
    }

    /// Ops per generated workload: push, bump a generation, pop, compact.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        // (kind, flow slot, time index); kinds 0-19 push, 20-31 bump,
        // 32-38 pop, 39 compact: long enough, and pop-light enough, that
        // stale entries pile up past the compaction threshold.
        proptest::collection::vec((0u8..40, 0usize..8, 0usize..4), 0usize..1500)
    }

    proptest! {
        /// Every pop is the minimum by `(time, push order)` among the live
        /// entries of a plain `Vec` model, and the stored population never
        /// outgrows the compaction bound. Times come from a four-value set
        /// (0.0 included) so ties are common.
        #[test]
        fn pops_match_a_sorted_vec_model(ops in arb_ops()) {
            const TIMES: [f64; 4] = [0.0, 0.25, 1.0, 3.0];
            // 4 ranks x 2 flows; slot = 2 * rank + flow.
            let slot_of = |rank: usize, flow: FlowId| 2 * rank + (flow == FlowId::Stream) as usize;
            let mut gens = [0u64; 8];
            let mut h = EventQueue::new();
            // Live entries only: (time, push order, slot, gen).
            let mut model: Vec<(f64, usize, usize, u64)> = Vec::new();
            for (pushed, &(kind, slot, ti)) in ops.iter().enumerate() {
                match kind {
                    0..=19 => {
                        let flow = if slot % 2 == 0 { FlowId::Main } else { FlowId::Stream };
                        h.push(TIMES[ti], Completion { rank: slot / 2, flow, gen: gens[slot] });
                        model.push((TIMES[ti], pushed, slot, gens[slot]));
                    }
                    20..=31 => {
                        // Supersede the slot's queued predictions, reporting
                        // each one as the engine does.
                        let before = model.len();
                        model.retain(|e| e.2 != slot);
                        for _ in model.len()..before {
                            h.note_stale();
                        }
                        gens[slot] += 1;
                    }
                    32..=38 => {
                        let popped = h.pop_valid(|rank, flow| gens[slot_of(rank, flow)]);
                        let want = model
                            .iter()
                            .enumerate()
                            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                            .map(|(i, _)| i);
                        match (popped, want) {
                            (None, None) => {}
                            (Some((t, c)), Some(i)) => {
                                let (wt, _, wslot, wgen) = model.remove(i);
                                let got = (t, slot_of(c.rank, c.flow), c.gen);
                                prop_assert_eq!(got, (wt, wslot, wgen));
                            }
                            (got, want) => {
                                prop_assert!(false, "popped {got:?}, model wanted {want:?}");
                            }
                        }
                        // Stale entries outnumber live ones only below the
                        // compaction threshold (one pop may leave one over).
                        prop_assert!(
                            h.len() < COMPACT_MIN_LEN || h.len() <= 2 * model.len() + 1,
                            "{} stored for {} live", h.len(), model.len()
                        );
                    }
                    _ => {
                        h.compact(|rank, flow| gens[slot_of(rank, flow)]);
                        prop_assert_eq!(h.len(), model.len());
                    }
                }
            }
        }
    }
}
