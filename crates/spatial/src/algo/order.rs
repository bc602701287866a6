//! The node-ordering loop of the hierarchy builder
//! ([`crate::algo::cch::CchTopology::build`], which the metric-built
//! [`crate::algo::ch::ContractionHierarchy`] starts from too):
//! lazy-update contraction in ascending priority.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::VertexId;

#[cfg(test)]
thread_local! {
    /// Ordering loops run on this thread.
    pub(crate) static LOOPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Contracts all `n` vertices of `b` in priority order with lazy updates
/// (ties broken on the lowest vertex id): `priority(b, v, scratch)` is
/// the contraction priority of the uncontracted `v` (lower contracts
/// earlier), and `contract(b, v, rank, scratch)` contracts `v` at
/// `rank`. Initial priorities are fanned out over `threads` workers,
/// each with a scratch of its own; `priority` must be pure, so the order
/// is identical for any thread count. Returns the sequential loop's
/// scratch.
pub(crate) fn contract_in_priority_order<B: Sync, S: Default>(
    n: usize,
    threads: usize,
    b: &mut B,
    priority: impl Fn(&B, VertexId, &mut S) -> i64 + Sync,
    mut contract: impl FnMut(&mut B, VertexId, u32, &mut S),
) -> S {
    #[cfg(test)]
    LOOPS.with(|l| l.set(l.get() + 1));
    let mut init_prio = vec![0i64; n];
    if n > 0 {
        let per = n.div_ceil(threads.clamp(1, n));
        let (bref, priority) = (&*b, &priority);
        std::thread::scope(|scope| {
            for (ci, chunk) in init_prio.chunks_mut(per).enumerate() {
                scope.spawn(move || {
                    let mut scratch = S::default();
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = VertexId((ci * per + j) as u32);
                        *slot = priority(bref, v, &mut scratch);
                    }
                });
            }
        });
    }

    let mut queue: BinaryHeap<Reverse<(i64, u32)>> =
        init_prio.into_iter().zip(0u32..).map(Reverse).collect();

    // Every uncontracted vertex sits in the queue exactly once.
    let mut scratch = S::default();
    let mut next_rank = 0u32;
    while let Some(Reverse((_stale_prio, v))) = queue.pop() {
        let v = VertexId(v);
        // Lazy update: contracting other vertices may have changed v's
        // priority; recompute, and if v no longer wins, requeue.
        let prio = priority(b, v, &mut scratch);
        if let Some(&Reverse((top, _))) = queue.peek() {
            if prio > top {
                queue.push(Reverse((prio, v.0)));
                continue;
            }
        }
        contract(b, v, next_rank, &mut scratch);
        next_rank += 1;
    }
    debug_assert_eq!(next_rank as usize, n);
    scratch
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A builder whose priorities are scripted: `v` reports `base[v]`
    /// plus whatever the contractions so far added to it, where
    /// contracting `from` adds `by` to `to` for every `(from, to, by)` of
    /// `bumps`. Its scratch counts the `priority` calls.
    struct Scripted {
        base: Vec<i64>,
        bumps: Vec<(u32, u32, i64)>,
        added: Vec<i64>,
        order: Vec<u32>,
    }

    impl Scripted {
        fn new(base: Vec<i64>, bumps: Vec<(u32, u32, i64)>) -> Self {
            let added = vec![0; base.len()];
            Scripted {
                base,
                bumps,
                added,
                order: Vec::new(),
            }
        }

        /// The contraction order and the sequential loop's priority calls.
        fn run(mut self, threads: usize) -> (Vec<u32>, usize) {
            let n = self.base.len();
            let calls =
                contract_in_priority_order(n, threads, &mut self, Self::priority, Self::contract);
            (self.order, calls)
        }

        fn priority(&self, v: VertexId, calls: &mut usize) -> i64 {
            *calls += 1;
            self.base[v.index()] + self.added[v.index()]
        }

        fn contract(&mut self, v: VertexId, rank: u32, _: &mut usize) {
            assert_eq!(
                rank as usize,
                self.order.len(),
                "ranks are handed out in order"
            );
            self.order.push(v.0);
            for &(from, to, by) in &self.bumps {
                if from == v.0 {
                    self.added[to as usize] += by;
                }
            }
        }
    }

    #[test]
    fn order_breaks_ties_on_the_lowest_id() {
        let (order, calls) = Scripted::new(vec![1, 0, 1, 0, 1], Vec::new()).run(1);
        assert_eq!(order, [1, 3, 0, 2, 4]);
        assert_eq!(calls, 5, "no priority moved, so no vertex was requeued");
    }

    #[test]
    fn order_requeues_a_vertex_whose_priority_rose_above_the_top() {
        // Contracting 0 lifts 1 from 1 to 6, above 2's 2: popped with its
        // stale 1, it is recomputed and requeued behind 2.
        let (order, calls) = Scripted::new(vec![0, 1, 2], vec![(0, 1, 5)]).run(1);
        assert_eq!(order, [0, 2, 1]);
        assert_eq!(calls, 4, "one requeue costs one more priority call");
        // Lifted only to the top's priority, it is not requeued, and wins
        // the tie on its lower id.
        let (order, calls) = Scripted::new(vec![0, 1, 2], vec![(0, 1, 1)]).run(1);
        assert_eq!(order, [0, 1, 2]);
        assert_eq!(calls, 3);
        // A priority that falls never reorders what is already queued: 2
        // was queued at 5 and is contracted at its turn, not sooner.
        let (order, _) = Scripted::new(vec![0, 3, 5, 4], vec![(0, 2, -5)]).run(1);
        assert_eq!(order, [0, 1, 3, 2]);
    }

    #[test]
    fn order_is_the_same_for_any_thread_count() {
        // Forty vertices, scripted by a fixed xorshift: priorities with
        // many ties, bumps up and down, so vertices are requeued.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        let n = 40;
        let base: Vec<i64> = (0..n).map(|_| next(8) as i64).collect();
        let bumps: Vec<(u32, u32, i64)> = (0..120)
            .map(|_| (next(n) as u32, next(n) as u32, next(9) as i64 - 3))
            .collect();
        let (order, calls) = Scripted::new(base.clone(), bumps.clone()).run(1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        assert!(calls > n as usize, "the script must requeue some vertex");
        for threads in [2, 3] {
            let again = Scripted::new(base.clone(), bumps.clone()).run(threads);
            assert_eq!(again, (order.clone(), calls), "{threads} threads");
        }
    }
}
