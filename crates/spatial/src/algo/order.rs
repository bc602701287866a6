//! The node-ordering loop of both hierarchy builders
//! ([`crate::algo::ch`] under a metric, [`crate::algo::cch`] on topology
//! alone): lazy-update contraction in ascending priority.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::VertexId;

/// What the ordering loop needs of a builder.
pub(crate) trait Contract: Sync {
    /// Per-worker buffers; created empty, sized by the builder on use.
    type Scratch: Default;

    /// The contraction priority of the uncontracted `v` (lower contracts
    /// earlier); pure, the initial sweep calls it from many threads.
    fn priority(&self, v: VertexId, scratch: &mut Self::Scratch) -> i64;

    /// Contracts `v` at `rank`.
    fn contract(&mut self, v: VertexId, rank: u32, scratch: &mut Self::Scratch);
}

/// Contracts all `n` vertices of `b` in priority order with lazy updates
/// (ties broken on the lowest vertex id). Initial priorities are fanned
/// out over `threads` workers; priorities are pure, so the order is
/// identical for any thread count. Returns the sequential loop's scratch.
pub(crate) fn contract_in_priority_order<B: Contract>(
    n: usize,
    threads: usize,
    b: &mut B,
) -> B::Scratch {
    let mut init_prio = vec![0i64; n];
    if n > 0 {
        let per = n.div_ceil(threads.clamp(1, n));
        let bref = &*b;
        std::thread::scope(|scope| {
            for (ci, chunk) in init_prio.chunks_mut(per).enumerate() {
                scope.spawn(move || {
                    let mut scratch = B::Scratch::default();
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let v = VertexId((ci * per + j) as u32);
                        *slot = bref.priority(v, &mut scratch);
                    }
                });
            }
        });
    }

    let mut queue: BinaryHeap<Reverse<(i64, u32)>> =
        init_prio.into_iter().zip(0u32..).map(Reverse).collect();

    // Every uncontracted vertex sits in the queue exactly once.
    let mut scratch = B::Scratch::default();
    let mut next_rank = 0u32;
    while let Some(Reverse((_stale_prio, v))) = queue.pop() {
        let v = VertexId(v);
        // Lazy update: contracting other vertices may have changed v's
        // priority; recompute, and if v no longer wins, requeue.
        let prio = b.priority(v, &mut scratch);
        if let Some(&Reverse((top, _))) = queue.peek() {
            if prio > top {
                queue.push(Reverse((prio, v.0)));
                continue;
            }
        }
        b.contract(v, next_rank, &mut scratch);
        next_rank += 1;
    }
    debug_assert_eq!(next_rank as usize, n);
    scratch
}
