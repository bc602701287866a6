//! Generation-stamped search labels: the one store every search in this
//! crate keeps its per-vertex state in.
//!
//! A [`Side`] is one search's state — a 16-byte [`Label`] per vertex, the
//! priority queue and lifetime work counters — reused across searches
//! and reset in O(1): each label carries the epoch that last wrote it, so
//! labels of earlier searches are never read. The engine's Dijkstra/A*
//! and the CH/CCH elimination-tree walks (which use no heap) all run on
//! sides. [`Marks`] is the same stamping without labels, for the
//! vertex sets of the CCH ordering loop and the many-to-many buckets.
//! Both advance their `u32` epoch through [`next_epoch`], the one place
//! an epoch wraps.

use std::collections::BinaryHeap;

use crate::graph::VertexId;
use crate::util::MinCost;

/// The parent word of a search root, and of a label that names none.
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// The last epoch a stamp holds: `epoch << 1 | settled` fills a `u32`.
const LAST_EPOCH: u32 = u32::MAX >> 1;

/// Advances `epoch` and returns whether it wrapped, in which case the
/// caller zeroes its stamps: epoch 0 is never current, so zeroed stamps
/// read as stale. At one search per nanosecond that is once in two
/// seconds of searching, so the re-zeroing costs nothing amortised.
#[inline]
fn next_epoch(epoch: &mut u32) -> bool {
    let wrapped = *epoch == LAST_EPOCH;
    *epoch = if wrapped { 1 } else { *epoch + 1 };
    wrapped
}

/// One vertex's label: stamp, parent and distance packed so a touch
/// costs one cache line, not three (searches are memory-bound on exactly
/// these random accesses).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Label {
    /// `(last-touching epoch << 1) | settled-bit`.
    stamp: u32,
    /// What reached the vertex: the parent edge on Dijkstra/A* searches,
    /// the parent rank on hierarchy walks; [`NO_PARENT`] on the root.
    parent: u32,
    /// Tentative (then final) distance in the current epoch.
    dist: f64,
}

const STALE: Label = Label {
    stamp: 0,
    parent: NO_PARENT,
    dist: f64::INFINITY,
};

/// The state of one search: labels, heap and lifetime work counters.
/// Empty until [`Side::size`] or the first [`Side::begin`] sizes it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Side {
    epoch: u32,
    labels: Vec<Label>,
    heap: BinaryHeap<MinCost<VertexId>>,
    /// Lifetime settles and pushes across every search on this side:
    /// plain increments, differenced by callers for per-search work.
    settled_total: u64,
    pushed_total: u64,
}

impl Side {
    /// Starts a search over `n` vertices: O(1) — sizes the labels on
    /// first use, bumps the epoch and clears the heap (which keeps its
    /// allocation).
    pub(crate) fn begin(&mut self, n: usize) {
        self.size(n);
        if next_epoch(&mut self.epoch) {
            self.labels.fill(STALE);
        }
        self.heap.clear();
    }

    /// Sizes the labels for `n` vertices; a no-op when they are.
    pub(crate) fn size(&mut self, n: usize) {
        if self.labels.len() != n {
            self.labels.clear();
            self.labels.resize(n, STALE);
            self.epoch = 0;
        }
    }

    /// Label slots allocated: 0 before the first search.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.labels.len()
    }

    /// Lifetime `(settled vertices, heap pushes)`; monotone.
    pub(crate) fn work(&self) -> (u64, u64) {
        (self.settled_total, self.pushed_total)
    }

    /// Whether `v` was labelled by the current search.
    #[inline]
    pub(crate) fn reached(&self, v: VertexId) -> bool {
        self.labels[v.index()].stamp >> 1 == self.epoch
    }

    /// `v`'s distance in the current search, `None` when unreached.
    #[inline]
    pub(crate) fn tentative(&self, v: VertexId) -> Option<f64> {
        let l = &self.labels[v.index()];
        (l.stamp >> 1 == self.epoch).then_some(l.dist)
    }

    /// `v`'s distance in the current search, `INFINITY` when unreached.
    #[inline]
    pub(crate) fn dist(&self, v: VertexId) -> f64 {
        self.tentative(v).unwrap_or(f64::INFINITY)
    }

    /// The parent word of `v`, [`NO_PARENT`] on the root and on
    /// unreached vertices.
    #[inline]
    pub(crate) fn parent(&self, v: VertexId) -> u32 {
        let l = &self.labels[v.index()];
        if l.stamp >> 1 == self.epoch {
            l.parent
        } else {
            NO_PARENT
        }
    }

    /// Whether `v` was settled by the current search.
    #[inline]
    pub(crate) fn is_settled(&self, v: VertexId) -> bool {
        self.labels[v.index()].stamp == (self.epoch << 1) | 1
    }

    #[inline]
    pub(crate) fn settle(&mut self, v: VertexId) {
        debug_assert!(self.reached(v), "settling an unreached vertex");
        self.labels[v.index()].stamp |= 1;
        self.settled_total += 1;
    }

    /// Labels `v` with `dist` and `parent` without queueing it.
    #[inline]
    pub(crate) fn label(&mut self, v: VertexId, dist: f64, parent: u32) {
        self.labels[v.index()] = Label {
            stamp: self.epoch << 1,
            parent,
            dist,
        };
    }

    /// Labels `v` and queues it under `key`.
    #[inline]
    pub(crate) fn push(&mut self, v: VertexId, dist: f64, parent: u32, key: f64) {
        self.label(v, dist, parent);
        self.heap.push(MinCost { cost: key, item: v });
        self.pushed_total += 1;
    }

    /// The queued vertex of least key, with its key.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, VertexId)> {
        self.heap.pop().map(|MinCost { cost, item }| (cost, item))
    }

    #[cfg(test)]
    pub(crate) fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// A stamped set over `0..n`: a vertex or rank is marked iff its stamp
/// is the current epoch, so [`Marks::begin`] empties the set in O(1).
/// Empty until the first `begin`, which sizes it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Marks {
    epoch: u32,
    stamps: Vec<u32>,
}

impl Marks {
    /// Starts an empty set over `n` entries.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamps.len() != n {
            self.stamps.clear();
            self.stamps.resize(n, 0);
            self.epoch = 0;
        }
        if next_epoch(&mut self.epoch) {
            self.stamps.fill(0);
        }
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.stamps[i] == self.epoch
    }

    /// Marks `i`; returns whether it was marked already.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        std::mem::replace(&mut self.stamps[i], self.epoch) == self.epoch
    }

    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_label_entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Label>(), 16);
    }

    #[test]
    fn labels_epoch_wrap_isolates_searches() {
        // Search A labels and settles vertex 0 just before the wrap;
        // search B (the last epoch) labels vertex 1 only; search C opens
        // after the wrap. Neither A's nor B's labels may leak forward.
        let mut side = Side::default();
        side.begin(4);
        side.set_epoch(LAST_EPOCH - 2);
        side.begin(4);
        side.push(VertexId(0), 3.0, NO_PARENT, 3.0);
        side.settle(VertexId(0));
        side.begin(4);
        assert_eq!(side.epoch, LAST_EPOCH);
        assert!(!side.reached(VertexId(0)));
        side.push(VertexId(1), 5.0, 0, 5.0);
        side.settle(VertexId(1));
        assert!(side.is_settled(VertexId(1)));
        assert_eq!(side.dist(VertexId(1)), 5.0);
        side.begin(4);
        assert_eq!(side.epoch, 1, "the epoch wraps to 1, never to 0");
        for v in (0..4).map(VertexId) {
            assert!(!side.reached(v) && !side.is_settled(v));
            assert_eq!((side.dist(v), side.parent(v)), (f64::INFINITY, NO_PARENT));
        }
        assert_eq!(side.pop(), None, "begin clears the heap");
        assert_eq!(side.work(), (2, 2), "work counters survive the wrap");

        let mut marks = Marks::default();
        marks.begin(3);
        marks.set_epoch(LAST_EPOCH - 1);
        marks.begin(3);
        assert!(!marks.insert(2));
        assert!(marks.insert(2) && marks.contains(2));
        marks.begin(3);
        assert!((0..3).all(|i| !marks.contains(i)));
    }
}
