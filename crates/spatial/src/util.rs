//! Small utilities shared by the routing algorithms: a fixed-capacity
//! bitset for banned vertices/edges, a min-heap entry ordered on `f64`
//! cost via `total_cmp`, and the counting sort the hierarchy builders lay
//! out their CSR arrays with.

use std::cmp::Ordering;

/// A fixed-capacity bitset indexed by `u32` ids.
///
/// Yen's algorithm bans sets of vertices and edges on every spur search;
/// a bitset makes membership tests branch-cheap and allocation-free after
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bitset able to hold ids in `0..capacity`, all clear.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0u64; capacity.div_ceil(64)],
            len: capacity,
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Sets bit `i`.
    #[inline]
    pub fn insert(&mut self, i: u32) {
        debug_assert!(
            (i as usize) < self.len,
            "bit {i} out of capacity {}",
            self.len
        );
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`.
    #[inline]
    pub fn remove(&mut self, i: u32) {
        debug_assert!((i as usize) < self.len);
        self.words[(i / 64) as usize] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        debug_assert!((i as usize) < self.len);
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Clears all bits, keeping capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Min-heap entry: `std::collections::BinaryHeap` is a max-heap, so the
/// ordering is reversed here. `f64::total_cmp` gives a total order that is
/// safe even if a NaN slips in (it will sort last).
#[derive(Debug, Clone, Copy)]
pub struct MinCost<T> {
    /// Priority (lower pops first).
    pub cost: f64,
    /// Payload.
    pub item: T,
}

impl<T> PartialEq for MinCost<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cost.total_cmp(&other.cost) == Ordering::Equal
    }
}
impl<T> Eq for MinCost<T> {}
impl<T> PartialOrd for MinCost<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for MinCost<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller cost = greater priority.
        other.cost.total_cmp(&self.cost)
    }
}

/// Stable counting sort into CSR form: groups the `(key, value)` items
/// that `each` emits by key (`key < buckets`), keeping emission order
/// within a group. Returns the `buckets + 1` group offsets and the
/// grouped values. `each` runs twice — once to count, once to place
/// every value straight into the final array.
pub(crate) fn group_by_key<V: Copy>(
    buckets: usize,
    fill: V,
    each: impl Fn(&mut dyn FnMut(u32, V)),
) -> (Vec<u32>, Vec<V>) {
    let mut offsets = vec![0u32; buckets + 1];
    each(&mut |key, _| offsets[key as usize + 1] += 1);
    for i in 0..buckets {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut grouped = vec![fill; offsets[buckets] as usize];
    each(&mut |key, value| {
        let slot = &mut cursor[key as usize];
        grouped[*slot as usize] = value;
        *slot += 1;
    });
    (offsets, grouped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn bitset_insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(65));
        assert_eq!(s.count(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 3);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 130);
    }

    #[test]
    fn min_cost_orders_heap_ascending() {
        let mut h = BinaryHeap::new();
        for (c, v) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            h.push(MinCost { cost: c, item: v });
        }
        let order: Vec<char> = std::iter::from_fn(|| h.pop().map(|e| e.item)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn min_cost_nan_sorts_last() {
        let mut h = BinaryHeap::new();
        h.push(MinCost {
            cost: f64::NAN,
            item: 'n',
        });
        h.push(MinCost {
            cost: 5.0,
            item: 'x',
        });
        assert_eq!(h.pop().unwrap().item, 'x');
        assert_eq!(h.pop().unwrap().item, 'n');
    }
}
