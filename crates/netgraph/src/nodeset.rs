//! Dense bitset over node ids.
//!
//! The coverage algorithms spend almost all their time asking "is `v`
//! already covered?" and "how many new nodes would broker `w` cover?".
//! A `u64`-word bitset answers both with word-parallel operations and is
//! the working currency of `brokerset`.
#![expect(
    clippy::disallowed_methods,
    reason = "R7: the bitset owns the word-level set tricks"
)]

use crate::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A fixed-capacity set of [`NodeId`]s backed by a bit vector.
///
/// ```
/// use netgraph::{NodeSet, NodeId};
/// let mut s = NodeSet::new(100);
/// s.insert(NodeId(3));
/// s.insert(NodeId(64));
/// assert!(s.contains(NodeId(3)));
/// assert_eq!(s.len(), 2);
/// let ids: Vec<u32> = s.iter().map(|n| n.0).collect();
/// assert_eq!(ids, vec![3, 64]);
/// ```
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSet {
    words: Vec<u64>,
    capacity: usize,
    len: usize,
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeSet(len={}, cap={})", self.len, self.capacity)
    }
}

impl NodeSet {
    /// Empty set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NodeSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
            len: 0,
        }
    }

    /// Set containing every id in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = NodeSet::new(capacity);
        for w in s.words.iter_mut() {
            *w = u64::MAX;
        }
        // Clear the tail bits past `capacity`.
        let tail = capacity % 64;
        if tail != 0 {
            if let Some(last) = s.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        s.len = capacity;
        s
    }

    /// Build from an iterator of ids.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = NodeId>>(
        capacity: usize,
        iter: I,
    ) -> Self {
        let mut s = NodeSet::new(capacity);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Maximum id + 1 this set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `0..capacity`.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        assert!(v.index() < self.capacity, "{v} outside set capacity");
        self.words[v.index() / 64] >> (v.index() % 64) & 1 == 1
    }

    /// Insert `v`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `0..capacity`.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        assert!(v.index() < self.capacity, "{v} outside set capacity");
        let word = &mut self.words[v.index() / 64];
        let mask = 1u64 << (v.index() % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Remove `v`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside `0..capacity`.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        assert!(v.index() < self.capacity, "{v} outside set capacity");
        let word = &mut self.words[v.index() / 64];
        let mask = 1u64 << (v.index() % 64);
        if *word & mask != 0 {
            *word &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Remove all members, keeping capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// In-place intersection. Both sets must have the same capacity.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// In-place difference (`self \ other`). Same capacities required.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let mut len = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
            len += a.count_ones() as usize;
        }
        self.len = len;
    }

    /// Size of the union without materializing it.
    ///
    /// # Panics
    ///
    /// Panics on capacity mismatch.
    pub fn union_len(&self, other: &NodeSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// Iterate members in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect members into a `Vec`.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`NodeSet`]'s members.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(NodeId((self.word_idx * 64 + bit) as u32))
    }
}

impl crate::Validate for NodeSet {
    /// Re-derive the bitset invariants from the raw words:
    ///
    /// 1. the word vector is exactly `ceil(capacity / 64)` long;
    /// 2. no bit is set at a position `>= capacity` (the tail of the last
    ///    word is clear);
    /// 3. the cached length equals the total popcount.
    fn audit(&self) -> crate::AuditReport {
        let mut rep = crate::AuditReport::new("netgraph::NodeSet");
        rep.check(
            "nodeset.word-count",
            self.words.len() == self.capacity.div_ceil(64),
            || {
                format!(
                    "{} words for capacity {} (expected {})",
                    self.words.len(),
                    self.capacity,
                    self.capacity.div_ceil(64)
                )
            },
        );
        let tail = self.capacity % 64;
        let tail_clear = tail == 0
            || self
                .words
                .last()
                .is_none_or(|&w| w & !((1u64 << tail) - 1) == 0);
        rep.check("nodeset.tail-clear", tail_clear, || {
            format!("bits set beyond capacity {}", self.capacity)
        });
        let popcount: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        rep.check("nodeset.cached-len", popcount == self.len, || {
            format!("cached len {}, popcount {popcount}", self.len)
        });
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_accepts_and_detects_corruption() {
        use crate::Validate;
        let mut s = NodeSet::new(70);
        s.insert(NodeId(3));
        s.insert(NodeId(69));
        assert!(s.audit().is_ok());
        assert!(NodeSet::new(0).audit().is_ok());
        assert!(NodeSet::full(64).audit().is_ok());

        // Cached length out of sync with the popcount.
        let mut bad = s.clone();
        bad.len = 5;
        let rep = bad.audit();
        assert!(rep
            .findings
            .iter()
            .any(|f| f.invariant == "nodeset.cached-len"));

        // A bit set beyond the capacity (in the last word's tail).
        let mut bad = s.clone();
        *bad.words.last_mut().unwrap() |= 1 << 63; // index 127 >= 70
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "nodeset.tail-clear"));

        // Word vector length no longer matches the capacity.
        let mut bad = s.clone();
        bad.words.push(0);
        assert!(bad
            .audit()
            .findings
            .iter()
            .any(|f| f.invariant == "nodeset.word-count"));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(129)));
        assert!(!s.insert(NodeId(0)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(NodeId(129)));
        assert!(s.remove(NodeId(0)));
        assert!(!s.remove(NodeId(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_respects_tail() {
        let s = NodeSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(NodeId(69)));
        assert_eq!(s.iter().count(), 70);
        let s64 = NodeSet::full(64);
        assert_eq!(s64.len(), 64);
    }

    #[test]
    fn empty_set_iter() {
        let s = NodeSet::new(0);
        assert_eq!(s.iter().count(), 0);
        let s = NodeSet::new(100);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter_with_capacity(100, [1, 2, 3].map(NodeId));
        let b = NodeSet::from_iter_with_capacity(100, [3, 4].map(NodeId));

        assert_eq!(a.union_len(&b), 4);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![NodeId(3)]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn iter_ascending_across_words() {
        let ids = [0u32, 63, 64, 65, 127, 128];
        let s = NodeSet::from_iter_with_capacity(200, ids.map(NodeId));
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, ids);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn contains_out_of_range_panics() {
        let s = NodeSet::new(10);
        s.contains(NodeId(10));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn difference_capacity_mismatch_panics() {
        let mut a = NodeSet::new(10);
        let b = NodeSet::new(20);
        a.difference_with(&b);
    }
}
