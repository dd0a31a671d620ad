use dgmc_topology::NodeId;
use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

/// A D-GMC vector timestamp.
///
/// "A timestamp `T` is an n-tuple of natural numbers, where `n` is the
/// number of switches in the network. The x-th component of `T` ... specifies
/// how many events have been heard from switch `x`."
///
/// Comparison follows the paper: `A >= B` iff `A[i] >= B[i]` for every `i`;
/// `A > B` iff `A >= B` and `A != B`. Two timestamps can be incomparable, so
/// only [`PartialOrd`] is implemented.
///
/// # Representation
///
/// Logically an n-tuple, physically a sorted sparse vector of the *nonzero*
/// components only. An MC's stamps count events from its members, so at
/// scale (many thousands of resident MCs in a large network) almost every
/// component is zero; storing `(origin, count)` pairs makes a stamp O(active
/// origins) instead of O(n) and lets 100k-connection switches fit in memory.
/// The canonical form — strictly increasing indices, no zero values — makes
/// the derived `Eq`/`Hash` agree with tuple equality.
///
/// A stamp is a shared value: the components live behind one [`Rc`], so a
/// clone is a reference-count bump, and every relay copy of an MC LSA, every
/// candidate, `old_r` and the `E = R` reset hold one vector. [`incr`] and
/// [`merge_max`] copy on write ([`Rc::make_mut`]) and leave other holders
/// untouched; a merge that raises nothing neither copies nor allocates.
/// Equality, hashing and `Debug` are by value, as for the bare vector.
///
/// [`incr`]: Timestamp::incr
/// [`merge_max`]: Timestamp::merge_max
///
/// # Examples
///
/// ```
/// use dgmc_core::Timestamp;
/// use dgmc_topology::NodeId;
///
/// let mut a = Timestamp::zero(3);
/// let mut b = Timestamp::zero(3);
/// a.incr(NodeId(0));
/// b.incr(NodeId(2));
/// assert!(!a.dominates(&b));
/// assert!(!b.dominates(&a));
/// let m = a.merged_max(&b);
/// assert!(m.dominates(&a) && m.dominates(&b));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Timestamp {
    /// Network size: the logical tuple length.
    n: u32,
    /// Nonzero components as `(switch index, count)`, sorted by index.
    entries: Rc<Vec<(u32, u64)>>,
}

impl Timestamp {
    /// The all-zero timestamp for a network of `n` switches.
    pub fn zero(n: usize) -> Timestamp {
        Timestamp {
            n: u32::try_from(n).expect("network size exceeds u32"),
            entries: Rc::new(Vec::new()),
        }
    }

    /// Builds a timestamp from explicit components.
    pub fn from_components(components: Vec<u64>) -> Timestamp {
        let n = u32::try_from(components.len()).expect("network size exceeds u32");
        let entries = components
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v != 0)
            .map(|(i, v)| (u32::try_from(i).expect("index fits: len checked"), v))
            .collect();
        Timestamp {
            n,
            entries: Rc::new(entries),
        }
    }

    /// Number of components (network size).
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Returns `true` if the timestamp has no components.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of nonzero components actually stored.
    pub fn nonzero_len(&self) -> usize {
        self.entries.len()
    }

    /// The component for switch `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn get(&self, x: NodeId) -> u64 {
        assert!(x.0 < self.n, "timestamp component {} out of range", x.0);
        match self.entries.binary_search_by_key(&x.0, |&(i, _)| i) {
            Ok(k) => self.entries[k].1,
            Err(_) => 0,
        }
    }

    /// Increments the component for switch `x` (one more event heard).
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn incr(&mut self, x: NodeId) {
        assert!(x.0 < self.n, "timestamp component {} out of range", x.0);
        match self.entries.binary_search_by_key(&x.0, |&(i, _)| i) {
            Ok(k) => Rc::make_mut(&mut self.entries)[k].1 += 1,
            Err(k) => Rc::make_mut(&mut self.entries).insert(k, (x.0, 1)),
        }
    }

    /// Sets every component to the max of itself and `other`'s
    /// (the `E[y] = max(E[y], T[y])` step of `ReceiveLSA()`).
    ///
    /// When `self` already covers `other` this reads both and writes
    /// nothing, so a shared `self` stays shared. Otherwise the one vector
    /// (unshared first) grows by the components `self` lacks and is merged
    /// from the back in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge_max(&mut self, other: &Timestamp) {
        assert_eq!(self.n, other.n, "timestamp sizes differ");
        if Rc::ptr_eq(&self.entries, &other.entries) {
            return;
        }
        // Read-only pass: how many of `other`'s components `self` lacks,
        // and whether any of the shared ones rises.
        let (mut missing, mut raises) = (0usize, false);
        let mut a = 0usize;
        for &(ib, vb) in other.entries.iter() {
            while a < self.entries.len() && self.entries[a].0 < ib {
                a += 1;
            }
            match self.entries.get(a) {
                Some(&(ia, va)) if ia == ib => {
                    raises |= vb > va;
                    a += 1;
                }
                _ => missing += 1,
            }
        }
        if missing == 0 && !raises {
            return;
        }
        let merged = Rc::make_mut(&mut self.entries);
        let mut a = merged.len();
        merged.resize(a + missing, (0, 0));
        // Fill from the back: the write cursor `w` stays ahead of the read
        // cursor `a` by the number of missing components not yet placed,
        // so no unread entry is overwritten and the prefix left when
        // `other` runs out is already in place.
        let mut w = merged.len();
        for &(ib, vb) in other.entries.iter().rev() {
            while a > 0 && merged[a - 1].0 > ib {
                a -= 1;
                w -= 1;
                merged[w] = merged[a];
            }
            w -= 1;
            merged[w] = match a.checked_sub(1).map(|k| merged[k]) {
                Some((ia, va)) if ia == ib => {
                    a -= 1;
                    (ib, va.max(vb))
                }
                _ => (ib, vb),
            };
        }
        debug_assert_eq!(w, a, "back merge left a gap");
    }

    /// Returns the componentwise max without mutating.
    pub fn merged_max(&self, other: &Timestamp) -> Timestamp {
        let mut out = self.clone();
        out.merge_max(other);
        out
    }

    /// The paper's `A >= B`: every component of `self` is at least `other`'s.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dominates(&self, other: &Timestamp) -> bool {
        assert_eq!(self.n, other.n, "timestamp sizes differ");
        // Every nonzero component of `other` must be covered; components
        // absent from `other` are zero and trivially dominated.
        let mut a = 0usize;
        for &(ib, vb) in other.entries.iter() {
            while a < self.entries.len() && self.entries[a].0 < ib {
                a += 1;
            }
            match self.entries.get(a) {
                Some(&(ia, va)) if ia == ib && va >= vb => a += 1,
                _ => return false,
            }
        }
        true
    }

    /// The paper's `A > B`: dominates and differs.
    pub fn strictly_dominates(&self, other: &Timestamp) -> bool {
        self.dominates(other) && self != other
    }

    /// Sum of all components (total events heard; useful in traces).
    pub fn total(&self) -> u64 {
        self.entries.iter().map(|&(_, v)| v).sum()
    }

    /// Iterates over all `n` `(switch, component)` pairs, zeros included.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        let mut k = 0usize;
        (0..self.n).map(move |i| {
            let v = match self.entries.get(k) {
                Some(&(idx, v)) if idx == i => {
                    k += 1;
                    v
                }
                _ => 0,
            };
            (NodeId(i), v)
        })
    }

    /// Iterates over the stored nonzero `(switch, component)` pairs only.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.entries.iter().map(|&(i, v)| (NodeId(i), v))
    }
}

impl PartialOrd for Timestamp {
    /// `None` for incomparable timestamps.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self.dominates(other), other.dominates(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Greater),
            (false, true) => Some(Ordering::Less),
            (false, false) => None,
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (_, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ts(v: &[u64]) -> Timestamp {
        Timestamp::from_components(v.to_vec())
    }

    #[test]
    fn zero_is_dominated_by_everything() {
        let z = Timestamp::zero(3);
        let t = ts(&[1, 0, 2]);
        assert!(t.dominates(&z));
        assert!(t.strictly_dominates(&z));
        assert!(z.dominates(&z));
        assert!(!z.strictly_dominates(&z));
    }

    #[test]
    fn incomparable_pairs() {
        let a = ts(&[1, 0]);
        let b = ts(&[0, 1]);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
        assert_eq!(a.partial_cmp(&b), None);
    }

    #[test]
    fn partial_ord_matches_domination() {
        let a = ts(&[2, 3]);
        let b = ts(&[1, 3]);
        assert_eq!(a.partial_cmp(&b), Some(Ordering::Greater));
        assert_eq!(b.partial_cmp(&a), Some(Ordering::Less));
        assert_eq!(a.partial_cmp(&a), Some(Ordering::Equal));
        assert!(a > b);
        assert!(b < a);
        assert!(a == a);
    }

    #[test]
    fn merge_is_least_upper_bound() {
        let a = ts(&[1, 0, 5]);
        let b = ts(&[0, 2, 3]);
        let m = a.merged_max(&b);
        assert_eq!(m, ts(&[1, 2, 5]));
        assert!(m.dominates(&a) && m.dominates(&b));
        // lub minimality: anything dominating both dominates m componentwise.
        let upper = ts(&[9, 9, 9]);
        assert!(upper.dominates(&m));
    }

    #[test]
    fn incr_and_get() {
        let mut t = Timestamp::zero(2);
        t.incr(NodeId(1));
        t.incr(NodeId(1));
        assert_eq!(t.get(NodeId(1)), 2);
        assert_eq!(t.get(NodeId(0)), 0);
        assert_eq!(t.total(), 2);
    }

    #[test]
    fn display_and_iter() {
        let t = ts(&[3, 1, 4]);
        assert_eq!(t.to_string(), "(3,1,4)");
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs.len(), 3, "iter yields every component, zeros too");
        assert_eq!(pairs[2], (NodeId(2), 4));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn size_mismatch_panics() {
        ts(&[1]).dominates(&ts(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        ts(&[1, 2]).get(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn incr_out_of_range_panics() {
        let mut t = Timestamp::zero(2);
        t.incr(NodeId(2));
    }

    #[test]
    fn sparse_representation_is_canonical() {
        // Zeros are never stored, so tuple-equal stamps built along
        // different paths are representation-equal (Eq/Hash agree).
        let a = ts(&[0, 7, 0, 0]);
        let mut b = Timestamp::zero(4);
        for _ in 0..7 {
            b.incr(NodeId(1));
        }
        assert_eq!(a, b);
        assert_eq!(a.nonzero_len(), 1);
        let merged = Timestamp::zero(4).merged_max(&a);
        assert_eq!(merged.nonzero_len(), 1);
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), 0),
                (NodeId(1), 7),
                (NodeId(2), 0),
                (NodeId(3), 0)
            ]
        );
        assert_eq!(a.iter_nonzero().collect::<Vec<_>>(), vec![(NodeId(1), 7)]);
    }

    #[test]
    fn dominates_handles_interleaved_sparse_entries() {
        let a = ts(&[2, 0, 3, 0, 1]);
        let b = ts(&[1, 0, 3, 0, 0]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        let c = ts(&[0, 1, 0, 0, 0]);
        assert!(!a.dominates(&c), "missing index 1 must not be skipped");
        assert!(a.merged_max(&c).dominates(&c));
    }

    /// A random stamp over `n` components, mostly zeros, as the sparse
    /// value and its dense reference.
    fn random_stamp(rng: &mut StdRng, n: usize) -> (Timestamp, Vec<u64>) {
        let dense: Vec<u64> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    rng.gen_range(1..4)
                } else {
                    0
                }
            })
            .collect();
        (ts(&dense), dense)
    }

    fn dense_dominates(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x >= y)
    }

    /// Random scripts of merges and increments on sparse stamps, shared
    /// and unshared, against a dense `Vec<u64>` reference after every step:
    /// `dominates` and `strictly_dominates` both ways before it, the value,
    /// its canonical form and every other holder's value after it.
    #[test]
    fn sparse_stamps_match_a_dense_reference() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let n = rng.gen_range(1..9);
            let (mut a, mut da) = random_stamp(&mut rng, n);
            for _ in 0..rng.gen_range(1..8) {
                let (b, db) = if rng.gen_bool(0.3) {
                    (a.clone(), da.clone())
                } else {
                    random_stamp(&mut rng, n)
                };
                assert_eq!(a.dominates(&b), dense_dominates(&da, &db));
                assert_eq!(b.dominates(&a), dense_dominates(&db, &da));
                assert_eq!(
                    a.strictly_dominates(&b),
                    dense_dominates(&da, &db) && da != db
                );
                assert_eq!(
                    b.strictly_dominates(&a),
                    dense_dominates(&db, &da) && da != db
                );
                // Half the steps mutate a stamp another holder shares (copy
                // on write), half one that is the vector's only holder (in
                // place).
                let held = rng.gen_bool(0.5).then(|| (a.clone(), da.clone()));
                if rng.gen_bool(0.5) {
                    let x = rng.gen_range(0..n);
                    a.incr(NodeId(u32::try_from(x).unwrap()));
                    da[x] += 1;
                } else {
                    a.merge_max(&b);
                    for (x, y) in da.iter_mut().zip(&db) {
                        *x = (*x).max(*y);
                    }
                }
                assert_eq!(a, ts(&da), "canonical form after the step");
                assert_eq!(a.iter().map(|(_, v)| v).collect::<Vec<_>>(), da);
                if let Some((held, dheld)) = held {
                    assert_eq!(held, ts(&dheld), "the clone held across the step changed");
                }
            }
        }
    }

    /// Mutating a clone never reaches the original, through either mutator.
    #[test]
    fn a_mutated_clone_leaves_the_original_alone() {
        let original = ts(&[1, 0, 2, 0]);
        let mut bumped = original.clone();
        bumped.incr(NodeId(0));
        bumped.incr(NodeId(1));
        let mut merged = original.clone();
        merged.merge_max(&ts(&[0, 5, 0, 3]));
        assert_eq!(original, ts(&[1, 0, 2, 0]));
        assert_eq!(bumped, ts(&[2, 1, 2, 0]));
        assert_eq!(merged, ts(&[1, 5, 2, 3]));
        assert!(!Rc::ptr_eq(&bumped.entries, &original.entries));
        assert!(!Rc::ptr_eq(&merged.entries, &original.entries));
    }

    /// A clone shares the components, and a merge that raises nothing
    /// (an equal, a dominated or a zero stamp) keeps it shared.
    #[test]
    fn a_covered_merge_copies_nothing() {
        let original = ts(&[3, 0, 2, 1]);
        let mut copy = original.clone();
        assert!(Rc::ptr_eq(&copy.entries, &original.entries), "clone shares");
        for covered in [
            original.clone(),
            ts(&[3, 0, 2, 1]),
            ts(&[1, 0, 2, 0]),
            Timestamp::zero(4),
        ] {
            copy.merge_max(&covered);
            assert!(
                Rc::ptr_eq(&copy.entries, &original.entries),
                "{covered} copied"
            );
        }
        assert_eq!(copy.merged_max(&ts(&[0, 0, 1, 0])), original);
    }
}
