//! Items grouped under dense keys by a counting sort, the one index
//! structure behind `verify`'s passes and the derivation of `Ω`.

/// Bucket `k` holds the items given with key `k`, in the order they were
/// given.
pub(crate) struct Buckets<T> {
    /// Bucket `k` is `items[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    pub(crate) items: Vec<T>,
}

impl<T: Copy + Default> Buckets<T> {
    /// Groups `pairs` of `(key, item)`, every key below `keys`; the
    /// iterator is walked twice, once to size the buckets and once to fill
    /// them.
    pub(crate) fn group(keys: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut starts = vec![0u32; keys + 1];
        // A flattened source folds far faster than it steps.
        pairs.clone().for_each(|(key, _)| starts[key + 1] += 1);
        for key in 0..keys {
            starts[key + 1] += starts[key];
        }
        let mut items = vec![T::default(); starts[keys] as usize];
        let mut next = starts.clone();
        pairs.for_each(|(key, item)| {
            items[next[key] as usize] = item;
            next[key] += 1;
        });
        Buckets { starts, items }
    }

    pub(crate) fn range(&self, key: usize) -> std::ops::Range<usize> {
        self.starts[key] as usize..self.starts[key + 1] as usize
    }
}

/// A position in a list as the `u32` the buckets store.
pub(crate) fn compact(index: usize) -> u32 {
    u32::try_from(index).expect("schedule lists must fit u32 indices")
}
