//! The crate's one hash table over integer keys: an open-addressed
//! (linear-probing) index over entries whose keys are packed back to back
//! in a flat `i64` arena.
//!
//! Both the memo cache ([`MemoCache`](crate::pool::MemoCache), one table
//! per shard) and the search history ([`History`](crate::sa::History))
//! store their [`NodeConfig::encode`](flextensor_schedule::config::NodeConfig::encode)
//! keys here. Compared to a `HashMap<Vec<i64>, _>` or a
//! `BTreeMap<Vec<i64>, _>`, an insert costs no allocation (the key words
//! append to the arena), a lookup costs one probe run over 16-byte slots
//! plus — only on a full 64-bit hash match — one key comparison against
//! the arena, and dropping the table frees three buffers instead of one
//! allocation per key.

/// Empty-slot sentinel in the probe table.
const EMPTY: u32 = u32::MAX;

/// Slots a table starts with at its first insert.
const INITIAL_SLOTS: usize = 64;

/// FNV-1a over the key words; stable across platforms. Every key table
/// of the crate (the memo cache, the search history) and the evaluation
/// pool's duplicate check hash keys with this one function, so a caller
/// that holds a candidate's key hashes it once and hands the hash on. The
/// low bits are free for a caller to pick a shard with: the probe table
/// seats keys from bits 7 and up.
pub fn hash_key(key: &[i64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in key {
        h ^= w as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// One probe-table slot: the key's full 64-bit hash (compared before any
/// key words are touched, so probe misses stay in the table's cache
/// lines) and the entry it points at (`EMPTY` = free).
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    idx: u32,
}

/// A free slot.
const FREE: Slot = Slot {
    hash: 0,
    idx: EMPTY,
};

/// One entry; its key lives in the arena at `start..start + len`.
#[derive(Debug, Clone, Copy)]
struct Entry<V> {
    start: u32,
    len: u32,
    value: V,
}

/// A hash table from `i64`-word keys to `V`, with entry ids that are
/// stable insertion indices (`0..len()`) until the next [`KeyTable::clear`].
#[derive(Debug, Clone)]
pub(crate) struct KeyTable<V> {
    /// Power-of-two probe table (empty until the first insert).
    slots: Vec<Slot>,
    /// Live entries in insertion order.
    entries: Vec<Entry<V>>,
    /// Key words of every live entry, back to back.
    arena: Vec<i64>,
}

impl<V> Default for KeyTable<V> {
    fn default() -> KeyTable<V> {
        KeyTable {
            slots: Vec::new(),
            entries: Vec::new(),
            arena: Vec::new(),
        }
    }
}

impl<V> KeyTable<V> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total key words stored.
    pub(crate) fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// The id of `key`'s entry, if present. `hash` must be
    /// [`hash_key`]`(key)`.
    pub(crate) fn get(&self, hash: u64, key: &[i64]) -> Option<usize> {
        debug_assert_eq!(hash, hash_key(key));
        if self.slots.is_empty() {
            return None;
        }
        self.find(hash, key).ok()
    }

    /// Entry `id`'s key words.
    pub(crate) fn key(&self, id: usize) -> &[i64] {
        let e = &self.entries[id];
        &self.arena[e.start as usize..(e.start + e.len) as usize]
    }

    /// Entry `id`'s value.
    pub(crate) fn value(&self, id: usize) -> &V {
        &self.entries[id].value
    }

    /// Inserts `key` with `value`, or overwrites the value of the entry
    /// already holding `key`. Returns the entry id and, for a key that was
    /// already present, its previous value. `hash` must be
    /// [`hash_key`]`(key)`.
    ///
    /// # Panics
    ///
    /// Panics when the arena would outgrow `u32` offsets; callers that
    /// bound their size (the memo cache) flush before that point.
    pub(crate) fn insert(&mut self, hash: u64, key: &[i64], value: V) -> (usize, Option<V>) {
        debug_assert_eq!(hash, hash_key(key));
        if self.slots.is_empty() {
            self.slots = vec![FREE; INITIAL_SLOTS];
        }
        let mut free = match self.find(hash, key) {
            Ok(id) => {
                let old = std::mem::replace(&mut self.entries[id].value, value);
                return (id, Some(old));
            }
            Err(free) => free,
        };
        if (self.entries.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
            free = self
                .find(hash, key)
                .expect_err("key cannot appear during growth");
        }
        let start = u32::try_from(self.arena.len()).expect("key arena outgrew u32 offsets");
        let len = u32::try_from(key.len()).expect("key outgrew u32 length");
        start
            .checked_add(len)
            .expect("key arena outgrew u32 offsets");
        self.arena.extend_from_slice(key);
        let id = self.entries.len();
        self.entries.push(Entry { start, len, value });
        self.slots[free] = Slot {
            hash,
            idx: id as u32,
        };
        (id, None)
    }

    /// Drops every entry but keeps the allocations.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.arena.clear();
        for s in &mut self.slots {
            s.idx = EMPTY;
        }
    }

    /// Finds `key` (`Ok(entry id)`) or the free slot where it would be
    /// inserted (`Err(slot index)`). Requires a non-empty probe table.
    fn find(&self, hash: u64, key: &[i64]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        // Probe from bits disjoint from a caller's shard-selection bits.
        let mut i = ((hash >> 7) as usize) & mask;
        loop {
            let s = self.slots[i];
            if s.idx == EMPTY {
                return Err(i);
            }
            if s.hash == hash && self.key(s.idx as usize) == key {
                return Ok(s.idx as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the probe table, re-seating the existing slots (entry and
    /// arena storage is untouched — only 16-byte slots move).
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mut slots = vec![FREE; new_len];
        let mask = new_len - 1;
        for s in &self.slots {
            if s.idx == EMPTY {
                continue;
            }
            let mut i = ((s.hash >> 7) as usize) & mask;
            while slots[i].idx != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = *s;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite_and_clear() {
        let mut t: KeyTable<u8> = KeyTable::default();
        let keys: Vec<Vec<i64>> = (0..500).map(|i| vec![i, -i, i * 7]).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.insert(hash_key(k), k, i as u8), (i, None));
        }
        assert_eq!(t.len(), 500);
        assert_eq!(t.arena_len(), 1500);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(hash_key(k), k), Some(i));
            assert_eq!(t.key(i), &k[..]);
        }
        assert_eq!(t.insert(hash_key(&keys[3]), &keys[3], 99), (3, Some(3)));
        assert_eq!(*t.value(3), 99);
        assert_eq!(t.get(hash_key(&[1, 2]), &[1, 2]), None);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(hash_key(&keys[0]), &keys[0]), None);
    }

    #[test]
    fn colliding_hashes_are_told_apart_by_key() {
        // `b` is filed under `a`'s hash: looking `a` up must compare key
        // words, not just hashes.
        let (a, b) = ([1i64, 2], [3i64, 4]);
        let h = hash_key(&a);
        let mut t = KeyTable {
            slots: vec![FREE; INITIAL_SLOTS],
            entries: vec![Entry {
                start: 0,
                len: 2,
                value: 7u8,
            }],
            arena: b.to_vec(),
        };
        let free = t.find(h, &a).unwrap_err();
        t.slots[free] = Slot { hash: h, idx: 0 };
        assert_eq!(t.find(h, &a).map_err(|_| ()), Err(()));
        assert_eq!(t.find(h, &b), Ok(0));
    }
}
