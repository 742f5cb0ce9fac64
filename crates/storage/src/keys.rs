//! How a set of keys is held under `=ⁿ`: raw where it can be, decoded
//! where it must be.
//!
//! A key that is one `Int64` value (or one dictionary code) *is* an
//! `i64`; any other key is the [`GroupKey`] of its cells. [`KeyArms`]
//! is the map with those two arms — the executor's `KeyMap` reads
//! batches into it through its key view, and a table's key index keeps
//! the keys of a PRIMARY KEY / UNIQUE constraint in it — so how a key
//! is stored, hashed and compared is written once, for a join build and
//! an `INSERT` alike.
//!
//! `KeySets` is what a key index is made of: the keys spread over
//! sets of bounded size behind a two-level spine of `Arc`s. The set
//! count grows with the key count, one set at a time (linear hashing:
//! the oldest unsplit set is divided in two whenever the mean passes
//! `SET_KEYS` = 24), so a clone of the index is one pointer copy and a
//! write after the clone copies the spine's top, the chunks of pointers
//! it walks through and the few dozen keys of each set it inserts into —
//! the same at a thousand rows and at a million.
//!
//! Two hashes, one [`Fold`]: a raw map draws its seed ([`FoldSeed`]),
//! while the set that holds a key is addressed by
//! [`gbj_types::stream_hash`] — the fixed-seed fold that also fills the
//! distinct sketches and places every row the pipeline routes.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gbj_types::{mix, stream_hash, Fold, GroupKey};

/// The hasher of a raw-keyed [`KeyArms`]: one 64 × 64 → 128-bit multiply
/// of the seeded key, folded. The seed is drawn per map from
/// [`RandomState`], so a key set built to collide in one map does not
/// collide in the next (the flood resistance std's default gives), and
/// nothing a query returns depends on it: every table above a raw map
/// keeps its entries in first-seen order.
#[derive(Debug, Clone, Copy)]
pub struct FoldSeed(u64);

impl Default for FoldSeed {
    /// A freshly drawn seed.
    fn default() -> FoldSeed {
        FoldSeed(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for FoldSeed {
    type Hasher = Fold;

    #[inline]
    fn build_hasher(&self) -> Fold {
        Fold::new(self.0)
    }
}

/// Key → `V` under `=ⁿ`, on one of two arms.
#[derive(Debug, Clone)]
pub enum KeyArms<V> {
    /// Keyed on the raw `i64` every key of the map is.
    Raw {
        /// The non-NULL keys' entries.
        map: HashMap<i64, V, FoldSeed>,
        /// The `=ⁿ` NULL key's entry.
        null: Option<V>,
    },
    /// Keyed on decoded keys.
    Generic(HashMap<GroupKey, V>),
}

impl<V> KeyArms<V> {
    /// An empty raw-keyed map.
    #[must_use]
    pub fn raw() -> KeyArms<V> {
        KeyArms::Raw {
            map: HashMap::default(),
            null: None,
        }
    }

    /// An empty map keyed on decoded keys.
    #[must_use]
    pub fn generic() -> KeyArms<V> {
        KeyArms::Generic(HashMap::new())
    }

    /// Entries held.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            KeyArms::Raw { map, null } => map.len() + usize::from(null.is_some()),
            KeyArms::Generic(map) => map.len(),
        }
    }

    /// Whether the map holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the map is keyed on raw keys.
    #[must_use]
    pub fn is_raw(&self) -> bool {
        matches!(self, KeyArms::Raw { .. })
    }

    /// The entry of a raw key, `None` standing for NULL — on a raw map;
    /// a generic one holds no raw key.
    #[inline]
    #[must_use]
    pub fn get_raw(&self, raw: Option<i64>) -> Option<&V> {
        match (self, raw) {
            (KeyArms::Raw { map, .. }, Some(k)) => map.get(&k),
            (KeyArms::Raw { null, .. }, None) => null.as_ref(),
            (KeyArms::Generic(_), _) => None,
        }
    }

    /// The entry of a decoded key — on a generic map; a raw one holds
    /// no decoded key.
    #[must_use]
    pub fn get_key(&self, key: &GroupKey) -> Option<&V> {
        match self {
            KeyArms::Generic(map) => map.get(key),
            KeyArms::Raw { .. } => None,
        }
    }

    /// Re-key a raw map on the keys `decode` says its raw keys stood
    /// for (a generic one is left alone). No entry is lost as long as
    /// `decode` is one-to-one.
    pub fn demote(&mut self, decode: impl Fn(Option<i64>) -> GroupKey) {
        if let KeyArms::Raw { map, null } = self {
            let entries = std::mem::take(map).into_iter().map(|(k, v)| (Some(k), v));
            let nulls = null.take().into_iter().map(|v| (None, v));
            let decoded = entries.chain(nulls).map(|(k, v)| (decode(k), v));
            *self = KeyArms::Generic(decoded.collect());
        }
    }
}

/// Keys per set a [`KeySets`] grows towards: it adds a set whenever the
/// mean passes this, so sets hold about this many keys (up to twice it
/// for the ones the current round has not split yet) and a ten-row
/// `INSERT` after a clone copies a few hundred keys whatever the table
/// holds. A constant, not a setting.
const SET_KEYS: usize = 24;

/// Sets per chunk of a [`KeySets`] spine: what a write after a clone
/// copies, in pointers, per set it touches. 64 keeps the top of the
/// spine under a thousand pointers up to 1.5 million keys.
const CHUNK_SETS: usize = 64;

/// One key of a key index.
#[derive(Debug)]
pub(crate) enum Key {
    /// The value of the key's one `Int64` column.
    Raw(i64),
    /// The key's cells.
    Generic(GroupKey),
}

// Which set holds a key must repeat from clone to clone (the copy
// counters are exact), so no seed is drawn here.
fn place_raw(key: i64) -> u64 {
    mix(key as u64)
}

fn place_key(key: &GroupKey) -> u64 {
    stream_hash(|fold| key.hash(fold))
}

type KeySet = KeyArms<()>;

/// Move the keys `goes` picks out of `map` into a new map, both sized
/// for their share up front (a map grown key by key from nothing
/// reallocates four times on its way to a set's size).
fn divide<K: Hash + Eq, S: BuildHasher + Default>(
    map: &mut HashMap<K, (), S>,
    goes: impl Fn(&K) -> bool,
) -> HashMap<K, (), S> {
    let all = std::mem::take(map);
    let room = all.len() / 2 + 4;
    let mut gone = HashMap::with_capacity_and_hasher(room, S::default());
    map.reserve(room);
    for (key, ()) in all {
        if goes(&key) {
            gone.insert(key, ());
        } else {
            map.insert(key, ());
        }
    }
    gone
}

/// The keys of one key index, in sets of bounded size (see the module
/// documentation). Never holds a NULL: PRIMARY KEY rejects it and
/// UNIQUE leaves such rows out.
#[derive(Debug, Clone)]
pub(crate) struct KeySets {
    /// Whether every key is a [`Key::Raw`].
    raw: bool,
    /// Keys held.
    keys: usize,
    /// Sets held, at least one: set `s` is slot `s % CHUNK_SETS` of
    /// chunk `s / CHUNK_SETS`.
    sets: usize,
    spine: Arc<Vec<Arc<Vec<Arc<KeySet>>>>>,
}

impl KeySets {
    /// An empty index of raw or of decoded keys.
    pub(crate) fn new(raw: bool) -> KeySets {
        let mut sets = KeySets {
            raw,
            keys: 0,
            sets: 0,
            spine: Arc::default(),
        };
        sets.push_set(sets.empty_set());
        sets
    }

    fn empty_set(&self) -> KeySet {
        if self.raw {
            KeyArms::raw()
        } else {
            KeyArms::generic()
        }
    }

    /// Whether the keys are raw `i64`s.
    pub(crate) fn is_raw(&self) -> bool {
        self.raw
    }

    /// The set a key placed at `place` belongs to. With `sets` in
    /// `[2^l, 2^(l+1))`, sets below `sets - 2^l` have been split this
    /// round and are addressed by `l + 1` bits, the others by `l`: take
    /// `l + 1` bits, and drop the top one if that set does not exist
    /// yet.
    fn address(&self, place: u64) -> usize {
        let low = 1usize << self.sets.max(1).ilog2();
        let wide = (place as usize) & (2 * low - 1);
        if wide < self.sets {
            wide
        } else {
            wide - low
        }
    }

    fn set(&self, s: usize) -> Option<&KeySet> {
        let chunk = self.spine.get(s / CHUNK_SETS)?;
        chunk.get(s % CHUNK_SETS).map(Arc::as_ref)
    }

    /// Set `s`, to write to: the spine's top and the set's chunk are
    /// copied first if a clone shares them (pointers only), then the
    /// set itself — whose keys `copied` counts.
    fn set_mut(&mut self, s: usize, copied: &AtomicU64) -> Option<&mut KeySet> {
        let chunk = Arc::make_mut(&mut self.spine).get_mut(s / CHUNK_SETS)?;
        let set = Arc::make_mut(chunk).get_mut(s % CHUNK_SETS)?;
        if Arc::strong_count(set) > 1 {
            copied.fetch_add(set.len() as u64, Ordering::Relaxed);
        }
        Some(Arc::make_mut(set))
    }

    fn push_set(&mut self, set: KeySet) {
        let chunks = Arc::make_mut(&mut self.spine);
        if self.sets.is_multiple_of(CHUNK_SETS) {
            chunks.push(Arc::default());
        }
        if let Some(chunk) = chunks.last_mut() {
            Arc::make_mut(chunk).push(Arc::new(set));
            self.sets += 1;
        }
    }

    pub(crate) fn contains(&self, key: &Key) -> bool {
        match key {
            Key::Raw(k) => {
                let set = self.set(self.address(place_raw(*k)));
                set.is_some_and(|set| set.get_raw(Some(*k)).is_some())
            }
            Key::Generic(k) => {
                let set = self.set(self.address(place_key(k)));
                set.is_some_and(|set| set.get_key(k).is_some())
            }
        }
    }

    /// Add `key`; `false` if it was there already (or is not of this
    /// index's arm). Keys a clone's copy-on-write had to copy are added
    /// to `copied`.
    pub(crate) fn insert(&mut self, key: Key, copied: &AtomicU64) -> bool {
        let place = match &key {
            Key::Raw(k) => place_raw(*k),
            Key::Generic(k) => place_key(k),
        };
        let Some(set) = self.set_mut(self.address(place), copied) else {
            return false;
        };
        let new = match (set, key) {
            (KeyArms::Raw { map, .. }, Key::Raw(k)) => map.insert(k, ()).is_none(),
            (KeyArms::Generic(map), Key::Generic(k)) => map.insert(k, ()).is_none(),
            _ => false,
        };
        if new {
            self.keys += 1;
            if self.keys > self.sets * SET_KEYS {
                self.split(copied);
            }
        }
        new
    }

    /// Grow by one set: divide the oldest set this round has not split
    /// between itself and the new last set, by the next address bit.
    fn split(&mut self, copied: &AtomicU64) {
        let low = 1usize << self.sets.max(1).ilog2();
        let (from, to) = (self.sets - low, self.sets);
        let goes = |place: u64| (place as usize) & (2 * low - 1) == to;
        let Some(set) = self.set_mut(from, copied) else {
            return;
        };
        let gone = match set {
            KeyArms::Raw { map, .. } => KeyArms::Raw {
                map: divide(map, |k| goes(place_raw(*k))),
                null: None,
            },
            KeyArms::Generic(map) => KeyArms::Generic(divide(map, |k| goes(place_key(k)))),
        };
        self.push_set(gone);
    }

    /// Keys per set, in set order (for tests of the spread).
    #[cfg(test)]
    pub(crate) fn set_sizes(&self) -> Vec<usize> {
        (0..self.sets)
            .filter_map(|s| self.set(s).map(KeyArms::len))
            .collect()
    }

    /// How many sets `self` and `other` hold at one address, by pointer.
    #[cfg(test)]
    pub(crate) fn sets_shared_with(&self, other: &KeySets) -> usize {
        let same = |s: &usize| match (self.set(*s), other.set(*s)) {
            (Some(ours), Some(theirs)) => std::ptr::eq(ours, theirs),
            _ => false,
        };
        (0..self.sets).filter(same).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbj_types::Value;
    use std::collections::HashSet;

    fn unshared() -> AtomicU64 {
        AtomicU64::new(0)
    }

    /// Sequential keys, keys a power of two apart, keys at the `i64`
    /// extremes and string keys all spread: the set count follows the
    /// key count, and no set holds more than a few times the mean.
    #[test]
    fn sets_stay_bounded_whatever_the_keys_look_like() {
        let n = 20_000i64;
        type Zoo = (&'static str, fn(i64) -> i64);
        let int_zoos: [Zoo; 4] = [
            ("sequential", |i| i),
            ("strided", |i| i << 20),
            ("negative", |i| i64::MIN + i * 3),
            ("top", |i| i64::MAX - i * 1024),
        ];
        for (name, key) in &int_zoos {
            let mut sets = KeySets::new(true);
            for i in 0..n {
                assert!(sets.insert(Key::Raw(key(i)), &unshared()), "{name} {i}");
            }
            let sizes = sets.set_sizes();
            assert_eq!(sizes.iter().sum::<usize>(), n as usize, "{name}");
            assert_eq!(sizes.len(), (n as usize).div_ceil(SET_KEYS), "{name}");
            let max = sizes.iter().max().unwrap();
            assert!(*max <= 4 * SET_KEYS, "{name}: a set of {max}");
            assert!((0..n).all(|i| sets.contains(&Key::Raw(key(i)))), "{name}");
            assert!(!sets.contains(&Key::Raw(key(n))), "{name}");
            assert!(!sets.insert(Key::Raw(key(7)), &unshared()), "{name}: twice");
        }
        let text = |i: i64| GroupKey(vec![Value::str(format!("user{i}")), Value::Int(i % 3)]);
        let mut sets = KeySets::new(false);
        for i in 0..n {
            assert!(sets.insert(Key::Generic(text(i)), &unshared()));
        }
        let sizes = sets.set_sizes();
        assert_eq!(sizes.len(), (n as usize).div_ceil(SET_KEYS));
        assert!(sizes.iter().all(|s| *s <= 4 * SET_KEYS), "{sizes:?}");
        assert!((0..n).all(|i| sets.contains(&Key::Generic(text(i)))));
        assert!(!sets.contains(&Key::Generic(text(n))));
    }

    /// Against a plain `HashSet` while growing through several rounds
    /// of splits, with a clone taken every so often that must keep
    /// answering for the keys it was cloned with.
    #[test]
    fn growing_keeps_every_key_and_every_clone() {
        let mut sets = KeySets::new(true);
        let mut model: HashSet<i64> = HashSet::new();
        let mut clones: Vec<(KeySets, HashSet<i64>)> = Vec::new();
        let mut x = 1u64;
        for step in 0..6_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let key = (x >> 40) as i64 % 4_000;
            assert_eq!(
                sets.insert(Key::Raw(key), &unshared()),
                model.insert(key),
                "step {step}"
            );
            if step % 1_000 == 999 {
                clones.push((sets.clone(), model.clone()));
            }
        }
        clones.push((sets, model));
        for (sets, model) in &clones {
            assert_eq!(sets.keys, model.len());
            for key in 0..4_000 {
                assert_eq!(sets.contains(&Key::Raw(key)), model.contains(&key));
            }
        }
    }

    /// A key of the other arm is never found and never stored.
    #[test]
    fn arms_do_not_mix() {
        let mut raw = KeySets::new(true);
        let decoded = || Key::Generic(GroupKey(vec![Value::Int(1)]));
        assert!(raw.insert(Key::Raw(1), &unshared()));
        assert!(!raw.contains(&decoded()));
        assert!(!raw.insert(decoded(), &unshared()));
        assert_eq!(raw.keys, 1);
    }
}
