//! Generational slab storage: dense, reusable slots with stale-handle
//! detection.
//!
//! The simulator keeps every live [`crate::flow::Flow`] in a [`Slab`]
//! instead of a `HashMap`: lookups are a bounds check plus a generation
//! compare (no hashing), freed slots are recycled LIFO (deterministically),
//! and memory reaches a steady-state high-water mark instead of growing
//! with episode length. Handles ([`SlotKey`]) embed the slot's generation,
//! so a key kept past its value's removal can never alias a recycled slot.

use std::fmt;

/// Handle to one slab slot: a dense index plus the generation the slot had
/// when the value was inserted. Stale keys (the slot was freed, possibly
/// refilled) fail the generation compare and read as absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotKey {
    index: u32,
    generation: u32,
}

impl SlotKey {
    /// The dense slot index (stable while the value lives).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The generation this key was minted under.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for SlotKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}v{}", self.index, self.generation)
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational slab: `insert` returns a [`SlotKey`], `get`/`remove`
/// are O(1) with no hashing, and freed slots are reused (LIFO) so the
/// allocation footprint is the concurrent high-water mark, not the
/// lifetime insert count.
#[derive(Debug, Clone, Default)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
    high_water: usize,
}

impl<T> Slab<T> {
    /// Bytes one slot takes, live or free.
    #[cfg(test)]
    pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` values before
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
            high_water: 0,
        }
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots ever allocated (live + free): the resident-memory proxy.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Peak concurrent live values over the slab's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Inserts `value`, reusing a freed slot if one exists.
    ///
    /// # Panics
    ///
    /// Panics if the slab exceeds `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.value.is_none(), "free-list slot must be empty");
            slot.value = Some(value);
            return SlotKey {
                index,
                generation: slot.generation,
            };
        }
        #[allow(clippy::expect_used, reason = "the documented # Panics contract")]
        let index = u32::try_from(self.slots.len()).expect("slab exceeds u32::MAX slots");
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        SlotKey {
            index,
            generation: 0,
        }
    }

    /// The value behind `key`, or `None` if it was removed (stale key).
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        let slot = self.slots.get(key.index())?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the value behind `key`.
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.index())?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Removes and returns the value behind `key`; stale keys return
    /// `None` and change nothing. The slot's generation is bumped so any
    /// outstanding copy of `key` reads as absent from now on.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index())?;
        if slot.generation != key.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(key.index);
        self.len -= 1;
        Some(value)
    }

    /// Iterates over live values and their keys in slot order
    /// (O(capacity)).
    pub fn iter(&self) -> impl Iterator<Item = (SlotKey, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            let value = s.value.as_ref()?;
            let key = SlotKey {
                index: i as u32, // `insert` keeps every index within u32
                generation: s.generation,
            };
            Some((key, value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slots_are_reused_and_stale_keys_miss() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // LIFO reuse: same dense index, new generation.
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        assert_eq!(slab.get(a), None, "stale key must not alias the new value");
        assert_eq!(slab.get(b), Some(&2));
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.capacity(), 1, "one slot serves both lifetimes");
    }

    #[test]
    fn high_water_tracks_peak_not_total() {
        let mut slab = Slab::new();
        let keys: Vec<_> = (0..10).map(|i| slab.insert(i)).collect();
        for k in &keys[..8] {
            slab.remove(*k);
        }
        for i in 0..4 {
            slab.insert(100 + i);
        }
        assert_eq!(slab.len(), 6);
        assert_eq!(slab.high_water(), 10);
        assert_eq!(slab.capacity(), 10, "churn must not grow the slab");
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut slab = Slab::new();
        let k = slab.insert(5);
        *slab.get_mut(k).unwrap() += 10;
        assert_eq!(slab.get(k), Some(&15));
    }

    #[test]
    fn iter_yields_live_values_with_their_keys_in_slot_order() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        let c = slab.insert(3);
        slab.remove(a);
        let live: Vec<(SlotKey, i32)> = slab.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(live, vec![(b, 2), (c, 3)]);
    }

    #[test]
    fn key_display() {
        let mut slab = Slab::new();
        let a = slab.insert(());
        slab.remove(a);
        let b = slab.insert(());
        assert_eq!(a.to_string(), "0v0");
        assert_eq!(b.to_string(), "0v1");
    }
}
