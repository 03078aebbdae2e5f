//! A B+-tree node's one heap block: its keys, then its values.
//!
//! A [`Block`] holds up to `room` entries as two arrays in one allocation —
//! `room` keys, then `room` values — so a binary search walks keys packed
//! eight to a cache line and the value it lands on is one load away, in
//! the same block. It is the slice of `Vec`'s interface a node needs,
//! each operation on both arrays at once: one heap call where a pair of
//! vectors made two. The room is exact: a block is allocated at the room
//! it is asked for and regrown only by [`Block::reserve_exact`].

use std::alloc::{self, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::ptr::{self, NonNull};

use wattdb_common::Key;

/// Up to `room` `(key, value)` entries, keys and values each contiguous,
/// in one heap block (none while `room` is 0).
pub(crate) struct Block<T> {
    base: NonNull<u8>,
    len: u32,
    room: u32,
    /// The block owns its values.
    _owns: PhantomData<T>,
}

// SAFETY: `base` is the block's own allocation, reached through no other
// pointer, and `len` and `room` are plain numbers: a block owns its keys
// (plain data) and its values like a `Vec` does, so it may go to another
// thread when its values may.
unsafe impl<T: Send> Send for Block<T> {}
// SAFETY: as above; `&Block` hands out only `&` to its keys and values,
// so it may be shared when `&T` may.
unsafe impl<T: Sync> Sync for Block<T> {}

impl<T> Block<T> {
    /// Where the values start in a block of `room` entries: past the keys,
    /// aligned for a value.
    #[inline]
    fn vals_offset(room: usize) -> usize {
        (room * size_of::<Key>()).next_multiple_of(align_of::<T>())
    }

    /// The layout of a block of `room` entries.
    fn layout(room: usize) -> Layout {
        let keys = Layout::array::<Key>(room).expect("node room");
        let vals = Layout::array::<T>(room).expect("node room");
        let (layout, offset) = keys.extend(vals).expect("node room");
        debug_assert_eq!(offset, Self::vals_offset(room));
        layout
    }

    /// An empty block with room for exactly `room` entries.
    pub(crate) fn with_room(room: usize) -> Self {
        let layout = Self::layout(room);
        let base = if layout.size() == 0 {
            // Dangling, but aligned for keys and values alike.
            NonNull::new(ptr::without_provenance_mut(layout.align())).expect("non-zero alignment")
        } else {
            // SAFETY: the layout has a non-zero size.
            let raw = unsafe { alloc::alloc(layout) };
            NonNull::new(raw).unwrap_or_else(|| alloc::handle_alloc_error(layout))
        };
        Self {
            base,
            len: 0,
            room: u32::try_from(room).expect("node room"),
            _owns: PhantomData,
        }
    }

    /// Entries held.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Entries the block has room for.
    pub(crate) fn room(&self) -> usize {
        self.room as usize
    }

    #[inline]
    fn keys_ptr(&self) -> *mut Key {
        self.base.as_ptr().cast()
    }

    #[inline]
    fn vals_ptr(&self) -> *mut T {
        // SAFETY: the offset lies within (or one past) the block.
        unsafe {
            self.base
                .as_ptr()
                .add(Self::vals_offset(self.room()))
                .cast()
        }
    }

    /// The keys, in entry order.
    #[inline]
    pub(crate) fn keys(&self) -> &[Key] {
        // SAFETY: the first `len` keys are initialised.
        unsafe { std::slice::from_raw_parts(self.keys_ptr(), self.len()) }
    }

    /// The keys, for replacing one in place.
    pub(crate) fn keys_mut(&mut self) -> &mut [Key] {
        // SAFETY: as for `keys`, and `&mut self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.keys_ptr(), self.len()) }
    }

    /// The values, in entry order.
    #[inline]
    pub(crate) fn vals(&self) -> &[T] {
        // SAFETY: the first `len` values are initialised.
        unsafe { std::slice::from_raw_parts(self.vals_ptr(), self.len()) }
    }

    /// The values, mutably.
    #[inline]
    pub(crate) fn vals_mut(&mut self) -> &mut [T] {
        // SAFETY: as for `vals`, and `&mut self` is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.vals_ptr(), self.len()) }
    }

    /// Make room for `extra` more entries, to exactly `len + extra`, in
    /// one reallocation; nothing if they fit already.
    pub(crate) fn reserve_exact(&mut self, extra: usize) {
        if self.room() - self.len() >= extra {
            return;
        }
        let mut grown = Self::with_room(self.len().checked_add(extra).expect("node room"));
        // SAFETY: both blocks have room for `len` entries, and the moved
        // entries are forgotten by `self` (its `len` becomes 0).
        unsafe {
            grown.move_from(self, 0, self.len());
        }
        *self = grown;
    }

    /// Move `n` entries of `other`, from `from` on, to the end of `self`,
    /// closing the gap they leave in `other`.
    ///
    /// # Safety
    /// `self` must have room for them and `from + n <= other.len()`.
    unsafe fn move_from(&mut self, other: &mut Self, from: usize, n: usize) {
        let (len, tail) = (self.len(), other.len() - from - n);
        // SAFETY: the caller guarantees the room and the range; the two
        // blocks are distinct allocations, and the tail shift stays
        // within `other`'s initialised entries.
        unsafe {
            ptr::copy_nonoverlapping(other.keys_ptr().add(from), self.keys_ptr().add(len), n);
            ptr::copy_nonoverlapping(other.vals_ptr().add(from), self.vals_ptr().add(len), n);
            ptr::copy(
                other.keys_ptr().add(from + n),
                other.keys_ptr().add(from),
                tail,
            );
            ptr::copy(
                other.vals_ptr().add(from + n),
                other.vals_ptr().add(from),
                tail,
            );
        }
        self.len += n as u32;
        other.len -= n as u32;
    }

    /// Insert an entry at `i`, shifting the ones after it up. Panics if
    /// the block is full or `i > len`.
    pub(crate) fn insert(&mut self, i: usize, key: Key, val: T) {
        let len = self.len();
        assert!(i <= len && len < self.room(), "insert into a full block");
        // SAFETY: `i <= len < room`: the shifted entries and the new one
        // lie within the block.
        unsafe {
            let (k, v) = (self.keys_ptr().add(i), self.vals_ptr().add(i));
            ptr::copy(k, k.add(1), len - i);
            ptr::copy(v, v.add(1), len - i);
            k.write(key);
            v.write(val);
        }
        self.len += 1;
    }

    /// Append an entry. Panics if the block is full.
    pub(crate) fn push(&mut self, key: Key, val: T) {
        self.insert(self.len(), key, val);
    }

    /// Remove and return the entry at `i`. Panics if `i >= len`.
    pub(crate) fn remove(&mut self, i: usize) -> (Key, T) {
        let len = self.len();
        assert!(i < len, "remove past the end of a block");
        self.len -= 1;
        // SAFETY: `i < len`: the entry is initialised, and is read out
        // before the ones after it shift down over it.
        unsafe {
            let (k, v) = (self.keys_ptr().add(i), self.vals_ptr().add(i));
            let entry = (k.read(), v.read());
            ptr::copy(k.add(1), k, len - i - 1);
            ptr::copy(v.add(1), v, len - i - 1);
            entry
        }
    }

    /// Remove and return the last entry.
    pub(crate) fn pop(&mut self) -> Option<(Key, T)> {
        (self.len > 0).then(|| self.remove(self.len() - 1))
    }

    /// Split an overflowing node's block: `self` keeps entries `..at` and
    /// the rest is returned. The half the new entry landed in — the upper
    /// one if `upper_grows` — keeps this block, the other one gets a block
    /// of exactly its length: one heap call either way.
    pub(crate) fn split(&mut self, at: usize, upper_grows: bool) -> Self {
        let len = self.len();
        assert!(at <= len, "split past the end of a block");
        if upper_grows {
            let mut lower = Self::with_room(at);
            // SAFETY: `lower` has room for `at` entries, all in `self`.
            unsafe { lower.move_from(self, 0, at) };
            std::mem::replace(self, lower)
        } else {
            let mut upper = Self::with_room(len - at);
            // SAFETY: `upper` has room for the `len - at` entries from `at`.
            unsafe { upper.move_from(self, at, len - at) };
            upper
        }
    }

    /// Move every entry of `other` to the end of `self`. Panics if they do
    /// not fit.
    pub(crate) fn append(&mut self, other: &mut Self) {
        assert!(
            other.len() <= self.room() - self.len(),
            "append past a block's room"
        );
        // SAFETY: checked just above.
        unsafe { self.move_from(other, 0, other.len()) };
    }
}

impl<T> Drop for Block<T> {
    fn drop(&mut self) {
        // SAFETY: the first `len` values are initialised and dropped here
        // once; the block was allocated with this layout, unless it is
        // empty.
        unsafe {
            ptr::drop_in_place(self.vals_mut());
            let layout = Self::layout(self.room());
            if layout.size() != 0 {
                alloc::dealloc(self.base.as_ptr(), layout);
            }
        }
    }
}

impl<T: Clone> Clone for Block<T> {
    /// A copy with room for exactly its entries, as a cloned `Vec` has.
    fn clone(&self) -> Self {
        let mut copy = Self::with_room(self.len());
        for (k, v) in self.keys().iter().zip(self.vals()) {
            copy.push(*k, v.clone());
        }
        copy
    }
}

impl<T: fmt::Debug> fmt::Debug for Block<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.keys().iter().zip(self.vals()))
            .finish()
    }
}
