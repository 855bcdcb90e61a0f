//! Digest-keyed memos: a value per 128-bit content digest.
//!
//! Two caches key on a digest instead of the content itself, because
//! the content is too large to keep: the evaluator's fit memo (the
//! words a trainer reads of its transformed train and valid matrices)
//! and the power transform's λ memo (one finite column). Both build
//! their key with [`KeyWords`], which feeds the words to
//! [`Murmur3x64_128`], and both store values in a [`DigestMemo`].
//!
//! A well-mixed 128-bit digest of n distinct inputs collides with
//! probability at most n²/2¹²⁹. Debug builds check that on every hit
//! instead of taking it on faith: each key also keeps its words, each
//! entry keeps the words it was stored under, and a hit
//! `debug_assert!`s that they are equal. Release builds keep only the
//! digest and the value.
//!
//! A memo never evicts. Each insert follows a computation its owner
//! ran, so the owner's work bounds its size.

use crate::codec::Murmur3x64_128;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where a memo key's words go: one word at a time, or a run of `f64`
/// bit patterns in one call. The trainers' input words and the power
/// transform's λ key are written through it.
pub trait WordSink {
    /// Append one word.
    fn word(&mut self, w: u64);

    /// Append the bit pattern of every value in order: the same words
    /// as one [`WordSink::word`] per value, in one call.
    fn f64_bits(&mut self, values: &[f64]);
}

/// Collects the words, for tests that compare keys word by word.
impl WordSink for Vec<u64> {
    fn word(&mut self, w: u64) {
        self.push(w);
    }

    fn f64_bits(&mut self, values: &[f64]) {
        self.extend(values.iter().map(|v| v.to_bits()));
    }
}

/// A memo key: the digest of its words and, in debug builds, the words.
#[derive(Debug)]
pub struct DigestKey {
    /// The 128-bit [`Murmur3x64_128`] digest of the words.
    pub digest: u128,
    /// The words themselves; debug builds only.
    words: Option<Vec<u64>>,
}

/// A [`DigestKey`] under construction.
#[derive(Debug)]
pub struct KeyWords {
    hash: Murmur3x64_128,
    words: Option<Vec<u64>>,
}

impl Default for KeyWords {
    fn default() -> KeyWords {
        KeyWords { hash: Murmur3x64_128::new(), words: cfg!(debug_assertions).then(Vec::new) }
    }
}

impl KeyWords {
    /// An empty key; debug builds also keep its words.
    pub fn new() -> KeyWords {
        KeyWords::default()
    }

    /// The finished key.
    pub fn finish(self) -> DigestKey {
        DigestKey { digest: self.hash.finish(), words: self.words }
    }
}

impl WordSink for KeyWords {
    #[inline]
    fn word(&mut self, w: u64) {
        self.hash.write_u64(w);
        if let Some(words) = &mut self.words {
            words.push(w);
        }
    }

    #[inline]
    fn f64_bits(&mut self, values: &[f64]) {
        self.hash.write_f64_bits(values);
        if let Some(words) = &mut self.words {
            words.f64_bits(values);
        }
    }
}

/// One memoized value.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// The words the entry's key digested; debug builds only.
    witness: Option<Vec<u64>>,
}

/// Memoized values by the digest of their inputs.
// lint:allow(nondet): keyed lookup and insert only — nothing iterates the map, so its order never reaches a value
type Entries<V> = HashMap<u128, Entry<V>>;

/// Values keyed by the content digest of what computed them (see the
/// module docs). Shared by reference across threads: two callers that
/// miss one key at the same time both compute it, so the hit count can
/// vary between runs above one thread, but never a value.
#[derive(Debug)]
pub struct DigestMemo<V> {
    entries: Mutex<Entries<V>>,
    hits: AtomicU64,
}

impl<V> Default for DigestMemo<V> {
    fn default() -> DigestMemo<V> {
        DigestMemo { entries: Mutex::default(), hits: AtomicU64::new(0) }
    }
}

impl<V: Copy> DigestMemo<V> {
    /// An empty memo.
    pub fn new() -> DigestMemo<V> {
        DigestMemo::default()
    }

    fn lock(&self) -> MutexGuard<'_, Entries<V>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value stored under `key`, counted as a hit. In debug builds a
    /// hit also asserts that `key`'s words equal the stored entry's.
    pub fn get(&self, key: &DigestKey) -> Option<V> {
        let entries = self.lock();
        let entry = entries.get(&key.digest)?;
        if let (Some(words), Some(seen)) = (&key.words, &entry.witness) {
            debug_assert!(
                words == seen,
                "memo digest {:032x} aliases two different inputs",
                key.digest
            );
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(entry.value)
    }

    /// Store `value` under `key`.
    pub fn insert(&self, key: DigestKey, value: V) {
        self.lock().insert(key.digest, Entry { value, witness: key.words });
    }

    /// Lookups answered so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries stored so far.
    pub fn entries(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::murmur3_x64_128;

    #[test]
    fn key_words_digest_their_words_in_order() {
        let mut key = KeyWords::new();
        key.word(7);
        key.f64_bits(&[1.5, -0.0, 0.0]);
        let key = key.finish();
        let words = [7, 1.5f64.to_bits(), (-0.0f64).to_bits(), 0.0f64.to_bits()];
        assert_eq!(key.digest, murmur3_x64_128(words));
        if let Some(kept) = &key.words {
            assert_eq!(kept[..], words);
        }
    }

    fn key_of(words: &[u64]) -> DigestKey {
        let mut key = KeyWords::new();
        words.iter().for_each(|&w| key.word(w));
        key.finish()
    }

    #[test]
    fn memo_counts_hits_and_keeps_one_entry_per_digest() {
        let memo = DigestMemo::new();
        assert_eq!(memo.get(&key_of(&[1, 2])), None);
        memo.insert(key_of(&[1, 2]), 7.5);
        memo.insert(key_of(&[2, 1]), -1.0);
        assert_eq!(memo.get(&key_of(&[1, 2])), Some(7.5));
        assert_eq!(memo.get(&key_of(&[2, 1])), Some(-1.0));
        assert_eq!(memo.get(&key_of(&[1])), None);
        assert_eq!((memo.hits(), memo.entries()), (2, 2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "aliases two different inputs")]
    fn debug_builds_catch_a_digest_that_aliases_two_inputs() {
        let memo = DigestMemo::new();
        memo.insert(key_of(&[1, 2]), 7.5);
        // The digest of [1, 2] under the words of [3].
        let forged = DigestKey { digest: key_of(&[1, 2]).digest, words: Some(vec![3]) };
        memo.get(&forged);
    }
}
