//! Global string interner producing cheap, `Copy` symbols.
//!
//! Relation, variable and action names are interned once, by [`Sym::new`], and afterwards
//! handled through a `Copy` handle to their interned entry. Reading a symbol takes no lock:
//! equality is identity, hashing writes the entry's `u32` id, and ordering compares the two
//! texts after an identity fast path. Only [`Sym::new`] locks the interner. The interner is
//! global (process-wide) so that symbols created by different crates of the workspace are
//! interchangeable; an interned name lives for the rest of the process.

use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An interned string. Two [`Sym`]s are equal iff the strings they were created from are
/// equal. Ordering is lexicographic on the underlying strings (so that data structures keyed
/// by symbols iterate deterministically and human-sensibly).
#[derive(Clone, Copy)]
pub struct Sym(&'static Entry);

/// One interned name, leaked by [`Sym::new`] so that handles can read it without the lock.
struct Entry {
    text: Box<str>,
    id: u32,
}

static INTERNER: Mutex<Option<HashMap<&'static str, &'static Entry>>> = Mutex::new(None);

impl Sym {
    /// Intern `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Sym {
        let mut guard = INTERNER.lock();
        let map = guard.get_or_insert_with(HashMap::new);
        if let Some(&entry) = map.get(s) {
            return Sym(entry);
        }
        let id = map.len() as u32;
        let entry: &'static Entry = Box::leak(Box::new(Entry { text: s.into(), id }));
        map.insert(&entry.text, entry);
        Sym(entry)
    }

    /// The string this symbol was interned from.
    pub fn as_str(&self) -> &'static str {
        &self.0.text
    }

    /// Raw numeric id (stable within a process run only).
    pub fn id(&self) -> u32 {
        self.0.id
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Sym {}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::new(s)
    }
}

impl serde::Serialize for Sym {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> serde::Deserialize<'de> for Sym {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(Sym::new(&s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Sym::new("hello");
        let b = Sym::new("hello");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "hello");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        let a = Sym::new("alpha_sym_test");
        let b = Sym::new("beta_sym_test");
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let b = Sym::new("zzz_order");
        let a = Sym::new("aaa_order");
        assert!(a < b);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        let a = Sym::new("shown");
        assert_eq!(format!("{a}"), "shown");
        assert_eq!(format!("{a:?}"), "shown");
    }

    #[test]
    fn serde_round_trip() {
        let a = Sym::new("roundtrip");
        let json = serde_json_string(&a);
        assert_eq!(json, "\"roundtrip\"");
    }

    fn hash_of(sym: Sym) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        sym.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn reading_symbols_takes_no_lock() {
        fn copy_send_sync<T: Copy + Send + Sync>() {}
        copy_send_sync::<Sym>();
        let a = Sym::new("lock_free_a");
        let b = Sym::new("lock_free_b");
        let guard = INTERNER.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let reads = (a == b, a.cmp(&b), hash_of(a), a.as_str(), b.as_str());
            tx.send(reads).unwrap();
        });
        let reads = rx.recv_timeout(std::time::Duration::from_secs(5));
        drop(guard);
        reader.join().unwrap();
        let (equal, order, hash, a_text, b_text) =
            reads.expect("reading a symbol blocked on the interner lock");
        assert!(!equal);
        assert_eq!(order, Ordering::Less);
        assert_eq!(hash, hash_of(a));
        assert_eq!((a_text, b_text), ("lock_free_a", "lock_free_b"));
    }

    #[test]
    fn concurrent_interning_keeps_the_symbol_contract() {
        let names: Vec<String> = (0..300)
            .map(|i| format!("contract_{}", i * 7919 % 1000))
            .collect();
        let start = std::sync::Barrier::new(4);
        let per_thread: Vec<Vec<(Sym, &str)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let (names, start) = (&names, &start);
                    scope.spawn(move || {
                        start.wait();
                        // every thread interns every name, each from its own offset
                        (0..names.len())
                            .map(|i| names[(i + 75 * t) % names.len()].as_str())
                            .map(|name| (Sym::new(name), name))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let all: Vec<(Sym, &str)> = per_thread.into_iter().flatten().collect();

        let mut by_symbol: Vec<Sym> = all.iter().map(|&(sym, _)| sym).collect();
        by_symbol.sort();
        let mut by_text: Vec<&str> = all.iter().map(|&(_, text)| text).collect();
        by_text.sort();
        assert_eq!(
            by_symbol.iter().map(Sym::as_str).collect::<Vec<_>>(),
            by_text
        );

        for &(a, a_text) in &all {
            assert_eq!(a.as_str(), a_text);
            let again = Sym::new(a_text);
            assert!(std::ptr::eq(again.0, a.0) && again.id() == a.id());
            for &(b, b_text) in &all {
                assert_eq!(a == b, a_text == b_text);
                assert_eq!(a.cmp(&b), a_text.cmp(b_text));
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }

    fn serde_json_string(sym: &Sym) -> String {
        // Minimal hand-rolled check without pulling serde_json into this crate's deps:
        // serialize through the serde data model using a tiny serializer.
        struct S(String);
        impl serde::Serializer for &mut S {
            type Ok = ();
            type Error = std::fmt::Error;
            type SerializeSeq = serde::ser::Impossible<(), Self::Error>;
            type SerializeTuple = serde::ser::Impossible<(), Self::Error>;
            type SerializeTupleStruct = serde::ser::Impossible<(), Self::Error>;
            type SerializeTupleVariant = serde::ser::Impossible<(), Self::Error>;
            type SerializeMap = serde::ser::Impossible<(), Self::Error>;
            type SerializeStruct = serde::ser::Impossible<(), Self::Error>;
            type SerializeStructVariant = serde::ser::Impossible<(), Self::Error>;
            fn serialize_str(self, v: &str) -> Result<(), Self::Error> {
                self.0 = format!("\"{v}\"");
                Ok(())
            }
            fn serialize_bool(self, _: bool) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_i8(self, _: i8) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_i16(self, _: i16) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_i32(self, _: i32) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_i64(self, _: i64) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_u8(self, _: u8) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_u16(self, _: u16) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_u32(self, _: u32) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_u64(self, _: u64) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_f32(self, _: f32) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_f64(self, _: f64) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_char(self, _: char) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_bytes(self, _: &[u8]) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_none(self) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_some<T: ?Sized + serde::Serialize>(
                self,
                _: &T,
            ) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_unit(self) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_unit_struct(self, _: &'static str) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_unit_variant(
                self,
                _: &'static str,
                _: u32,
                _: &'static str,
            ) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_newtype_struct<T: ?Sized + serde::Serialize>(
                self,
                _: &'static str,
                _: &T,
            ) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_newtype_variant<T: ?Sized + serde::Serialize>(
                self,
                _: &'static str,
                _: u32,
                _: &'static str,
                _: &T,
            ) -> Result<(), Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_seq(self, _: Option<usize>) -> Result<Self::SerializeSeq, Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_tuple(self, _: usize) -> Result<Self::SerializeTuple, Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_tuple_struct(
                self,
                _: &'static str,
                _: usize,
            ) -> Result<Self::SerializeTupleStruct, Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_tuple_variant(
                self,
                _: &'static str,
                _: u32,
                _: &'static str,
                _: usize,
            ) -> Result<Self::SerializeTupleVariant, Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_map(self, _: Option<usize>) -> Result<Self::SerializeMap, Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_struct(
                self,
                _: &'static str,
                _: usize,
            ) -> Result<Self::SerializeStruct, Self::Error> {
                Err(std::fmt::Error)
            }
            fn serialize_struct_variant(
                self,
                _: &'static str,
                _: u32,
                _: &'static str,
                _: usize,
            ) -> Result<Self::SerializeStructVariant, Self::Error> {
                Err(std::fmt::Error)
            }
        }
        let mut s = S(String::new());
        serde::Serialize::serialize(sym, &mut s).unwrap();
        s.0
    }
}
