//! Binary snapshot (checkpoint/restore) support.
//!
//! DIABLO's FPGA platform pays cluster warm-up once and then explores
//! parameter variations at hardware speed; the software reproduction gets
//! the same economy by serializing the *entire* deterministic simulation
//! state — event queues, per-component sequence counters, every
//! component's mutable state — into a versioned binary snapshot that
//! restores bit-identically. Two traits split the work:
//!
//! * [`Snap`] — value-oriented serialization for plain data (integers,
//!   times, RNG states, containers). `save`/`load` round-trip a value
//!   exactly; the format is little-endian, length-prefixed, and free of
//!   any platform- or allocation-dependent detail.
//! * [`Persist`] — object-safe, *in-place* state overwrite for trait
//!   objects (components, guest processes). `load_state` overwrites only
//!   the listed *state* fields of an already-constructed object;
//!   configuration fields are rebuilt from the experiment spec by the
//!   restore path and deliberately stay out of the snapshot, which is
//!   what lets a sweep restore one warmed checkpoint under many
//!   parameter variations.
//!
//! # One place decides the format
//!
//! Every persisted type states its encoding once, through a macro of
//! this module that generates both directions from one list:
//! [`impl_snap_struct!`](crate::impl_snap_struct) (a plain struct),
//! [`impl_snap_enum!`](crate::impl_snap_enum) (an enum: tag, then
//! fields) and [`impl_persist_fields!`](crate::impl_persist_fields) (an
//! object restored in place, every field classified as state, nested
//! state, configuration, or a total derived from state on load). In
//! each, leaving out a field or a variant is a compile error. Trait
//! objects go through [`save_blob`]/[`load_blob`] (optional ones through
//! [`save_dyn`]/[`load_dyn`]), and the executor-level stream both
//! executors share through [`save_exec_stream`]/[`load_exec_stream`].
//!
//! # What is deliberately not serialized
//!
//! * Configuration (topology shape, profiles, rate plans) — rebuilt from
//!   the experiment spec; the snapshot carries a structural fingerprint
//!   so a mismatched spec is rejected instead of silently diverging.
//! * Flight-recorder rings — they hold `&'static str` trace labels and
//!   are diagnostic-only; checkpointed runs must not enable tracing.
//! * Executor scheduling state (lanes, barriers, round counters) — results
//!   are executor-independent, so a serial snapshot restores into a
//!   partition-parallel host and vice versa.
//!
//! Maps and sets are serialized with sorted keys so the byte stream is a
//! pure function of model state, never of hash seeds or insertion order.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// Snapshot format errors: truncated input, unknown enum tags, or header
/// mismatches (magic, version, configuration fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value was complete.
    Eof,
    /// An enum tag byte had no matching variant.
    Tag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A structural invariant failed (bad magic, impossible length, a
    /// count that disagrees with the restored model).
    Malformed(String),
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The snapshot's structural fingerprint does not match the model it
    /// is being restored into (different topology, component count, or
    /// workload shape).
    Fingerprint {
        /// Fingerprint recorded in the snapshot header.
        found: u64,
        /// Fingerprint of the model being restored into.
        expected: u64,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::Tag { what, tag } => write!(f, "invalid {what} tag {tag}"),
            SnapError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            SnapError::Version { found, expected } => {
                write!(f, "snapshot version {found} unsupported (expected {expected})")
            }
            SnapError::Fingerprint { found, expected } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match this configuration \
                 ({expected:#018x}); restore requires the same structural spec it was saved from"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// Little-endian binary snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length as `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends a length-prefixed sub-blob (used for per-component state so
    /// a reader can skip or validate blob boundaries).
    pub fn put_blob(&mut self, blob: &[u8]) {
        self.put_len(blob.len());
        self.put_bytes(blob);
    }
}

/// Little-endian binary snapshot decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on a truncated stream.
    pub fn take_u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take_bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a collection length, bounded by the bytes that remain after
    /// it: every element occupies at least one byte, so a larger count is
    /// corrupt, and rejecting it here keeps a bad length late in a large
    /// snapshot from pre-allocating for elements that cannot exist.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation, [`SnapError::Malformed`] when the
    /// length exceeds what the rest of the stream could possibly hold.
    pub fn take_len(&mut self) -> Result<usize, SnapError> {
        let n = self.take_u64()?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Malformed(format!(
                "length {n} exceeds the {} bytes that remain",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed sub-blob written by [`SnapWriter::put_blob`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] / [`SnapError::Malformed`] on truncation.
    pub fn take_blob(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.take_len()?;
        self.take_bytes(n)
    }
}

/// Value-oriented exact serialization. See the module docs for the split
/// between [`Snap`] (values) and [`Persist`] (in-place trait objects).
pub trait Snap: Sized {
    /// Encodes `self` into the writer.
    fn save(&self, w: &mut SnapWriter);
    /// Decodes a value written by [`Snap::save`].
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated, corrupt, or mismatched stream.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Object-safe in-place snapshot hook for trait objects (components and
/// guest processes). `load_state` overwrites the object's *state* fields;
/// configuration fields are rebuilt from the spec and left untouched.
pub trait Persist {
    /// Appends this object's mutable state to the writer.
    fn save_state(&self, w: &mut SnapWriter);
    /// Overwrites this object's mutable state from the reader.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on a truncated or corrupt stream.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

macro_rules! snap_int {
    ($($ty:ty),*) => {$(
        impl Snap for $ty {
            fn save(&self, w: &mut SnapWriter) {
                w.put_bytes(&self.to_le_bytes());
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let b = r.take_bytes(core::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(b.try_into().expect("sized int")))
            }
        }
    )*};
}

snap_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64);

impl Snap for usize {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v = r.take_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Malformed(format!("usize overflow: {v}")))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut SnapWriter) {
        w.put_bytes(&[u8::from(*self)]);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_bytes(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::Tag { what: "bool", tag: t as u64 }),
        }
    }
}

impl Snap for f64 {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Snap for () {
    fn save(&self, _w: &mut SnapWriter) {}
    fn load(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.put_blob(self.as_bytes());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.take_blob()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapError::Malformed("non-UTF-8 string".to_string()))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if bool::load(r)? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

/// Writes a length-prefixed sequence, the layout of every ordered
/// collection.
fn save_seq<'a, T: Snap + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.put_len(items.len());
    items.for_each(|v| v.save(w));
}

/// Reads a [`save_seq`] sequence into any collection; a map reads its
/// entries as `(key, value)` pairs.
fn load_seq<T: Snap, C: FromIterator<T>>(r: &mut SnapReader<'_>) -> Result<C, SnapError> {
    let n = r.take_len()?;
    (0..n).map(|_| T::load(r)).collect()
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq(r)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq(r)
    }
}

macro_rules! snap_tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Snap),*> Snap for ($($t,)*) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$i.save(w);)*
            }
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::load(r)?,)*))
            }
        }
    };
}

snap_tuple!(A 0, B 1);
snap_tuple!(A 0, B 1, C 2);

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        self.iter().for_each(|v| v.save(w));
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let v: Vec<T> = (0..N).map(|_| T::load(r)).collect::<Result<_, _>>()?;
        v.try_into().map_err(|_| SnapError::Eof)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq::<(K, V), _>(r)
    }
}

impl<K: Snap + Ord> Snap for BTreeSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq(r)
    }
}

/// Hash maps are written with *sorted* keys so the byte stream depends
/// only on contents, never on hasher state or insertion order.
impl<K: Snap + Ord + Hash + Eq, V: Snap> Snap for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort_unstable();
        w.put_len(keys.len());
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq::<(K, V), _>(r)
    }
}

impl<K: Snap + Ord + Hash + Eq> Snap for HashSet<K> {
    fn save(&self, w: &mut SnapWriter) {
        let mut keys: Vec<&K> = self.iter().collect();
        keys.sort_unstable();
        save_seq(w, keys.into_iter());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        load_seq(r)
    }
}

impl Snap for crate::time::Frequency {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.hz());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(crate::time::Frequency::from_hz(r.take_u64()?))
    }
}

impl Snap for crate::time::Bandwidth {
    fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.bits_per_sec());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.take_u64()? {
            0 => Err(SnapError::Malformed("Bandwidth: zero bits/s".into())),
            bps => Ok(crate::time::Bandwidth::from_bps(bps)),
        }
    }
}

/// Implements [`Snap`] for a struct by listing *every* field (a tuple
/// struct lists its positions).
///
/// ```
/// use diablo_engine::impl_snap_struct;
/// #[derive(Debug, PartialEq)]
/// struct P { x: u64, y: Option<u32> }
/// impl_snap_struct!(P { x, y });
/// struct Id(u32);
/// impl_snap_struct!(Id { 0 });
/// ```
#[macro_export]
macro_rules! impl_snap_struct {
    ($ty:ty { $($field:tt),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::save(&self.$field, w);)*
            }
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self { $($field: $crate::snap::Snap::load(r)?,)* })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __snap_load {
    ($r:ident $_field:ident) => {
        $crate::snap::Snap::load($r)?
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __snap_what {
    ($name:ident) => {
        stringify!($name)
    };
    ($name:ident $what:literal) => {
        $what
    };
}

/// Implements [`Snap`] for an enum from one `tag => Variant` list: a
/// `u64` tag, then the variant's fields in the order written. Both
/// directions come from the same list, and the generated `save` is an
/// exhaustive `match`, so a variant (or a variant's field) that is not
/// listed does not compile. An unknown tag decodes to
/// [`SnapError::Tag`] naming the enum (or the `as "label"` override).
///
/// ```
/// use diablo_engine::impl_snap_enum;
/// enum Shape { Dot, Circle(u32), Rect { w: u32, h: u32 } }
/// impl_snap_enum!(Shape {
///     0 => Dot,
///     1 => Circle(radius),
///     2 => Rect { w, h },
/// });
/// ```
///
/// Leaving a variant out is a compile error, not a silently
/// unrestorable state:
///
/// ```compile_fail,E0004
/// use diablo_engine::impl_snap_enum;
/// enum Shape { Dot, Circle(u32), Rect { w: u32, h: u32 } }
/// impl_snap_enum!(Shape {
///     0 => Dot,
///     1 => Circle(radius),
/// });
/// ```
#[macro_export]
macro_rules! impl_snap_enum {
    (
        $name:ident $(<$($g:ident),+>)? $(as $what:literal)? {
            $(
                $tag:literal => $variant:ident
                    $( ( $($tf:ident),* $(,)? ) )?
                    $( { $($sf:ident),* $(,)? } )?
            ),* $(,)?
        }
    ) => {
        impl$(<$($g: $crate::snap::Snap),+>)? $crate::snap::Snap for $name$(<$($g),+>)? {
            fn save(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(
                        Self::$variant $( ( $($tf),* ) )? $( { $($sf),* } )? => {
                            w.put_u64($tag);
                            $($( $crate::snap::Snap::save($tf, w); )*)?
                            $($( $crate::snap::Snap::save($sf, w); )*)?
                        }
                    )*
                }
            }
            #[deny(unreachable_patterns)] // a tag listed twice
            fn load(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(match r.take_u64()? {
                    $(
                        $tag => Self::$variant
                            $( ( $( $crate::__snap_load!(r $tf) ),* ) )?
                            $( { $( $sf: $crate::snap::Snap::load(r)? ),* } )?,
                    )*
                    tag => {
                        return Err($crate::snap::SnapError::Tag {
                            what: $crate::__snap_what!($name $($what)?),
                            tag,
                        })
                    }
                })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __persist_field {
    (save $w:ident $f:ident) => {
        $crate::snap::Snap::save($f, $w)
    };
    (save $w:ident $f:ident nested) => {
        $crate::snap::Persist::save_state($f, $w)
    };
    (save $w:ident $f:ident fixed_len) => {
        $crate::snap::Snap::save($f, $w)
    };
    (save $w:ident $f:ident config) => {
        let _ = $f;
    };
    (save $w:ident $f:ident derived) => {
        let _ = $f;
    };
    (load $r:ident $f:ident) => {
        *$f = $crate::snap::Snap::load($r)?
    };
    (load $r:ident $f:ident nested) => {
        $crate::snap::Persist::load_state($f, $r)?
    };
    (load $r:ident $f:ident fixed_len) => {
        $crate::snap::load_fixed_len($f, $r)?
    };
    (load $r:ident $f:ident config) => {
        let _ = $f;
    };
    (load $r:ident $f:ident derived) => {
        let _ = $f;
    };
}

/// Implements [`Persist`] for a struct by classifying *every* field, in
/// stream order:
///
/// * `field` — state: a [`Snap`] value the snapshot replaces wholesale;
/// * `field: nested` — state that is itself [`Persist`] and is restored
///   in place (a nested object, a `Vec` or an `Option` of them);
/// * `field: fixed_len` — a state `Vec` whose length the configuration
///   fixes; a snapshot with a different length is rejected;
/// * `field: config` — rebuilt from the experiment spec by the restore
///   path; never written, never overwritten;
/// * `field: derived` — a total or cache the `after_load` hook recomputes
///   from the restored state; never written, so a damaged snapshot cannot
///   make it disagree with what it summarises.
///
/// The list expands through a `let Self { .. } = self` destructure
/// without a rest pattern, so a field that is not classified does not
/// compile. A trailing `after_load = method` names a
/// `fn(&mut self) -> Result<(), SnapError>` that runs once every field is
/// restored: the place to recompute `derived` fields and to reject a
/// restored value the model would index by configuration.
///
/// ```
/// use diablo_engine::impl_persist_fields;
/// struct Widget { tunable: u64, count: u64, log: Vec<u64> }
/// impl_persist_fields!(Widget { count, log, tunable: config });
/// ```
///
/// Adding a field without deciding how it is persisted is a compile
/// error:
///
/// ```compile_fail
/// use diablo_engine::impl_persist_fields;
/// struct Widget { tunable: u64, count: u64, log: Vec<u64> }
/// impl_persist_fields!(Widget { count, tunable: config });
/// ```
#[macro_export]
macro_rules! impl_persist_fields {
    ($ty:ty { $($field:ident $(: $class:ident)?),* $(,)? } $(after_load = $hook:ident)?) => {
        impl $crate::snap::Persist for $ty {
            fn save_state(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($field),* } = self;
                $( $crate::__persist_field!(save w $field $($class)?); )*
            }
            fn load_state(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let Self { $($field),* } = &mut *self;
                $( $crate::__persist_field!(load r $field $($class)?); )*
                $( self.$hook()?; )?
                Ok(())
            }
        }
    };
}

/// Restores a `fixed_len` field (see [`impl_persist_fields!`]).
///
/// # Errors
///
/// [`SnapError::Malformed`] when the snapshot's vector is not the length
/// the rebuilt model has.
pub fn load_fixed_len<T: Snap>(slot: &mut Vec<T>, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
    let v = Vec::<T>::load(r)?;
    if v.len() != slot.len() {
        return Err(SnapError::Malformed(format!(
            "snapshot vector has {} entries, rebuilt model has {}",
            v.len(),
            slot.len()
        )));
    }
    *slot = v;
    Ok(())
}

// In-place containers: the restore path rebuilds their shape (how many
// processes, which services, how many shared blocks) from configuration, so
// the snapshot overwrites element state and rejects a shape mismatch.

impl<T: Persist> Persist for Vec<T> {
    fn save_state(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for v in self {
            v.save_state(w);
        }
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.take_len()?;
        if n != self.len() {
            return Err(SnapError::Malformed(format!(
                "snapshot table has {n} entries, rebuilt model has {}",
                self.len()
            )));
        }
        self.iter_mut().try_for_each(|v| v.load_state(r))
    }
}

/// An object the rebuilt model may or may not have: a presence flag, then
/// its state restored in place. A snapshot that disagrees on presence is
/// rejected.
impl<T: Persist> Persist for Option<T> {
    fn save_state(&self, w: &mut SnapWriter) {
        self.is_some().save(w);
        if let Some(v) = self {
            v.save_state(w);
        }
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (bool::load(r)?, self) {
            (true, Some(v)) => v.load_state(r),
            (false, None) => Ok(()),
            (found, _) => Err(SnapError::Malformed(format!(
                "snapshot presence flag {found} disagrees with the rebuilt model"
            ))),
        }
    }
}

/// Writes a `dyn Persist` object's state as a length-prefixed blob, so
/// the reader can check the object consumed exactly what was written.
pub fn save_blob(obj: &dyn Persist, w: &mut SnapWriter) {
    let mut blob = SnapWriter::new();
    obj.save_state(&mut blob);
    w.put_blob(&blob.into_bytes());
}

/// Restores a blob written by [`save_blob`] into its rebuilt object;
/// `what` names it in errors.
///
/// # Errors
///
/// [`SnapError::Malformed`] when the object leaves part of its blob
/// unread; any decode error from the object itself.
pub fn load_blob(
    obj: &mut dyn Persist,
    what: std::fmt::Arguments<'_>,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    let mut blob = SnapReader::new(r.take_blob()?);
    obj.load_state(&mut blob)?;
    match blob.remaining() {
        0 => Ok(()),
        n => Err(SnapError::Malformed(format!("{what} left {n} trailing bytes"))),
    }
}

/// Writes an optional `dyn Persist` object (a component under an
/// executor): a presence flag, then its [`save_blob`].
pub fn save_dyn(obj: Option<&dyn Persist>, w: &mut SnapWriter) {
    obj.is_some().save(w);
    if let Some(p) = obj {
        save_blob(p, w);
    }
}

/// Restores an object written by [`save_dyn`] into its rebuilt
/// counterpart; `what` names it in errors.
///
/// # Errors
///
/// [`SnapError::Malformed`] when the snapshot and the rebuilt object
/// disagree on whether it is persistable, or the object leaves part of
/// its blob unread; any decode error from the object itself.
pub fn load_dyn(
    obj: Option<&mut dyn Persist>,
    what: std::fmt::Arguments<'_>,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    match (bool::load(r)?, obj) {
        (true, Some(p)) => load_blob(p, what, r),
        (false, None) => Ok(()),
        (true, None) => Err(SnapError::Malformed(format!(
            "snapshot has state for {what}, which is not persistable"
        ))),
        (false, Some(_)) => {
            Err(SnapError::Malformed(format!("snapshot lacks state for persistable {what}")))
        }
    }
}

/// The executor-level scalars that open the executor stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecHead {
    /// Simulation clock.
    pub now: crate::time::SimTime,
    /// `on_start` has run. Always saved `true`: the snapshotted queue
    /// already holds everything start produced, so a restored run must
    /// never re-fire it.
    pub started: bool,
    /// Sequence counter for externally injected events.
    pub external_seq: u64,
    /// Events dispatched so far.
    pub events_processed: u64,
}

crate::impl_snap_struct!(ExecHead { now, started, external_seq, events_processed });

/// Writes the executor stream both executors share, which is what lets a
/// snapshot saved by one restore into the other: [`ExecHead`], the
/// per-component sequence counters and [`save_dyn`] state blobs in
/// component-id order, then every pending event in [`EventKey`] order
/// (`events` is sorted here).
///
/// [`EventKey`]: crate::event::EventKey
pub fn save_exec_stream<'a, M: Snap>(
    w: &mut SnapWriter,
    head: &ExecHead,
    seqs: &[u64],
    comps: impl ExactSizeIterator<Item = Option<&'a dyn Persist>>,
    events: &mut [crate::event::Event<M>],
) {
    head.save(w);
    save_seq(w, seqs.iter());
    w.put_len(comps.len());
    for c in comps {
        save_dyn(c, w);
    }
    events.sort_by_key(|e| e.key);
    save_seq(w, events.iter());
}

/// What [`load_exec_stream`] hands back for the executor to install.
#[derive(Debug)]
pub struct ExecStream<M> {
    /// The executor-level scalars.
    pub head: ExecHead,
    /// Per-component sequence counters, in component-id order.
    pub seqs: Vec<u64>,
    /// Every pending event in ascending key order; each targets a
    /// component the model has and is one the saved run could hold.
    pub events: Vec<crate::event::Event<M>>,
}

/// Reads a [`save_exec_stream`] stream. Component state is restored in
/// place through `comps` (the rebuilt model's components in id order);
/// the rest is returned.
///
/// # Errors
///
/// Any [`SnapError`] on truncation, corruption, or a component-count /
/// persist-surface mismatch with the rebuilt model;
/// [`SnapError::Malformed`] for an event the saved run could not hold:
/// aimed at no component, due before the clock, from no component, with a
/// sequence number its source had not issued, or out of key order.
pub fn load_exec_stream<'a, M: Snap>(
    r: &mut SnapReader<'_>,
    comps: impl ExactSizeIterator<Item = Option<&'a mut dyn Persist>>,
) -> Result<ExecStream<M>, SnapError> {
    let head = ExecHead::load(r)?;
    let seqs = Vec::<u64>::load(r)?;
    if seqs.len() != comps.len() {
        return Err(SnapError::Malformed(format!(
            "snapshot has {} components, model has {}",
            seqs.len(),
            comps.len()
        )));
    }
    let ncomp = r.take_len()?;
    if ncomp != comps.len() {
        return Err(SnapError::Malformed(format!(
            "snapshot component table has {ncomp} entries, model has {}",
            comps.len()
        )));
    }
    for (i, c) in comps.enumerate() {
        load_dyn(c, format_args!("component {i}"), r)?;
    }
    let events = Vec::<crate::event::Event<M>>::load(r)?;
    let mut prev = None;
    for ev in &events {
        check_restored_event(&ev.key, prev, &head, &seqs)?;
        prev = Some(ev.key);
    }
    Ok(ExecStream { head, seqs, events })
}

/// Refuses a restored event the saved run could not have held: one aimed
/// at no component, due before the restored clock, from an unknown
/// source, carrying a sequence number its source has not issued yet (the
/// source would issue that key again), or not strictly after the event
/// before it (keys are unique and saved in order).
fn check_restored_event(
    key: &crate::event::EventKey,
    prev: Option<crate::event::EventKey>,
    head: &ExecHead,
    seqs: &[u64],
) -> Result<(), SnapError> {
    let issued = if key.source == crate::event::ComponentId::EXTERNAL {
        Some(head.external_seq)
    } else {
        seqs.get(key.source.index()).copied()
    };
    let fault = if key.target.index() >= seqs.len() {
        format!("targets unknown component {}", key.target)
    } else if key.time < head.now {
        format!("is due at {}, before the restored clock {}", key.time, head.now)
    } else if let Some(n) = issued.filter(|&n| key.source_seq >= n) {
        format!(
            "carries sequence number {} of {}, which has issued {n}",
            key.source_seq, key.source
        )
    } else if issued.is_none() {
        format!("comes from unknown component {}", key.source)
    } else if prev.is_some_and(|p| p >= *key) {
        "does not follow the event before it in key order".to_string()
    } else {
        return Ok(());
    };
    Err(SnapError::Malformed(format!("snapshot event {fault}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::{SimDuration, SimTime};

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0, "trailing bytes after load");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0xDEAD_BEEF_u64);
        round_trip(u128::MAX - 7);
        round_trip(-42i64);
        round_trip(true);
        round_trip(3.25f64);
        round_trip("snapshot".to_string());
        round_trip(SimTime::from_picos(123_456_789));
        round_trip(SimDuration::from_picos(987));
        round_trip(Some((1u64, 2u32)));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip(VecDeque::from(vec![9u64, 8]));
        round_trip([5u64, 6, 7]);
    }

    #[test]
    fn containers_round_trip_sorted() {
        let mut m = HashMap::new();
        m.insert(9u64, "nine".to_string());
        m.insert(1u64, "one".to_string());
        let mut w1 = SnapWriter::new();
        m.save(&mut w1);
        // Same contents inserted in the opposite order must serialize
        // byte-identically (sorted keys).
        let mut m2 = HashMap::new();
        m2.insert(1u64, "one".to_string());
        m2.insert(9u64, "nine".to_string());
        let mut w2 = SnapWriter::new();
        m2.save(&mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
        round_trip(m);
        round_trip(HashSet::from([3u64, 1, 2]));
        round_trip(BTreeMap::from([(1u64, 2u64), (3, 4)]));
        round_trip(BTreeSet::from([1u64, 5]));
    }

    #[test]
    fn rng_round_trip_preserves_sequence() {
        let mut rng = DetRng::new(42);
        let _ = rng.next_u64();
        let mut w = SnapWriter::new();
        rng.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = DetRng::load(&mut SnapReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(Vec::<u64>::load(&mut r), Err(SnapError::Eof));
    }

    #[test]
    fn corrupt_length_is_rejected_without_allocating() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(Vec::<u64>::load(&mut r), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(bool::load(&mut r), Err(SnapError::Tag { what: "bool", tag: 7 }));
    }

    #[test]
    fn corrupt_length_late_in_a_large_stream_is_rejected() {
        // The length is plausible against the whole buffer but not
        // against what is left after it.
        let mut w = SnapWriter::new();
        w.put_bytes(&[0; 4096]);
        w.put_u64(4000);
        w.put_bytes(&[0; 16]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.take_bytes(4096).unwrap();
        assert!(matches!(r.take_len(), Err(SnapError::Malformed(_))));
        // A length the remainder can hold still reads.
        let mut r = SnapReader::new(&bytes);
        r.take_bytes(4096 - 8).unwrap();
        assert_eq!(r.take_len(), Ok(0));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Circle(u32),
        Pair(u8, String),
        Rect { w: u32, h: u32 },
    }
    impl_snap_enum!(Shape {
        0 => Dot,
        1 => Circle(radius),
        2 => Pair(a, b),
        7 => Rect { w, h },
    });

    #[derive(Debug, PartialEq)]
    enum Boxed<T> {
        Empty,
        Full(T),
    }
    impl_snap_enum!(Boxed<T> as "test Boxed" { 0 => Empty, 1 => Full(v) });

    #[test]
    fn enum_macro_round_trips_every_variant_shape() {
        round_trip(Shape::Dot);
        round_trip(Shape::Circle(9));
        round_trip(Shape::Pair(3, "x".to_string()));
        round_trip(Shape::Rect { w: 4, h: 5 });
        round_trip(Boxed::<u64>::Empty);
        round_trip(Boxed::Full(Shape::Circle(1)));
        // A u64 tag, then the fields in the order listed.
        let mut w = SnapWriter::new();
        Shape::Rect { w: 4, h: 5 }.save(&mut w);
        let mut expect = 7u64.to_le_bytes().to_vec();
        expect.extend(4u32.to_le_bytes());
        expect.extend(5u32.to_le_bytes());
        assert_eq!(w.into_bytes(), expect);
    }

    #[test]
    fn unknown_enum_tag_reports_the_type_name() {
        let bytes = 3u64.to_le_bytes();
        assert_eq!(
            Shape::load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Tag { what: "Shape", tag: 3 })
        );
        assert_eq!(
            Boxed::<u8>::load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Tag { what: "test Boxed", tag: 3 })
        );
    }

    struct Inner {
        seed: u64,
        hits: u64,
    }
    impl_persist_fields!(Inner { hits, seed: config });

    struct Widget {
        tunable: u64,
        count: u64,
        inner: Inner,
        parts: Vec<Inner>,
        maybe: Option<Inner>,
        lanes: Vec<u64>,
        log: Vec<u64>,
    }
    impl_persist_fields!(Widget {
        count,
        inner: nested,
        parts: nested,
        maybe: nested,
        lanes: fixed_len,
        log,
        tunable: config,
    });

    fn widget(tunable: u64, count: u64, hits: u64, log: Vec<u64>) -> Widget {
        let inner = |seed| Inner { seed, hits };
        Widget {
            tunable,
            count,
            inner: inner(tunable),
            parts: vec![inner(tunable), inner(tunable)],
            maybe: Some(inner(tunable)),
            lanes: vec![hits; 2],
            log,
        }
    }

    fn saved(w: &Widget) -> Vec<u8> {
        let mut out = SnapWriter::new();
        w.save_state(&mut out);
        out.into_bytes()
    }

    #[test]
    fn persist_overwrites_state_and_keeps_config() {
        let bytes = saved(&widget(1, 41, 7, vec![4, 5]));
        let mut fresh = widget(2, 0, 0, Vec::new());
        let mut r = SnapReader::new(&bytes);
        fresh.load_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(fresh.tunable, 2, "config fields stay rebuilt");
        assert_eq!((fresh.count, &fresh.log, &fresh.lanes), (41, &vec![4, 5], &vec![7, 7]));
        for inner in [&fresh.inner, &fresh.parts[1], fresh.maybe.as_ref().unwrap()] {
            assert_eq!((inner.seed, inner.hits), (2, 7), "nested state restored in place");
        }
    }

    #[test]
    fn persist_rejects_a_shape_the_rebuilt_model_does_not_have() {
        let bytes = saved(&widget(1, 41, 7, Vec::new()));
        let malformed = |mutate: fn(&mut Widget)| {
            let mut fresh = widget(2, 0, 0, Vec::new());
            mutate(&mut fresh);
            matches!(fresh.load_state(&mut SnapReader::new(&bytes)), Err(SnapError::Malformed(_)))
        };
        assert!(malformed(|w| w.parts.truncate(1)), "in-place Vec length");
        assert!(malformed(|w| w.lanes.push(0)), "fixed_len Vec length");
        assert!(malformed(|w| w.maybe = None), "in-place optional presence");
    }

    /// `total` summarises `items`; `limit` is configuration the items must
    /// respect.
    struct Ledger {
        limit: u64,
        items: Vec<u64>,
        total: u64,
    }
    impl_persist_fields!(Ledger { items, total: derived, limit: config } after_load = retotal);

    impl Ledger {
        fn retotal(&mut self) -> Result<(), SnapError> {
            if let Some(bad) = self.items.iter().find(|&&v| v >= self.limit) {
                return Err(SnapError::Malformed(format!("item {bad} >= limit {}", self.limit)));
            }
            self.total = self.items.iter().sum();
            Ok(())
        }
    }

    #[test]
    fn derived_fields_are_recomputed_and_the_hook_can_reject() {
        let mut w = SnapWriter::new();
        Ledger { limit: 10, items: vec![3, 4], total: 999 }.save_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 2 * 8, "a derived field is not written");

        let mut fresh = Ledger { limit: 10, items: Vec::new(), total: 0 };
        fresh.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!((fresh.total, fresh.limit), (7, 10));

        let mut strict = Ledger { limit: 4, items: Vec::new(), total: 0 };
        let err = strict.load_state(&mut SnapReader::new(&bytes)).unwrap_err();
        assert_eq!(err, SnapError::Malformed("item 4 >= limit 4".into()));
    }

    #[test]
    fn dyn_blob_checks_presence_and_length() {
        let mut w = SnapWriter::new();
        save_dyn(Some(&Inner { seed: 1, hits: 9 }), &mut w);
        save_dyn(None, &mut w);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        let mut inner = Inner { seed: 2, hits: 0 };
        load_dyn(Some(&mut inner), format_args!("inner"), &mut r).unwrap();
        load_dyn(None, format_args!("nothing"), &mut r).unwrap();
        assert_eq!((inner.seed, inner.hits, r.remaining()), (2, 9, 0));

        let err = |obj: Option<&mut dyn Persist>, bytes: &[u8]| match load_dyn(
            obj,
            format_args!("thing 3"),
            &mut SnapReader::new(bytes),
        ) {
            Err(SnapError::Malformed(msg)) => msg,
            other => panic!("expected Malformed, got {other:?}"),
        };
        assert!(err(None, &bytes).contains("thing 3, which is not persistable"));
        assert!(err(Some(&mut inner), &bytes[bytes.len() - 1..]).contains("lacks state"));
        // An object that reads less than its blob holds is reported.
        let mut w = SnapWriter::new();
        true.save(&mut w);
        w.put_blob(&[0; 9]);
        assert!(err(Some(&mut inner), &w.into_bytes()).contains("left 1 trailing bytes"));
    }

    #[test]
    fn restore_refuses_an_event_the_saved_run_could_not_hold() {
        use crate::event::{ComponentId, Event, EventKey, EventKind};
        let head = ExecHead {
            now: SimTime::from_nanos(100),
            started: true,
            external_seq: 2,
            events_processed: 9,
        };
        let seqs = [3u64, 1];
        let ext = ComponentId::EXTERNAL.0;
        let ev = |ns: u64, source: u32, source_seq: u64| Event::<u64> {
            key: EventKey {
                time: SimTime::from_nanos(ns),
                target: ComponentId(0),
                source: ComponentId(source),
                source_seq,
            },
            kind: EventKind::Timer(0),
        };
        let load = |mut events: Vec<Event<u64>>| {
            let mut w = SnapWriter::new();
            save_exec_stream(
                &mut w,
                &head,
                &seqs,
                [None::<&dyn Persist>; 2].into_iter(),
                &mut events,
            );
            let bytes = w.into_bytes();
            let comps = [None::<&mut dyn Persist>, None].into_iter();
            load_exec_stream::<u64>(&mut SnapReader::new(&bytes), comps).map(|s| s.events.len())
        };
        assert_eq!(load(vec![ev(100, 0, 2), ev(100, 1, 0), ev(150, ext, 1)]).ok(), Some(3));
        for (what, events) in [
            ("an event before the clock", vec![ev(99, 0, 0)]),
            ("a number its source has not issued", vec![ev(200, 0, 3)]),
            ("an external number not issued", vec![ev(200, ext, 2)]),
            ("a source past the component table", vec![ev(200, 2, 0)]),
            ("two equal keys", vec![ev(200, 0, 1), ev(200, 0, 1)]),
        ] {
            assert!(matches!(load(events), Err(SnapError::Malformed(_))), "loaded {what}");
        }
    }
}
