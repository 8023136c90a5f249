//! The one codec behind every snapshot, observer state and journal
//! header. A [`Wire`] value encodes as LEB128 varints (integers), raw
//! little-endian bits (`f64`), single bytes (`u8`, `bool`, and the
//! `Option` presence tag), and length-prefixed sequences (`String`,
//! `Vec`); tuples concatenate their fields.
//!
//! A record is a struct whose encoding is its fields in one order, and
//! `wire_record!` names that order once: `put` writes the listed
//! fields in turn and `take` is a struct literal over the same list, so
//! the two directions cannot drift and a field left out of the list
//! does not compile. An observer whose whole state is such a record
//! gets its `snapshot`/`restore` pair from `observer_state!`. The
//! journal's per-event codec, and [`crate::events::EventLog`], which
//! embeds it, use the byte primitives directly.
//!
//! Declared first in the crate root with `#[macro_use]`, so both macros
//! are in scope in every later module.

/// Implements [`Wire`] for a struct as the concatenation of the listed
/// fields, in list order. The list must name every field: decoding is a
/// struct literal over it.
macro_rules! wire_record {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Wire::put(&self.$field, buf);)+
            }

            fn take(cur: &mut $crate::wire::Cursor<'_>) -> Result<Self, String> {
                Ok(Self {
                    $($field: $crate::wire::Wire::take(cur)?,)+
                })
            }
        }
    };
}

/// The [`crate::events::Observer`] `snapshot`/`restore` pair of an
/// observer whose whole state is one `wire_record!`: the snapshot is
/// its encoding, and a restore replaces the observer with the decoded
/// value (or leaves it untouched on error). `$label` is the fixed
/// `state_label` the snapshot files that state under.
macro_rules! observer_state {
    ($label:literal) => {
        fn state_label(&self) -> &'static str {
            $label
        }

        fn snapshot(&self) -> Vec<u8> {
            $crate::wire::encode(&[self])
        }

        fn restore(&mut self, state: &[u8]) -> Result<(), String> {
            *self = $crate::wire::decode(state)?;
            Ok(())
        }
    };
}

use spes_trace::{AppId, FunctionId};

/// CRC32 (IEEE 802.3) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
#[must_use]
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends `value` as an LEB128 varint.
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends `value` zigzag-mapped to a varint (small magnitudes of
/// either sign stay short).
pub(crate) fn put_zigzag(buf: &mut Vec<u8>, value: i64) {
    put_varint(buf, ((value << 1) ^ (value >> 63)) as u64);
}

/// Appends the raw little-endian bits of `value` (exact round-trip,
/// NaN and infinities included).
pub(crate) fn put_f64(buf: &mut Vec<u8>, value: f64) {
    buf.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Decoded sequences reserve at most this many elements up front, so
/// a corrupt length prefix cannot demand a huge allocation: the
/// decode fails at the end of the payload instead.
const MAX_RESERVE: usize = 1 << 20;

/// A value with one binary encoding, read back by [`Wire::take`].
pub(crate) trait Wire {
    /// Appends the value's encoding.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value, advancing the cursor.
    fn take(cur: &mut Cursor<'_>) -> Result<Self, String>
    where
        Self: Sized;
}

/// Encodes `fields` back to back — the encoding of the tuple of
/// their values.
#[must_use]
pub(crate) fn encode(fields: &[&dyn Wire]) -> Vec<u8> {
    let mut buf = Vec::new();
    for field in fields {
        field.put(&mut buf);
    }
    buf
}

/// Decodes one `T` that must span all of `bytes`.
pub(crate) fn decode<T: Wire>(bytes: &[u8]) -> Result<T, String> {
    let mut cur = Cursor::new(bytes);
    let value = T::take(&mut cur)?;
    cur.finish()?;
    Ok(value)
}

impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
        cur.take_u8()
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
        match cur.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid flag byte {other}")),
        }
    }
}

/// Unsigned integers encode as varints.
macro_rules! wire_uint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                put_varint(buf, *self as u64);
            }

            fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
                let raw = cur.take_varint()?;
                Self::try_from(raw)
                    .map_err(|_| format!("{raw} does not fit {}", stringify!($ty)))
            }
        }
    )*};
}

wire_uint!(u32, u64, usize);

impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        put_f64(buf, *self);
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
        cur.take_f64()
    }
}

impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
        let len = usize::take(cur)?;
        let bytes = cur.take_slice(len)?;
        Self::from_utf8(bytes.to_vec()).map_err(|_| "string is not valid UTF-8".to_owned())
    }
}

/// Id newtypes encode as their `u32`.
macro_rules! wire_id {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                self.0.put(buf);
            }

            fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
                u32::take(cur).map($ty)
            }
        }
    )*};
}

wire_id!(FunctionId, AppId);

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
        bool::take(cur)?.then(|| T::take(cur)).transpose()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
        let len = usize::take(cur)?;
        let mut items = Vec::with_capacity(len.min(MAX_RESERVE));
        for _ in 0..len {
            items.push(T::take(cur)?);
        }
        Ok(items)
    }
}

/// Implements [`Wire`] for the tuple of the given type parameters
/// and for every shorter tuple of its trailing ones.
macro_rules! wire_tuples {
    () => {};
    ($head:ident $($tail:ident)*) => {
        impl<$head: Wire, $($tail: Wire),*> Wire for ($head, $($tail,)*) {
            #[expect(non_snake_case, reason = "the bindings reuse the type parameter names")]
            fn put(&self, buf: &mut Vec<u8>) {
                let ($head, $($tail,)*) = self;
                $head.put(buf);
                $($tail.put(buf);)*
            }

            fn take(cur: &mut Cursor<'_>) -> Result<Self, String> {
                Ok(($head::take(cur)?, $($tail::take(cur)?,)*))
            }
        }
        wire_tuples!($($tail)*);
    };
}

wire_tuples!(A B C D E F);

/// A checked forward-only decoder over a byte slice. Every take
/// reports truncation/overflow as `Err(String)` instead of
/// panicking, so corrupt frames surface as typed errors.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Rejects bytes past the last decoded value.
    pub(crate) fn finish(&self) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the last field")),
        }
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| "unexpected end of payload".to_owned())?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn take_varint(&mut self) -> Result<u64, String> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.take_u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err("varint overflows u64".to_owned());
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    pub(crate) fn take_zigzag(&mut self) -> Result<i64, String> {
        let raw = self.take_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, String> {
        self.take_array()
            .map(|raw| f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// The next `N` bytes, as a fixed-width field.
    pub(crate) fn take_array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut raw = [0u8; N];
        raw.copy_from_slice(self.take_slice(N)?);
        Ok(raw)
    }

    /// The next `len` bytes.
    pub(crate) fn take_slice(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| "unexpected end of payload".to_owned())?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OutcomeScratch, Payload, SimConfig, SimDriver};
    use crate::events::{
        EventLog, EvictionAudit, Fairness, MemoryPressure, Observer, RunCollector, SlotSeries,
    };
    use crate::journal::JournalMeta;
    use crate::policy::KeepForever;
    use crate::shard::ShardCounts;
    use spes_trace::synth::small_test_trace;

    /// Decodes a record's bytes and encodes the value again.
    type Recode = fn(&[u8]) -> Result<Vec<u8>, String>;

    fn recode<T: Wire>(bytes: &[u8]) -> Result<Vec<u8>, String> {
        decode::<T>(bytes).map(|value| encode(&[&value]))
    }

    fn recode_event_log(bytes: &[u8]) -> Result<Vec<u8>, String> {
        let mut log = EventLog::new();
        log.restore(bytes)?;
        Ok(log.snapshot())
    }

    /// The observer of type `T`'s snapshot, mid-run.
    fn state<T: Observer + 'static>(driver: &SimDriver<'_>) -> Vec<u8> {
        driver
            .observer::<T>()
            .expect("observer attached")
            .snapshot()
    }

    /// Every binary record, encoded from a short real run: a capacitated
    /// pool with a pressure budget (so evictions and rejections occur),
    /// a warm-up prefix, and every state-carrying observer attached.
    fn samples() -> Vec<(&'static str, Vec<u8>, Recode)> {
        let data = small_test_trace(40, 7);
        let trace = &data.trace;
        let config = SimConfig::new(0, 60)
            .with_metrics_start(20)
            .with_capacity(6)
            .with_pressure_budget(4);
        let mut policy = KeepForever;
        let mut driver = SimDriver::new(
            trace.n_functions(),
            config,
            &mut policy,
            vec![
                Box::new(RunCollector::new()),
                Box::new(SlotSeries::new()),
                Box::new(EvictionAudit::new(5)),
                Box::new(MemoryPressure::new()),
                Box::new(Fairness::from_trace(trace)),
                Box::new(ShardCounts::new()),
                Box::new(EventLog::new()),
            ],
        )
        .expect("driver");
        for (slot, batch) in trace.slot_batches(0, 45).iter() {
            driver.step(slot, batch).expect("step");
        }
        let snapshot = driver.snapshot();
        let payload: Payload = decode(&snapshot[20..]).expect("payload");
        let meta = JournalMeta {
            policy_name: payload.policy_name.clone(),
            n_functions: trace.n_functions(),
            config,
            trace_digest: trace.digest64(),
            seed: 7,
            extra: vec![("scenario".to_owned(), "quick".to_owned())],
        };
        vec![
            ("SimConfig", encode(&[&config]), recode::<SimConfig>),
            (
                "OutcomeScratch",
                encode(&[&payload.scratch]),
                recode::<OutcomeScratch>,
            ),
            ("JournalMeta", encode(&[&meta]), recode::<JournalMeta>),
            (
                "RunCollector",
                state::<RunCollector>(&driver),
                recode::<RunCollector>,
            ),
            (
                "SlotSeries",
                state::<SlotSeries>(&driver),
                recode::<SlotSeries>,
            ),
            (
                "EvictionAudit",
                state::<EvictionAudit>(&driver),
                recode::<EvictionAudit>,
            ),
            (
                "MemoryPressure",
                state::<MemoryPressure>(&driver),
                recode::<MemoryPressure>,
            ),
            ("Fairness", state::<Fairness>(&driver), recode::<Fairness>),
            (
                "ShardCounts",
                state::<ShardCounts>(&driver),
                recode::<ShardCounts>,
            ),
            ("EventLog", state::<EventLog>(&driver), recode_event_log),
            ("Payload", snapshot[20..].to_vec(), recode::<Payload>),
        ]
    }

    /// Each record decodes only from its exact bytes: every strict
    /// prefix and one trailing byte are errors, never panics, and the
    /// exact bytes decode and re-encode to themselves.
    #[test]
    fn every_record_rejects_truncation_and_trailing_bytes() {
        for (name, bytes, recode) in samples() {
            assert!(!bytes.is_empty(), "{name} has no sample");
            assert_eq!(recode(&bytes).as_deref(), Ok(&bytes[..]), "{name}");
            for cut in 0..bytes.len() {
                assert!(recode(&bytes[..cut]).is_err(), "{name} cut at {cut}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(recode(&longer).is_err(), "{name} with a trailing byte");
        }
    }
}
