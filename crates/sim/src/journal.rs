//! Durable binary journals of simulation runs.
//!
//! The engine's event stream is the source of truth for every metric
//! (see [`crate::events`]); this module makes that durable. A journal is
//! a compact binary file: a header frame carrying the run's metadata
//! ([`JournalMeta`] — policy, window, trace digest, seed), followed by
//! CRC-framed batches of varint-delta-encoded events. The JSON shim
//! round-trips the same stream but is the wrong tool at 10^9 events; the
//! binary codec is an order of magnitude smaller and several times
//! faster (`bench_journal` tracks the exact ratios in
//! `BENCH_journal.json`).
//!
//! ## Wire format
//!
//! ```text
//! file    = magic(8) version(u32 LE) frame*
//! frame   = kind(u8) payload_len(u32 LE) crc32(u32 LE) payload
//! kinds   : 1 = meta (first frame, exactly once), 2 = events
//! ```
//!
//! Event frames are self-contained: the slot/function delta chains reset
//! at each frame boundary, so a journal can be appended to, truncated at
//! any frame, or scanned after a torn write without re-reading the whole
//! file. Within a frame each event is one tag byte — the event kind in
//! the low 3 bits, the slot delta in the high 5 (31 escapes to a varint)
//! — followed by a zigzag varint function-id delta and any per-kind
//! payload ([`SimEvent::SlotEnd`] carries its wall-clock `policy_secs`
//! as raw little-endian `f64` bits; everything else is varints).
//!
//! Writing is an [`Observer`]: attach a [`JournalObserver`] to any run
//! and the stream is persisted as it happens. Reading is an iterator or
//! [`replay`]: [`JournalReader`] yields [`JournalEvent`]s (the `measured`
//! flag is re-derived from the header's metrics window, not stored), and
//! [`replay`] feeds them through any observers as the engine would.

use crate::engine::{validate_window, SimConfig, Sinks};
use crate::events::{
    DynObserver, EventCtx, EvictCause, LoadCause, Observer, ObserverSet, RunMeta, SimEvent,
};
use crate::memory::MemoryPool;
use crate::wire::{self, crc32, put_f64, put_varint, put_zigzag, Cursor};
use spes_trace::{FunctionId, Slot};
use std::io::{Read, Write};

/// Leading magic of a journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"SPESJNL\0";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

const FRAME_META: u8 = 1;
const FRAME_EVENTS: u8 = 2;

/// Flush threshold: an event frame is closed once its payload reaches
/// this size (events are a handful of bytes, so frames hold thousands).
const FRAME_TARGET_BYTES: usize = 64 * 1024;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a journal could not be written or read.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The file does not start with the journal magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// A frame's CRC32 did not match its payload (torn or corrupted
    /// write).
    Checksum {
        /// Index of the corrupt frame (the meta frame is 0).
        frame: u64,
    },
    /// The byte stream is structurally malformed.
    Corrupt(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal i/o error: {e}"),
            Self::BadMagic => write!(f, "not a journal file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported journal version {v} (this build reads {JOURNAL_VERSION})"
                )
            }
            Self::Checksum { frame } => write!(f, "checksum mismatch in frame {frame}"),
            Self::Corrupt(message) => write!(f, "corrupt journal: {message}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

// ---------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------

/// Static facts about the journalled run, written once in the header
/// frame. Everything a replay needs to rebuild the run deterministically
/// travels here instead of in a side channel.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalMeta {
    /// Name of the policy that drove the run.
    pub policy_name: String,
    /// Number of functions in the run's universe.
    pub n_functions: usize,
    /// The simulation window and pool limits of the run.
    pub config: SimConfig,
    /// FNV-1a digest of the driving trace
    /// ([`spes_trace::Trace::digest64`]); 0 when the events came from a
    /// live stream with no materialised trace.
    pub trace_digest: u64,
    /// Workload seed (0 when not applicable).
    pub seed: u64,
    /// Free-form key/value context (scenario name, quick flag, resume
    /// slot, …) for tools that rebuild the run from its journal.
    pub extra: Vec<(String, String)>,
}

impl JournalMeta {
    /// Looks up an [`JournalMeta::extra`] value by key.
    #[must_use]
    pub fn extra_value(&self, key: &str) -> Option<&str> {
        self.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

wire_record!(JournalMeta {
    policy_name,
    n_functions,
    config,
    trace_digest,
    seed,
    extra,
});

// ---------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------

const KIND_COLD: u8 = 0;
const KIND_WARM: u8 = 1;
const KIND_LOAD_DEMAND: u8 = 2;
const KIND_LOAD_POLICY: u8 = 3;
const KIND_EVICT_CAPACITY: u8 = 4;
const KIND_EVICT_POLICY: u8 = 5;
const KIND_REJECTED: u8 = 6;
const KIND_SLOT_END: u8 = 7;

/// Slot deltas 0..=30 ride in the tag byte; 31 escapes to a varint.
const DELTA_ESCAPE: u8 = 31;

/// Encodes one event against the frame's running `(prev_slot, prev_f)`
/// delta context, updating it.
pub(crate) fn encode_event(
    buf: &mut Vec<u8>,
    prev_slot: &mut Slot,
    prev_f: &mut u32,
    slot: Slot,
    event: &SimEvent,
) {
    let (kind, f) = match *event {
        SimEvent::ColdStart { f, .. } => (KIND_COLD, Some(f)),
        SimEvent::WarmStart { f, .. } => (KIND_WARM, Some(f)),
        SimEvent::Load {
            f,
            cause: LoadCause::Demand,
        } => (KIND_LOAD_DEMAND, Some(f)),
        SimEvent::Load {
            f,
            cause: LoadCause::Policy,
        } => (KIND_LOAD_POLICY, Some(f)),
        SimEvent::Evict {
            f,
            cause: EvictCause::Capacity,
        } => (KIND_EVICT_CAPACITY, Some(f)),
        SimEvent::Evict {
            f,
            cause: EvictCause::Policy,
        } => (KIND_EVICT_POLICY, Some(f)),
        SimEvent::LoadRejected { f } => (KIND_REJECTED, Some(f)),
        SimEvent::SlotEnd { .. } => (KIND_SLOT_END, None),
    };
    let delta = u64::from(slot - *prev_slot);
    if delta < u64::from(DELTA_ESCAPE) {
        buf.push(kind | ((delta as u8) << 3));
    } else {
        buf.push(kind | (DELTA_ESCAPE << 3));
        put_varint(buf, delta);
    }
    *prev_slot = slot;
    if let Some(f) = f {
        put_zigzag(buf, i64::from(f.0) - i64::from(*prev_f));
        *prev_f = f.0;
    }
    match *event {
        SimEvent::ColdStart { count, .. } | SimEvent::WarmStart { count, .. } => {
            put_varint(buf, u64::from(count));
        }
        SimEvent::SlotEnd { policy_secs } => put_f64(buf, policy_secs),
        _ => {}
    }
}

/// Decodes one event, advancing the cursor and the delta context.
pub(crate) fn decode_event(
    cur: &mut Cursor<'_>,
    prev_slot: &mut Slot,
    prev_f: &mut u32,
) -> Result<(Slot, SimEvent), String> {
    let tag = cur.take_u8()?;
    let kind = tag & 0x07;
    let inline_delta = tag >> 3;
    let delta = if inline_delta == DELTA_ESCAPE {
        cur.take_varint()?
    } else {
        u64::from(inline_delta)
    };
    let slot = u64::from(*prev_slot)
        .checked_add(delta)
        .filter(|&s| s <= u64::from(Slot::MAX))
        .ok_or_else(|| "slot delta overflows u32".to_owned())? as Slot;
    *prev_slot = slot;
    let mut take_f = |cur: &mut Cursor<'_>| -> Result<FunctionId, String> {
        let f = i64::from(*prev_f) + cur.take_zigzag()?;
        let f = u32::try_from(f).map_err(|_| format!("function delta lands at {f}"))?;
        *prev_f = f;
        Ok(FunctionId(f))
    };
    let event = match kind {
        KIND_COLD | KIND_WARM => {
            let f = take_f(cur)?;
            let count = u32::try_from(cur.take_varint()?)
                .map_err(|_| "count does not fit u32".to_owned())?;
            if kind == KIND_COLD {
                SimEvent::ColdStart { f, count }
            } else {
                SimEvent::WarmStart { f, count }
            }
        }
        KIND_LOAD_DEMAND => SimEvent::Load {
            f: take_f(cur)?,
            cause: LoadCause::Demand,
        },
        KIND_LOAD_POLICY => SimEvent::Load {
            f: take_f(cur)?,
            cause: LoadCause::Policy,
        },
        KIND_EVICT_CAPACITY => SimEvent::Evict {
            f: take_f(cur)?,
            cause: EvictCause::Capacity,
        },
        KIND_EVICT_POLICY => SimEvent::Evict {
            f: take_f(cur)?,
            cause: EvictCause::Policy,
        },
        KIND_REJECTED => SimEvent::LoadRejected { f: take_f(cur)? },
        KIND_SLOT_END => SimEvent::SlotEnd {
            policy_secs: cur.take_f64()?,
        },
        _ => unreachable!("3-bit kind"),
    };
    Ok((slot, event))
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams an event sequence into the binary journal format.
///
/// Events must be appended in non-decreasing slot order (the engine's
/// emission order always is). Frames are flushed automatically as they
/// fill; call [`JournalWriter::finish`] to flush the tail frame and
/// recover the underlying writer.
pub struct JournalWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    frame_events: u64,
    prev_slot: Slot,
    prev_f: u32,
    events: u64,
}

impl<W: Write> JournalWriter<W> {
    /// Writes the magic, version, and meta frame, returning a writer
    /// ready for events.
    ///
    /// # Errors
    /// Returns [`JournalError::Io`] when the header cannot be written.
    pub fn new(mut inner: W, meta: &JournalMeta) -> Result<Self, JournalError> {
        inner.write_all(JOURNAL_MAGIC)?;
        inner.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        write_frame(&mut inner, FRAME_META, &wire::encode(&[meta]))?;
        Ok(Self {
            inner,
            buf: Vec::with_capacity(FRAME_TARGET_BYTES + 64),
            frame_events: 0,
            prev_slot: 0,
            prev_f: 0,
            events: 0,
        })
    }

    /// Total events appended so far.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Appends one event at `slot`.
    ///
    /// # Errors
    /// Returns [`JournalError::Io`] when a filled frame cannot be
    /// flushed to the underlying writer.
    ///
    /// # Panics
    /// Panics if `slot` precedes the previous appended event's slot
    /// (journals are strictly forward in time).
    pub fn append(&mut self, slot: Slot, event: &SimEvent) -> Result<(), JournalError> {
        if self.frame_events > 0 {
            assert!(
                slot >= self.prev_slot,
                "journal slots must be non-decreasing: {slot} after {}",
                self.prev_slot
            );
        } else {
            // Frames are self-contained: the delta chain restarts.
            self.prev_slot = 0;
            self.prev_f = 0;
        }
        encode_event(
            &mut self.buf,
            &mut self.prev_slot,
            &mut self.prev_f,
            slot,
            event,
        );
        self.frame_events += 1;
        self.events += 1;
        if self.buf.len() >= FRAME_TARGET_BYTES {
            self.flush_frame()?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<(), JournalError> {
        if self.frame_events == 0 {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(self.buf.len() + 4);
        put_varint(&mut payload, self.frame_events);
        payload.extend_from_slice(&self.buf);
        write_frame(&mut self.inner, FRAME_EVENTS, &payload)?;
        self.buf.clear();
        self.frame_events = 0;
        Ok(())
    }

    /// Flushes the tail frame and the underlying writer, returning it.
    ///
    /// # Errors
    /// Returns [`JournalError::Io`] when flushing fails.
    pub fn finish(mut self) -> Result<W, JournalError> {
        self.flush_frame()?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

fn write_frame<W: Write>(inner: &mut W, kind: u8, payload: &[u8]) -> Result<(), JournalError> {
    inner.write_all(&[kind])?;
    inner.write_all(&(payload.len() as u32).to_le_bytes())?;
    inner.write_all(&crc32(payload).to_le_bytes())?;
    inner.write_all(payload)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One recorded event with its timing context: read back from a journal,
/// or captured live by an [`crate::events::EventLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalEvent {
    /// The slot during which the event happened.
    pub slot: Slot,
    /// Whether the slot is inside the run's metrics window (a journal
    /// re-derives it from the header instead of storing it per event).
    pub measured: bool,
    /// The event itself.
    pub event: SimEvent,
}

impl JournalEvent {
    /// The event with `SlotEnd`'s wall-clock `policy_secs` zeroed: the
    /// one field two runs of the same workload may differ in, so streams
    /// are compared untimed.
    #[must_use]
    pub fn untimed(&self) -> Self {
        let event = match self.event {
            SimEvent::SlotEnd { .. } => SimEvent::SlotEnd { policy_secs: 0.0 },
            other => other,
        };
        Self { event, ..*self }
    }
}

/// Streaming decoder over a journal: validates the header, then yields
/// every event in order (also usable as an [`Iterator`]).
pub struct JournalReader<R: Read> {
    inner: R,
    meta: JournalMeta,
    frame: Vec<u8>,
    pos: usize,
    remaining_in_frame: u64,
    prev_slot: Slot,
    prev_f: u32,
    frames_read: u64,
}

impl<R: Read> JournalReader<R> {
    /// Reads and validates the magic, version, and meta frame.
    ///
    /// # Errors
    /// Returns a [`JournalError`] on I/O failure, a foreign or
    /// newer-versioned file, or a corrupt header.
    pub fn new(mut inner: R) -> Result<Self, JournalError> {
        let mut magic = [0u8; 8];
        inner
            .read_exact(&mut magic)
            .map_err(|_| JournalError::BadMagic)?;
        if &magic != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        }
        let mut version = [0u8; 4];
        inner.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != JOURNAL_VERSION {
            return Err(JournalError::UnsupportedVersion(version));
        }
        let (kind, payload) = read_frame(&mut inner, 0)?.ok_or_else(|| {
            JournalError::Corrupt("journal ends before its meta frame".to_owned())
        })?;
        if kind != FRAME_META {
            return Err(JournalError::Corrupt(format!(
                "first frame must be the meta frame, found kind {kind}"
            )));
        }
        let meta: JournalMeta = wire::decode(&payload).map_err(JournalError::Corrupt)?;
        Ok(Self {
            inner,
            meta,
            frame: Vec::new(),
            pos: 0,
            remaining_in_frame: 0,
            prev_slot: 0,
            prev_f: 0,
            frames_read: 1,
        })
    }

    /// The journalled run's metadata.
    #[must_use]
    pub fn meta(&self) -> &JournalMeta {
        &self.meta
    }

    /// Decodes the next event; `Ok(None)` at a clean end of file.
    ///
    /// # Errors
    /// Returns a [`JournalError`] on I/O failure, a checksum mismatch,
    /// or a malformed frame.
    pub fn next_event(&mut self) -> Result<Option<JournalEvent>, JournalError> {
        while self.remaining_in_frame == 0 {
            let Some((kind, payload)) = read_frame(&mut self.inner, self.frames_read)? else {
                return Ok(None);
            };
            self.frames_read += 1;
            if kind != FRAME_EVENTS {
                return Err(JournalError::Corrupt(format!(
                    "unexpected frame kind {kind} after the header"
                )));
            }
            let mut cur = Cursor::new(&payload);
            self.remaining_in_frame = cur.take_varint().map_err(JournalError::Corrupt)?;
            if self.remaining_in_frame == 0 {
                continue;
            }
            self.frame = payload[cur.position()..].to_vec();
            self.pos = 0;
            self.prev_slot = 0;
            self.prev_f = 0;
        }
        let mut cur = Cursor::new(&self.frame[self.pos..]);
        let (slot, event) = decode_event(&mut cur, &mut self.prev_slot, &mut self.prev_f)
            .map_err(JournalError::Corrupt)?;
        self.pos += cur.position();
        self.remaining_in_frame -= 1;
        if self.remaining_in_frame == 0 && self.pos != self.frame.len() {
            return Err(JournalError::Corrupt(
                "trailing bytes after the frame's last event".to_owned(),
            ));
        }
        Ok(Some(JournalEvent {
            slot,
            measured: slot >= self.meta.config.metrics_start,
            event,
        }))
    }

    /// Reads the whole journal into memory.
    ///
    /// # Errors
    /// Propagates the first [`JournalError`] hit while decoding.
    pub fn read_all(mut self) -> Result<Vec<JournalEvent>, JournalError> {
        let mut events = Vec::new();
        while let Some(event) = self.next_event()? {
            events.push(event);
        }
        Ok(events)
    }
}

impl<R: Read> Iterator for JournalReader<R> {
    type Item = Result<JournalEvent, JournalError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

impl<R: Read> std::fmt::Debug for JournalReader<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalReader")
            .field("meta", &self.meta)
            .field("frames_read", &self.frames_read)
            .finish_non_exhaustive()
    }
}

fn read_frame<R: Read>(
    inner: &mut R,
    frame_index: u64,
) -> Result<Option<(u8, Vec<u8>)>, JournalError> {
    let mut kind = [0u8; 1];
    match inner.read(&mut kind)? {
        0 => return Ok(None),
        1 => {}
        _ => unreachable!("single-byte read"),
    }
    let (mut len, mut crc) = ([0u8; 4], [0u8; 4]);
    inner
        .read_exact(&mut len)
        .and_then(|()| inner.read_exact(&mut crc))
        .map_err(|_| {
            JournalError::Corrupt(format!("frame {frame_index} is truncated mid-header"))
        })?;
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    inner.read_exact(&mut payload).map_err(|_| {
        JournalError::Corrupt(format!("frame {frame_index} is truncated mid-payload"))
    })?;
    if crc32(&payload) != u32::from_le_bytes(crc) {
        return Err(JournalError::Checksum { frame: frame_index });
    }
    Ok(Some((kind[0], payload)))
}

// ---------------------------------------------------------------------
// Write-through observer
// ---------------------------------------------------------------------

/// An [`Observer`] that persists the event stream as it happens.
///
/// Attach it to a [`crate::SimDriver`] (or a
/// [`crate::engine::Simulation`]) and every event is appended to the
/// journal; the tail frame is flushed when the run ends. Observer hooks
/// cannot return errors, so the first write failure is latched — the
/// observer goes quiet and the error surfaces through
/// [`JournalObserver::error`] / [`JournalObserver::into_inner`].
pub struct JournalObserver<W: Write> {
    writer: Option<JournalWriter<W>>,
    finished: Option<W>,
    error: Option<JournalError>,
}

impl<W: Write> JournalObserver<W> {
    /// Opens a journal on `inner` (writing the header immediately).
    ///
    /// # Errors
    /// Returns [`JournalError::Io`] when the header cannot be written.
    pub fn new(inner: W, meta: &JournalMeta) -> Result<Self, JournalError> {
        Ok(Self {
            writer: Some(JournalWriter::new(inner, meta)?),
            finished: None,
            error: None,
        })
    }

    /// The first write error hit, if any (the observer stops writing
    /// after it).
    #[must_use]
    pub fn error(&self) -> Option<&JournalError> {
        self.error.as_ref()
    }

    /// Events appended so far (0 after a latched error).
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(0, JournalWriter::events_written)
    }

    /// Recovers the underlying writer, flushing the tail frame if the
    /// run-end hook has not already done so.
    ///
    /// # Errors
    /// Returns the latched write error, if any.
    pub fn into_inner(mut self) -> Result<W, JournalError> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        if let Some(inner) = self.finished.take() {
            return Ok(inner);
        }
        self.writer
            .take()
            .expect("writer present unless finished or errored")
            .finish()
    }
}

impl<W: Write> Observer for JournalObserver<W> {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        if let Some(writer) = self.writer.as_mut() {
            if let Err(error) = writer.append(ctx.slot, event) {
                self.error = Some(error);
                self.writer = None;
            }
        }
    }

    fn on_run_end(&mut self, _end: Slot, _pool: &crate::memory::MemoryPool) {
        if let Some(writer) = self.writer.take() {
            match writer.finish() {
                Ok(inner) => self.finished = Some(inner),
                Err(error) => self.error = Some(error),
            }
        }
    }
}

impl<W: Write> std::fmt::Debug for JournalObserver<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalObserver")
            .field("events_written", &self.events_written())
            .field("errored", &self.error.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// Replays a journalled run through `observers`, as the engine would
/// have delivered it, and hands them back.
///
/// The pool is rebuilt from the header (`n_functions`, and the capacity
/// and pressure budget of its [`SimConfig`]) and each `Load`/`Evict` is
/// applied to it as it is read. `on_run_start`, the events and
/// `on_run_end` go through the engine's own sinks, which deliver each
/// slot's events as one [`Observer::on_slot_events`] batch at its
/// `SlotEnd`; a tail after the last `SlotEnd` is delivered before
/// `on_run_end`. Each batch takes its [`crate::events::SlotBatch`]
/// facts from the sinks' ledger, as a step's batch does. The run ends at
/// the slot after the last `SlotEnd`, where a step-driven run ends.
///
/// Every event of a batch sees the pool as it stands at the end of the
/// batch, live and replayed alike (see [`EventCtx::pool`]), so replayed
/// observers end bit-identical to live ones. The one difference in
/// grouping: the engine delivers the policy's `on_start` loads as a
/// batch of their own, and `replay` delivers them with the first slot's
/// events.
///
/// # Errors
/// Propagates the reader's decoding errors, and returns
/// [`JournalError::Corrupt`] naming the slot for a stream no run from an
/// empty pool can produce: a function outside `n_functions`, a `Load`
/// of a loaded function or into a full pool, or an `Evict` of an
/// unloaded one (e.g. the journal of a resumed session).
pub fn replay<R: Read>(
    mut reader: JournalReader<R>,
    observers: Vec<Box<dyn DynObserver>>,
) -> Result<ObserverSet, JournalError> {
    let meta = reader.meta().clone();
    let config = meta.config;
    validate_window(&config, None).map_err(|e| JournalError::Corrupt(e.to_string()))?;
    let mut pool = MemoryPool::with_capacity(meta.n_functions, config.capacity);
    pool.set_admission_budget(config.pressure_budget);
    let mut sinks = Sinks::new(observers, None, Default::default());
    let run = RunMeta {
        policy_name: &meta.policy_name,
        start: config.start,
        metrics_start: config.metrics_start,
        end: config.end,
    };
    sinks.run_start(&run, &pool);
    let mut run_end = config.start;
    while let Some(JournalEvent {
        slot,
        measured,
        event,
    }) = reader.next_event()?
    {
        // A batch holds one slot, even in a journal with no `SlotEnd`
        // between two slots.
        if sinks.pending_slot().is_some_and(|pending| pending != slot) {
            sinks.deliver(&pool);
        }
        if sinks.pending_slot().is_none() {
            sinks.start_batch(&mut pool, true);
        }
        apply(&mut pool, slot, &event)
            .map_err(|what| JournalError::Corrupt(format!("slot {slot}: {what}")))?;
        sinks.emit(slot, measured, event);
        if matches!(event, SimEvent::SlotEnd { .. }) {
            run_end = slot.saturating_add(1);
            sinks.deliver(&pool);
        }
    }
    sinks.deliver(&pool);
    sinks.run_end(run_end, &pool);
    Ok(ObserverSet::new(sinks.observers))
}

/// Applies one recorded event to [`replay`]'s pool, refusing what no run
/// from an empty pool can record.
fn apply(pool: &mut MemoryPool, slot: Slot, event: &SimEvent) -> Result<(), String> {
    let f = match *event {
        SimEvent::ColdStart { f, .. }
        | SimEvent::WarmStart { f, .. }
        | SimEvent::Load { f, .. }
        | SimEvent::Evict { f, .. }
        | SimEvent::LoadRejected { f } => f,
        SimEvent::SlotEnd { .. } => return Ok(()),
    };
    if f.index() >= pool.n_functions() {
        return Err(format!(
            "f{} is outside the run's {} functions",
            f.0,
            pool.n_functions()
        ));
    }
    match *event {
        SimEvent::Load { .. } if pool.contains(f) => {
            Err(format!("loads f{}, which is already loaded", f.0))
        }
        SimEvent::Load { .. } if pool.is_full() => Err(format!("loads f{} into a full pool", f.0)),
        SimEvent::Load { .. } => {
            pool.demand_load(f, slot);
            Ok(())
        }
        SimEvent::Evict { .. } if !pool.evict(f) => {
            Err(format!("evicts f{}, which is not loaded", f.0))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use crate::events::{EventLog, RunCollector};
    use crate::policy::KeepForever;
    use spes_trace::{AppId, FunctionMeta, SparseSeries, Trace, TriggerType, UserId};

    fn meta_of(config: SimConfig, n_functions: usize) -> JournalMeta {
        JournalMeta {
            policy_name: "keep-forever".to_owned(),
            n_functions,
            config,
            trace_digest: 0xDEAD_BEEF,
            seed: 42,
            extra: vec![("scenario".to_owned(), "unit".to_owned())],
        }
    }

    fn sample_events() -> Vec<(Slot, SimEvent)> {
        vec![
            (
                0,
                SimEvent::ColdStart {
                    f: FunctionId(3),
                    count: 2,
                },
            ),
            (
                0,
                SimEvent::Load {
                    f: FunctionId(3),
                    cause: LoadCause::Demand,
                },
            ),
            (0, SimEvent::SlotEnd { policy_secs: 1e-6 }),
            (
                1,
                SimEvent::WarmStart {
                    f: FunctionId(3),
                    count: 1,
                },
            ),
            (
                1,
                SimEvent::Load {
                    f: FunctionId(7),
                    cause: LoadCause::Policy,
                },
            ),
            (
                1,
                SimEvent::Evict {
                    f: FunctionId(3),
                    cause: EvictCause::Policy,
                },
            ),
            (1, SimEvent::SlotEnd { policy_secs: 0.0 }),
            (40, SimEvent::LoadRejected { f: FunctionId(0) }),
            (
                40,
                SimEvent::Evict {
                    f: FunctionId(7),
                    cause: EvictCause::Capacity,
                },
            ),
            (40, SimEvent::SlotEnd { policy_secs: 3.5 }),
        ]
    }

    #[test]
    fn events_round_trip_bit_identically() {
        let config = SimConfig::new(0, 100).with_metrics_start(1);
        let meta = meta_of(config, 8);
        let mut writer = JournalWriter::new(Vec::new(), &meta).unwrap();
        for (slot, event) in sample_events() {
            writer.append(slot, &event).unwrap();
        }
        let bytes = writer.finish().unwrap();

        let reader = JournalReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.meta(), &meta);
        assert_eq!(reader.meta().extra_value("scenario"), Some("unit"));
        let decoded = reader.read_all().unwrap();
        let expected: Vec<(Slot, bool, SimEvent)> = sample_events()
            .into_iter()
            .map(|(slot, event)| (slot, slot >= 1, event))
            .collect();
        let got: Vec<(Slot, bool, SimEvent)> = decoded
            .into_iter()
            .map(|e| (e.slot, e.measured, e.event))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn frames_are_self_contained_across_flushes() {
        // Force many frame flushes with a long stream and verify the
        // delta chains reset cleanly at each frame boundary.
        let config = SimConfig::new(0, Slot::MAX);
        let mut writer = JournalWriter::new(Vec::new(), &meta_of(config, 1000)).unwrap();
        let mut expected = Vec::new();
        for slot in 0..40_000u32 {
            let event = SimEvent::WarmStart {
                f: FunctionId(slot % 997),
                count: 1 + slot % 3,
            };
            writer.append(slot, &event).unwrap();
            expected.push((slot, event));
        }
        let bytes = writer.finish().unwrap();
        assert!(
            bytes.len() > FRAME_TARGET_BYTES,
            "stream must span multiple frames ({} bytes)",
            bytes.len()
        );
        let decoded = JournalReader::new(bytes.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(decoded.len(), expected.len());
        for (got, (slot, event)) in decoded.iter().zip(&expected) {
            assert_eq!((got.slot, got.event), (*slot, *event));
        }
    }

    #[test]
    fn corruption_is_detected_by_the_frame_crc() {
        let config = SimConfig::new(0, 100);
        let mut writer = JournalWriter::new(Vec::new(), &meta_of(config, 8)).unwrap();
        for (slot, event) in sample_events() {
            writer.append(slot, &event).unwrap();
        }
        let mut bytes = writer.finish().unwrap();
        // Flip one bit in the last byte (inside the event frame payload).
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = JournalReader::new(bytes.as_slice())
            .unwrap()
            .read_all()
            .unwrap_err();
        assert!(matches!(err, JournalError::Checksum { frame: 1 }), "{err}");
    }

    #[test]
    fn foreign_files_and_versions_are_rejected() {
        let err = JournalReader::new(&b"not a journal at all"[..]).unwrap_err();
        assert!(matches!(err, JournalError::BadMagic), "{err}");

        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        let err = JournalReader::new(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, JournalError::UnsupportedVersion(99)), "{err}");
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn truncated_tail_is_a_typed_error() {
        let config = SimConfig::new(0, 100);
        let mut writer = JournalWriter::new(Vec::new(), &meta_of(config, 8)).unwrap();
        for (slot, event) in sample_events() {
            writer.append(slot, &event).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let torn = &bytes[..bytes.len() - 3];
        let err = JournalReader::new(torn).unwrap().read_all().unwrap_err();
        assert!(matches!(err, JournalError::Corrupt(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_appends_panic() {
        let mut writer =
            JournalWriter::new(Vec::new(), &meta_of(SimConfig::new(0, 10), 2)).unwrap();
        writer
            .append(5, &SimEvent::SlotEnd { policy_secs: 0.0 })
            .unwrap();
        let _ = writer.append(4, &SimEvent::SlotEnd { policy_secs: 0.0 });
    }

    /// The observer path: journalling a real run captures exactly the
    /// stream an [`EventLog`] sees.
    #[test]
    fn journal_observer_matches_the_event_log() {
        let meta = FunctionMeta {
            app: AppId(0),
            user: UserId(0),
            trigger: TriggerType::Http,
        };
        let trace = Trace::new(
            6,
            vec![meta; 2],
            vec![
                SparseSeries::from_pairs(vec![(0, 2), (3, 1)]),
                SparseSeries::from_pairs(vec![(1, 1), (3, 2)]),
            ],
        );
        let config = SimConfig::new(0, 6).with_metrics_start(2);
        let jmeta = JournalMeta {
            policy_name: "keep-forever".to_owned(),
            n_functions: 2,
            config,
            trace_digest: trace.digest64(),
            seed: 0,
            extra: Vec::new(),
        };
        let journal = JournalObserver::new(Vec::new(), &jmeta).unwrap();
        let mut observers = Simulation::new(&trace, config)
            .with_observer(Box::new(EventLog::new()))
            .with_observer(Box::new(journal))
            .run(&mut KeepForever)
            .unwrap();
        let log: EventLog = observers.take().unwrap();
        let journal: JournalObserver<Vec<u8>> = observers.take().unwrap();
        assert!(journal.error().is_none());
        let bytes = journal.into_inner().unwrap();

        let reader = JournalReader::new(bytes.as_slice()).unwrap();
        assert_eq!(reader.meta().trace_digest, trace.digest64());
        let decoded = reader.read_all().unwrap();
        assert_eq!(decoded.len(), log.events.len());
        for (got, logged) in decoded.iter().zip(&log.events) {
            assert_eq!(got.slot, logged.slot);
            assert_eq!(got.measured, logged.measured);
            assert_eq!(got.event, logged.event);
        }
    }

    /// Replays a hand-written journal through an [`EventLog`] and a
    /// [`RunCollector`].
    fn replayed(
        config: SimConfig,
        n_functions: usize,
        events: &[(Slot, SimEvent)],
    ) -> Result<ObserverSet, JournalError> {
        let mut writer = JournalWriter::new(Vec::new(), &meta_of(config, n_functions)).unwrap();
        for (slot, event) in events {
            writer.append(*slot, event).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let reader = JournalReader::new(bytes.as_slice()).unwrap();
        let observers: Vec<Box<dyn DynObserver>> =
            vec![Box::new(EventLog::new()), Box::new(RunCollector::new())];
        replay(reader, observers)
    }

    fn load(f: u32) -> SimEvent {
        SimEvent::Load {
            f: FunctionId(f),
            cause: LoadCause::Policy,
        }
    }

    #[test]
    fn replay_delivers_the_header_window_and_every_event() {
        let config = SimConfig::new(0, 100).with_metrics_start(1);
        let mut observers = replayed(config, 8, &sample_events()).unwrap();
        let log: EventLog = observers.take().unwrap();
        assert_eq!(log.policy_name, "keep-forever");
        assert_eq!((log.start, log.metrics_start, log.end), (0, 1, 100));
        assert_eq!(log.n_functions, 8);
        assert_eq!(log.events.len(), sample_events().len());
        // The run ends after the last SlotEnd (slot 40), and f3's one
        // measured invocation at slot 1 was warm.
        let run = observers.take::<RunCollector>().unwrap().into_result();
        assert_eq!((run.start, run.end), (1, 41));
        assert_eq!((run.total_invocations(), run.total_cold_starts()), (1, 0));
    }

    #[test]
    fn replay_refuses_streams_no_run_can_record() {
        let end = SimEvent::SlotEnd { policy_secs: 0.0 };
        let evict = SimEvent::Evict {
            f: FunctionId(1),
            cause: EvictCause::Policy,
        };
        let cases = [
            (None, vec![(0, end), (1, load(8))], "slot 1: f8 is outside"),
            (None, vec![(2, load(1)), (3, load(1))], "already loaded"),
            (None, vec![(0, load(0)), (4, evict)], "slot 4: evicts f1"),
            (
                Some(1),
                vec![(0, load(0)), (0, load(1))],
                "into a full pool",
            ),
        ];
        for (capacity, events, message) in cases {
            let mut config = SimConfig::new(0, 10);
            config.capacity = capacity;
            match replayed(config, 8, &events) {
                Err(JournalError::Corrupt(m)) => assert!(m.contains(message), "{m}"),
                other => panic!("expected a corrupt journal for {message:?}, got {other:?}"),
            }
        }
        // A header window no run can have is refused before any event.
        let err = replayed(SimConfig::new(5, 3), 8, &[]).unwrap_err();
        assert!(
            err.to_string().contains("invalid simulation window"),
            "{err}"
        );
    }
}
