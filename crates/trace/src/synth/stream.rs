//! Chunked/streaming synthetic trace production.
//!
//! [`super::generate`] materialises the whole workload before a
//! simulation can start: every per-function [`SparseSeries`], the
//! [`crate::Trace`] wrapper, and — once the engine calls
//! [`crate::Trace::slot_batches`] — a second, slot-major copy of every
//! event. At the paper's scale (hundreds to thousands of functions) that
//! is free; at the million-function scale it doubles the peak footprint.
//!
//! [`SynthStream`] produces the same workload **app chunk by app chunk**:
//! the population specs are drawn once (sequentially, as in `generate`),
//! then each application's series are generated from the same
//! order-independent per-function RNGs, pushed function-major into a
//! [`SlotBatches::builder`], and dropped before the next app begins.
//! Chained functions only ever read parents from their own app (parents
//! are earlier-index siblings), so an app chunk is self-contained.
//!
//! The builder buffers each day of the horizon as 8-byte `(slot, count)`
//! pairs plus per-function runs, then assembles the [`SlotBatches`]
//! active-set index — per-slot `(function, count)` batches, function id
//! ascending — one day block at a time, freeing each block's buffers as
//! it is placed. The build never holds the full series set, a `Trace`,
//! per-slot vectors, or a second full copy of the events: its peak is
//! about 9.5 bytes per event, where a flat function-major triple list
//! counting-sorted into the index peaked at about 20
//! (`tests/stream_memory.rs` bounds it at 12). On the 100k-function
//! quick shape (67.6M events) that took perfbench `scale-stream`'s peak
//! RSS from 1318 MiB to 623 MiB.
//!
//! The output is **bit-identical** to the materialised path: for every
//! slot, [`SynthStream::batch`] equals the corresponding
//! [`crate::Trace::slot_batches`] batch of [`super::generate`] run on
//! the same config (property-tested across scenarios and seeds in
//! `tests/stream_parity.rs`).
//!
//! ```
//! use spes_trace::synth::{stream::SynthStream, SynthConfig};
//!
//! let cfg = SynthConfig { n_functions: 40, days: 2, train_days: 1, ..SynthConfig::default() };
//! let stream = SynthStream::build(&cfg).expect("valid config");
//! let materialised = spes_trace::synth::generate(&cfg);
//! assert_eq!(stream.batches(), &materialised.trace.slot_batches(0, cfg.horizon()));
//! assert_eq!(stream.train_end(), materialised.train_end);
//! ```

use super::population::{self, FunctionSpec};
use super::{generate_chained_segments, generate_segments, SynthConfig};
use crate::model::{FunctionId, FunctionMeta, Slot, SlotBatches, SlotBatchesBuilder, SparseSeries};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Why a [`SynthStream`] could not be built. The materialised
/// [`super::generate`] panics on the same conditions; the streaming path
/// is the typed-error surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// `n_functions == 0`: nothing to generate.
    EmptyPopulation,
    /// The training prefix is longer than the trace itself.
    TrainBeyondHorizon {
        /// Requested training prefix in days.
        train_days: u32,
        /// Total trace length in days.
        days: u32,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyPopulation => write!(f, "empty population (n_functions == 0)"),
            Self::TrainBeyondHorizon { train_days, days } => write!(
                f,
                "training prefix of {train_days} days exceeds the {days}-day horizon"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// A synthetic workload produced app chunk by app chunk, held only as a
/// per-slot active-set index ([`SlotBatches`]) plus function metadata.
///
/// See the [module docs](self) for the memory contract and the
/// bit-equality guarantee against [`super::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthStream {
    n_slots: Slot,
    train_end: Slot,
    metas: Vec<FunctionMeta>,
    batches: SlotBatches,
}

impl SynthStream {
    /// Generates the workload for `config` chunk by chunk.
    ///
    /// # Errors
    /// [`StreamError::EmptyPopulation`] when `config.n_functions == 0`;
    /// [`StreamError::TrainBeyondHorizon`] when
    /// `config.train_days > config.days`.
    pub fn build(config: &SynthConfig) -> Result<Self, StreamError> {
        if config.n_functions == 0 {
            return Err(StreamError::EmptyPopulation);
        }
        if config.train_days > config.days {
            return Err(StreamError::TrainBeyondHorizon {
                train_days: config.train_days,
                days: config.days,
            });
        }
        let horizon = config.horizon();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let specs = population::build_population(config, &mut rng);

        // Apps occupy contiguous index ranges (the population generator
        // numbers them sequentially), so walking runs of equal `meta.app`
        // visits every function exactly once, in ascending index order:
        // function-major pushes, hence function-ascending batches.
        let mut builder = SlotBatches::builder(0, horizon);
        let mut lo = 0usize;
        while lo < specs.len() {
            let app = specs[lo].meta.app;
            let mut hi = lo + 1;
            while hi < specs.len() && specs[hi].meta.app == app {
                hi += 1;
            }
            push_app_chunk(&specs[lo..hi], lo, config.seed, &mut builder);
            lo = hi;
        }

        let batches = builder.finish();
        let metas = specs.into_iter().map(|s| s.meta).collect();
        Ok(Self {
            n_slots: horizon,
            train_end: config.train_end(),
            metas,
            batches,
        })
    }

    /// Exclusive upper bound of valid slots.
    #[must_use]
    pub fn n_slots(&self) -> Slot {
        self.n_slots
    }

    /// Training cutoff carried over from the generating config.
    #[must_use]
    pub fn train_end(&self) -> Slot {
        self.train_end
    }

    /// Number of functions in the population.
    #[must_use]
    pub fn n_functions(&self) -> usize {
        self.metas.len()
    }

    /// Per-function metadata, indexed by [`FunctionId`].
    #[must_use]
    pub fn metas(&self) -> &[FunctionMeta] {
        &self.metas
    }

    /// The per-slot active-set index over the whole horizon.
    #[must_use]
    pub fn batches(&self) -> &SlotBatches {
        &self.batches
    }

    /// The `(function, count)` invocation batch of one slot.
    #[must_use]
    pub fn batch(&self, slot: Slot) -> &[(FunctionId, u32)] {
        self.batches.batch(slot)
    }
}

/// Generates one app's series (two passes: non-chained, then chained
/// against their in-chunk parents) and pushes every event into the
/// slot-index builder. `lo` is the global index of `chunk[0]`.
fn push_app_chunk(chunk: &[FunctionSpec], lo: usize, seed: u64, builder: &mut SlotBatchesBuilder) {
    let mut local: Vec<SparseSeries> = vec![SparseSeries::new(); chunk.len()];
    for (off, spec) in chunk.iter().enumerate() {
        if spec.is_chained() {
            continue;
        }
        local[off] = generate_segments(spec, seed, (lo + off) as u64);
    }
    for (off, spec) in chunk.iter().enumerate() {
        if !spec.is_chained() {
            continue;
        }
        let chained =
            generate_chained_segments(spec, seed, (lo + off) as u64, &|p| &local[p.index() - lo]);
        local[off] = chained;
    }
    for (off, series) in local.iter().enumerate() {
        let f = FunctionId((lo + off) as u32);
        for &(slot, count) in series.events() {
            builder.push(f, slot, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::generate;

    #[test]
    fn rejects_empty_population() {
        let cfg = SynthConfig {
            n_functions: 0,
            ..SynthConfig::default()
        };
        assert_eq!(SynthStream::build(&cfg), Err(StreamError::EmptyPopulation));
    }

    #[test]
    fn rejects_train_beyond_horizon() {
        let cfg = SynthConfig {
            days: 2,
            train_days: 3,
            ..SynthConfig::default()
        };
        assert!(matches!(
            SynthStream::build(&cfg),
            Err(StreamError::TrainBeyondHorizon { .. })
        ));
    }

    #[test]
    fn matches_materialised_trace_on_default_shape() {
        let cfg = SynthConfig {
            n_functions: 150,
            days: 3,
            train_days: 2,
            ..SynthConfig::default()
        };
        let stream = SynthStream::build(&cfg).expect("valid config");
        let data = generate(&cfg);
        assert_eq!(stream.n_functions(), data.trace.n_functions());
        assert_eq!(stream.metas(), data.trace.metas.as_slice());
        assert_eq!(stream.train_end(), data.train_end);
        assert_eq!(
            stream.batches(),
            &data.trace.slot_batches(0, data.trace.n_slots)
        );
    }

    #[test]
    fn chained_functions_match_across_chunk_boundaries() {
        // chain-heavy maximises intra-app chaining, the case where an app
        // chunk must resolve parents locally.
        let mut cfg = crate::synth::scenario_config("chain-heavy").expect("registered scenario");
        cfg.n_functions = 200;
        cfg.days = 3;
        cfg.train_days = 2;
        let stream = SynthStream::build(&cfg).expect("valid config");
        let data = generate(&cfg);
        assert_eq!(
            stream.batches(),
            &data.trace.slot_batches(0, data.trace.n_slots)
        );
    }
}
