//! SPES: a differentiated scheduler for provisioning runtime serverless
//! functions (ICDE 2024) — the paper's primary contribution.
//!
//! SPES mitigates the cold-start problem by categorising functions from
//! their historical invocation patterns and provisioning each category
//! with a bespoke pre-warm/evict strategy:
//!
//! 1. [`categorize`] — the five deterministic types of Table I
//!    (always-warm, regular, appro-regular, dense, successive) with the
//!    WT [`slacking`] rules;
//! 2. [`forgetting`] + [`indeterminate`] — day-sliced re-checks and the
//!    pulsed / correlated / possible assignment via validation scoring;
//! 3. [`correlation`] — the (T-lagged) co-occurrence rate linking
//!    functions within an application/user;
//! 4. [`adaptive`] + [`online_corr`] — concept-shift handling: online
//!    predictive-value adjustment over each function's [`WtWindow`] and
//!    unseen-function correlation;
//! 5. [`provision`] — Algorithm 1, exposed as a [`spes_sim::Policy`].
//!
//! ```
//! use spes_core::{SpesConfig, SpesPolicy};
//! use spes_sim::{try_simulate, SimConfig};
//! use spes_trace::synth;
//!
//! let data = synth::small_test_trace(50, 42);
//! let train_end = 12 * spes_trace::SLOTS_PER_DAY;
//! let mut policy = SpesPolicy::fit(&data.trace, 0, train_end, SpesConfig::default());
//! let result = try_simulate(&data.trace, &mut policy, SimConfig::new(train_end, data.trace.n_slots)).unwrap();
//! println!("Q3-CSR = {:?}", result.csr_percentile(75.0));
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod adaptive;
pub mod categorize;
pub mod config;
pub mod correlation;
pub mod forgetting;
pub mod indeterminate;
pub mod online_corr;
pub mod patterns;
pub mod provision;
pub mod slacking;
pub mod window;

pub use config::SpesConfig;
pub use correlation::{best_lagged_cor, cor, lagged_cor, windowed_cor, Link};
pub use patterns::{Categorized, FunctionType, PredictiveValues};
pub use provision::{FitStats, OnlineStatsCounters, SpesPolicy};
pub use window::WtWindow;
