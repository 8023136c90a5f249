//! Baseline provisioning policies the SPES paper compares against
//! (Section V-A1): the fixed 10-minute keep-alive, the Hybrid histogram
//! policy of Shahrad et al. at function (HF) and application (HA)
//! granularity, Defuse's dependency-guided scheduler, and FaaSCache's
//! greedy-dual caching. All five implement [`spes_sim::Policy`] and run
//! under the same engine and metrics as SPES itself, and the clairvoyant
//! [`Oracle`] bounds them from above. Each is built by its row of the
//! policy registry in `spes_bench`.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod defuse;
pub mod faascache;
pub mod fixed;
pub mod hybrid;
pub mod oracle;

pub use defuse::Defuse;
pub use faascache::FaasCache;
pub use fixed::FixedKeepAlive;
pub use hybrid::{Granularity, HybridHistogram};
pub use oracle::Oracle;
