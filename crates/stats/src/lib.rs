//! Statistics substrate for the SPES reproduction.
//!
//! Every quantitative rule in the SPES scheduler bottoms out in one of a
//! handful of elementary statistics over *waiting-time* (WT) sequences:
//! percentiles (`P95(WT) - P5(WT) <= 1` for "regular" functions), the
//! coefficient of variation (`CV(WT) <= 0.01`), mode frequency tables
//! ("appro-regular" and "dense" predictive values), and fixed-bin idle-time
//! histograms (the Hybrid and Defuse baselines). The preliminary empirical
//! analysis of the paper (Section III) additionally needs one-sample
//! Kolmogorov-Smirnov tests to check timer periodicity and Poisson arrival
//! hypotheses.
//!
//! This crate provides those primitives with no dependencies, so that the
//! scheduler crates stay focused on policy logic.

#![forbid(unsafe_code)]

pub mod descriptive;
pub mod histogram;
pub mod kstest;
pub mod modes;
pub mod online;

pub use descriptive::{
    coefficient_of_variation, mean, percentile, percentile_sorted, stddev, Summary,
};
pub use histogram::Histogram;
pub use kstest::{ks_statistic, ks_test_poisson, ks_test_uniform_interarrival, KsOutcome};
pub use modes::{mode_table, mode_table_sorted, top_modes, ModeEntry};
pub use online::OnlineStats;
