//! SPES configuration: the values a figure varies.
//!
//! Defaults follow the paper's experiment settings (Section V-A2). The
//! config holds only what the Fig. 13 sensitivity sweeps and the
//! Figs. 14/15 ablations change; every other threshold is a named constant
//! next to the rule that reads it — Table I's in [`crate::categorize`],
//! the slacking tolerances in [`crate::slacking`], the give-up and
//! correlation thresholds in [`crate::provision`] — and its doc comment
//! states how the paper's wording was resolved where it leaves the value
//! open.

use crate::provision::{THETA_GIVENUP_DEFAULT, THETA_GIVENUP_DENSE, THETA_GIVENUP_PULSED};

/// The configurable part of the SPES scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct SpesConfig {
    /// Pre-warm half-window θprewarm: pre-load when a predicted invocation
    /// falls within `[t - θ, t + θ]` (paper: 2; the Fig. 13a sweep).
    pub theta_prewarm: u32,
    /// Multiplier applied to all give-up thresholds (the Fig. 13b sweep).
    pub givenup_scaler: u32,

    // -------- ablation switches (Section V-E) --------
    /// Enable the "correlated" assignment during training (w/o Corr when
    /// false).
    pub enable_correlated: bool,
    /// Enable the online-correlation strategy for unseen functions
    /// (w/o Online-Corr when false).
    pub enable_online_corr: bool,
    /// Enable the forgetting strategy (w/o Forgetting when false).
    pub enable_forgetting: bool,
    /// Enable adaptive predictive-value adjusting (w/o Adjusting when
    /// false).
    pub enable_adjusting: bool,
}

impl Default for SpesConfig {
    fn default() -> Self {
        Self {
            theta_prewarm: 2,
            givenup_scaler: 1,
            enable_correlated: true,
            enable_online_corr: true,
            enable_forgetting: true,
            enable_adjusting: true,
        }
    }
}

impl SpesConfig {
    /// Effective give-up threshold (including the Fig. 13b scaler) for a
    /// function type label.
    #[must_use]
    pub fn givenup_for(&self, ty: crate::patterns::FunctionType) -> u32 {
        use crate::patterns::FunctionType as T;
        let base = match ty {
            T::Dense => THETA_GIVENUP_DENSE,
            T::Pulsed => THETA_GIVENUP_PULSED,
            _ => THETA_GIVENUP_DEFAULT,
        };
        base.saturating_mul(self.givenup_scaler.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::FunctionType;
    use crate::provision::{COR_MAX_LAG, COR_THRESHOLD};

    #[test]
    fn default_matches_paper_settings() {
        let c = SpesConfig::default();
        assert_eq!(c.theta_prewarm, 2);
        assert_eq!(THETA_GIVENUP_DENSE, 5);
        assert_eq!(THETA_GIVENUP_PULSED, 5);
        assert_eq!(THETA_GIVENUP_DEFAULT, 1);
        assert_eq!(COR_THRESHOLD, 0.5);
        assert_eq!(COR_MAX_LAG, 10);
    }

    #[test]
    fn givenup_per_type_and_scaler() {
        let mut c = SpesConfig::default();
        assert_eq!(c.givenup_for(FunctionType::Dense), 5);
        assert_eq!(c.givenup_for(FunctionType::Pulsed), 5);
        assert_eq!(c.givenup_for(FunctionType::Regular), 1);
        assert_eq!(c.givenup_for(FunctionType::Unknown), 1);
        c.givenup_scaler = 3;
        assert_eq!(c.givenup_for(FunctionType::Dense), 15);
        assert_eq!(c.givenup_for(FunctionType::Regular), 3);
    }
}
