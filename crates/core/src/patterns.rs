//! Function types and predictive values (Table I plus the indeterminate
//! assignments of Section IV-B).

use serde::{Deserialize, Serialize};
use spes_trace::Slot;

/// The SPES function taxonomy.
///
/// The first five are the deterministic types of Table I, in priority
/// order; the next three come from indeterminate assignment; `Unknown`
/// covers functions with no usable history; `NewlyPossible` is the online
/// re-categorisation the paper reports in Fig. 10 as "newly-possible".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionType {
    /// Almost always invoked; kept permanently loaded.
    AlwaysWarm,
    /// Near-constant waiting times; predicted by the WT median.
    Regular,
    /// Top-n WT modes cover the sequence; predicted by those modes.
    ApproRegular,
    /// Frequent with small WTs; held across short idles.
    Dense,
    /// Long idle + multi-slot bursts; first burst invocation tolerated
    /// cold, then kept until the wave ends.
    Successive,
    /// Weak temporal locality; kept warm for a longer give-up window.
    Pulsed,
    /// Predicted by linked functions' invocations (T-lagged COR).
    Correlated,
    /// Infrequent but with a repeated WT used as predictive value.
    Possible,
    /// No usable pattern; cold starts are tolerated.
    Unknown,
    /// An unknown/unseen function re-categorised online from fresh WTs.
    NewlyPossible,
}

impl FunctionType {
    /// All types in report order.
    pub const ALL: [FunctionType; 10] = [
        FunctionType::Unknown,
        FunctionType::AlwaysWarm,
        FunctionType::Regular,
        FunctionType::ApproRegular,
        FunctionType::Dense,
        FunctionType::Successive,
        FunctionType::Pulsed,
        FunctionType::Correlated,
        FunctionType::Possible,
        FunctionType::NewlyPossible,
    ];

    /// Stable label used in figures and per-type metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FunctionType::AlwaysWarm => "always-warm",
            FunctionType::Regular => "regular",
            FunctionType::ApproRegular => "appro-regular",
            FunctionType::Dense => "dense",
            FunctionType::Successive => "successive",
            FunctionType::Pulsed => "pulsed",
            FunctionType::Correlated => "correlated",
            FunctionType::Possible => "possible",
            FunctionType::Unknown => "unknown",
            FunctionType::NewlyPossible => "newly-possible",
        }
    }

    /// Whether the type is one of the five deterministic Table I types.
    #[must_use]
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            FunctionType::AlwaysWarm
                | FunctionType::Regular
                | FunctionType::ApproRegular
                | FunctionType::Dense
                | FunctionType::Successive
        )
    }
}

/// Predictive values attached to a categorised function (Table I, last
/// column), from which the next invocation time is predicted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictiveValues {
    /// No prediction (always-warm, successive, pulsed, correlated,
    /// unknown).
    None,
    /// Discrete candidate WT values: the next invocation is predicted at
    /// `last_invocation + value + 1` for each value.
    Discrete(Vec<u32>),
    /// A continuous WT range `[lo, hi]`: the next invocation is predicted
    /// anywhere in `last_invocation + lo + 1 ..= last_invocation + hi + 1`.
    Range(u32, u32),
}

impl PredictiveValues {
    /// Whether there is anything to predict from.
    #[must_use]
    pub fn is_none(&self) -> bool {
        match self {
            PredictiveValues::None => true,
            PredictiveValues::Discrete(v) => v.is_empty(),
            PredictiveValues::Range(..) => false,
        }
    }

    /// Predicted invocation slots given the last invocation slot. For a
    /// range the two endpoints are returned; the provisioner holds the
    /// instance across the whole span.
    #[must_use]
    pub fn predicted_slots(&self, last_invoked: Slot) -> Vec<Slot> {
        match self {
            PredictiveValues::None => Vec::new(),
            PredictiveValues::Discrete(values) => values
                .iter()
                .map(|&v| last_invoked.saturating_add(v).saturating_add(1))
                .collect(),
            PredictiveValues::Range(lo, hi) => {
                vec![
                    last_invoked.saturating_add(*lo).saturating_add(1),
                    last_invoked.saturating_add(*hi).saturating_add(1),
                ]
            }
        }
    }

    /// The span `[first, last]` of predicted slots, if any.
    #[must_use]
    pub fn predicted_span(&self, last_invoked: Slot) -> Option<(Slot, Slot)> {
        match self {
            PredictiveValues::None => None,
            PredictiveValues::Discrete(values) => {
                let min = values.iter().min()?;
                let max = values.iter().max()?;
                Some((
                    last_invoked.saturating_add(*min).saturating_add(1),
                    last_invoked.saturating_add(*max).saturating_add(1),
                ))
            }
            PredictiveValues::Range(lo, hi) => Some((
                last_invoked.saturating_add(*lo).saturating_add(1),
                last_invoked.saturating_add(*hi).saturating_add(1),
            )),
        }
    }
}

/// A categorisation outcome: the type plus its predictive values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Categorized {
    /// Assigned function type.
    pub ty: FunctionType,
    /// Predictive values for invocation prediction.
    pub values: PredictiveValues,
}

impl Categorized {
    /// Convenience constructor.
    #[must_use]
    pub fn new(ty: FunctionType, values: PredictiveValues) -> Self {
        Self { ty, values }
    }

    /// A categorisation with no predictive values.
    #[must_use]
    pub fn plain(ty: FunctionType) -> Self {
        Self {
            ty,
            values: PredictiveValues::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_unique() {
        let labels: std::collections::BTreeSet<_> =
            FunctionType::ALL.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), FunctionType::ALL.len());
    }

    #[test]
    fn deterministic_flags() {
        assert!(FunctionType::Regular.is_deterministic());
        assert!(FunctionType::Successive.is_deterministic());
        assert!(!FunctionType::Pulsed.is_deterministic());
        assert!(!FunctionType::Unknown.is_deterministic());
    }

    #[test]
    fn discrete_prediction_offsets() {
        // A WT of v means the next invocation is v idle slots after the
        // last one, i.e. at last + v + 1.
        let p = PredictiveValues::Discrete(vec![9, 29]);
        assert_eq!(p.predicted_slots(100), vec![110, 130]);
        assert_eq!(p.predicted_span(100), Some((110, 130)));
    }

    #[test]
    fn range_prediction_span() {
        let p = PredictiveValues::Range(1, 5);
        assert_eq!(p.predicted_slots(10), vec![12, 16]);
        assert_eq!(p.predicted_span(10), Some((12, 16)));
    }

    #[test]
    fn none_prediction() {
        assert!(PredictiveValues::None.is_none());
        assert!(PredictiveValues::Discrete(vec![]).is_none());
        assert!(!PredictiveValues::Range(0, 0).is_none());
        assert!(PredictiveValues::None.predicted_slots(5).is_empty());
        assert_eq!(PredictiveValues::None.predicted_span(5), None);
    }

    #[test]
    fn saturating_at_slot_max() {
        let p = PredictiveValues::Discrete(vec![u32::MAX]);
        assert_eq!(p.predicted_slots(10), vec![u32::MAX]);
    }
}
