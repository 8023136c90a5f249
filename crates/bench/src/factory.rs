//! The one [`PolicyFactory`]: a [`crate::policies::REGISTRY`] row bound
//! to its SPES configuration, which is how every registered policy joins
//! a suite.

use crate::policies::RegisteredPolicy;
use spes_core::SpesConfig;
use spes_sim::suite::{CapacityRule, FitContext, PolicyFactory};
use spes_sim::Policy;

/// A registry row bound to its SPES configuration, as a
/// [`PolicyFactory`].
pub(crate) struct RowFactory {
    pub(crate) row: RegisteredPolicy,
    pub(crate) spes_cfg: SpesConfig,
}

impl PolicyFactory for RowFactory {
    fn name(&self) -> &'static str {
        self.row.name
    }

    fn build(&self, ctx: &FitContext) -> Box<dyn Policy> {
        (self.row.build)(ctx, &self.spes_cfg)
    }

    fn capacity_rule(&self) -> CapacityRule {
        self.row
            .capacity_donor
            .map_or(CapacityRule::Unlimited, CapacityRule::peak_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::REGISTRY;

    fn factories() -> impl Iterator<Item = RowFactory> {
        REGISTRY.into_iter().map(|row| RowFactory {
            row,
            spes_cfg: SpesConfig::default(),
        })
    }

    #[test]
    fn factory_names_match_built_policies() {
        let data = crate::scenario::Experiment::cell("quick", 25, 3, true)
            .unwrap()
            .generate();
        let ctx = FitContext {
            trace: &data.trace,
            train_start: 0,
            train_end: data.train_end,
            prior: &[],
        };
        for factory in factories() {
            assert_eq!(factory.name(), factory.row.name);
            assert_eq!(factory.build(&ctx).name(), factory.name());
        }
    }

    #[test]
    fn faascache_declares_the_spes_coupling() {
        for factory in factories() {
            let rule = if factory.name() == "faascache" {
                CapacityRule::peak_of("spes")
            } else {
                CapacityRule::Unlimited
            };
            assert_eq!(factory.capacity_rule(), rule, "{}", factory.name());
        }
    }
}
