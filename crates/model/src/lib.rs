//! The black-box storage performance model of the paper's §4.
//!
//! The model predicts a device's latency `PP = f(WC)` from six workload
//! characteristics (Eq. 2): write ratio, outstanding I/Os, request size,
//! write randomness, read randomness and free-space ratio. It is trained on
//! observed `(WC, latency)` samples collected *without* memory-bus
//! interference (or on non-NVDIMM devices, where none exists), and the bus
//! contention is then estimated online as `BC = MP − PP` (Eq. 3): the gap
//! between the measured latency and the contention-free prediction.
//!
//! The implementation follows §4.4: a CART-style **regression tree** built
//! by recursively choosing the split that minimizes the residual deviation
//! (RMSD) of the leaves, with either constant or **multiple linear
//! regression** leaf models.
//!
//! # Examples
//!
//! ```
//! use nvhsm_model::{Dataset, Features, PerfModel, Sample};
//!
//! let mut data = Dataset::new();
//! for i in 0..100 {
//!     let f = Features { oios: i as f64, ..Features::default() };
//!     data.push(Sample { features: f, latency_us: 10.0 + 2.0 * i as f64 });
//! }
//! let model = PerfModel::train(&data);
//! let pred = model.predict(&Features { oios: 50.0, ..Features::default() });
//! assert!((pred - 110.0).abs() < 15.0);
//! ```

pub mod aggregation;
pub mod contention;
pub mod features;
pub mod linreg;
pub mod metrics;
pub mod regtree;

pub use aggregation::AggregationModel;
pub use contention::ContentionEstimator;
pub use features::{Dataset, Features, Sample, FEATURE_NAMES, NUM_FEATURES};
pub use linreg::LinearRegression;
pub use metrics::{mape, r2, rmse};
pub use regtree::{FlatTree, LeafModel, RegTreeConfig, RegressionTree};

use serde::{Deserialize, Serialize};

/// The trained device performance model: a regression tree over the Eq. 2
/// feature vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfModel {
    tree: RegressionTree,
}

impl PerfModel {
    /// Trains with default tree settings (linear-regression leaves).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset) -> Self {
        Self::train_with(data, &RegTreeConfig::default())
    }

    /// Trains with explicit tree settings.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train_with(data: &Dataset, cfg: &RegTreeConfig) -> Self {
        PerfModel {
            tree: RegressionTree::fit(data.samples(), cfg),
        }
    }

    /// Predicted latency (µs) for a workload-characteristics vector — the
    /// `PP` of Eq. 1.
    pub fn predict(&self, features: &Features) -> f64 {
        self.tree.predict(features)
    }

    /// The underlying tree (introspection: depth, first split, …).
    pub fn tree(&self) -> &RegressionTree {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_learns_additive_structure() {
        let mut data = Dataset::new();
        for w in 0..10 {
            for o in 0..10 {
                let f = Features {
                    wr_ratio: w as f64 / 10.0,
                    oios: o as f64,
                    ..Features::default()
                };
                data.push(Sample {
                    features: f,
                    latency_us: 5.0 + 30.0 * f.wr_ratio + 4.0 * f.oios,
                });
            }
        }
        let model = PerfModel::train(&data);
        let probe = Features {
            wr_ratio: 0.45,
            oios: 4.5,
            ..Features::default()
        };
        let pred = model.predict(&probe);
        let truth = 5.0 + 30.0 * 0.45 + 4.0 * 4.5;
        assert!(
            (pred - truth).abs() / truth < 0.15,
            "pred {pred} truth {truth}"
        );
    }
}
