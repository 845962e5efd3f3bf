//! Multivariate Gaussian mixture models for similarity-vector distributions.
//!
//! SERD (paper Section IV-A) follows ZeroER and models the matching
//! (`M`-) and non-matching (`N`-) similarity-vector distributions as
//! multivariate GMMs, learned by EM (Eq. 4–6) with the component count chosen
//! by AIC. The overall `O`-distribution is the `π`-weighted mixture of the
//! two ([`OMixture`]).
//!
//! Beyond fitting, this crate implements the paper's machinery around the
//! mixtures:
//!
//! * posterior match probability `P_m(x)` (Section IV-C, used for labeling),
//! * sampling similarity vectors from the `O`-distribution (step S2-2),
//! * **incremental sufficient-statistics updates** (Eq. 8–9) so the rejection
//!   test does not refit from scratch for every synthesized entity,
//! * Monte-Carlo **Jensen–Shannon divergence** between two `O`-distributions
//!   (Eq. 3 / Eq. 10).

mod em;
mod gaussian;
pub mod io;
mod mixture;
mod model;

pub use em::SuffStats;
pub use gaussian::Gaussian;
pub use mixture::OMixture;
pub use model::{Gmm, GmmConfig};

/// Errors from mixture-model routines.
#[derive(Debug, Clone, PartialEq)]
pub enum GmmError {
    /// No data points were provided.
    EmptyData,
    /// Data points have inconsistent dimensionality.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Observed dimensionality.
        got: usize,
    },
    /// Too few points to fit the requested number of components.
    TooFewPoints {
        /// Points provided.
        points: usize,
        /// Components requested.
        components: usize,
    },
    /// An underlying linear-algebra failure that regularization couldn't fix.
    Linalg(linalg::LinalgError),
}

impl std::fmt::Display for GmmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GmmError::EmptyData => write!(f, "no data points provided"),
            GmmError::DimensionMismatch { expected, got } => {
                write!(f, "point has dimension {got}, expected {expected}")
            }
            GmmError::TooFewPoints { points, components } => {
                write!(f, "{points} points cannot support {components} components")
            }
            GmmError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for GmmError {}

impl From<linalg::LinalgError> for GmmError {
    fn from(e: linalg::LinalgError) -> Self {
        GmmError::Linalg(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GmmError>;

/// Numerically stable `log(sum(exp(xs)))`.
pub(crate) fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() {
        return m;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}
