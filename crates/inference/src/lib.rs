//! `deepdive-inference`: incremental inference (§4.2 of the DeepDive paper).
//!
//! "Due to our choice of incremental grounding, the input to DeepDive's
//! inference phase is a factor graph along with a set of changed variables
//! and factors. [...] Our approach is to frame the incremental maintenance
//! problem as approximate inference."
//!
//! Two materialization strategies plus the rule-based optimizer that picks
//! between them:
//!
//! * [`SamplingMaterialization`] — store possible worlds (MCDB-style); on a
//!   delta, re-sample only the affected r-hop region of every stored world;
//! * [`MeanField`] — store variational marginals; on a delta, relax only the
//!   affected subgraph with a residual worklist;
//! * [`optimizer::choose`] — picks by factor-graph size, correlation
//!   sparsity, and anticipated number of future changes (the three axes the
//!   paper says the strategies are sensitive to).

pub mod meanfield;
pub mod optimizer;
pub mod sampling_mat;

pub use meanfield::{MeanField, MeanFieldOptions};
pub use optimizer::{choose, OptimizerRules, Strategy, WorkloadStats};
pub use sampling_mat::{SamplingMatOptions, SamplingMaterialization};
