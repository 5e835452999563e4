//! # schism-ml
//!
//! The machine-learning substrate the Schism paper obtains from Weka \[9\]:
//! a C4.5-style decision tree (Weka's J48), rule extraction, stratified
//! cross-validation, and correlation-based feature selection (CFS).
//!
//! The explanation phase of Schism (§4.3, §5.2) trains a decision tree that
//! maps tuple attribute values to partition labels, prunes it aggressively,
//! validates it with cross-validation, and reads the leaves back as range
//! predicates. Every attribute value reaches it as an `i64`, so every
//! attribute is ordered: a split is a threshold and a rule is a conjunction
//! of inclusive ranges. J48's multiway splits on nominal attributes have no
//! input here and are not implemented.
//!
//! ```
//! use schism_ml::{DatasetBuilder, DecisionTree, TreeConfig, extract_rules};
//!
//! let mut b = DatasetBuilder::new().numeric("s_i_id").numeric("s_w_id");
//! for i in 0..50 {
//!     b.row(&[i, 1], 0); // warehouse 1 -> partition 0
//!     b.row(&[i, 2], 1); // warehouse 2 -> partition 1
//! }
//! let ds = b.build();
//! let tree = DecisionTree::train(&ds, &TreeConfig::default());
//! let rules = extract_rules(&tree);
//! assert_eq!(rules.len(), 2); // "s_w_id <= 1 -> 0", "s_w_id >= 2 -> 1"
//! ```

pub mod cfs;
pub mod crossval;
pub mod dataset;
pub mod discretize;
pub mod entropy;
pub mod prune;
pub mod rules;
pub mod tree;

pub use cfs::{cfs_select, CfsResult};
pub use crossval::{cross_validate, CvResult};
pub use dataset::{Attribute, Dataset, DatasetBuilder};
pub use rules::{extract_rules, Cond, Rule};
pub use tree::{DecisionTree, Node, NodeStats, TreeConfig};
