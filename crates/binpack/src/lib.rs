//! Variable-sized bin packing for Willow's migration planner (paper §IV-F).
//!
//! Matching power demands with surpluses "reduces to the classical bin
//! packing problem. The surpluses available in different nodes form the
//! bins. The bins are variable sized and the demands need to be fitted in
//! them." The paper picks the FFDLR scheme of Friesen & Langston — simple,
//! `O(n log n)`, with a guaranteed bound of `(3/2)·OPT + 1` — because its
//! final repacking step "into the smallest possible bins" tries to run every
//! server at full utilization so emptied servers can be deactivated during
//! consolidation.
//!
//! The paper's `O(n log n)` is the cost of sorting items and bins. Here
//! only the items are sorted: FFDLR and FFD heapify the bins and open
//! them in capacity order only as far as the items need, and FFDLR's
//! repack selects its bins instead of sorting them. A controller instance
//! (a few deficits offered to thousands of surpluses) therefore costs a
//! few linear passes over its bins; [`ffdlr`] gives the bound.
//!
//! This crate implements FFDLR plus the classic baselines (First-Fit
//! Decreasing, Best-Fit Decreasing, Next-Fit) behind one [`Packer`] trait,
//! selected by [`PackerStrategy`], and an exact brute-force reference for
//! small instances. All packers are deterministic, and all run through one
//! entry point, [`Packer::pack_into`], which writes into caller-owned
//! buffers ([`PackScratch`] and an assignment vector) and returns at once
//! when no item can fit any bin.
//!
//! Sizes are plain non-negative `f64`s — callers normalize from watts; the
//! algorithms never assume unit bins except where the underlying guarantee
//! requires normalization (handled internally).
//!
//! # Example
//!
//! ```
//! use willow_binpack::{Ffdlr, PackScratch, Packer};
//!
//! // Demands of 30, 20 and 10 W must fit into surpluses of 35 and 30 W.
//! let packing = Ffdlr.pack(&[30.0, 20.0, 10.0], &[35.0, 30.0]);
//! assert!(packing.unplaced.is_empty());
//! assert!(packing.is_valid(&[30.0, 20.0, 10.0], &[35.0, 30.0]));
//!
//! // The same through reused buffers; a 40 W demand fits no surplus.
//! let (mut scratch, mut assignment) = (PackScratch::default(), Vec::new());
//! Ffdlr.pack_into(&[30.0, 20.0, 10.0], &[35.0, 30.0], &mut scratch, &mut assignment);
//! assert_eq!(assignment, packing.assignment);
//! Ffdlr.pack_into(&[40.0], &[35.0, 30.0], &mut scratch, &mut assignment);
//! assert_eq!(assignment, vec![None]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod exact;
pub mod ffdlr;
pub mod packing;
pub mod select;

pub use baselines::{BestFitDecreasing, FirstFitDecreasing, NextFit};
pub use exact::optimal_bins_used;
pub use ffdlr::Ffdlr;
pub use packing::{PackScratch, Packer, Packing, FIT_EPSILON};
pub use select::{packer_for, PackerStrategy};
