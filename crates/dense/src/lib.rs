//! Dense matrices, blocked partitioning, and local GEMM kernels.
//!
//! Every distributed algorithm in the paper decomposes the global
//! `n × n` matrices into sub-blocks, row groups, or column groups, ships
//! those around a hypercube, and multiplies the local pieces. This crate
//! supplies:
//!
//! * [`Matrix`] — an owned row-major `f64` matrix, with fallible
//!   constructors ([`AllocError`]) and the workspace's seeded generator
//!   ([`splitmix64`]),
//! * [`gemm`] — local multiplication kernels (naive `ijk`, cache-friendly
//!   `ikj`, tiled, and the packed register-tiled fast path), all with
//!   accumulate (`C += A·B`) forms,
//! * [`pack`] / [`microkernel`] / [`pool`] — the packed kernel's panel
//!   layouts, runtime-dispatched register-tiled microkernels (AVX2+FMA
//!   `6×8` with a portable `4×8` fallback), and in-tree thread/buffer
//!   pools,
//! * [`tune`] — cache detection, blocking-parameter sweeps, and the
//!   persisted tuning file behind `cubemm tune-kernel`,
//! * [`partition`] — the exact block/group layouts the paper's algorithms
//!   assume initially (Figures 1, 8, 9) and their inverses for
//!   reassembling distributed results.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod abft;
pub mod gemm;
pub mod matrix;
pub mod microkernel;
pub mod pack;
pub mod partition;
pub mod pool;
pub mod tune;

pub use matrix::{splitmix64, AllocError, Matrix};
