//! # gpu-mem
//!
//! The GPU memory-hierarchy substrate: byte/line/granule address geometry,
//! a bandwidth- and latency-modelled crossbar, set-associative cache tag
//! arrays (L1D and LLC banks), and a DRAM channel timing model.
//!
//! Nothing here knows about transactional memory; the TM protocol crates
//! drive these components through plain state-machine interfaces, and the
//! `gputm` facade wires them into a full simulated GPU with the Table II
//! parameters of the GETM paper (15 SIMT cores, 6 memory partitions, two
//! 288 GB/s crossbars, GDDR5-like DRAM latencies).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod bank;
pub mod cache;
pub mod dram;
pub mod image;
pub mod xbar;

pub use addr::{partition_imbalance, Addr, Geometry, Granule, Interleave, LineAddr};
pub use bank::BankedMem;
pub use cache::{AccessKind, CacheConfig, CacheResult, SetAssocCache};
pub use dram::{DramChannel, DramConfig};
pub use image::MemImage;
pub use xbar::{Crossbar, Delivery, XbarConfig};
