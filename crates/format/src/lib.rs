//! Sparse feature-storage formats for mixed-precision node features.
//!
//! The paper's §V-B observes that no existing sparse representation handles
//! *fine-grained mixed-precision* features well: COO/CSR/Bitmap must store
//! every value at the *highest* bitwidth present, and fixed-length packing
//! wastes bits on padding (Fig. 9(c)). The **Adaptive-Package** format fixes
//! this with variable-length packages:
//!
//! ```text
//! | Mode (2b) | Bitwidth (3b) | Val Array (adaptive) |
//! ```
//!
//! where `Mode` selects a package length among three levels (default
//! 64/128/192 bits) and all values inside a package share one bitwidth.
//! Non-zero locations live in a separate per-node bitmap index.
//!
//! This crate provides:
//!
//! * [`QuantizedFeatureMap`] — the mixed-precision sparse input all formats
//!   consume;
//! * [`package`] — a bit-exact Adaptive-Package encoder/decoder;
//! * [`sizes`] — exact bit-level size accounting for Dense / COO / CSR /
//!   Bitmap / Adaptive-Package / Ideal (regenerates Fig. 4);
//! * [`dse`] — the package-length design-space exploration of Fig. 21;
//! * [`planes`] — the bit-plane combination kernels (plane walk at
//!   ≤ 2 bits, sparse level MACs at 3+ bits) and the tier-contiguous
//!   packed-at-rest feature store the serving engine executes against.

// The optional `avx2` feature compiles the plane kernels a second time
// under `#[target_feature]` (runtime-dispatched, scalar fallback always
// present); that recompile wrapper is the crate's only unsafe code, so the
// blanket forbid becomes a deny only when the feature is on.
#![cfg_attr(not(feature = "avx2"), forbid(unsafe_code))]
#![cfg_attr(feature = "avx2", deny(unsafe_code))]
#![warn(missing_docs)]

pub mod bits;
pub mod dse;
pub mod map;
pub mod package;
pub mod planes;
pub mod sizes;

pub use map::{QuantizedFeatureMap, QuantizedRow};
pub use package::{EncodedFeatures, PackageConfig};
pub use planes::{PlaneRow, TierPackedFeatures};
pub use sizes::{format_sizes, FormatSizes};
