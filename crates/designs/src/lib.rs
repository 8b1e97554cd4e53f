//! # pmr-designs — combinatorial design substrate
//!
//! Everything the *design distribution scheme* of
//! *Pairwise Element Computation with MapReduce* (Kiefer, Volk, Lehner;
//! HPDC 2010, §5.3) needs:
//!
//! * [`primes`] — exact primality / prime-power / integer-root arithmetic,
//!   including the paper's "smallest prime power `q` with `q² + q + 1 ≥ v`";
//! * [`poly`] + [`gf`] — polynomial and finite-field arithmetic `GF(p^k)`;
//! * [`mod@plane`] — projective planes of order `q`: the paper's Theorem 2
//!   construction (prime `q`) and classical `PG(2, q)` (all prime powers),
//!   plus the truncated "design-like" structure for arbitrary `v`;
//! * [`design`] — the `(v, k, 1)`-design type with exact verification of the
//!   *every-pair-in-exactly-one-block* property that makes the distribution
//!   scheme correct;
//! * [`quorum`] — difference covers of `Z_v` (Singer when optimal, a
//!   Wichmann ruler otherwise), the substrate of the cyclic-quorum
//!   distribution scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod gf;
pub mod plane;
pub mod poly;
pub mod primes;
pub mod quorum;
pub mod singer;

pub use design::{BlockDesign, DesignError};
pub use gf::Gf;
pub use plane::{pg2, plane, theorem2, truncated_plane};
pub use primes::{is_prime, is_prime_power, plane_size, prime_power, smallest_plane_order};
pub use quorum::{difference_cover, difference_cover_size, is_difference_cover};
pub use singer::{is_perfect_difference_set, singer, singer_difference_set};
