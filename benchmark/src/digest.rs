//! Output digest: FNV-1a (64 bit, one 64-bit word per step) over every
//! `(element id, neighbour id, result bits)` triple in output order.
//!
//! Two outputs digest equal only when they list the same rows in the same
//! order with bitwise-equal `f64` results, so `+0.0`/`-0.0` and NaNs with
//! different payloads are told apart — the same notion of "identical" as
//! the repo's parity suites, at 8 bytes per run instead of a full copy.

use pmr_core::runner::PairwiseOutput;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a with whole 64-bit words as its symbols (one multiply
/// per word: digesting 17 M rows must not cost more than computing them).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(PRIME);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of rows given as `(element, [(neighbour, result)])`.
pub fn digest_rows<'a>(rows: impl IntoIterator<Item = (u64, &'a [(u64, f64)])>) -> u64 {
    let mut h = Fnv::new();
    for (element, row) in rows {
        for &(neighbour, result) in row {
            h.word(element);
            h.word(neighbour);
            h.word(result.to_bits());
        }
    }
    h.finish()
}

/// Digest of a runner output.
pub fn digest_output(output: &PairwiseOutput<f64>) -> u64 {
    digest_rows(output.per_element.iter().map(|(id, row)| (*id, row.as_slice())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rows: &[(u64, Vec<(u64, f64)>)]) -> u64 {
        digest_rows(rows.iter().map(|(id, row)| (*id, row.as_slice())))
    }

    #[test]
    fn order_sensitive() {
        let a = vec![(0, vec![(1, 1.0), (2, 2.0)]), (1, vec![(0, 1.0)])];
        let swapped_entries = vec![(0, vec![(2, 2.0), (1, 1.0)]), (1, vec![(0, 1.0)])];
        let swapped_rows = vec![(1, vec![(0, 1.0)]), (0, vec![(1, 1.0), (2, 2.0)])];
        assert_eq!(d(&a), d(&a.clone()));
        assert_ne!(d(&a), d(&swapped_entries));
        assert_ne!(d(&a), d(&swapped_rows));
    }

    #[test]
    fn bit_sensitive() {
        let with = |x: f64| d(&[(0, vec![(1, x)])]);
        assert_ne!(with(0.0), with(-0.0));
        let nan_a = f64::from_bits(0x7ff8_0000_0000_0001);
        let nan_b = f64::from_bits(0x7ff8_0000_0000_0002);
        assert!(nan_a.is_nan() && nan_b.is_nan());
        assert_ne!(with(nan_a), with(nan_b));
        assert_eq!(with(nan_a), with(nan_a));
        assert_ne!(with(1.0), with(1.0 + f64::EPSILON));
    }

    #[test]
    fn ids_are_part_of_the_digest() {
        assert_ne!(d(&[(0, vec![(1, 1.0)])]), d(&[(1, vec![(0, 1.0)])]));
        assert_ne!(d(&[(0, vec![(1, 1.0)])]), d(&[(0, vec![(2, 1.0)])]));
    }
}
