//! Finite-field arithmetic `GF(q)` for `q = p^k`, `p` prime.
//!
//! Projective planes of order `q` (paper §5.3, Theorem 1) exist for every
//! prime power `q`; constructing `PG(2, q)` needs arithmetic in `GF(q)`.
//!
//! Representation: an element of `GF(p^k)` is a polynomial of degree `< k`
//! over `GF(p)`, packed into a `u64` index in base `p`
//! (`c₀ + c₁·p + … + c_{k−1}·p^{k−1}`). For `k = 1` this degenerates to
//! plain modular arithmetic. Multiplication reduces modulo a monic
//! irreducible polynomial found by exhaustive search (orders used by the
//! schemes are small — `q ≈ √v`).
//!
//! For small extension fields (`k > 1`, `q ≤ 65 536`) construction also
//! precomputes **log/antilog tables** over a generator, turning
//! multiplication and inversion into table lookups — this is the hot path
//! of `PG(2, q)` plane construction (`O(q̂·q)` field ops).

use crate::poly::{self, Poly};
use crate::primes::{is_prime, prime_power};

/// A finite field `GF(p^k)`. Elements are `u64` indices in `0..q`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gf {
    p: u64,
    k: u32,
    q: u64,
    /// Monic irreducible polynomial of degree `k` over GF(p), used as the
    /// reduction modulus when `k > 1`. Coefficients low-to-high, length k+1.
    modulus: Vec<u64>,
    /// Log/antilog tables for small extension fields: `exp[i] = g^i`
    /// (length `q − 1`) and `log[x] = i` with `g^i = x` (`log[0]` unused).
    /// Empty when unavailable (`k = 1` or `q` too large).
    tables: Option<Box<LogTables>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct LogTables {
    exp: Vec<u32>,
    log: Vec<u32>,
}

impl Gf {
    /// Builds `GF(q)`. Panics if `q` is not a prime power.
    pub fn new(q: u64) -> Gf {
        let (p, k) = prime_power(q).unwrap_or_else(|| panic!("GF({q}): not a prime power"));
        let modulus = if k == 1 {
            vec![0, 1] // x (unused for k = 1)
        } else {
            poly::find_irreducible(p, k)
        };
        let mut gf = Gf { p, k, q, modulus, tables: None };
        if k > 1 && q <= 1 << 16 {
            gf.tables = Some(Box::new(gf.build_tables()));
        }
        gf
    }

    /// Builds exp/log tables by walking the powers of a generator using the
    /// (slow) polynomial multiplication once.
    fn build_tables(&self) -> LogTables {
        let g = self.generator_slow();
        let q = self.q;
        let mut exp = Vec::with_capacity(q as usize - 1);
        let mut log = vec![0u32; q as usize];
        let mut x = 1u64;
        for i in 0..q - 1 {
            exp.push(x as u32);
            log[x as usize] = i as u32;
            x = self.mul_poly(x, g);
        }
        debug_assert_eq!(x, 1, "generator order must be q - 1");
        LogTables { exp, log }
    }

    /// Builds the prime field `GF(p)`. Panics if `p` is not prime.
    pub fn prime(p: u64) -> Gf {
        assert!(is_prime(p), "GF({p}): not prime");
        Gf { p, k: 1, q: p, modulus: vec![0, 1], tables: None }
    }

    /// Field order `q = p^k`.
    #[inline]
    pub fn order(&self) -> u64 {
        self.q
    }

    /// Field characteristic `p`.
    #[inline]
    pub fn characteristic(&self) -> u64 {
        self.p
    }

    /// Extension degree `k`.
    #[inline]
    pub fn degree(&self) -> u32 {
        self.k
    }

    /// The reduction modulus (monic, degree `k`), meaningful when `k > 1`.
    pub fn modulus(&self) -> &[u64] {
        &self.modulus
    }

    /// Unpacks an element index into polynomial coefficients (length `k`).
    fn unpack(&self, mut x: u64) -> Poly {
        debug_assert!(x < self.q);
        let mut coeffs = Vec::with_capacity(self.k as usize);
        for _ in 0..self.k {
            coeffs.push(x % self.p);
            x /= self.p;
        }
        Poly::from_coeffs(coeffs)
    }

    /// Packs polynomial coefficients back into an element index.
    fn pack(&self, poly: &Poly) -> u64 {
        let mut x = 0u64;
        for &c in poly.coeffs().iter().rev() {
            x = x * self.p + c;
        }
        x
    }

    /// Addition in the field.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        if self.k == 1 {
            let s = a + b;
            if s >= self.p {
                s - self.p
            } else {
                s
            }
        } else {
            self.pack(&poly::add(&self.unpack(a), &self.unpack(b), self.p))
        }
    }

    /// Additive inverse.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        if self.k == 1 {
            if a == 0 {
                0
            } else {
                self.p - a
            }
        } else {
            self.pack(&poly::neg(&self.unpack(a), self.p))
        }
    }

    /// Subtraction in the field.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        self.add(a, self.neg(b))
    }

    /// Multiplication in the field.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        if self.k == 1 {
            return crate::primes::mul_mod(a, b, self.p);
        }
        if let Some(t) = &self.tables {
            if a == 0 || b == 0 {
                return 0;
            }
            let i = t.log[a as usize] as u64 + t.log[b as usize] as u64;
            return t.exp[(i % (self.q - 1)) as usize] as u64;
        }
        self.mul_poly(a, b)
    }

    /// Multiplication via polynomial arithmetic (always correct; used to
    /// bootstrap the tables and for very large extension fields).
    fn mul_poly(&self, a: u64, b: u64) -> u64 {
        let prod = poly::mul(&self.unpack(a), &self.unpack(b), self.p);
        let rem = poly::rem(&prod, &Poly::from_coeffs(self.modulus.clone()), self.p);
        self.pack(&rem)
    }

    /// Multiplicative inverse; panics on zero.
    pub fn inv(&self, a: u64) -> u64 {
        assert!(a != 0, "GF: inverse of zero");
        if let Some(t) = &self.tables {
            let i = t.log[a as usize] as u64;
            return t.exp[((self.q - 1 - i) % (self.q - 1)) as usize] as u64;
        }
        // a^(q-2) = a^{-1} in GF(q)*.
        self.pow(a, self.q - 2)
    }

    /// Exponentiation by square-and-multiply.
    pub fn pow(&self, mut a: u64, mut e: u64) -> u64 {
        let mut r = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                r = self.mul(r, a);
            }
            a = self.mul(a, a);
            e >>= 1;
        }
        r
    }

    /// Iterator over all field elements `0..q`.
    pub fn elements(&self) -> impl Iterator<Item = u64> {
        0..self.q
    }

    /// Finds a multiplicative generator (primitive element) of `GF(q)*`.
    pub fn generator(&self) -> u64 {
        if let Some(t) = &self.tables {
            return t.exp[1] as u64; // g¹
        }
        self.generator_slow()
    }

    fn generator_slow(&self) -> u64 {
        // Factor q - 1 by trial division (q is small in our use).
        let mut n = self.q - 1;
        let mut factors = Vec::new();
        let mut d = 2u64;
        while d * d <= n {
            if n.is_multiple_of(d) {
                factors.push(d);
                while n.is_multiple_of(d) {
                    n /= d;
                }
            }
            d += 1;
        }
        if n > 1 {
            factors.push(n);
        }
        'cand: for g in 1..self.q {
            for &f in &factors {
                if self.pow(g, (self.q - 1) / f) == 1 {
                    continue 'cand;
                }
            }
            return g;
        }
        unreachable!("every finite field has a primitive element")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_axioms(gf: &Gf) {
        let q = gf.order();
        // Exhaustive for tiny fields; sampled diagonals for larger ones.
        let elems: Vec<u64> = if q <= 16 {
            (0..q).collect()
        } else {
            (0..q).step_by((q / 16) as usize).chain([q - 1]).collect()
        };
        for &a in &elems {
            assert_eq!(gf.add(a, 0), a);
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.add(a, gf.neg(a)), 0);
            if a != 0 {
                assert_eq!(gf.mul(a, gf.inv(a)), 1, "a={a} in GF({q})");
            }
            for &b in &elems {
                assert_eq!(gf.add(a, b), gf.add(b, a));
                assert_eq!(gf.mul(a, b), gf.mul(b, a));
                for &c in &elems {
                    assert_eq!(gf.add(gf.add(a, b), c), gf.add(a, gf.add(b, c)));
                    assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
                    // Distributivity.
                    assert_eq!(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn gf2() {
        let gf = Gf::new(2);
        assert_eq!(gf.add(1, 1), 0);
        assert_eq!(gf.mul(1, 1), 1);
        field_axioms(&gf);
    }

    #[test]
    fn gf7_prime_field() {
        let gf = Gf::new(7);
        assert_eq!(gf.mul(3, 5), 1); // 15 mod 7
        assert_eq!(gf.inv(3), 5);
        assert_eq!(gf.sub(2, 5), 4);
        field_axioms(&gf);
    }

    #[test]
    fn gf4_extension() {
        let gf = Gf::new(4);
        assert_eq!(gf.characteristic(), 2);
        assert_eq!(gf.degree(), 2);
        field_axioms(&gf);
        // In GF(4) every element satisfies x⁴ = x.
        for x in gf.elements() {
            assert_eq!(gf.pow(x, 4), x);
        }
    }

    #[test]
    fn gf8_gf9_gf27_axioms() {
        for q in [8u64, 9, 27, 16, 25, 49] {
            let gf = Gf::new(q);
            field_axioms(&gf);
            for x in gf.elements() {
                assert_eq!(gf.pow(x, q), x, "Frobenius fixed point in GF({q})");
            }
        }
    }

    #[test]
    fn multiplicative_group_is_cyclic() {
        for q in [5u64, 8, 9, 13, 16, 27] {
            let gf = Gf::new(q);
            let g = gf.generator();
            let mut seen = vec![false; q as usize];
            let mut x = 1u64;
            for _ in 0..q - 1 {
                assert!(!seen[x as usize], "generator order too small in GF({q})");
                seen[x as usize] = true;
                x = gf.mul(x, g);
            }
            assert_eq!(x, 1, "generator order must be q-1");
        }
    }

    #[test]
    #[should_panic(expected = "not a prime power")]
    fn gf6_rejected() {
        let _ = Gf::new(6);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_has_no_inverse() {
        let gf = Gf::new(5);
        let _ = gf.inv(0);
    }
}
