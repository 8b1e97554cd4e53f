//! Primality, prime-power detection, and integer-root utilities.
//!
//! The design distribution scheme (paper §5.3) needs the smallest prime power
//! `q` such that `q² + q + 1 ≥ v`. Everything here is exact integer
//! arithmetic — the feasibility analysis in `pmr-core` depends on these
//! routines never being off by one.

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
///
/// Uses the well-known deterministic witness set
/// `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}` which is sufficient for all
/// 64-bit integers.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    // n is odd and > 37 here.
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Modular multiplication `a·b mod m` without overflow (via `u128`).
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation `a^e mod m` by square-and-multiply.
pub fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut r = 1u64;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            r = mul_mod(r, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    r
}

/// The smallest prime strictly greater than `n`.
pub fn next_prime(n: u64) -> u64 {
    let mut c = n + 1;
    if c <= 2 {
        return 2;
    }
    if c.is_multiple_of(2) {
        c += 1;
    }
    while !is_prime(c) {
        c += 2;
    }
    c
}

/// Exact integer square root: the largest `r` with `r² ≤ n`.
pub fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    // f64 sqrt gives a good initial guess; correct it exactly.
    let mut r = (n as f64).sqrt() as u64;
    // Guard against floating error in either direction.
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    r
}

/// Exact integer square root over `u128`: the largest `r` with `r² ≤ n`.
///
/// The feasibility analysis needs this for byte products above `2^53`,
/// where `f64::sqrt` can no longer represent the operand exactly.
pub fn isqrt128(n: u128) -> u128 {
    if n < 2 {
        return n;
    }
    // Newton's method from an over-estimate (`2^(⌊log₂ n⌋/2 + 1) ≥ √n`);
    // with integer division the iterates decrease monotonically to ⌊√n⌋.
    let mut x = 1u128 << (n.ilog2() / 2 + 1);
    loop {
        let y = (x + n / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Exact integer k-th root: the largest `r` with `r^k ≤ n`.
pub fn ikroot(n: u64, k: u32) -> u64 {
    assert!(k >= 1);
    if k == 1 || n <= 1 {
        return n;
    }
    let mut r = (n as f64).powf(1.0 / k as f64).round() as u64;
    let pow = |b: u64| -> Option<u64> {
        let mut acc: u64 = 1;
        for _ in 0..k {
            acc = acc.checked_mul(b)?;
        }
        Some(acc)
    };
    while r > 0 && pow(r).is_none_or(|p| p > n) {
        r -= 1;
    }
    while pow(r + 1).is_some_and(|p| p <= n) {
        r += 1;
    }
    r
}

/// If `n = p^k` for a prime `p` and `k ≥ 1`, returns `Some((p, k))`.
///
/// `prime_power(1)` is `None` (1 is not a prime power).
pub fn prime_power(n: u64) -> Option<(u64, u32)> {
    if n < 2 {
        return None;
    }
    // The exponent is at most log2(n); try largest k first so we report the
    // canonical (p, k) with p prime.
    let max_k = 63 - n.leading_zeros();
    for k in (1..=max_k.max(1)).rev() {
        let r = ikroot(n, k);
        let mut acc: u64 = 1;
        let mut ok = true;
        for _ in 0..k {
            match acc.checked_mul(r) {
                Some(v) => acc = v,
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && acc == n && is_prime(r) {
            return Some((r, k));
        }
    }
    None
}

/// True iff `n` is a prime power `p^k`, `k ≥ 1`.
pub fn is_prime_power(n: u64) -> bool {
    prime_power(n).is_some()
}

/// Number of points/blocks of a projective plane of order `q`: `q² + q + 1`.
#[inline]
pub fn plane_size(q: u64) -> u64 {
    q * q + q + 1
}

/// The smallest prime power `q` such that `q² + q + 1 ≥ v` (paper §5.3:
/// "the projective plane of the smallest prime q such that q̂ ≥ v").
///
/// For `v ≤ 3` this returns `q = 2` (the Fano plane is the smallest
/// projective plane).
pub fn smallest_plane_order(v: u64) -> u64 {
    // q² + q + 1 ≥ v  ⟺  q ≥ (−1 + √(4v − 3)) / 2.
    let lower = if v <= 3 {
        2
    } else {
        let s = isqrt(4 * v - 3);
        // ceil((s - 1) / 2), adjusted exactly below.
        ((s.saturating_sub(1)) / 2).max(2)
    };
    let mut q = lower;
    while plane_size(q) < v {
        q += 1;
    }
    // q is now ≥ the real bound; walk up to the next prime power.
    loop {
        if is_prime_power(q) && plane_size(q) >= v {
            return q;
        }
        q += 1;
    }
}

/// Simple sieve of Eratosthenes; returns all primes `≤ n`.
pub fn sieve(n: usize) -> Vec<u64> {
    if n < 2 {
        return Vec::new();
    }
    let mut composite = vec![false; n + 1];
    let mut primes = Vec::new();
    for i in 2..=n {
        if !composite[i] {
            primes.push(i as u64);
            let mut j = i * i;
            while j <= n {
                composite[j] = true;
                j += i;
            }
        }
    }
    primes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let known = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43];
        for n in 0..45u64 {
            assert_eq!(is_prime(n), known.contains(&n), "n={n}");
        }
    }

    #[test]
    fn sieve_agrees_with_miller_rabin() {
        let primes = sieve(10_000);
        for n in 0..=10_000u64 {
            assert_eq!(is_prime(n), primes.contains(&n), "n={n}");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime(2_147_483_647)); // 2^31 - 1, Mersenne
        assert!(is_prime(67_280_421_310_721)); // factor of 2^128 + 1
        assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
    }

    #[test]
    fn next_prime_basics() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 3);
        assert_eq!(next_prime(7), 11);
        assert_eq!(next_prime(100), 101);
    }

    #[test]
    fn isqrt_exact() {
        for n in 0..5000u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "n={n} r={r}");
        }
        assert_eq!(isqrt(u64::MAX), 4_294_967_295);
    }

    #[test]
    fn isqrt128_exact() {
        for n in 0..5000u128 {
            let r = isqrt128(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "n={n} r={r}");
        }
        // Around perfect squares beyond f64's 2^53 exact-integer range.
        for base in [(1u128 << 53) + 1, (1 << 64) - 1, (1 << 63) + 12345] {
            for n in [base * base - 1, base * base, base * base + 1] {
                let r = isqrt128(n);
                assert!(r * r <= n, "n={n} r={r}");
                assert!((r + 1).checked_mul(r + 1).is_none_or(|sq| sq > n), "n={n} r={r}");
            }
        }
        assert_eq!(isqrt128(u128::MAX), (1 << 64) - 1);
    }

    #[test]
    fn ikroot_exact() {
        assert_eq!(ikroot(27, 3), 3);
        assert_eq!(ikroot(26, 3), 2);
        assert_eq!(ikroot(1 << 60, 60), 2);
        assert_eq!(ikroot(u64::MAX, 2), 4_294_967_295);
        for n in [0u64, 1, 2, 63, 64, 65, 4095, 4096, 4097] {
            for k in 1..=6u32 {
                let r = ikroot(n, k);
                let p = |b: u64| (0..k).try_fold(1u64, |a, _| a.checked_mul(b));
                assert!(p(r).unwrap() <= n, "n={n} k={k}");
                assert!(p(r + 1).is_none_or(|v| v > n), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn prime_power_detection() {
        assert_eq!(prime_power(2), Some((2, 1)));
        assert_eq!(prime_power(4), Some((2, 2)));
        assert_eq!(prime_power(8), Some((2, 3)));
        assert_eq!(prime_power(9), Some((3, 2)));
        assert_eq!(prime_power(27), Some((3, 3)));
        assert_eq!(prime_power(121), Some((11, 2)));
        assert_eq!(prime_power(1), None);
        assert_eq!(prime_power(6), None);
        assert_eq!(prime_power(12), None);
        assert_eq!(prime_power(100), None);
        assert_eq!(prime_power(1024), Some((2, 10)));
    }

    #[test]
    fn smallest_plane_order_examples() {
        // Paper §5.3: "If, e.g., v = 10,000, then q = 101".
        // (q=99 gives q̂=9901 < 10⁴; 100 = 2²·5² is not a prime power.)
        assert_eq!(smallest_plane_order(10_000), 101);
        assert_eq!(smallest_plane_order(7), 2); // Fano plane, q̂ = 7
        assert_eq!(smallest_plane_order(8), 3); // q̂ = 13
        assert_eq!(smallest_plane_order(13), 3);
        assert_eq!(smallest_plane_order(14), 4); // q = 4 = 2², q̂ = 21
        assert_eq!(smallest_plane_order(1), 2);
        // Every returned q is a prime power and minimal.
        for v in 2..2000u64 {
            let q = smallest_plane_order(v);
            assert!(is_prime_power(q));
            assert!(plane_size(q) >= v);
            // No smaller prime power works.
            for smaller in 2..q {
                if is_prime_power(smaller) {
                    assert!(plane_size(smaller) < v, "v={v} q={q} smaller={smaller}");
                }
            }
        }
    }

    #[test]
    fn plane_size_values() {
        assert_eq!(plane_size(2), 7);
        assert_eq!(plane_size(3), 13);
        assert_eq!(plane_size(101), 10_303);
    }
}
