//! Arbitrary-precision unsigned integers.
//!
//! A minimal big-unsigned-integer implementation sized for RSA: addition,
//! subtraction, schoolbook multiplication, Knuth Algorithm D division,
//! modular exponentiation, gcd and modular inverse. Limbs are `u32`s in
//! little-endian order with no trailing zero limbs (canonical form).
//!
//! Performance is adequate for 2048-bit RSA (the largest key size the
//! paper benchmarks); no attempt is made at constant-time behaviour —
//! see the crate-level security note.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian `u32` limbs; empty means zero; no trailing zeros.
    limbs: Vec<u32>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![(v & 0xFFFF_FFFF) as u32, (v >> 32) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Parses a big-endian byte string (the usual crypto wire format).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut acc: u32 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u32) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Serialises to a minimal big-endian byte string (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let mut started = false;
                for &b in &bytes {
                    if b != 0 || started {
                        out.push(b);
                        started = true;
                    }
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes, left-padded with
    /// zeros. Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// `true` for the value 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// `true` for the value 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// `true` if the lowest bit is 0 (and the value nonzero counts as even
    /// only by its bit; zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// The `i`-th bit (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// The low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        let lo = *self.limbs.first().unwrap_or(&0) as u64;
        let hi = *self.limbs.get(1).unwrap_or(&0) as u64;
        lo | (hi << 32)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &l) in long.iter().enumerate() {
            let s = l as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
            out.push((s & 0xFFFF_FFFF) as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        BigUint { limbs: out }
    }

    /// `self − other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`; use [`checked_sub`](Self::checked_sub)
    /// when underflow is possible.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// `self − other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_val(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let d = self.limbs[i] as i64 - *other.limbs.get(i).unwrap_or(&0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        Some(r)
    }

    /// `self · other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = a as u64 * b as u64 + out[i + j] as u64 + carry;
                out[i + j] = (t & 0xFFFF_FFFF) as u32;
                carry = t >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = out[k] as u64 + carry;
                out[k] = (t & 0xFFFF_FFFF) as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 32;
        let bit_shift = n % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (32 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Comparison (named to avoid clashing with `Ord::cmp` call syntax in
    /// internal code paths).
    pub fn cmp_val(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_val(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            return self.divrem_single(divisor.limbs[0]);
        }
        self.divrem_knuth(divisor)
    }

    fn divrem_single(&self, d: u32) -> (BigUint, BigUint) {
        let mut q = vec![0u32; self.limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | self.limbs[i] as u64;
            q[i] = (cur / d as u64) as u32;
            rem = cur % d as u64;
        }
        let mut quo = BigUint { limbs: q };
        quo.normalize();
        (quo, BigUint::from_u64(rem))
    }

    /// Knuth TAOCP vol. 2, Algorithm 4.3.1 D.
    fn divrem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let v = divisor.shl(shift);
        let u = self.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of u with one extra high limb.
        let mut un: Vec<u32> = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let mut q = vec![0u32; m + 1];

        let v_hi = vn[n - 1] as u64;
        let v_next = vn[n - 2] as u64;

        for j in (0..=m).rev() {
            // Estimate q_hat.
            let num = ((un[j + n] as u64) << 32) | un[j + n - 1] as u64;
            let mut q_hat = num / v_hi;
            let mut r_hat = num % v_hi;
            while q_hat >= 1 << 32 || q_hat * v_next > ((r_hat << 32) | un[j + n - 2] as u64) {
                q_hat -= 1;
                r_hat += v_hi;
                if r_hat >= 1 << 32 {
                    break;
                }
            }
            // Multiply-subtract: un[j..j+n+1] -= q_hat * vn.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = q_hat * vn[i] as u64 + carry;
                carry = p >> 32;
                let t = un[j + i] as i64 - (p & 0xFFFF_FFFF) as i64 - borrow;
                if t < 0 {
                    un[j + i] = (t + (1i64 << 32)) as u32;
                    borrow = 1;
                } else {
                    un[j + i] = t as u32;
                    borrow = 0;
                }
            }
            let t = un[j + n] as i64 - carry as i64 - borrow;
            if t < 0 {
                // q_hat was one too large: add back.
                un[j + n] = (t + (1i64 << 32)) as u32;
                q_hat -= 1;
                let mut c: u64 = 0;
                for i in 0..n {
                    let s = un[j + i] as u64 + vn[i] as u64 + c;
                    un[j + i] = (s & 0xFFFF_FFFF) as u32;
                    c = s >> 32;
                }
                un[j + n] = un[j + n].wrapping_add(c as u32);
            } else {
                un[j + n] = t as u32;
            }
            q[j] = q_hat as u32;
        }

        let mut quo = BigUint { limbs: q };
        quo.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quo, rem.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// `(self + other) mod m`, assuming both inputs are already `< m`.
    pub fn add_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self.add(other);
        if s.cmp_val(m) == Ordering::Less {
            s
        } else {
            s.sub(m)
        }
    }

    /// `(self · other) mod m`.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m` for an odd modulus, through a one-shot
    /// [`MontgomeryContext`]. Every library caller's modulus is odd: RSA
    /// moduli and CRT primes, Miller–Rabin candidates, the DH primes.
    /// Callers that exponentiate repeatedly under the same modulus
    /// should build the context once and call
    /// [`MontgomeryContext::mod_pow`] directly.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even (zero included) or wider than
    /// [`MontgomeryContext::MAX_BITS`].
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        if m.is_one() {
            return BigUint::zero();
        }
        MontgomeryContext::new(m)
            .expect("mod_pow needs an odd modulus of at most MontgomeryContext::MAX_BITS bits")
            .mod_pow(self, exp)
    }

    /// `self^exp mod m` by left-to-right square-and-multiply over
    /// division-based reduction — the reference implementation the
    /// Montgomery path is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    #[cfg(test)]
    pub(crate) fn mod_pow_classic(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m.is_one() {
            return BigUint::zero();
        }
        let base = self.rem(m);
        if exp.is_zero() {
            return BigUint::one();
        }
        let mut acc = BigUint::one();
        for i in (0..exp.bits()).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    /// Greatest common divisor (binary-free Euclid; division is fast
    /// enough here).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// The inverse of `self` modulo `m`, or `None` when
    /// `gcd(self, m) != 1`.
    ///
    /// Extended Euclid over signed cofactors tracked as (sign, magnitude)
    /// pairs.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Iterative extended Euclid: track old_r, r and old_t, t where
        // t coefficients are modulo m with explicit sign.
        let mut old_r = self.rem(m);
        let mut r = m.clone();
        // (value, negative?) pairs.
        let mut old_t = (BigUint::one(), false);
        let mut t = (BigUint::zero(), false);

        while !r.is_zero() {
            let (q, rem) = old_r.divrem(&r);
            old_r = std::mem::replace(&mut r, rem);

            // new_t = old_t - q * t  (signed arithmetic).
            let qt = q.mul(&t.0);
            let new_t = signed_sub(&old_t, &(qt, t.1));
            old_t = std::mem::replace(&mut t, new_t);
        }
        if !old_r.is_one() {
            return None;
        }
        // old_t is the inverse, possibly negative: reduce into [0, m).
        let (mag, neg) = old_t;
        let mag = mag.rem(m);
        if neg && !mag.is_zero() {
            Some(m.sub(&mag))
        } else {
            Some(mag)
        }
    }
}

/// `a - b` over (magnitude, negative?) signed pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both positive.
        (false, false) => match a.0.cmp_val(&b.0) {
            Ordering::Less => (b.0.sub(&a.0), true),
            _ => (a.0.sub(&b.0), false),
        },
        // a - (-b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // -a - b = -(a + b).
        (true, false) => (a.0.add(&b.0), true),
        // -a - (-b) = b - a.
        (true, true) => match b.0.cmp_val(&a.0) {
            Ordering::Less => (a.0.sub(&b.0), true),
            _ => (b.0.sub(&a.0), false),
        },
    }
}

/// Precomputed Montgomery-domain parameters for one fixed **odd**
/// modulus, amortised across every multiplication and exponentiation
/// under that modulus.
///
/// The modulus is zero-padded to the smallest kernel width of
/// `K ∈ {4, 8, 16, 32, 64}` 64-bit words that holds it, and
/// `R = 2^(64·K)`. The context holds `n' = -n⁻¹ mod 2⁶⁴` and `R² mod n`
/// (to enter the domain with one Montgomery multiplication) at that
/// width. The exponentiation ladder is monomorphised over `K` and over
/// the kernel that multiplies and squares, on `[u64; K]` stack arrays:
/// the ladder, its window table and its temporaries never touch the
/// heap. The paper's key sizes fill a width exactly (a 1024-bit key's
/// CRT primes are 8 words, its modulus 16, a 2048-bit modulus 32).
///
/// At 8 words, on an x86_64 CPU with BMI2 and ADX, [`mod_pow`] runs a
/// kernel built on `mulx`/`adcx`/`adox`; everywhere else it runs the
/// portable kernel, which is also that kernel's test oracle.
/// [`backend`] names the one in use. Both give the same result bit for
/// bit.
///
/// Build one per key ([`crate::rsa::RsaVerifier`] does) and reuse it;
/// [`BigUint::mod_pow`] builds a throwaway context per call, which still
/// wins but pays the `R² mod n` division every time.
///
/// [`mod_pow`]: MontgomeryContext::mod_pow
#[derive(Clone, Debug)]
pub struct MontgomeryContext {
    /// The modulus.
    n: BigUint,
    /// The kernel parameters at the modulus's width.
    kernel: Kernel,
}

/// One variant per kernel width. Boxed so a context stays pointer-sized
/// whatever its width (the 64-word parameters alone are 1.5 KiB).
#[derive(Clone, Debug)]
enum Kernel {
    W4(Box<Mont<4>>),
    W8(Box<Mont<8>>),
    W16(Box<Mont<16>>),
    W32(Box<Mont<32>>),
    W64(Box<Mont<64>>),
}

/// Runs `$body` with `$m` bound to the context's fixed-width kernel.
macro_rules! with_kernel {
    ($kernel:expr, $m:ident => $body:expr) => {
        match $kernel {
            Kernel::W4($m) => $body,
            Kernel::W8($m) => $body,
            Kernel::W16($m) => $body,
            Kernel::W32($m) => $body,
            Kernel::W64($m) => $body,
        }
    };
}

/// Which kernel [`MontgomeryContext::mod_pow`] runs for an 8-word
/// modulus (a 1024-bit key's CRT primes) on this CPU: `"adx"` or
/// `"portable"`. Every other width runs the portable kernel.
pub fn backend() -> &'static str {
    if adx::Adx::detect().is_some() {
        "adx"
    } else {
        "portable"
    }
}

impl MontgomeryContext {
    /// The widest modulus a context accepts: the 64-word kernel.
    pub const MAX_BITS: usize = 64 * 64;

    /// Builds a context for `m`, or `None` when `m` is even, `< 3` or
    /// wider than [`MAX_BITS`](Self::MAX_BITS) (Montgomery reduction
    /// requires an odd modulus).
    pub fn new(m: &BigUint) -> Option<Self> {
        if m.is_even() || m.is_one() {
            return None;
        }
        let kernel = match m.bits().div_ceil(64) {
            0..=4 => Kernel::W4(Box::new(Mont::new(m))),
            5..=8 => Kernel::W8(Box::new(Mont::new(m))),
            9..=16 => Kernel::W16(Box::new(Mont::new(m))),
            17..=32 => Kernel::W32(Box::new(Mont::new(m))),
            33..=64 => Kernel::W64(Box::new(Mont::new(m))),
            _ => return None,
        };
        Some(MontgomeryContext {
            n: m.clone(),
            kernel,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `(a · b) mod n` through the Montgomery domain.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        with_kernel!(&self.kernel, m => m.mul_mod(a, b, &self.n))
    }

    /// `base^exp mod n` by sliding-window exponentiation in the
    /// Montgomery domain. Matches the division-based reference bit for
    /// bit on every input (tested), including `exp = 0 → 1` and base ≥ n.
    ///
    /// An 8-word modulus checks the CPU once per call and runs the whole
    /// ladder on the kernel that check picks.
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.kernel {
            Kernel::W8(m) => match adx::Adx::detect() {
                Some(adx) => m.mod_pow(adx, base, exp, &self.n),
                None => m.mod_pow(Portable, base, exp, &self.n),
            },
            kernel => with_kernel!(kernel, m => m.mod_pow(Portable, base, exp, &self.n)),
        }
    }

    /// [`mod_pow`](Self::mod_pow) on the portable kernel whatever the
    /// CPU: the oracle the ADX ladder is tested against.
    #[cfg(test)]
    fn mod_pow_portable(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        with_kernel!(&self.kernel, m => m.mod_pow(Portable, base, exp, &self.n))
    }
}

/// The widest sliding window, sizing the ladder's stack table of
/// `2^(MAX_WINDOW − 1)` odd powers.
const MAX_WINDOW: usize = 6;

/// The sliding-window width for an exponent of `bits` bits: the table
/// of `2^(w−1)` odd powers must amortise over about `bits / (w + 1)`
/// multiplies. Small exponents (RSA e = 65537) stay at w = 1: plain
/// square-and-multiply beats paying for a table.
fn window(bits: usize) -> usize {
    match bits {
        0..=96 => 1,
        97..=256 => 4,
        257..=768 => 5,
        _ => MAX_WINDOW,
    }
}

/// A Montgomery multiplication and squaring at width `K`: the one
/// choice the exponentiation ladder is monomorphised over.
trait Multiplier<const K: usize>: Copy {
    /// `a·b·R⁻¹ mod n`, fully reduced, for `a < R` and `b < n`.
    fn mul(self, m: &Mont<K>, a: &[u64; K], b: &[u64; K]) -> [u64; K];

    /// `a²·R⁻¹ mod n`, fully reduced, for `a < n`.
    fn sqr(self, m: &Mont<K>, a: &[u64; K]) -> [u64; K] {
        self.mul(m, a, a)
    }
}

/// The portable kernel ([`Mont::mul`]): every width, every CPU.
#[derive(Clone, Copy)]
struct Portable;

impl<const K: usize> Multiplier<K> for Portable {
    fn mul(self, m: &Mont<K>, a: &[u64; K], b: &[u64; K]) -> [u64; K] {
        m.mul(a, b)
    }
}

/// Montgomery parameters for a modulus zero-padded to `K` words.
///
/// `repr(C)` fixes `n0_inv` right after the `K` words of `n`, where the
/// ADX kernel reads it.
#[derive(Clone, Debug)]
#[repr(C)]
struct Mont<const K: usize> {
    /// The modulus as little-endian words.
    n: [u64; K],
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`, used to map values into the Montgomery domain.
    r2: [u64; K],
}

impl<const K: usize> Mont<K> {
    /// Parameters for an odd `m ≥ 3` of at most `K` words.
    fn new(m: &BigUint) -> Self {
        let n = load::<K>(m);
        // n' = -n^{-1} mod 2^64 via Newton–Hensel lifting on the low
        // word: inv *= 2 - n0*inv doubles the valid bit count each step.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        // R² mod n costs one shift + one division (R is a power of two).
        Mont {
            n,
            n0_inv: inv.wrapping_neg(),
            r2: load(&BigUint::one().shl(128 * K).rem(m)),
        }
    }

    /// Montgomery multiplication `a·b·R⁻¹ mod n` for `a < R`, `b < n`:
    /// the CIOS method of Koç, Acar and Kaliski (IEEE Micro 1996) with
    /// its multiply and reduce inner loops fused into one pass (their
    /// FIOS), which measured faster than the two-loop form at 32 words.
    fn mul(&self, a: &[u64; K], b: &[u64; K]) -> [u64; K] {
        let n = &self.n;
        // t[0..K] plus one overflow word t_k; t < 2n throughout.
        let mut t = [0u64; K];
        let mut t_k: u64 = 0;
        for &ai in a {
            // One pass per word of a: add ai·b, pick m so the low word
            // of t + ai·b + m·n cancels, and shift down one word, with
            // the product and reduction carries chained side by side.
            let ai = ai as u128;
            let s = t[0] as u128 + ai * b[0] as u128;
            let mut carry = (s >> 64) as u64;
            let m = (s as u64).wrapping_mul(self.n0_inv) as u128;
            let r = (s as u64) as u128 + m * n[0] as u128;
            let mut red_carry = (r >> 64) as u64;
            for j in 1..K {
                let s = t[j] as u128 + ai * b[j] as u128 + carry as u128;
                carry = (s >> 64) as u64;
                let r = (s as u64) as u128 + m * n[j] as u128 + red_carry as u128;
                red_carry = (r >> 64) as u64;
                t[j - 1] = r as u64;
            }
            let s = t_k as u128 + carry as u128 + red_carry as u128;
            t[K - 1] = s as u64;
            t_k = (s >> 64) as u64;
        }
        self.reduce_once(t, t_k)
    }

    /// `t + top·R` (which is `< 2n`) reduced below `n` by one
    /// conditional subtraction: every kernel's last step.
    fn reduce_once(&self, mut t: [u64; K], top: u64) -> [u64; K] {
        if top != 0 || !less_than(&t, &self.n) {
            let mut borrow = false;
            for (tj, &nj) in t.iter_mut().zip(&self.n) {
                let (d1, b1) = tj.overflowing_sub(nj);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *tj = d2;
                borrow = b1 || b2;
            }
        }
        t
    }

    /// Maps `x` (any magnitude) into the Montgomery domain.
    fn to_mont(&self, mm: impl Multiplier<K>, x: &BigUint, modulus: &BigUint) -> [u64; K] {
        let words = if x.cmp_val(modulus) == Ordering::Less {
            load(x)
        } else {
            load(&x.rem(modulus))
        };
        mm.mul(self, &words, &self.r2)
    }

    /// Maps a Montgomery-domain value back to the ordinary domain: one
    /// product by 1 strips the factor R.
    fn mont_to_uint(&self, mm: impl Multiplier<K>, x: &[u64; K]) -> BigUint {
        let mut one = [0; K];
        one[0] = 1;
        from_words(&mm.mul(self, x, &one))
    }

    fn mul_mod(&self, a: &BigUint, b: &BigUint, modulus: &BigUint) -> BigUint {
        let am = self.to_mont(Portable, a, modulus);
        let bm = self.to_mont(Portable, b, modulus);
        self.mont_to_uint(Portable, &self.mul(&am, &bm))
    }

    fn mod_pow(
        &self,
        mm: impl Multiplier<K>,
        base: &BigUint,
        exp: &BigUint,
        modulus: &BigUint,
    ) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let bits = exp.bits();
        let base_m = self.to_mont(mm, base, modulus);
        let w = window(bits);
        if w == 1 {
            // Seed from the (always-set) top bit: no squarings of 1.
            let mut acc = base_m;
            for i in (0..bits - 1).rev() {
                acc = mm.sqr(self, &acc);
                if exp.bit(i) {
                    acc = mm.mul(self, &acc, &base_m);
                }
            }
            return self.mont_to_uint(mm, &acc);
        }
        // odd[k] = base^(2k+1) in Montgomery form, k < 2^(w-1): every
        // window starts and ends on a set bit, so its value is odd.
        let mut odd = [[0u64; K]; 1 << (MAX_WINDOW - 1)];
        odd[0] = base_m;
        let base_sq = mm.sqr(self, &base_m);
        for k in 1..1 << (w - 1) {
            odd[k] = mm.mul(self, &odd[k - 1], &base_sq);
        }
        // Seed the accumulator from the first window instead of
        // squaring 1 up to it; `i` counts the bits still to scan.
        let (value, len) = odd_window(exp, bits, w);
        let mut acc = odd[value >> 1];
        let mut i = bits - len;
        while i > 0 {
            if !exp.bit(i - 1) {
                // A zero bit between windows: one squaring.
                acc = mm.sqr(self, &acc);
                i -= 1;
                continue;
            }
            let (value, len) = odd_window(exp, i, w);
            for _ in 0..len {
                acc = mm.sqr(self, &acc);
            }
            acc = mm.mul(self, &acc, &odd[value >> 1]);
            i -= len;
        }
        self.mont_to_uint(mm, &acc)
    }
}

/// The window of `exp` whose top bit is bit `top − 1`, which must be
/// set: at most `w` bits, trimmed from below to end on a set bit.
/// Returns its value (odd) and its length in bits.
fn odd_window(exp: &BigUint, top: usize, w: usize) -> (usize, usize) {
    let mut low = top.saturating_sub(w);
    while !exp.bit(low) {
        low += 1;
    }
    let value = (low..top)
        .rev()
        .fold(0, |v, i| (v << 1) | exp.bit(i) as usize);
    (value, top - low)
}

/// The ADX kernel for 8-word moduli, and the one place in this crate
/// besides the SHA-256 dispatch that runs `unsafe` code.
///
/// Both kernels interleave product and reduction row by row, as the
/// portable kernel does (CIOS), but each pass runs two carry chains at
/// once: `adox` (OF) adds the low words of the `mulx` products and
/// `adcx` (CF) their high words. Row `k` adds its share of the product
/// into a ten-word window, then a REDC pass picks `m = t0·n'`, adds
/// `m·n` so the window's lowest word becomes zero, and the window moves
/// up one word. After eight rows the window holds the result `< 2n`,
/// which [`Mont::reduce_once`] takes below `n`.
///
/// The squaring computes each cross product `a_k·a_j` (k < j) once: row
/// `k` multiplies `a_k` by `a_k` and by the words of `2·a` above word
/// `k`, which the prologue doubles once onto the stack. That is 36
/// multiplies for the product where a multiplication takes 64; the 64
/// of the reduction are the same in both.
///
/// Register plan: `rdx` is `mulx`'s implicit operand, `rax`/`rcx` take
/// each product's low/high word, `rsi` points at `b` (multiply) or `a`
/// (squaring), `rbp` at the modulus, and the window is
/// `rdi, r8..r15, rbx`, rotating one place per row so no word is ever
/// moved. The multiply keeps `a`'s words in `xmm0..xmm7`, the squaring
/// its doubled words on the stack. `rbx` and `rbp` cannot be `asm!`
/// operands, so each block saves and restores them itself.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod adx {
    use super::{Mont, Multiplier};
    use std::arch::asm;

    /// Proof that this CPU has BMI2 (`mulx`) and ADX (`adcx`, `adox`):
    /// the private field means only [`Adx::detect`] can make one.
    #[derive(Clone, Copy)]
    pub(super) struct Adx(());

    impl Adx {
        /// An [`Adx`] when this CPU reports BMI2 and ADX. std caches
        /// the CPUID answer, so a call costs two relaxed loads.
        pub(super) fn detect() -> Option<Adx> {
            (is_x86_feature_detected!("bmi2") && is_x86_feature_detected!("adx")).then_some(Adx(()))
        }
    }

    // The kernels read n' as the word right after the modulus.
    const _: () = assert!(std::mem::offset_of!(Mont<8>, n0_inv) == 64);

    /// One dual-chain step: `rdx · [$ptr + $off]`, its low word added
    /// into `$lo` on the OF chain and its high word into `$hi` on the
    /// CF chain.
    #[rustfmt::skip]
    macro_rules! step {
        ($ptr:literal, $off:literal, $lo:literal, $hi:literal) => {
            concat!(
                "mulx rcx, rax, qword ptr [", $ptr, " + ", $off, "]\n",
                "adox ", $lo, ", rax\n",
                "adcx ", $hi, ", rcx\n",
            )
        };
    }

    /// Folds both chains' carries into the window's top word `$t9`,
    /// after the last step left OF pending into `$t8`. The window never
    /// overflows its ten words, so nothing carries out of `$t9`.
    #[rustfmt::skip]
    macro_rules! fold_top {
        ($t8:literal, $t9:literal) => {
            concat!(
                "mov eax, 0\n",
                "adox ", $t8, ", rax\n",
                "adcx ", $t9, ", rax\n",
                "adox ", $t9, ", rax\n",
            )
        };
    }

    /// One pass: `rdx` times the eight words at `$ptr`, added into the
    /// window `$t0..$t9`.
    macro_rules! pass {
        ($ptr:literal, $t0:literal, $t1:literal, $t2:literal, $t3:literal, $t4:literal,
         $t5:literal, $t6:literal, $t7:literal, $t8:literal, $t9:literal) => {
            concat!(
                "xor eax, eax\n",
                step!($ptr, 0, $t0, $t1),
                step!($ptr, 8, $t1, $t2),
                step!($ptr, 16, $t2, $t3),
                step!($ptr, 24, $t3, $t4),
                step!($ptr, 32, $t4, $t5),
                step!($ptr, 40, $t5, $t6),
                step!($ptr, 48, $t6, $t7),
                step!($ptr, 56, $t7, $t8),
                fold_top!($t8, $t9),
            )
        };
    }

    /// The REDC pass: `m = $t0·n'` (n' is the word after the modulus
    /// at `rbp`), then `m·n` added so `$t0` becomes zero. `$t0` is then
    /// free to be the next row's top word.
    #[rustfmt::skip]
    macro_rules! redc {
        ($t0:literal, $t1:literal, $t2:literal, $t3:literal, $t4:literal,
         $t5:literal, $t6:literal, $t7:literal, $t8:literal, $t9:literal) => {
            concat!(
                "mov rdx, ", $t0, "\n",
                "imul rdx, qword ptr [rbp + 64]\n",
                pass!("rbp", $t0, $t1, $t2, $t3, $t4, $t5, $t6, $t7, $t8, $t9),
            )
        };
    }

    /// Row `k` of the multiplication: `a_k` (waiting in `$x`) times all
    /// of `b` (at `rsi`), then the REDC pass.
    #[rustfmt::skip]
    macro_rules! mul_row {
        ($x:literal, $t0:literal, $t1:literal, $t2:literal, $t3:literal, $t4:literal,
         $t5:literal, $t6:literal, $t7:literal, $t8:literal, $t9:literal) => {
            concat!(
                "movq rdx, ", $x, "\n",
                pass!("rsi", $t0, $t1, $t2, $t3, $t4, $t5, $t6, $t7, $t8, $t9),
                redc!($t0, $t1, $t2, $t3, $t4, $t5, $t6, $t7, $t8, $t9),
            )
        };
    }

    /// The head of squaring row `k`: `rdx = a_k` (at `rsi + $off`) and
    /// `a_k²` into window words `$tk` (low) and `$tk1` (high).
    #[rustfmt::skip]
    macro_rules! sqr_head {
        ($off:literal, $tk:literal, $tk1:literal) => {
            concat!(
                "mov rdx, qword ptr [rsi + ", $off, "]\n",
                "xor eax, eax\n",
                "mulx rcx, rax, rdx\n",
                "adox ", $tk, ", rax\n",
                "adcx ", $tk1, ", rcx\n",
            )
        };
    }

    /// The tail of a squaring row `k < 7`: `a_k·(a_7 >> 63)`, the
    /// product with the doubled operand's ninth word, waits on the
    /// stack at `$off`; add it into `$t8` on the OF chain and fold the
    /// carries into `$t9`.
    #[rustfmt::skip]
    macro_rules! sqr_tail {
        ($off:literal, $t8:literal, $t9:literal) => {
            concat!(
                "adox ", $t8, ", qword ptr [rsp + ", $off, "]\n",
                "mov eax, 0\n",
                "adcx ", $t9, ", rax\n",
                "adox ", $t9, ", rax\n",
            )
        };
    }

    /// Zeroes the window `rdi, r8..r15, rbx`.
    macro_rules! zero_window {
        () => {
            concat!(
                "xor edi, edi\n",
                "xor r8d, r8d\n",
                "xor r9d, r9d\n",
                "xor r10d, r10d\n",
                "xor r11d, r11d\n",
                "xor r12d, r12d\n",
                "xor r13d, r13d\n",
                "xor r14d, r14d\n",
                "xor r15d, r15d\n",
                "xor ebx, ebx\n",
            )
        };
    }

    impl Multiplier<8> for Adx {
        #[inline]
        fn mul(self, m: &Mont<8>, a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
            let mut t = [0u64; 8];
            let top;
            // SAFETY: `self` exists only after `Adx::detect` found BMI2
            // and ADX on this CPU, the only extensions beyond x86_64's
            // baseline (SSE2 `movq`) the block uses. It reads the 8
            // words of `a` and of `b` (both `[u64; 8]`) and 9 words at
            // `m`: `n` and, at offset 64 (asserted above), `n0_inv`, all
            // inside a live `Mont<8>`. It writes no memory but the two
            // words it pushes, pops them (restoring `rbx`, `rbp` and
            // `rsp`), and declares every other register it changes.
            unsafe {
                asm!(
                    "push rbx",
                    "push rbp",
                    "mov rbp, rcx",
                    "movq xmm0, qword ptr [rax]",
                    "movq xmm1, qword ptr [rax + 8]",
                    "movq xmm2, qword ptr [rax + 16]",
                    "movq xmm3, qword ptr [rax + 24]",
                    "movq xmm4, qword ptr [rax + 32]",
                    "movq xmm5, qword ptr [rax + 40]",
                    "movq xmm6, qword ptr [rax + 48]",
                    "movq xmm7, qword ptr [rax + 56]",
                    zero_window!(),
                    mul_row!("xmm0", "rdi", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx"),
                    mul_row!("xmm1", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi"),
                    mul_row!("xmm2", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8"),
                    mul_row!("xmm3", "r10", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9"),
                    mul_row!("xmm4", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10"),
                    mul_row!("xmm5", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10", "r11"),
                    mul_row!("xmm6", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10", "r11", "r12"),
                    mul_row!("xmm7", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10", "r11", "r12", "r13"),
                    // The result's words are r15, rbx, rdi, r8..r12 and
                    // its top word r13; word 1 leaves through rax.
                    "mov rax, rbx",
                    "pop rbp",
                    "pop rbx",
                    inout("rax") a.as_ptr() => t[1],
                    in("rsi") b.as_ptr(),
                    inout("rcx") std::ptr::from_ref(m) => _,
                    out("rdx") _,
                    out("r15") t[0],
                    out("rdi") t[2],
                    out("r8") t[3],
                    out("r9") t[4],
                    out("r10") t[5],
                    out("r11") t[6],
                    out("r12") t[7],
                    out("r13") top,
                    out("r14") _,
                    out("xmm0") _, out("xmm1") _, out("xmm2") _, out("xmm3") _,
                    out("xmm4") _, out("xmm5") _, out("xmm6") _, out("xmm7") _,
                    options(pure, readonly),
                );
            }
            m.reduce_once(t, top)
        }

        #[inline]
        fn sqr(self, m: &Mont<8>, a: &[u64; 8]) -> [u64; 8] {
            let mut t = [0u64; 8];
            let top;
            // SAFETY: as for `mul`: BMI2 and ADX were detected before
            // `self` was made. The block reads the 8 words of `a` and 9
            // words at `m` (`n`, then `n0_inv` at offset 64). Besides
            // the two words it pushes it writes only the 160 bytes it
            // reserves below them, then releases both, restoring `rbx`,
            // `rbp` and `rsp`; it declares every other register it
            // changes.
            unsafe {
                asm!(
                    "push rbx",
                    "push rbp",
                    "mov rbp, rcx",
                    "sub rsp, 160",
                    // a_0..a_7 in r8..r15. On the stack: 2·a_j for
                    // j = 1..=7 at 8(j-1), the doubled operand's words
                    // (a_j << 1 | a_{j-1} >> 63) for j = 2..=7 at
                    // 56 + 8(j-2), and a_k·(a_7 >> 63) for k = 0..=6 at
                    // 104 + 8k.
                    "mov r8, qword ptr [rsi]",
                    "mov r9, qword ptr [rsi + 8]",
                    "mov r10, qword ptr [rsi + 16]",
                    "mov r11, qword ptr [rsi + 24]",
                    "mov r12, qword ptr [rsi + 32]",
                    "mov r13, qword ptr [rsi + 40]",
                    "mov r14, qword ptr [rsi + 48]",
                    "mov r15, qword ptr [rsi + 56]",
                    "lea rax, [r9 + r9]",
                    "mov qword ptr [rsp], rax",
                    "lea rax, [r10 + r10]",
                    "mov qword ptr [rsp + 8], rax",
                    "lea rax, [r11 + r11]",
                    "mov qword ptr [rsp + 16], rax",
                    "lea rax, [r12 + r12]",
                    "mov qword ptr [rsp + 24], rax",
                    "lea rax, [r13 + r13]",
                    "mov qword ptr [rsp + 32], rax",
                    "lea rax, [r14 + r14]",
                    "mov qword ptr [rsp + 40], rax",
                    "lea rax, [r15 + r15]",
                    "mov qword ptr [rsp + 48], rax",
                    "mov rax, r10",
                    "shld rax, r9, 1",
                    "mov qword ptr [rsp + 56], rax",
                    "mov rax, r11",
                    "shld rax, r10, 1",
                    "mov qword ptr [rsp + 64], rax",
                    "mov rax, r12",
                    "shld rax, r11, 1",
                    "mov qword ptr [rsp + 72], rax",
                    "mov rax, r13",
                    "shld rax, r12, 1",
                    "mov qword ptr [rsp + 80], rax",
                    "mov rax, r14",
                    "shld rax, r13, 1",
                    "mov qword ptr [rsp + 88], rax",
                    "mov rax, r15",
                    "shld rax, r14, 1",
                    "mov qword ptr [rsp + 96], rax",
                    "mov rdi, r15",
                    "sar rdi, 63",
                    "and r8, rdi",
                    "mov qword ptr [rsp + 104], r8",
                    "and r9, rdi",
                    "mov qword ptr [rsp + 112], r9",
                    "and r10, rdi",
                    "mov qword ptr [rsp + 120], r10",
                    "and r11, rdi",
                    "mov qword ptr [rsp + 128], r11",
                    "and r12, rdi",
                    "mov qword ptr [rsp + 136], r12",
                    "and r13, rdi",
                    "mov qword ptr [rsp + 144], r13",
                    "and r14, rdi",
                    "mov qword ptr [rsp + 152], r14",
                    zero_window!(),
                    // Row k: a_k² at window word k, a_k·2a_{k+1} (no
                    // carry in from a_k) at k + 1, then the doubled
                    // words above, then the REDC pass. Row 7 has no
                    // words above a_7 to double.
                    sqr_head!(0, "rdi", "r8"),
                    step!("rsp", 0, "r8", "r9"),
                    step!("rsp", 56, "r9", "r10"),
                    step!("rsp", 64, "r10", "r11"),
                    step!("rsp", 72, "r11", "r12"),
                    step!("rsp", 80, "r12", "r13"),
                    step!("rsp", 88, "r13", "r14"),
                    step!("rsp", 96, "r14", "r15"),
                    sqr_tail!(104, "r15", "rbx"),
                    redc!("rdi", "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx"),
                    sqr_head!(8, "r9", "r10"),
                    step!("rsp", 8, "r10", "r11"),
                    step!("rsp", 64, "r11", "r12"),
                    step!("rsp", 72, "r12", "r13"),
                    step!("rsp", 80, "r13", "r14"),
                    step!("rsp", 88, "r14", "r15"),
                    step!("rsp", 96, "r15", "rbx"),
                    sqr_tail!(112, "rbx", "rdi"),
                    redc!("r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi"),
                    sqr_head!(16, "r11", "r12"),
                    step!("rsp", 16, "r12", "r13"),
                    step!("rsp", 72, "r13", "r14"),
                    step!("rsp", 80, "r14", "r15"),
                    step!("rsp", 88, "r15", "rbx"),
                    step!("rsp", 96, "rbx", "rdi"),
                    sqr_tail!(120, "rdi", "r8"),
                    redc!("r9", "r10", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8"),
                    sqr_head!(24, "r13", "r14"),
                    step!("rsp", 24, "r14", "r15"),
                    step!("rsp", 80, "r15", "rbx"),
                    step!("rsp", 88, "rbx", "rdi"),
                    step!("rsp", 96, "rdi", "r8"),
                    sqr_tail!(128, "r8", "r9"),
                    redc!("r10", "r11", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9"),
                    sqr_head!(32, "r15", "rbx"),
                    step!("rsp", 32, "rbx", "rdi"),
                    step!("rsp", 88, "rdi", "r8"),
                    step!("rsp", 96, "r8", "r9"),
                    sqr_tail!(136, "r9", "r10"),
                    redc!("r11", "r12", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10"),
                    sqr_head!(40, "rdi", "r8"),
                    step!("rsp", 40, "r8", "r9"),
                    step!("rsp", 96, "r9", "r10"),
                    sqr_tail!(144, "r10", "r11"),
                    redc!("r12", "r13", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10", "r11"),
                    sqr_head!(48, "r9", "r10"),
                    step!("rsp", 48, "r10", "r11"),
                    sqr_tail!(152, "r11", "r12"),
                    redc!("r13", "r14", "r15", "rbx", "rdi", "r8", "r9", "r10", "r11", "r12"),
                    sqr_head!(56, "r11", "r12"),
                    fold_top!("r12", "r13"),
                    redc!("r14", "r15", "rbx", "rdi", "r8", "r9", "r10", "r11", "r12", "r13"),
                    "mov rax, rbx",
                    "add rsp, 160",
                    "pop rbp",
                    "pop rbx",
                    in("rsi") a.as_ptr(),
                    inout("rcx") std::ptr::from_ref(m) => _,
                    out("rax") t[1],
                    out("rdx") _,
                    out("r15") t[0],
                    out("rdi") t[2],
                    out("r8") t[3],
                    out("r9") t[4],
                    out("r10") t[5],
                    out("r11") t[6],
                    out("r12") t[7],
                    out("r13") top,
                    out("r14") _,
                    options(pure, readonly),
                );
            }
            m.reduce_once(t, top)
        }
    }
}

/// Off x86_64 there is no ADX kernel: [`Adx::detect`] never finds one.
#[cfg(not(target_arch = "x86_64"))]
mod adx {
    use super::{Mont, Multiplier};

    /// Uninhabited: no value proves ADX here.
    #[derive(Clone, Copy)]
    pub(super) enum Adx {}

    impl Adx {
        /// Always `None`.
        pub(super) fn detect() -> Option<Adx> {
            None
        }
    }

    impl Multiplier<8> for Adx {
        fn mul(self, _: &Mont<8>, _: &[u64; 8], _: &[u64; 8]) -> [u64; 8] {
            match self {}
        }
    }
}

/// `x` as `K` little-endian 64-bit words (two 32-bit limbs each),
/// zero-padded. `x` must fit in `K` words.
fn load<const K: usize>(x: &BigUint) -> [u64; K] {
    debug_assert!(x.limbs.len() <= 2 * K, "value wider than the kernel");
    let mut out = [0; K];
    for (word, pair) in out.iter_mut().zip(x.limbs.chunks(2)) {
        *word = pair[0] as u64 | (*pair.get(1).unwrap_or(&0) as u64) << 32;
    }
    out
}

/// Rebuilds a [`BigUint`] from little-endian 64-bit words.
fn from_words(words: &[u64]) -> BigUint {
    let mut limbs = Vec::with_capacity(words.len() * 2);
    for &w in words {
        limbs.push(w as u32);
        limbs.push((w >> 32) as u32);
    }
    let mut r = BigUint { limbs };
    r.normalize();
    r
}

/// `a < b` over equal-width little-endian words.
fn less_than<const K: usize>(a: &[u64; K], b: &[u64; K]) -> bool {
    for i in (0..K).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// Lower-case hexadecimal representation without leading zeros.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Parses a hexadecimal string (no `0x` prefix).
    ///
    /// Returns `None` for invalid characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut i = chars.len();
        while i > 0 {
            let lo = hex_val(chars[i - 1])?;
            let hi = if i >= 2 { hex_val(chars[i - 2])? } else { 0 };
            bytes.push((hi << 4) | lo);
            i = i.saturating_sub(2);
        }
        bytes.reverse();
        Some(BigUint::from_bytes_be(&bytes))
    }
}

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_val(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn add_with_carry() {
        let a = b(u64::MAX);
        let s = a.add(&BigUint::one());
        assert_eq!(s.to_hex(), "10000000000000000");
        assert_eq!(s.bits(), 65);
    }

    #[test]
    fn sub_with_borrow() {
        let a = BigUint::from_hex("10000000000000000").unwrap();
        let d = a.sub(&BigUint::one());
        assert_eq!(d, b(u64::MAX));
    }

    #[test]
    fn checked_sub_underflow() {
        assert!(b(5).checked_sub(&b(6)).is_none());
        assert_eq!(b(5).checked_sub(&b(5)).unwrap(), BigUint::zero());
    }

    #[test]
    fn mul_small_and_large() {
        assert_eq!(b(7).mul(&b(6)), b(42));
        let a = BigUint::from_hex("ffffffffffffffff").unwrap();
        let sq = a.mul(&a);
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn divrem_basic() {
        let (q, r) = b(100).divrem(&b(7));
        assert_eq!(q, b(14));
        assert_eq!(r, b(2));
    }

    #[test]
    fn divrem_large() {
        let a = BigUint::from_hex("deadbeefdeadbeefdeadbeefdeadbeef").unwrap();
        let d = BigUint::from_hex("123456789abcdef0").unwrap();
        let (q, r) = a.divrem(&d);
        // Verify q*d + r == a and r < d.
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn divrem_knuth_add_back_case() {
        // A case that exercises the rare "add back" branch: divisor with
        // high limb pattern forcing q_hat overestimate.
        let a = BigUint::from_hex("800000000000000000000000").unwrap();
        let d = BigUint::from_hex("800000000000000001").unwrap();
        let (q, r) = a.divrem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn div_by_zero_panics() {
        let result = std::panic::catch_unwind(|| b(1).divrem(&BigUint::zero()));
        assert!(result.is_err());
    }

    #[test]
    fn bytes_round_trip() {
        let a = BigUint::from_hex("0123456789abcdef00ff").unwrap();
        let rt = BigUint::from_bytes_be(&a.to_bytes_be());
        assert_eq!(a, rt);
    }

    #[test]
    fn bytes_be_no_leading_zero() {
        let a = b(0x0102);
        assert_eq!(a.to_bytes_be(), vec![0x01, 0x02]);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn padded_bytes() {
        let a = b(0x0102);
        assert_eq!(a.to_bytes_be_padded(4).unwrap(), vec![0, 0, 1, 2]);
        assert!(a.to_bytes_be_padded(1).is_none());
        assert_eq!(BigUint::zero().to_bytes_be_padded(2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn shifts() {
        let a = b(0b1011);
        assert_eq!(a.shl(4), b(0b1011_0000));
        assert_eq!(a.shr(2), b(0b10));
        assert_eq!(a.shr(64), BigUint::zero());
        assert_eq!(a.shl(33).shr(33), a);
    }

    #[test]
    fn bit_access() {
        let a = b(0b101);
        assert!(a.bit(0));
        assert!(!a.bit(1));
        assert!(a.bit(2));
        assert!(!a.bit(100));
    }

    #[test]
    fn mod_pow_small() {
        // 3^7 mod 11 = 2187 mod 11 = 9
        assert_eq!(b(3).mod_pow(&b(7), &b(11)), b(9));
        // Fermat: 2^(p-1) = 1 mod p for prime p.
        assert_eq!(b(2).mod_pow(&b(1_000_000_006), &b(1_000_000_007)), b(1));
    }

    #[test]
    fn mod_pow_edge_cases() {
        assert_eq!(b(5).mod_pow(&BigUint::zero(), &b(7)), BigUint::one());
        assert_eq!(b(5).mod_pow(&b(3), &BigUint::one()), BigUint::zero());
        assert_eq!(BigUint::zero().mod_pow(&b(5), &b(7)), BigUint::zero());
    }

    #[test]
    fn mod_pow_large() {
        // RSA-style round trip with a known toy key:
        // p=61, q=53, n=3233, e=17, d=413. m=65 -> c=2790 -> m=65.
        let n = b(3233);
        let c = b(65).mod_pow(&b(17), &n);
        assert_eq!(c, b(2790));
        assert_eq!(c.mod_pow(&b(413), &n), b(65));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(13)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
    }

    #[test]
    fn mod_inverse_cases() {
        // 3 * 4 = 12 = 1 mod 11.
        assert_eq!(b(3).mod_inverse(&b(11)).unwrap(), b(4));
        // Not invertible.
        assert!(b(6).mod_inverse(&b(9)).is_none());
        // RSA toy: e=17 mod phi=3120 -> d=2753... (61-1)(53-1)=3120.
        let d = b(17).mod_inverse(&b(3120)).unwrap();
        assert_eq!(b(17).mul(&d).rem(&b(3120)), BigUint::one());
    }

    #[test]
    fn mod_inverse_large() {
        let m = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = BigUint::from_hex("deadbeefcafebabe1234").unwrap();
        if let Some(inv) = a.mod_inverse(&m) {
            assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
        } else {
            panic!("expected invertible");
        }
    }

    #[test]
    fn hex_round_trip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = BigUint::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s);
            assert_eq!(BigUint::from_hex(&v.to_hex()).unwrap(), v);
        }
        // Upper-case digits and leading zeros are accepted on input.
        assert_eq!(
            BigUint::from_hex("00DEADBEEF").unwrap().to_hex(),
            "deadbeef"
        );
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn ordering() {
        assert!(b(5) < b(6));
        assert!(BigUint::from_hex("100000000").unwrap() > b(0xFFFF_FFFF));
        assert_eq!(b(7).cmp_val(&b(7)), Ordering::Equal);
    }

    #[test]
    fn low_u64() {
        let a = BigUint::from_hex("aabbccdd11223344").unwrap();
        assert_eq!(a.low_u64(), 0xaabbccdd11223344);
        let big = BigUint::from_hex("ff0000000011223344").unwrap();
        assert_eq!(big.low_u64(), 0x11223344);
    }

    #[test]
    fn add_mod_stays_reduced() {
        let m = b(100);
        assert_eq!(b(70).add_mod(&b(50), &m), b(20));
        assert_eq!(b(30).add_mod(&b(50), &m), b(80));
    }

    // --- Montgomery fast path: property-tested against the classic
    // division-based implementation.

    use crate::rng::{Rng, XorShift64};

    /// A random value of exactly `bits` significant bits: the top bit is
    /// forced, the rest uniform.
    fn random_bits(rng: &mut XorShift64, bits: usize) -> BigUint {
        let mut bytes = vec![0u8; bits.div_ceil(8)];
        rng.fill_bytes(&mut bytes);
        let top = BigUint::one().shl(bits - 1);
        top.add(&BigUint::from_bytes_be(&bytes).rem(&top))
    }

    /// A random odd modulus of exactly `bits` bits.
    fn random_odd_modulus(rng: &mut XorShift64, bits: usize) -> BigUint {
        let mut m = random_bits(rng, bits);
        if m.is_even() {
            m = m.add(&BigUint::one());
        }
        m
    }

    /// Modulus word counts covering every kernel width: each width's
    /// exact fit, and the counts just past one (padded up to the next).
    const WORD_COUNTS: [usize; 12] = [1, 3, 4, 5, 8, 9, 16, 17, 31, 32, 33, 64];

    /// The narrowest and the widest modulus size of `words` 64-bit words.
    fn bit_sizes(words: usize) -> [usize; 2] {
        [64 * (words - 1) + 2, 64 * words]
    }

    #[test]
    fn montgomery_rejects_even_and_tiny_moduli() {
        assert!(MontgomeryContext::new(&BigUint::zero()).is_none());
        assert!(MontgomeryContext::new(&BigUint::one()).is_none());
        assert!(MontgomeryContext::new(&b(10)).is_none());
        assert!(MontgomeryContext::new(&b(3)).is_some());
        // Wider than the 64-word kernel: no context.
        let widest = BigUint::one()
            .shl(MontgomeryContext::MAX_BITS)
            .sub(&BigUint::one());
        assert!(MontgomeryContext::new(&widest).is_some());
        assert!(MontgomeryContext::new(&widest.shl(1).add(&BigUint::one())).is_none());
    }

    #[test]
    fn montgomery_mul_mod_matches_division() {
        let mut rng = XorShift64::seed_from_u64(11);
        for words in WORD_COUNTS {
            for bits in bit_sizes(words) {
                let m = random_odd_modulus(&mut rng, bits);
                let ctx = MontgomeryContext::new(&m).expect("odd modulus");
                for _ in 0..4 {
                    // Operands at and above the modulus width.
                    let a = random_bits(&mut rng, bits + 17);
                    let c = random_bits(&mut rng, bits);
                    assert_eq!(ctx.mul_mod(&a, &c), a.mul(&c).rem(&m), "bits={bits}");
                }
            }
        }
    }

    #[test]
    fn mod_pow_montgomery_matches_classic_random() {
        let mut rng = XorShift64::seed_from_u64(22);
        for words in WORD_COUNTS {
            for bits in bit_sizes(words) {
                let m = random_odd_modulus(&mut rng, bits);
                let ctx = MontgomeryContext::new(&m).expect("odd modulus");
                // Every window width: 0 and 1 (no squarings), the small
                // and RSA public exponents (w = 1), and a random
                // full-width exponent (the widest window).
                let exps = [
                    BigUint::zero(),
                    BigUint::one(),
                    b(2),
                    b(65537),
                    random_bits(&mut rng, bits),
                ];
                for exp in exps {
                    // Bases at or above the modulus.
                    let base = random_bits(&mut rng, bits + 9);
                    assert_eq!(
                        ctx.mod_pow(&base, &exp),
                        base.mod_pow_classic(&exp, &m),
                        "bits={bits} exp={exp}"
                    );
                }
            }
        }
    }

    #[test]
    fn mod_pow_montgomery_matches_classic_edge_operands() {
        let mut rng = XorShift64::seed_from_u64(33);
        let m = random_odd_modulus(&mut rng, 128);
        let m_minus_1 = m.sub(&BigUint::one());
        let even_exp = b(65536);
        let cases: Vec<(BigUint, BigUint)> = vec![
            (BigUint::zero(), b(5)),                      // zero base
            (BigUint::one(), random_bits(&mut rng, 128)), // base one
            (m_minus_1.clone(), b(2)),                    // (m-1)^2 = 1 mod m
            (m_minus_1.clone(), m_minus_1.clone()),       // full-width exponent
            (m.clone(), b(7)),                            // base == m reduces to 0
            (random_bits(&mut rng, 200), even_exp),       // even exponent, base > m
            (random_bits(&mut rng, 64), BigUint::zero()), // exp 0 -> 1
            (random_bits(&mut rng, 64), b(65537)),        // the RSA public exponent
        ];
        for (base, exp) in cases {
            assert_eq!(
                base.mod_pow(&exp, &m),
                base.mod_pow_classic(&exp, &m),
                "base={base} exp={exp}"
            );
        }
        // m == 1 short-circuits to zero on both paths.
        assert_eq!(b(5).mod_pow(&b(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn mod_pow_montgomery_matches_classic_rsa_sizes() {
        // Verify-shaped workloads (e = 65537) at the paper's key sizes;
        // the classic reference stays cheap because the exponent is tiny.
        let mut rng = XorShift64::seed_from_u64(44);
        for bits in [1024usize, 2048] {
            let m = random_odd_modulus(&mut rng, bits);
            let base = random_bits(&mut rng, bits - 1);
            let e = b(65537);
            assert_eq!(
                base.mod_pow(&e, &m),
                base.mod_pow_classic(&e, &m),
                "bits={bits}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn mod_pow_even_modulus_panics() {
        // Even moduli have no Montgomery representation.
        b(3).mod_pow(&b(5), &b(4096));
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn mod_pow_modulus_wider_than_the_widest_kernel_panics() {
        let wide = BigUint::one()
            .shl(MontgomeryContext::MAX_BITS + 1)
            .add(&b(1));
        b(3).mod_pow(&b(65537), &wide);
    }

    // --- The ADX kernel, at the 8-word width of a 1024-bit key's CRT
    // primes, against the portable kernel.

    /// 8-word moduli: random 512-bit ones (top word ≥ 2^63), all-ones
    /// words, an all-ones top word over random low words, the sparse
    /// 2^511 + 1, and narrower moduli that pad up to 8 words.
    fn moduli_8(rng: &mut XorShift64) -> Vec<BigUint> {
        let all_ones = BigUint::one().shl(512).sub(&BigUint::one());
        let mut top_ones = from_words(&[u64::MAX]).shl(448).add(&random_bits(rng, 440));
        if top_ones.is_even() {
            top_ones = top_ones.add(&BigUint::one());
        }
        vec![
            random_odd_modulus(rng, 512),
            random_odd_modulus(rng, 512),
            random_odd_modulus(rng, 512),
            all_ones,
            top_ones,
            BigUint::one().shl(511).add(&BigUint::one()),
            random_odd_modulus(rng, 448),
            random_odd_modulus(rng, 258),
        ]
    }

    /// A uniform-ish value below `n` (of `bits` bits) as 8 words: random
    /// words cut to `bits` bits, so below 2n, then reduced once.
    fn random_below(rng: &mut XorShift64, m: &Mont<8>, bits: usize) -> [u64; 8] {
        let mut w = [0u64; 8];
        for (i, word) in w.iter_mut().enumerate() {
            let held = bits.saturating_sub(64 * i).min(64);
            if held > 0 {
                *word = rng.next_u64() >> (64 - held);
            }
        }
        m.reduce_once(w, 0)
    }

    #[test]
    fn adx_kernel_matches_portable_at_8_words() {
        let Some(adx) = adx::Adx::detect() else {
            eprintln!("this CPU lacks BMI2 or ADX: the ADX kernel cannot run here");
            return;
        };
        let mut rng = XorShift64::seed_from_u64(88);
        for n in moduli_8(&mut rng) {
            let m = Mont::<8>::new(&n);
            assert_eq!(load::<8>(&n)[7] >> 63, (n.bits() == 512) as u64);
            let below = |x: &BigUint| load::<8>(&x.rem(&n));
            let ones = from_words(&[u64::MAX; 8]);
            let edges = [
                [0; 8],
                below(&BigUint::one()),
                below(&n.sub(&BigUint::one())),
                below(&BigUint::one().shl(512)),
                below(&ones),
                below(&from_words(&[
                    u64::MAX,
                    0,
                    u64::MAX,
                    0,
                    u64::MAX,
                    0,
                    u64::MAX,
                    0,
                ])),
            ];
            for a in &edges {
                assert_eq!(adx.sqr(&m, a), m.mul(a, a), "n={n} a={a:x?}");
                for b in &edges {
                    assert_eq!(adx.mul(&m, a, b), m.mul(a, b), "n={n} a={a:x?} b={b:x?}");
                }
                // The multiplier may be any 8 words, reduced or not.
                let wide = [u64::MAX; 8];
                assert_eq!(adx.mul(&m, &wide, a), m.mul(&wide, a), "n={n} b={a:x?}");
            }
            for _ in 0..10_000 {
                let a = random_below(&mut rng, &m, n.bits());
                let b = random_below(&mut rng, &m, n.bits());
                assert_eq!(
                    adx.mul(&m, &a, &b),
                    m.mul(&a, &b),
                    "n={n} a={a:x?} b={b:x?}"
                );
                assert_eq!(adx.sqr(&m, &a), m.mul(&a, &a), "n={n} a={a:x?}");
            }
        }
    }

    #[test]
    fn mod_pow_at_8_words_matches_classic_for_every_exponent_length() {
        // For each length 1..=600: the 600-bit dense exponent's top
        // `len` bits, the all-ones `2^len - 1` and the sparse
        // `2^(len-1) + 1`. Each oracle grows one bit per length the way
        // `mod_pow_classic` walks an exponent (square, then multiply on
        // a set bit), and `mod_pow_classic` itself checks every 50th.
        let mut rng = XorShift64::seed_from_u64(99);
        let n = random_odd_modulus(&mut rng, 512);
        let ctx = MontgomeryContext::new(&n).expect("odd modulus");
        let base = random_bits(&mut rng, 600);
        let x = base.rem(&n);
        let dense = random_bits(&mut rng, 600);
        let (mut want_dense, mut want_ones, mut x_top) =
            (BigUint::one(), BigUint::one(), BigUint::one());
        for len in 1..=600 {
            want_dense = want_dense.mul_mod(&want_dense, &n);
            if dense.bit(600 - len) {
                want_dense = want_dense.mul_mod(&x, &n);
            }
            want_ones = want_ones.mul_mod(&want_ones, &n).mul_mod(&x, &n);
            // x_top = x^(2^(len-1)).
            x_top = if len == 1 {
                x.clone()
            } else {
                x_top.mul_mod(&x_top, &n)
            };
            let all_ones = BigUint::one().shl(len).sub(&BigUint::one());
            let mut cases = vec![
                (dense.shr(600 - len), want_dense.clone()),
                (all_ones, want_ones.clone()),
            ];
            if len > 1 {
                let sparse = BigUint::one().shl(len - 1).add(&BigUint::one());
                cases.push((sparse, x_top.mul_mod(&x, &n)));
            }
            for (exp, want) in cases {
                assert_eq!(exp.bits(), len);
                assert_eq!(ctx.mod_pow(&base, &exp), want, "exp={exp}");
                assert_eq!(ctx.mod_pow_portable(&base, &exp), want, "exp={exp}");
                if len % 50 == 0 {
                    assert_eq!(base.mod_pow_classic(&exp, &n), want, "exp={exp}");
                }
            }
        }
    }

    #[test]
    fn montgomery_context_reusable_across_calls() {
        let mut rng = XorShift64::seed_from_u64(55);
        let m = random_odd_modulus(&mut rng, 512);
        let ctx = MontgomeryContext::new(&m).expect("odd modulus");
        assert_eq!(ctx.modulus(), &m);
        for _ in 0..4 {
            let base = random_bits(&mut rng, 512);
            let exp = random_bits(&mut rng, 80);
            assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_classic(&exp, &m));
        }
    }
}
