//! Exactly-rounded floating-point summation for distributed aggregation.
//!
//! SUM/AVG accumulators must produce **bit-identical** results no matter
//! how the input rows are partitioned — across execution threads and
//! across cluster shards. Naive `f64` accumulation cannot: it rounds
//! after every addition, so the result depends on addition order.
//!
//! [`ExactSum`] is a fixed-point *superaccumulator*. Every finite `f64`
//! is an integer multiple of `2^-1074`, so the exact sum of any multiset
//! of them is a (wide) integer on that grid. The accumulator holds that
//! integer as signed 64-bit limbs carrying 32 value bits each, the grid
//! LSB at `2^-1088` so subnormal mantissas sit on limb boundaries. Only
//! the *window* of limbs a sum has touched is stored, as a base limb
//! index plus a `Vec<i64>`; the full grid spans 70 limbs (`2^-1088` to
//! `2^1152`), room for any finite input plus carries.
//!
//! - [`ExactSum::add`] splits the 53-bit mantissa across the three limbs
//!   it straddles and adds each part: no loop over earlier inputs, no
//!   allocation once the window covers the input's exponent.
//! - Each add moves a limb by less than `2^32`, so a limb cannot
//!   overflow for `2^30` adds; carries are propagated every
//!   `2^24` adds, on merge and on export.
//! - [`ExactSum::merge`] adds limb by limb.
//! - [`ExactSum::finalize`] rounds the exact integer once, to nearest
//!   even.
//!
//! The result is therefore the correctly-rounded sum of the multiset of
//! inputs, which is unique — independent of insertion order,
//! partitioning and merge shape.
//!
//! Non-finite inputs are tracked as flags (IEEE semantics: any NaN, or
//! both `+∞` and `-∞`, poison the sum to NaN; a single infinity sign
//! wins). Finite inputs never saturate early: the window reaches far
//! above `2^1024`, so ±∞ appears only when the *final* exact sum rounds
//! outside the `f64` range — exactly the IEEE single-rounding answer.

/// Bit position (from the fixed-point LSB) of `2^-1074`, the smallest
/// positive f64. `LIMB_LSB_EXP + FLOOR_BIT = -1074`.
const FLOOR_BIT: i32 = 14;
/// Exponent of the fixed-point accumulator's least significant bit.
/// A multiple of 32 below -1074 so subnormal mantissas land on limb
/// boundaries cleanly.
const LIMB_LSB_EXP: i32 = -1088;
/// 32 value bits per signed 64-bit limb: headroom for `2^30` unpropagated
/// adds.
const LIMB_BITS: i32 = 32;
/// Mask of one limb's value bits.
const LIMB_MASK: i64 = (1 << LIMB_BITS) - 1;
/// Limb count of the whole grid. The largest finite input, `f64::MAX`,
/// reaches limb 66; `70 * 32 = 2240` bits covers `2^1152`, room for
/// `2^128` such inputs.
const NLIMBS: usize = 70;
/// Adds between carry propagations. Each add moves a limb by less than
/// `2^32` and a propagated limb lies in `[-2^31, 2^32)`, so a limb stays
/// below `2^32 * (NORMALIZE_EVERY + 1)` in magnitude — and the sum of two
/// such limbs in [`ExactSum::merge`] far below `2^63`.
const NORMALIZE_EVERY: u32 = 1 << 24;

/// An exact, order-independent `f64` sum accumulator.
///
/// `add` values (or `merge` other accumulators) in any order, then
/// `finalize` to get the unique correctly-rounded `f64` sum.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Grid index of `limbs[0]`.
    base: u8,
    /// Signed limbs of the exact sum of all finite inputs: the value is
    /// `Σ limbs[i] · 2^(32·(base + i) - 1088)`. After [`Self::normalize`]
    /// every limb but the top one lies in `[0, 2^32)` and the top one is
    /// a signed 32-bit value.
    limbs: Vec<i64>,
    /// Adds since the last carry propagation (0 = normalized).
    pending: u32,
    /// A NaN was added (or `+∞` and `-∞` cancelled).
    has_nan: bool,
    /// A `+∞` was added.
    pos_inf: bool,
    /// A `-∞` was added.
    neg_inf: bool,
}

impl ExactSum {
    /// A fresh accumulator summing to zero.
    pub fn new() -> ExactSum {
        ExactSum::default()
    }

    /// Whether anything non-finite has been absorbed (the finalized
    /// value will be NaN or ±∞).
    pub fn is_poisoned(&self) -> bool {
        self.has_nan || self.pos_inf || self.neg_inf
    }

    /// Add one value exactly.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as u32;
        if biased == 0x7ff {
            if x.is_nan() {
                self.has_nan = true;
            } else if x > 0.0 {
                self.pos_inf = true;
            } else {
                self.neg_inf = true;
            }
            return;
        }
        let frac = bits & ((1u64 << 52) - 1);
        // Value = mant · 2^(pos + LIMB_LSB_EXP).
        let (mant, pos) = if biased == 0 {
            if frac == 0 {
                return; // ±0
            }
            (frac, FLOOR_BIT as u32)
        } else {
            ((1u64 << 52) | frac, biased + (FLOOR_BIT as u32 - 1))
        };
        // mant (53 bits) << shift (≤31) spans ≤ 84 bits: three limbs.
        let wide = (mant as u128) << (pos % LIMB_BITS as u32);
        let parts = [
            (wide as i64) & LIMB_MASK,
            ((wide >> LIMB_BITS) as i64) & LIMB_MASK,
            (wide >> (2 * LIMB_BITS)) as i64,
        ];
        // Two's-complement conditional negation: `sign` is 0 or -1.
        let sign = -((bits >> 63) as i64);
        let at = self.slot((pos / LIMB_BITS as u32) as usize, 3);
        for (l, p) in self.limbs[at..at + 3].iter_mut().zip(parts) {
            *l += (p ^ sign) - sign;
        }
        self.pending += 1;
        if self.pending == NORMALIZE_EVERY {
            self.normalize();
        }
    }

    /// Absorb another accumulator exactly. Associative and commutative
    /// up to bit-identical finalized results.
    pub fn merge(&mut self, other: &ExactSum) {
        self.has_nan |= other.has_nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        if other.limbs.is_empty() {
            return;
        }
        let at = self.slot(other.base as usize, other.limbs.len());
        for (l, &o) in self.limbs[at..].iter_mut().zip(&other.limbs) {
            *l += o;
        }
        self.normalize();
    }

    /// Index into `limbs` of grid limb `limb`, first widening the window
    /// so grid limbs `limb..limb + len` are all stored.
    #[inline]
    fn slot(&mut self, limb: usize, len: usize) -> usize {
        let base = self.base as usize;
        if limb < base || limb + len > base + self.limbs.len() {
            self.widen(limb, limb + len);
        }
        limb - self.base as usize
    }

    #[cold]
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.limbs.is_empty() {
            self.base = lo as u8;
            self.limbs.reserve_exact(4);
            self.limbs.resize(hi - lo, 0);
            return;
        }
        let base = self.base as usize;
        if lo < base {
            self.limbs.splice(0..0, std::iter::repeat_n(0, base - lo));
            self.base = lo as u8;
        }
        let end = self.base as usize + self.limbs.len();
        if hi > end {
            self.limbs.resize(hi - self.base as usize, 0);
        }
    }

    /// Propagate carries into the canonical window: every limb but the
    /// top one in `[0, 2^32)`, the top one a signed 32-bit value, no
    /// limb that only sign-extends the one below it, and no zero limbs at
    /// the bottom. Each exact sum has exactly one canonical window.
    fn normalize(&mut self) {
        self.pending = 0;
        let Some(last) = self.limbs.len().checked_sub(1) else {
            return;
        };
        let mut carry = 0;
        for l in &mut self.limbs[..last] {
            let v = *l + carry;
            *l = v & LIMB_MASK;
            carry = v >> LIMB_BITS;
        }
        self.limbs[last] += carry;
        // Spill the top limb upward while the grid has room.
        while self.base as usize + self.limbs.len() < NLIMBS {
            let top = *self.limbs.last().expect("window is non-empty");
            if i32::try_from(top).is_ok() {
                break;
            }
            *self.limbs.last_mut().expect("window is non-empty") = top & LIMB_MASK;
            self.limbs.push(top >> LIMB_BITS);
        }
        // Fold a top limb that only sign-extends the one below.
        while let [.., below, top] = self.limbs[..] {
            let folded = (top << LIMB_BITS) + below;
            if !((top == 0 || top == -1) && i32::try_from(folded).is_ok()) {
                break;
            }
            self.limbs.pop();
            *self.limbs.last_mut().expect("window is non-empty") = folded;
        }
        let zeros = self.limbs.iter().take_while(|&&l| l == 0).count();
        if zeros == self.limbs.len() {
            self.limbs.clear();
            self.base = 0;
        } else if zeros > 0 {
            self.limbs.drain(..zeros);
            self.base += zeros as u8;
        }
    }

    /// The accumulator's transport form: the canonical limb window as
    /// `(base, limbs)` plus the `(has_nan, pos_inf, neg_inf)` flags.
    pub fn to_parts(&self) -> (u8, Vec<i64>, bool, bool, bool) {
        let mut s = self.clone();
        s.normalize();
        (s.base, s.limbs, s.has_nan, s.pos_inf, s.neg_inf)
    }

    /// Rebuild an accumulator from its transport form, rejecting a
    /// window that leaves the grid or limbs that are not normalized —
    /// the input may come from another process, and an unchecked limb
    /// could overflow a later merge.
    pub fn from_parts(
        base: u8,
        limbs: Vec<i64>,
        has_nan: bool,
        pos_inf: bool,
        neg_inf: bool,
    ) -> Result<ExactSum, &'static str> {
        if base as usize + limbs.len() > NLIMBS {
            return Err("exact-sum window outside the limb grid");
        }
        if let Some((top, rest)) = limbs.split_last() {
            let normalized =
                rest.iter().all(|l| (0..1 << LIMB_BITS).contains(l)) && i32::try_from(*top).is_ok();
            if !normalized {
                return Err("exact-sum limbs not normalized");
            }
        }
        Ok(ExactSum {
            base,
            limbs,
            pending: 0,
            has_nan,
            pos_inf,
            neg_inf,
        })
    }

    /// Round the exact sum to the nearest `f64` (ties to even).
    pub fn finalize(&self) -> f64 {
        if self.has_nan || (self.pos_inf && self.neg_inf) {
            return f64::NAN;
        }
        if self.pos_inf {
            return f64::INFINITY;
        }
        if self.neg_inf {
            return f64::NEG_INFINITY;
        }
        if self.limbs.is_empty() {
            return 0.0;
        }
        let mut grid = [0i64; NLIMBS];
        let base = self.base as usize;
        grid[base..base + self.limbs.len()].copy_from_slice(&self.limbs);
        round_limbs(grid)
    }
}

/// Equal exact sums (and flags), however they were accumulated.
impl PartialEq for ExactSum {
    fn eq(&self, other: &ExactSum) -> bool {
        self.to_parts() == other.to_parts()
    }
}

/// Round a signed fixed-point grid (limbs not necessarily normalized) to
/// the nearest-even `f64`.
fn round_limbs(mut limbs: [i64; NLIMBS]) -> f64 {
    propagate(&mut limbs);
    let mut neg = false;
    if limbs[NLIMBS - 1] < 0 {
        neg = true;
        for l in limbs.iter_mut() {
            *l = -*l;
        }
        propagate(&mut limbs);
    }

    // Highest set bit.
    let mut high: Option<i32> = None;
    for i in (0..NLIMBS).rev() {
        if limbs[i] != 0 {
            let top = 63 - (limbs[i] as u64).leading_zeros() as i32;
            high = Some(i as i32 * LIMB_BITS + top);
            break;
        }
    }
    let Some(h) = high else {
        return 0.0;
    };
    // At or above 2^1024 the sum rounds to infinity; the bit reads below
    // assume `h` lies inside the grid.
    if h >= 1024 - LIMB_LSB_EXP {
        return if neg {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
    }

    let bit = |pos: i32| -> u64 {
        if pos < 0 {
            return 0;
        }
        ((limbs[(pos / LIMB_BITS) as usize] >> (pos % LIMB_BITS)) & 1) as u64
    };

    // Keep 53 significant bits, clamped so the result LSB never drops
    // below 2^-1074 (bits below FLOOR_BIT cannot exist: every input has
    // exponent ≥ -1074, so a clamped extraction is exact).
    let lsb_pos = (h - 52).max(FLOOR_BIT);
    let mut mant: u64 = 0;
    for pos in (lsb_pos..=h).rev() {
        mant = (mant << 1) | bit(pos);
    }
    let guard = bit(lsb_pos - 1) == 1;
    let sticky = {
        let mut any = false;
        let whole = ((lsb_pos - 1).max(0) / LIMB_BITS) as usize;
        for (i, &l) in limbs.iter().enumerate().take(whole + 1) {
            let limb_base = i as i32 * LIMB_BITS;
            let mask_top = (lsb_pos - 1 - limb_base).min(LIMB_BITS);
            if mask_top <= 0 {
                break;
            }
            let mask = if mask_top >= LIMB_BITS {
                -1i64 as u64
            } else {
                (1u64 << mask_top) - 1
            };
            if (l as u64) & mask != 0 {
                any = true;
                break;
            }
        }
        any
    };
    let mut e_lsb = lsb_pos + LIMB_LSB_EXP;
    if guard && (sticky || mant & 1 == 1) {
        mant += 1;
        if mant == 1 << 53 {
            mant >>= 1;
            e_lsb += 1;
        }
    }
    compose(neg, mant, e_lsb)
}

/// Normalize limbs so each holds a value in `[0, 2^32)`, carrying
/// upward (Euclidean remainder keeps per-limb values nonnegative even
/// when mixed-sign accumulation drove some negative).
fn propagate(limbs: &mut [i64; NLIMBS]) {
    let base = 1i64 << LIMB_BITS;
    for i in 0..NLIMBS - 1 {
        let r = limbs[i].rem_euclid(base);
        let carry = (limbs[i] - r) >> LIMB_BITS;
        limbs[i] = r;
        limbs[i + 1] += carry;
    }
}

/// Build the `f64` with value `±mant * 2^e_lsb` (`mant < 2^53`,
/// `e_lsb ≥ -1074`), saturating to ±∞ above the representable range.
fn compose(neg: bool, mut mant: u64, mut e_lsb: i32) -> f64 {
    if mant == 0 {
        return 0.0;
    }
    while mant < (1 << 52) && e_lsb > -1074 {
        mant <<= 1;
        e_lsb -= 1;
    }
    let bits = if mant < (1 << 52) {
        // Subnormal (e_lsb parked at -1074).
        mant
    } else {
        let biased = (e_lsb + 1075) as u64;
        if biased >= 2047 {
            return if neg {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
        }
        (biased << 52) | (mant & ((1u64 << 52) - 1))
    };
    let v = f64::from_bits(bits);
    if neg {
        -v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The expansion accumulator this module replaced: a nonoverlapping
    /// list of `f64` components (Shewchuk 1997) that every add threads
    /// through, deposited on the fixed-point grid only at finalize. Kept
    /// as the differential reference for the superaccumulator.
    #[derive(Default)]
    struct Expansion {
        comps: Vec<f64>,
        has_nan: bool,
        pos_inf: bool,
        neg_inf: bool,
    }

    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bv = s - a;
        let av = s - bv;
        (s, (a - av) + (b - bv))
    }

    impl Expansion {
        fn add(&mut self, x: f64) {
            if x.is_nan() {
                self.has_nan = true;
                return;
            }
            if x.is_infinite() {
                if x > 0.0 {
                    self.pos_inf = true;
                } else {
                    self.neg_inf = true;
                }
                return;
            }
            let mut q = x;
            let mut out = Vec::with_capacity(self.comps.len() + 1);
            for &c in &self.comps {
                let (hi, lo) = two_sum(q, c);
                if hi.is_infinite() {
                    // Beyond the f64 range: keep both, still exact.
                    out.push(c);
                    continue;
                }
                if lo != 0.0 {
                    out.push(lo);
                }
                q = hi;
            }
            if q != 0.0 {
                out.push(q);
            }
            self.comps = out;
        }

        fn finalize(&self) -> f64 {
            if self.has_nan || (self.pos_inf && self.neg_inf) {
                return f64::NAN;
            }
            if self.pos_inf {
                return f64::INFINITY;
            }
            if self.neg_inf {
                return f64::NEG_INFINITY;
            }
            if self.comps.is_empty() {
                return 0.0;
            }
            let mut limbs = [0i64; NLIMBS];
            for &c in &self.comps {
                let bits = c.to_bits();
                let sign: i64 = if bits >> 63 == 1 { -1 } else { 1 };
                let biased = ((bits >> 52) & 0x7ff) as i32;
                let frac = bits & ((1u64 << 52) - 1);
                let (mant, exp_lsb) = if biased == 0 {
                    (frac, -1074)
                } else {
                    ((1u64 << 52) | frac, biased - 1075)
                };
                let pos = exp_lsb - LIMB_LSB_EXP;
                let limb = (pos / LIMB_BITS) as usize;
                let wide = (mant as u128) << (pos % LIMB_BITS);
                let mask = (1u128 << LIMB_BITS) - 1;
                limbs[limb] += sign * ((wide & mask) as i64);
                limbs[limb + 1] += sign * (((wide >> LIMB_BITS) & mask) as i64);
                limbs[limb + 2] += sign * (((wide >> (2 * LIMB_BITS)) & mask) as i64);
            }
            round_limbs(limbs)
        }
    }

    fn exact(values: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &v in values {
            s.add(v);
        }
        s.finalize()
    }

    fn reference(values: &[f64]) -> f64 {
        let mut s = Expansion::default();
        for &v in values {
            s.add(v);
        }
        s.finalize()
    }

    /// Export, import, and check the import is accepted unchanged.
    fn roundtrip(s: &ExactSum) -> ExactSum {
        let (base, limbs, nan, pinf, ninf) = s.to_parts();
        ExactSum::from_parts(base, limbs, nan, pinf, ninf).expect("normalized export")
    }

    /// Tiny deterministic PRNG (splitmix64) for fuzz cases.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn sign(&mut self) -> f64 {
            if self.next() & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        }
        fn f64_wide(&mut self) -> f64 {
            // Finite doubles across a wide exponent range.
            let m = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let e = (self.next() % 600) as i32 - 300;
            self.sign() * m * 2f64.powi(e)
        }
        /// Any finite double: every exponent, subnormals included.
        fn f64_any(&mut self) -> f64 {
            let exp = self.below(2047);
            let bits = (self.next() & (1 << 63)) | (exp << 52) | (self.next() >> 12);
            f64::from_bits(bits)
        }
        fn subnormal(&mut self) -> f64 {
            self.sign() * f64::from_bits(self.next() >> 12)
        }
    }

    /// One seeded differential case of each shape the accumulator must
    /// get right.
    fn case(rng: &mut Rng, shape: u64) -> Vec<f64> {
        let n = 1 + rng.below(60) as usize;
        let mut v: Vec<f64> = match shape {
            0 => (0..n).map(|_| rng.f64_wide()).collect(),
            1 => (0..n).map(|_| rng.f64_any()).collect(),
            2 => (0..n).map(|_| rng.subnormal()).collect(),
            3 => {
                // Cancellation: pairs x, -x around a small residue.
                let mut out = Vec::new();
                for _ in 0..n {
                    let x = rng.f64_wide();
                    out.push(x);
                    out.push(-x);
                }
                out.push(rng.f64_wide() * 1e-30);
                out
            }
            4 => {
                // ±MAX excursions beyond the f64 range, with small change.
                let mut out: Vec<f64> = (0..n).map(|_| rng.sign() * f64::MAX).collect();
                out.extend((0..n).map(|_| rng.f64_wide()));
                out.push(f64::MAX * rng.sign());
                out
            }
            5 => {
                // Normals straddling the subnormal boundary.
                (0..n)
                    .map(|_| match rng.below(3) {
                        0 => rng.subnormal(),
                        1 => rng.sign() * f64::MIN_POSITIVE,
                        _ => rng.sign() * f64::MIN_POSITIVE * (1 + rng.below(1 << 20)) as f64,
                    })
                    .collect()
            }
            _ => {
                // Non-finite values among finite ones.
                let mut out: Vec<f64> = (0..n).map(|_| rng.f64_wide()).collect();
                let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                out.push(poison[rng.below(3) as usize]);
                out
            }
        };
        // Shuffle so no shape arrives sorted.
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    }

    /// Every permutation of `0..n` (n ≤ 4 here).
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..=p.len() {
                let mut q = p.clone();
                q.insert(at, n - 1);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn superaccumulator_matches_expansion_reference() {
        let mut rng = Rng(0x5EED);
        for round in 0..1400u64 {
            let vals = case(&mut rng, round % 7);
            let want = reference(&vals).to_bits();
            assert_eq!(
                exact(&vals).to_bits(),
                want,
                "flat sum, case {round}: {vals:?}"
            );
            // Every split into 1..=4 parts (round-robin and contiguous),
            // each exported and imported, merged in every order.
            for nparts in 1..=4usize {
                for contiguous in [false, true] {
                    let mut parts: Vec<ExactSum> = (0..nparts).map(|_| ExactSum::new()).collect();
                    for (i, &v) in vals.iter().enumerate() {
                        let p = if contiguous {
                            i * nparts / vals.len()
                        } else {
                            i % nparts
                        };
                        parts[p].add(v);
                    }
                    let imported: Vec<ExactSum> = parts.iter().map(roundtrip).collect();
                    for order in permutations(nparts) {
                        let mut merged = ExactSum::new();
                        for &p in &order {
                            merged.merge(&imported[p]);
                        }
                        assert_eq!(
                            roundtrip(&merged).finalize().to_bits(),
                            want,
                            "case {round}, {nparts} parts, order {order:?}: {vals:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simple_sums_match_naive() {
        assert_eq!(exact(&[]), 0.0);
        assert_eq!(exact(&[1.5]), 1.5);
        assert_eq!(exact(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(exact(&[0.1, 0.2]), 0.1 + 0.2);
        assert_eq!(exact(&[-4.0, 4.0]), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Naive summation loses the 1.0 entirely.
        assert_eq!(exact(&[1.0e100, 1.0, -1.0e100]), 1.0);
        assert_eq!(exact(&[1.0, 1.0e100, -1.0e100, 1.0]), 2.0);
        // Sterbenz-adjacent cancellations at many scales.
        let mut vals = Vec::new();
        for e in (-200..200).step_by(7) {
            vals.push(2f64.powi(e));
            vals.push(-2f64.powi(e));
        }
        vals.push(3.25);
        assert_eq!(exact(&vals), 3.25);
    }

    #[test]
    fn order_independent() {
        let mut rng = Rng(0xD1CE);
        let vals: Vec<f64> = (0..200).map(|_| rng.f64_wide()).collect();
        let forward = exact(&vals);
        let mut rev = vals.clone();
        rev.reverse();
        assert_eq!(forward.to_bits(), exact(&rev).to_bits());
        // A few deterministic shuffles.
        for seed in 1..5u64 {
            let mut r = Rng(seed);
            let mut shuffled = vals.clone();
            for i in (1..shuffled.len()).rev() {
                let j = (r.next() % (i as u64 + 1)) as usize;
                shuffled.swap(i, j);
            }
            assert_eq!(forward.to_bits(), exact(&shuffled).to_bits());
        }
    }

    #[test]
    fn merge_associative_commutative() {
        let mut a = ExactSum::new();
        a.add(1.0e-30);
        a.add(7.25);
        let mut b = ExactSum::new();
        b.add(-3.5e200);
        b.add(0.1);
        let mut c = ExactSum::new();
        c.add(3.5e200);

        // (a ⊕ b) ⊕ c
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        // c ⊕ b ⊕ a
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);

        let want = ab.finalize().to_bits();
        assert_eq!(want, a_bc.finalize().to_bits());
        assert_eq!(want, cba.finalize().to_bits());
    }

    #[test]
    fn correctly_rounded_vs_integer_reference() {
        // Values exactly representable as scaled integers: compare
        // against exact i128 arithmetic.
        let mut rng = Rng(7);
        for _ in 0..200 {
            let n = 3 + (rng.next() % 40) as usize;
            let mut vals = Vec::with_capacity(n);
            let mut total: i128 = 0;
            for _ in 0..n {
                let v = (rng.next() % (1 << 40)) as i128 - (1 << 39);
                total += v;
                // Scale by 2^-20: exact in f64 (v < 2^40, well under 2^53).
                vals.push(v as f64 / (1u64 << 20) as f64);
            }
            let want = total as f64 / (1u64 << 20) as f64; // exact: |total| < 2^46
            assert_eq!(exact(&vals).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn rounds_to_nearest_even_not_faithfully() {
        // 1 + 2^-53 + 2^-106: the true sum is just above the midpoint
        // between 1 and 1+ulp, so it must round up. A faithful rounding
        // could legally return 1.0; correct rounding may not.
        let up = exact(&[1.0, 2f64.powi(-53), 2f64.powi(-106)]);
        assert_eq!(up, 1.0 + 2f64.powi(-52));
        // Exactly at the midpoint → ties-to-even keeps 1.0.
        let even = exact(&[1.0, 2f64.powi(-53)]);
        assert_eq!(even, 1.0);
        // Midpoint from the other side: 1.0 + 3*2^-53 is the midpoint
        // between 1+ulp and 1+2ulp; even mantissa is 1+2ulp.
        let odd = exact(&[1.0, 2f64.powi(-53), 2f64.powi(-52)]);
        assert_eq!(odd, 1.0 + 2.0 * 2f64.powi(-52));
    }

    #[test]
    fn subnormals_exact() {
        let tiny = f64::from_bits(1); // 2^-1074
        assert_eq!(exact(&[tiny, tiny]).to_bits(), f64::from_bits(2).to_bits());
        assert_eq!(exact(&[tiny, -tiny]), 0.0);
        // Subnormal result from cancelling normals.
        let a = f64::MIN_POSITIVE; // 2^-1022
        let half = a / 2.0; // subnormal
        assert_eq!(exact(&[a, -half]).to_bits(), half.to_bits());
        // Descent into the subnormal range stays exact.
        let mut s = ExactSum::new();
        s.add(f64::MIN_POSITIVE);
        s.add(-f64::from_bits(3));
        let want = f64::MIN_POSITIVE - f64::from_bits(3); // exact (Sterbenz region)
        assert_eq!(s.finalize().to_bits(), want.to_bits());
    }

    #[test]
    fn non_finite_flags() {
        assert!(exact(&[1.0, f64::NAN]).is_nan());
        assert_eq!(exact(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert_eq!(exact(&[f64::NEG_INFINITY, 5.0]), f64::NEG_INFINITY);
        assert!(exact(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        // Flags survive merge in either direction, and transport.
        let mut a = ExactSum::new();
        a.add(f64::INFINITY);
        let mut b = ExactSum::new();
        b.add(2.0);
        let mut m1 = a.clone();
        m1.merge(&b);
        let mut m2 = b.clone();
        m2.merge(&a);
        assert_eq!(m1.finalize(), f64::INFINITY);
        assert_eq!(m2.finalize(), f64::INFINITY);
        assert_eq!(roundtrip(&a).finalize(), f64::INFINITY);
    }

    #[test]
    fn overflow_decided_only_at_finalize() {
        let big = f64::MAX;
        assert_eq!(exact(&[big, big]), f64::INFINITY);
        assert_eq!(exact(&[-big, -big]), f64::NEG_INFINITY);
        // An excursion beyond the f64 range that comes back is *not*
        // sticky: the exact sum is MAX, so the result is MAX — in any
        // order.
        assert_eq!(exact(&[big, big, -big]).to_bits(), big.to_bits());
        assert_eq!(exact(&[big, -big, big]).to_bits(), big.to_bits());
        assert_eq!(exact(&[-big, big, big]).to_bits(), big.to_bits());
        // Deep excursion: four MAXes up, three back down.
        let vals = [big, big, big, big, -big, -big, -big];
        assert_eq!(exact(&vals).to_bits(), big.to_bits());
        // The same excursion split across exported partials: one side
        // holds 2·MAX, beyond any finite f64.
        let mut up = ExactSum::new();
        up.add(big);
        up.add(big);
        let mut down = ExactSum::new();
        down.add(-big);
        let mut merged = roundtrip(&down);
        merged.merge(&roundtrip(&up));
        assert_eq!(merged.finalize().to_bits(), big.to_bits());
    }

    #[test]
    fn huge_but_finite_rounds_correctly() {
        // MAX + small stays MAX (the small part is beneath the ulp).
        assert_eq!(exact(&[f64::MAX, 1.0]).to_bits(), f64::MAX.to_bits());
        // MAX + ulp/2 is the midpoint to "2^1024": rounds to ∞ per IEEE.
        let half_ulp = 2f64.powi(970);
        assert_eq!(exact(&[f64::MAX, half_ulp]), f64::INFINITY);
        // Just below the midpoint stays MAX.
        assert_eq!(
            exact(&[f64::MAX, half_ulp, -1.0]).to_bits(),
            f64::MAX.to_bits()
        );
    }

    #[test]
    fn long_runs_propagate_carries() {
        // More adds than NORMALIZE_EVERY, all landing on the same limbs
        // with every mantissa bit set: without periodic propagation the
        // limbs would keep growing toward overflow.
        let x = f64::from_bits(0x3FFF_FFFF_FFFF_FFFF); // 2 - ulp
        let n = NORMALIZE_EVERY as u64 + 3;
        let mut s = ExactSum::new();
        for _ in 0..n {
            s.add(x);
        }
        assert!(s.pending < NORMALIZE_EVERY);
        assert_eq!(s.finalize(), x * n as f64); // n·x < 2^53 ulps: exact
    }

    #[test]
    fn transport_rejects_bad_windows() {
        let full = 1i64 << LIMB_BITS;
        let parts =
            |base: u8, limbs: Vec<i64>| ExactSum::from_parts(base, limbs, false, false, false);
        // The window must lie on the grid.
        assert!(parts(NLIMBS as u8, vec![1]).is_err());
        assert!(parts(68, vec![0, 0, 1]).is_err());
        assert!(parts(u8::MAX, vec![]).is_err());
        // Lower limbs in [0, 2^32), the top one a signed 32-bit value.
        assert!(parts(3, vec![-1, 1]).is_err());
        assert!(parts(3, vec![full, 1]).is_err());
        assert!(parts(3, vec![0, 1 << 31]).is_err());
        assert!(parts(3, vec![0, i64::MIN]).is_err());
        // The extremes that are accepted merge without overflow, however
        // many times.
        let mut limbs = vec![full - 1; NLIMBS];
        limbs[NLIMBS - 1] = i32::MAX as i64;
        let widest = parts(0, limbs).unwrap();
        let lowest = parts(NLIMBS as u8 - 1, vec![i32::MIN as i64]).unwrap();
        let mut acc = ExactSum::new();
        for _ in 0..1000 {
            acc.merge(&widest);
            acc.merge(&lowest);
            acc.merge(&widest);
        }
        assert_eq!(acc.finalize(), f64::INFINITY);
    }

    #[test]
    fn equal_sums_share_one_canonical_window() {
        // The same exact value reached along different paths: windows
        // that once reached far lower or higher, and negative sums.
        let mut a = ExactSum::new();
        for v in [1e-300, 1.0, -1e-300, f64::MAX, -f64::MAX, -3.0] {
            a.add(v);
        }
        let mut b = ExactSum::new();
        b.add(-2.0);
        assert_eq!(a, b);
        assert_eq!(a.to_parts(), b.to_parts());
        let mut zero = ExactSum::new();
        zero.add(1.5);
        zero.add(-1.5);
        assert_eq!(zero, ExactSum::new());
        assert_eq!(zero.to_parts(), (0, Vec::new(), false, false, false));
    }
}
