//! Multi-lane, branch-free filter kernels over the CSR grid's SoA arrays.
//!
//! The planar batch is candidates-bound: millions of "is this point within
//! `r` of the query?" tests over contiguous coordinate rows.  This module is
//! the single home of that test.  Every kernel processes [`LANES`] slots per
//! block with straight-line arithmetic (no per-slot branch), accumulates a
//! hit *bitmask*, and only then drains the set bits in ascending order — so
//! the visit order, and therefore every downstream accumulation and
//! tie-break, is **bit-identical to the scalar reference** at any lane width.
//!
//! ## Lane layout
//!
//! The CSR grid stores coordinates axis-major (`coords[axis * n + slot]`),
//! so the slots of one cell row are contiguous *per axis*:
//!
//! ```text
//!              slot:   s   s+1  s+2  s+3  s+4  s+5  s+6  s+7
//! coords[0*n + ..]:  x0   x1   x2   x3   x4   x5   x6   x7   ── one load
//! coords[1*n + ..]:  y0   y1   y2   y3   y4   y5   y6   y7   ── one load
//!                     │    │    │                        │
//!                     ▼    ▼    ▼                        ▼
//!        acc[l] = Σ_axis (coords[axis*n+s+l] - q[axis])²      (per lane)
//!        mask  |= (acc[l] <= r²) << l                         (no branch)
//!        while mask != 0 { visit(s + mask.trailing_zeros()) } (in order)
//! ```
//!
//! The arithmetic per lane is exactly the scalar expression — same operand
//! order, same rounding — so `acc[l]` equals the scalar `dist_sq` bit for
//! bit, and the mask drain preserves ascending slot order.  LLVM
//! auto-vectorizes the fixed-size lane loops on any target; no `std::arch`
//! intrinsics and no external SIMD crates are involved.
//!
//! ## The f32 sieve ("sieve then verify")
//!
//! [`filter_within_sieve`] first compares *f32* squared distances against a
//! **widened** threshold, and only re-tests the survivors with the exact f64
//! comparison.  The widening makes the sieve one-sided: with every input
//! coordinate bounded by `M` in magnitude, the f32 evaluation of a *true
//! hit's* squared distance exceeds the f64 value by at most
//! `≈ D·ε₃₂·(4·M·r + 3·r²) + 4·D·M²·ε₃₂²` (input rounding scales with `M`,
//! but the dominant cross term scales with `M·r` — see [`sieve_threshold`]
//! for the derivation), so a threshold widened by
//! `D·ε₃₂·(32·M·r + 8·r² + 32·M²·ε₃₂ + 1)` can never reject a true hit —
//! f32 lane math only ever *discards* points that are provably outside the
//! ball.
//! Survivors go through the same f64 comparison as the scalar path, so the
//! hit set (and visit order) stays bit-identical; the only observable
//! difference is the [`sieve_rejected`] work counter.  When coordinates are
//! too large for the bound to be meaningful (`M ≥ 1e17`, near the f32 range
//! where intermediate squares overflow), [`sieve_supported`] reports `false`
//! and callers fall back to the laned f64 kernel.
//!
//! ## Counted advance
//!
//! [`advance_lt`] / [`advance_le`] move a monotone pointer over ascending
//! coordinates (the 1-D sweep's four pointers): compare the next
//! [`ADVANCE_BLOCK`] values against the bound, add how many passed, and go on
//! only if all did.  On sorted input the passing values are a prefix of the
//! block, so the pointer stops exactly where the one-step loop stops, and the
//! one branch per block is predictable where the one-step loop's exit, taken
//! after a data-dependent number of steps, is not.
//!
//! ## Adding a laned kernel
//!
//! 1. Write the scalar expression once, per slot, exactly as the reference
//!    code computes it (operand order matters for float bit-identity).
//! 2. Evaluate it for `LANES` slots into a local `[_; LANES]` array with a
//!    plain `for l in 0..LANES` loop over contiguous slices — no `if` inside.
//! 3. Fold the per-lane predicate into a `u32` mask, then drain set bits
//!    with `trailing_zeros` / `mask &= mask - 1` and call the visitor.
//! 4. Handle the `< LANES` tail with the scalar expression.
//! 5. Pin it in `proptest` against the scalar reference for bit-identical
//!    outputs (see `tests/kernel_invariance.rs`).
//!
//! [`sieve_rejected`]: crate::hashgrid::GridQueryStats::sieve_rejected

use std::sync::atomic::{AtomicU8, Ordering};

/// Slots processed per straight-line block by the laned kernels.
pub const LANES: usize = 8;

/// Which kernel answers the CSR distance filters.
///
/// All three modes return bit-identical hits in identical order; they differ
/// only in throughput and in the [`sieve_rejected`] counter.  The process
/// default is [`KernelMode::SieveF32`]; its halved-bandwidth first pass pays
/// off when most candidates miss or the index outgrows the cache, while
/// [`KernelMode::LanedF64`] wins when true hits dominate (every survivor
/// pays the f64 verify on top of the f32 pass) — `kernel_baseline` (in
/// `mrs-bench`) prints both regimes.
///
/// [`sieve_rejected`]: crate::hashgrid::GridQueryStats::sieve_rejected
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum KernelMode {
    /// One candidate at a time, f64 — the reference the other modes are
    /// pinned against.
    ScalarF64 = 0,
    /// [`LANES`]-wide f64 blocks with mask-accumulate drains.
    LanedF64 = 1,
    /// f32 lane pass against a widened radius rejects the bulk; survivors
    /// are re-verified with the exact f64 comparison.
    SieveF32 = 2,
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(KernelMode::SieveF32 as u8);

/// The process-wide kernel mode (see [`set_kernel_mode`]).
pub fn kernel_mode() -> KernelMode {
    match KERNEL_MODE.load(Ordering::Relaxed) {
        0 => KernelMode::ScalarF64,
        1 => KernelMode::LanedF64,
        _ => KernelMode::SieveF32,
    }
}

/// Selects the kernel that answers subsequent CSR distance filters.
///
/// Process-global and immediate; intended for benchmarks, baselines and the
/// invariance tests that A/B the modes.  Because the modes are exact, the
/// setting never changes any answer — only throughput and the
/// `sieve_rejected` counter.
pub fn set_kernel_mode(mode: KernelMode) {
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// Squared Euclidean distance between two coordinate arrays — **the** scalar
/// distance expression every kernel (and [`Point::dist_sq`]) evaluates.
///
/// [`Point::dist_sq`]: crate::point::Point::dist_sq
#[inline(always)]
pub fn dist_sq<const D: usize>(a: &[f64; D], b: &[f64; D]) -> f64 {
    let mut acc = 0.0;
    for axis in 0..D {
        let d = a[axis] - b[axis];
        acc += d * d;
    }
    acc
}

/// Scalar reference filter: visits every slot in `lo..hi` whose point lies
/// within the closed ball `dist²(q) <= r_sq`, in ascending slot order.
///
/// `coords` is the axis-major SoA array (`coords[axis * n + slot]`).
#[inline]
pub fn filter_within_scalar<const D: usize, F: FnMut(usize)>(
    coords: &[f64],
    n: usize,
    lo: usize,
    hi: usize,
    q: &[f64; D],
    r_sq: f64,
    mut on_hit: F,
) {
    for slot in lo..hi {
        let mut acc = 0.0;
        for axis in 0..D {
            let d = coords[axis * n + slot] - q[axis];
            acc += d * d;
        }
        if acc <= r_sq {
            on_hit(slot);
        }
    }
}

/// Laned f64 filter: [`LANES`] slots per block, mask-accumulate, in-order
/// drain.  Hit set and visit order are bit-identical to
/// [`filter_within_scalar`].
#[inline]
pub fn filter_within_laned<const D: usize, F: FnMut(usize)>(
    coords: &[f64],
    n: usize,
    lo: usize,
    hi: usize,
    q: &[f64; D],
    r_sq: f64,
    mut on_hit: F,
) {
    let mut slot = lo;
    while slot + LANES <= hi {
        let mut acc = [0.0f64; LANES];
        for axis in 0..D {
            let row = &coords[axis * n + slot..axis * n + slot + LANES];
            for l in 0..LANES {
                let d = row[l] - q[axis];
                acc[l] += d * d;
            }
        }
        let mut mask = 0u32;
        for (l, &a) in acc.iter().enumerate() {
            mask |= u32::from(a <= r_sq) << l;
        }
        while mask != 0 {
            on_hit(slot + mask.trailing_zeros() as usize);
            mask &= mask - 1;
        }
        slot += LANES;
    }
    filter_within_scalar(coords, n, slot, hi, q, r_sq, on_hit);
}

/// Whether the f32 sieve's error bound is meaningful for coordinates of
/// magnitude at most `max_abs` (query coordinates included).
///
/// Beyond `1e17` the widened threshold no longer separates anything (and f32
/// squares approach overflow), so callers should fall back to the laned f64
/// kernel.  Non-finite bounds also disable the sieve.
#[inline]
pub fn sieve_supported(max_abs: f64) -> bool {
    max_abs.is_finite() && max_abs < 1e17
}

/// The widened f32 threshold of the sieve for a query with exact squared
/// radius `r_sq`, where every coordinate involved (points *and* query) has
/// magnitude at most `max_abs`.
///
/// Soundness: consider a *true hit*, a point with f64 `dist² <= r_sq` (so
/// every per-axis difference `d` satisfies `|d| <= r`).  Rounding the inputs
/// to f32 perturbs each difference by at most `e = 2·M·ε₃₂ + r·ε₃₂`, so the
/// f32 accumulation over `D` axes exceeds the f64 value by at most
/// `D·ε₃₂·(4·M·r + 3·r²) + 4·D·M²·ε₃₂² + O(ε₃₂²·M·r)` — linear in `M·r`
/// from the cross term `2·|d|·e`, quadratic in `M·ε₃₂` from `e²` (which
/// dominates only once `M·ε₃₂ > r`).  The slack
/// `D·ε₃₂·(32·M·r + 8·r² + 32·M²·ε₃₂ + 1)` covers every term with at least
/// 8× margin, and the final `1 + 4ε₃₂` factor absorbs the rounding of the
/// threshold itself to f32.  A true hit therefore always lands at or below
/// the widened threshold — the sieve can only reject true misses.
///
/// Scaling the slack with `M·r` instead of `M²` is what keeps the sieve
/// *selective*: at `M = 100, r = ¼` an `M²`-proportional slack (≈ 0.08)
/// would exceed `r²` itself and let nearly every miss through, while this
/// bound widens `r` by less than one part in 10⁴.
#[inline]
pub fn sieve_threshold<const D: usize>(r_sq: f64, max_abs: f64) -> f32 {
    let eps = f32::EPSILON as f64;
    let r = r_sq.sqrt();
    let slack =
        D as f64 * eps * (32.0 * max_abs * r + 8.0 * r_sq + 32.0 * max_abs * max_abs * eps + 1.0);
    ((r_sq + slack) as f32) * (1.0 + 4.0 * f32::EPSILON)
}

/// f32 sieve-then-verify filter: an f32 lane pass against the widened
/// threshold `r32_sq` (from [`sieve_threshold`]) rejects the bulk of the
/// slots, survivors are re-tested with the exact f64 comparison
/// `dist²(q) <= r_sq`.  Returns the number of slots the sieve rejected
/// (never a true hit — see the module docs for the exactness argument).
///
/// `coords32` is the f32 mirror of `coords` in the same axis-major layout.
/// The argument list mirrors [`filter_within_scalar`] plus the three f32
/// sieve inputs — a hot-loop primitive, kept flat rather than bundled.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn filter_within_sieve<const D: usize, F: FnMut(usize)>(
    coords: &[f64],
    coords32: &[f32],
    n: usize,
    lo: usize,
    hi: usize,
    q: &[f64; D],
    q32: &[f32; D],
    r_sq: f64,
    r32_sq: f32,
    mut on_hit: F,
) -> usize {
    let mut rejected = 0usize;
    let mut slot = lo;
    while slot + LANES <= hi {
        let mut acc = [0.0f32; LANES];
        for axis in 0..D {
            let row = &coords32[axis * n + slot..axis * n + slot + LANES];
            for l in 0..LANES {
                let d = row[l] - q32[axis];
                acc[l] += d * d;
            }
        }
        let mut mask = 0u32;
        for (l, &a) in acc.iter().enumerate() {
            mask |= u32::from(a <= r32_sq) << l;
        }
        rejected += LANES - mask.count_ones() as usize;
        while mask != 0 {
            let s = slot + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let mut exact = 0.0f64;
            for axis in 0..D {
                let d = coords[axis * n + s] - q[axis];
                exact += d * d;
            }
            if exact <= r_sq {
                on_hit(s);
            }
        }
        slot += LANES;
    }
    // Tail: f32 pre-test per slot, exact verify — same one-sidedness.
    for s in slot..hi {
        let mut acc32 = 0.0f32;
        for axis in 0..D {
            let d = coords32[axis * n + s] - q32[axis];
            acc32 += d * d;
        }
        if acc32 > r32_sq {
            rejected += 1;
            continue;
        }
        let mut exact = 0.0f64;
        for axis in 0..D {
            let d = coords[axis * n + s] - q[axis];
            exact += d * d;
        }
        if exact <= r_sq {
            on_hit(s);
        }
    }
    rejected
}

/// Coordinates compared per counted block by [`advance_lt`] and
/// [`advance_le`].  Chosen by measurement on the 1-D sweep, where a pointer
/// moves about one slot per step: over 200k clustered points (2 shared
/// x86-64 vCPUs) one length took 4.7 ms with blocks of 2, 4.2 ms with 4 and
/// 5.7 ms with 8.
pub const ADVANCE_BLOCK: usize = 4;

/// Counted-block pointer advance over ascending `xs` (see the module docs):
/// the first index `j >= from` with `!(xs[j] < bound)`, or `xs.len()` —
/// exactly where `while j < xs.len() && xs[j] < bound { j += 1 }` stops.
#[inline(always)]
pub fn advance_lt(xs: &[f64], from: usize, bound: f64) -> usize {
    advance_while(xs, from, |v| v < bound)
}

/// [`advance_lt`] with `<=`: the first index `j >= from` with
/// `!(xs[j] <= bound)`, or `xs.len()`.
#[inline(always)]
pub fn advance_le(xs: &[f64], from: usize, bound: f64) -> usize {
    advance_while(xs, from, |v| v <= bound)
}

#[inline(always)]
fn advance_while(xs: &[f64], mut i: usize, pass: impl Fn(f64) -> bool) -> usize {
    while let Some(block) = xs.get(i..).and_then(<[f64]>::first_chunk::<ADVANCE_BLOCK>) {
        let passed: usize = block.iter().map(|&v| usize::from(pass(v))).sum();
        i += passed;
        if passed < ADVANCE_BLOCK {
            return i;
        }
    }
    while i < xs.len() && pass(xs[i]) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn soa(points: &[[f64; 2]]) -> (Vec<f64>, Vec<f32>, usize) {
        let n = points.len();
        let mut coords = vec![0.0f64; 2 * n];
        for (i, p) in points.iter().enumerate() {
            coords[i] = p[0];
            coords[n + i] = p[1];
        }
        let coords32: Vec<f32> = coords.iter().map(|&c| c as f32).collect();
        (coords, coords32, n)
    }

    fn hits_scalar(coords: &[f64], n: usize, q: &[f64; 2], r_sq: f64) -> Vec<usize> {
        let mut out = Vec::new();
        filter_within_scalar(coords, n, 0, n, q, r_sq, |s| out.push(s));
        out
    }

    #[test]
    fn laned_matches_scalar_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..50 {
            let n = rng.gen_range(0..100);
            let points: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]).collect();
            let (coords, _, n) = soa(&points);
            let q = [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)];
            let r_sq = rng.gen_range(0.0..30.0);
            let want = hits_scalar(&coords, n, &q, r_sq);
            let mut got = Vec::new();
            filter_within_laned(&coords, n, 0, n, &q, r_sq, |s| got.push(s));
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn sieve_matches_scalar_and_rejects() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut total_rejected = 0usize;
        for round in 0..50 {
            let n = rng.gen_range(0..100);
            let points: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)]).collect();
            let (coords, coords32, n) = soa(&points);
            let q = [rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0)];
            let q32 = [q[0] as f32, q[1] as f32];
            let r_sq = rng.gen_range(0.0..100.0);
            let r32 = sieve_threshold::<2>(r_sq, 50.0);
            let want = hits_scalar(&coords, n, &q, r_sq);
            let mut got = Vec::new();
            let rejected =
                filter_within_sieve(&coords, &coords32, n, 0, n, &q, &q32, r_sq, r32, |s| {
                    got.push(s)
                });
            assert_eq!(got, want, "round {round}");
            assert!(rejected + want.len() <= n, "round {round}");
            total_rejected += rejected;
        }
        assert!(total_rejected > 0, "the sieve must actually reject something");
    }

    #[test]
    fn sieve_never_rejects_boundary_snapped_hits() {
        // Points exactly at distance r along the axes, plus ulp-perturbed
        // variants: the widened threshold must keep every true hit.
        let r = 3.0f64;
        for scale in [1.0f64, 1e3, 1e8, 1e12] {
            let cx = scale;
            let q = [cx, 0.0];
            let mut pts = Vec::new();
            for k in 0..64 {
                let theta = k as f64 * std::f64::consts::TAU / 64.0;
                let (s, c) = theta.sin_cos();
                pts.push([cx + r * c, r * s]);
                pts.push([cx + (r * c).next_up(), (r * s).next_down()]);
            }
            let (coords, coords32, n) = soa(&pts);
            let q32 = [q[0] as f32, q[1] as f32];
            let r_sq = r * r;
            let r32 = sieve_threshold::<2>(r_sq, cx + r);
            let want = hits_scalar(&coords, n, &q, r_sq);
            let mut got = Vec::new();
            filter_within_sieve(&coords, &coords32, n, 0, n, &q, &q32, r_sq, r32, |s| got.push(s));
            assert_eq!(got, want, "scale {scale}");
        }
    }

    #[test]
    fn counted_advance_stops_where_the_one_step_loop_does() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..500 {
            let n = rng.gen_range(0..40);
            // Few distinct values, so runs of equal values outgrow a block.
            let mut xs: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0..6u8))).collect();
            xs.sort_by(f64::total_cmp);
            let from = rng.gen_range(0..=n);
            let bound = f64::from(rng.gen_range(0..14u8)) * 0.5 - 0.5;
            let mut lt = from;
            while lt < n && xs[lt] < bound {
                lt += 1;
            }
            let mut le = from;
            while le < n && xs[le] <= bound {
                le += 1;
            }
            assert_eq!(advance_lt(&xs, from, bound), lt, "{xs:?} from {from} < {bound}");
            assert_eq!(advance_le(&xs, from, bound), le, "{xs:?} from {from} <= {bound}");
        }
    }

    #[test]
    fn mode_switch_round_trips() {
        let before = kernel_mode();
        set_kernel_mode(KernelMode::ScalarF64);
        assert_eq!(kernel_mode(), KernelMode::ScalarF64);
        set_kernel_mode(KernelMode::LanedF64);
        assert_eq!(kernel_mode(), KernelMode::LanedF64);
        set_kernel_mode(KernelMode::SieveF32);
        assert_eq!(kernel_mode(), KernelMode::SieveF32);
        set_kernel_mode(before);
    }

    #[test]
    fn sieve_support_bounds() {
        assert!(sieve_supported(0.0));
        assert!(sieve_supported(1e12));
        assert!(!sieve_supported(1e18));
        assert!(!sieve_supported(f64::INFINITY));
        assert!(!sieve_supported(f64::NAN));
    }

    #[test]
    fn dist_sq_matches_the_inline_expression() {
        let a = [1.5, -2.25, 3.0];
        let b = [0.5, 0.75, -1.0];
        let want = (1.0f64 * 1.0) + (3.0f64 * 3.0) + (4.0f64 * 4.0);
        assert_eq!(dist_sq(&a, &b), want);
    }
}
