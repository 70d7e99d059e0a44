//! Explicit AVX2 kernels for the trajectory panel's unitary passes.
//!
//! Each kernel is the 4-lane transcription of its scalar counterpart in
//! [`crate::trajectory`] — [`crate::trajectory::unitary1_inner`] and
//! [`crate::trajectory::unitary2_inner`] — under a strict bit-identity
//! contract: only `_mm256_mul_pd` / `_mm256_add_pd` / `_mm256_sub_pd`
//! (never FMA, never horizontal reductions), composed in the *exact
//! association order* of the scalar expressions. Lane `j` of every vector
//! operation therefore performs precisely the IEEE-754 operations the
//! scalar loop performs at element `j`, so the results are bit-equal —
//! the scalar kernels stay the oracle (asserted per panel width by the
//! `panel_props` proptests) and `QUCAD_FORCE_SCALAR=1` runs are
//! bit-identical to AVX2 runs.
//!
//! Remainder elements past the last full 4-lane chunk are handed to the
//! scalar kernels directly. The stochastic jump kernels are *not*
//! vectorised: they are sparse per-column walks (most columns take no
//! jump at calibration-scale λ), so they stay scalar on both dispatch
//! arms.
//!
//! The functions are safe `#[target_feature(enable = "avx2")]` functions:
//! callers outside an AVX2 context (the dispatch helpers in
//! `trajectory.rs`) must wrap the call in `unsafe` and guarantee the CPU
//! supports AVX2 — which [`crate::trajectory::KernelMode`] enforces by
//! construction.

use crate::fused::MatClass;
use crate::math::{M2, M4};
use crate::trajectory::{unitary1_inner, unitary2_inner, Quartet, Window};
use core::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
    _mm256_storeu_pd, _mm256_sub_pd,
};

/// `f64` lanes per AVX2 vector.
const LANES: usize = 4;

/// Vector-lane body of the Diagonal pair kernel: processes the full
/// 4-lane chunks of one pair with pre-broadcast matrix entries, returns
/// the element count covered (the caller hands the remainder to the
/// scalar kernel). Slices are truncated to their common length here, so
/// every load/store is bounds-guarded regardless of caller.
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
fn diag_lanes(
    d0re: __m256d,
    d0im: __m256d,
    d1re: __m256d,
    d1im: __m256d,
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
) -> usize {
    let len = r0.len().min(i0.len()).min(r1.len()).min(i1.len());
    let lanes = len - len % LANES;
    let mut j = 0usize;
    while j < lanes {
        // SAFETY: `j + LANES <= lanes <= len`, and `len` is the minimum
        // of all four slice lengths, so every load and store stays in
        // bounds.
        unsafe {
            let xr = _mm256_loadu_pd(r0.as_ptr().add(j));
            let xi = _mm256_loadu_pd(i0.as_ptr().add(j));
            // r0 = xr·d0.re − xi·d0.im ; i0 = xr·d0.im + xi·d0.re
            _mm256_storeu_pd(
                r0.as_mut_ptr().add(j),
                _mm256_sub_pd(_mm256_mul_pd(xr, d0re), _mm256_mul_pd(xi, d0im)),
            );
            _mm256_storeu_pd(
                i0.as_mut_ptr().add(j),
                _mm256_add_pd(_mm256_mul_pd(xr, d0im), _mm256_mul_pd(xi, d0re)),
            );
            let yr = _mm256_loadu_pd(r1.as_ptr().add(j));
            let yi = _mm256_loadu_pd(i1.as_ptr().add(j));
            _mm256_storeu_pd(
                r1.as_mut_ptr().add(j),
                _mm256_sub_pd(_mm256_mul_pd(yr, d1re), _mm256_mul_pd(yi, d1im)),
            );
            _mm256_storeu_pd(
                i1.as_mut_ptr().add(j),
                _mm256_add_pd(_mm256_mul_pd(yr, d1im), _mm256_mul_pd(yi, d1re)),
            );
        }
        j += LANES;
    }
    lanes
}

/// Vector-lane body of the Real pair kernel (see [`diag_lanes`] for the
/// contract): the planes transform independently, the 4-lane
/// transcription of the scalar kernel's Real branch.
#[target_feature(enable = "avx2")]
#[inline]
#[allow(clippy::too_many_arguments)]
fn real_lanes(
    m00: __m256d,
    m01: __m256d,
    m10: __m256d,
    m11: __m256d,
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
) -> usize {
    let len = r0.len().min(i0.len()).min(r1.len()).min(i1.len());
    let lanes = len - len % LANES;
    let mut j = 0usize;
    while j < lanes {
        // SAFETY: `j + LANES <= lanes <= len`, and `len` is the minimum
        // of all four slice lengths, so every load and store stays in
        // bounds.
        unsafe {
            let x0r = _mm256_loadu_pd(r0.as_ptr().add(j));
            let x0i = _mm256_loadu_pd(i0.as_ptr().add(j));
            let x1r = _mm256_loadu_pd(r1.as_ptr().add(j));
            let x1i = _mm256_loadu_pd(i1.as_ptr().add(j));
            // r0 = m00·x0r + m01·x1r ; i0 = m00·x0i + m01·x1i
            _mm256_storeu_pd(
                r0.as_mut_ptr().add(j),
                _mm256_add_pd(_mm256_mul_pd(m00, x0r), _mm256_mul_pd(m01, x1r)),
            );
            _mm256_storeu_pd(
                i0.as_mut_ptr().add(j),
                _mm256_add_pd(_mm256_mul_pd(m00, x0i), _mm256_mul_pd(m01, x1i)),
            );
            _mm256_storeu_pd(
                r1.as_mut_ptr().add(j),
                _mm256_add_pd(_mm256_mul_pd(m10, x0r), _mm256_mul_pd(m11, x1r)),
            );
            _mm256_storeu_pd(
                i1.as_mut_ptr().add(j),
                _mm256_add_pd(_mm256_mul_pd(m10, x0i), _mm256_mul_pd(m11, x1i)),
            );
        }
        j += LANES;
    }
    lanes
}

/// Pre-broadcast complex 2×2 entries for the general pair kernel.
struct M2Lanes {
    m00re: __m256d,
    m00im: __m256d,
    m01re: __m256d,
    m01im: __m256d,
    m10re: __m256d,
    m10im: __m256d,
    m11re: __m256d,
    m11im: __m256d,
}

#[target_feature(enable = "avx2")]
#[inline]
fn broadcast_m2(m: &M2) -> M2Lanes {
    M2Lanes {
        m00re: _mm256_set1_pd(m[0].re),
        m00im: _mm256_set1_pd(m[0].im),
        m01re: _mm256_set1_pd(m[1].re),
        m01im: _mm256_set1_pd(m[1].im),
        m10re: _mm256_set1_pd(m[2].re),
        m10im: _mm256_set1_pd(m[2].im),
        m11re: _mm256_set1_pd(m[3].re),
        m11im: _mm256_set1_pd(m[3].im),
    }
}

/// Vector-lane body of the general pair kernel (see [`diag_lanes`] for
/// the contract): full complex 2×2, exact scalar association order.
#[target_feature(enable = "avx2")]
#[inline]
fn general_lanes(
    e: &M2Lanes,
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
) -> usize {
    let len = r0.len().min(i0.len()).min(r1.len()).min(i1.len());
    let lanes = len - len % LANES;
    let mut j = 0usize;
    while j < lanes {
        // SAFETY: `j + LANES <= lanes <= len`, and `len` is the minimum
        // of all four slice lengths, so every load and store stays in
        // bounds.
        unsafe {
            let x0r = _mm256_loadu_pd(r0.as_ptr().add(j));
            let x0i = _mm256_loadu_pd(i0.as_ptr().add(j));
            let x1r = _mm256_loadu_pd(r1.as_ptr().add(j));
            let x1i = _mm256_loadu_pd(i1.as_ptr().add(j));
            // r0 = (m00.re·x0r − m00.im·x0i) + (m01.re·x1r − m01.im·x1i)
            _mm256_storeu_pd(
                r0.as_mut_ptr().add(j),
                _mm256_add_pd(
                    _mm256_sub_pd(_mm256_mul_pd(e.m00re, x0r), _mm256_mul_pd(e.m00im, x0i)),
                    _mm256_sub_pd(_mm256_mul_pd(e.m01re, x1r), _mm256_mul_pd(e.m01im, x1i)),
                ),
            );
            // i0 = (m00.re·x0i + m00.im·x0r) + (m01.re·x1i + m01.im·x1r)
            _mm256_storeu_pd(
                i0.as_mut_ptr().add(j),
                _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(e.m00re, x0i), _mm256_mul_pd(e.m00im, x0r)),
                    _mm256_add_pd(_mm256_mul_pd(e.m01re, x1i), _mm256_mul_pd(e.m01im, x1r)),
                ),
            );
            _mm256_storeu_pd(
                r1.as_mut_ptr().add(j),
                _mm256_add_pd(
                    _mm256_sub_pd(_mm256_mul_pd(e.m10re, x0r), _mm256_mul_pd(e.m10im, x0i)),
                    _mm256_sub_pd(_mm256_mul_pd(e.m11re, x1r), _mm256_mul_pd(e.m11im, x1i)),
                ),
            );
            _mm256_storeu_pd(
                i1.as_mut_ptr().add(j),
                _mm256_add_pd(
                    _mm256_add_pd(_mm256_mul_pd(e.m10re, x0i), _mm256_mul_pd(e.m10im, x0r)),
                    _mm256_add_pd(_mm256_mul_pd(e.m11re, x1i), _mm256_mul_pd(e.m11im, x1r)),
                ),
            );
        }
        j += LANES;
    }
    lanes
}

/// AVX2 transcription of [`unitary1_inner`] over a whole window: applies
/// one 2×2 unitary to every span of the window's pair plan for the wire at
/// strip mask `wm`, broadcasting the matrix entries once for the window
/// instead of once per span. Each span's full 4-lane chunks go through the
/// lane bodies and its remainder through the scalar kernel, so every
/// element is bit-identical to [`unitary1_inner`] on that span — the
/// window form only amortises the call and broadcast overhead, which
/// dominates when low-wire supergroups make the spans short.
#[target_feature(enable = "avx2")]
pub(crate) fn unitary1_window_avx2(m: &M2, class: MatClass, o: &mut Window<'_>, wm: usize) {
    let spans = o.plan_pairs(wm);
    let tail = |lanes: usize, r0: &mut [f64], i0: &mut [f64], r1: &mut [f64], i1: &mut [f64]| {
        if lanes < r0.len() {
            unitary1_inner(
                m,
                class,
                &mut r0[lanes..],
                &mut i0[lanes..],
                &mut r1[lanes..],
                &mut i1[lanes..],
            );
        }
    };
    match class {
        MatClass::Diagonal => {
            let (d0, d1) = (m[0], m[3]);
            let d0re = _mm256_set1_pd(d0.re);
            let d0im = _mm256_set1_pd(d0.im);
            let d1re = _mm256_set1_pd(d1.re);
            let d1im = _mm256_set1_pd(d1.im);
            for i in 0..spans {
                let (r0, i0, r1, i1) = o.pair(i);
                let lanes = diag_lanes(d0re, d0im, d1re, d1im, r0, i0, r1, i1);
                tail(lanes, r0, i0, r1, i1);
            }
        }
        MatClass::Real => {
            let m00 = _mm256_set1_pd(m[0].re);
            let m01 = _mm256_set1_pd(m[1].re);
            let m10 = _mm256_set1_pd(m[2].re);
            let m11 = _mm256_set1_pd(m[3].re);
            for i in 0..spans {
                let (r0, i0, r1, i1) = o.pair(i);
                let lanes = real_lanes(m00, m01, m10, m11, r0, i0, r1, i1);
                tail(lanes, r0, i0, r1, i1);
            }
        }
        MatClass::General => {
            let e = broadcast_m2(m);
            for i in 0..spans {
                let (r0, i0, r1, i1) = o.pair(i);
                let lanes = general_lanes(&e, r0, i0, r1, i1);
                tail(lanes, r0, i0, r1, i1);
            }
        }
    }
}

/// AVX2 transcription of [`unitary2_inner`]: applies one 4×4 unitary to a
/// quartet tile through the atom's orientation permutation, bit-identical
/// to the scalar kernel at every element (accumulators start at zero and
/// gather the columns in the same order).
#[target_feature(enable = "avx2")]
pub(crate) fn unitary2_avx2(m: &M4, swapped: bool, g: &mut Quartet<'_>) {
    let len = g.r[0].len();
    let map: [usize; 4] = if swapped { [0, 2, 1, 3] } else { [0, 1, 2, 3] };
    let mut ere = [_mm256_setzero_pd(); 16];
    let mut eim = [_mm256_setzero_pd(); 16];
    for ((er, ei), e) in ere.iter_mut().zip(eim.iter_mut()).zip(m.iter()) {
        *er = _mm256_set1_pd(e.re);
        *ei = _mm256_set1_pd(e.im);
    }
    let lanes = len - len % LANES;
    let mut j = 0usize;
    while j < lanes {
        let mut old_r = [_mm256_setzero_pd(); 4];
        let mut old_i = [_mm256_setzero_pd(); 4];
        for ((or_, oi), &c) in old_r.iter_mut().zip(old_i.iter_mut()).zip(map.iter()) {
            // SAFETY: `j + LANES <= lanes <= len`, and every quartet strip
            // has at least `g.r[0].len() == len` elements (they are built
            // equal-length by the tile walkers).
            unsafe {
                *or_ = _mm256_loadu_pd(g.r[c].as_ptr().add(j));
                *oi = _mm256_loadu_pd(g.i[c].as_ptr().add(j));
            }
        }
        for (r, &dst) in map.iter().enumerate() {
            let mut ar = _mm256_set1_pd(0.0);
            let mut ai = _mm256_set1_pd(0.0);
            for (c, (&or_, &oi)) in old_r.iter().zip(old_i.iter()).enumerate() {
                let er = ere[r * 4 + c];
                let ei = eim[r * 4 + c];
                // ar += e.re·or − e.im·oi ; ai += e.re·oi + e.im·or
                ar = _mm256_add_pd(
                    ar,
                    _mm256_sub_pd(_mm256_mul_pd(er, or_), _mm256_mul_pd(ei, oi)),
                );
                ai = _mm256_add_pd(
                    ai,
                    _mm256_add_pd(_mm256_mul_pd(er, oi), _mm256_mul_pd(ei, or_)),
                );
            }
            // SAFETY: same bounds argument as the loads above; the four
            // destination rows were fully gathered into `old_r`/`old_i`
            // before any store, exactly like the scalar kernel.
            unsafe {
                _mm256_storeu_pd(g.r[dst].as_mut_ptr().add(j), ar);
                _mm256_storeu_pd(g.i[dst].as_mut_ptr().add(j), ai);
            }
        }
        j += LANES;
    }
    if lanes < len {
        let r = g.r.each_mut().map(|s| &mut s[lanes..]);
        let i = g.i.each_mut().map(|s| &mut s[lanes..]);
        let mut tail = Quartet { r, i };
        unitary2_inner(m, swapped, &mut tail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::classify2;
    use crate::gate::GateKind;
    use crate::math::Complex64;
    use crate::trajectory::{KernelMode, SpanPlans};

    /// Deterministic pseudo-amplitudes (no RNG needed for a pure kernel
    /// identity check).
    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 11) as f64) / ((1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn avx2_unitary1_matches_scalar_bits_at_ragged_lengths() {
        if !KernelMode::avx2_supported() {
            return;
        }
        let h = GateKind::H.entries_1q(0.0).unwrap();
        let rz = GateKind::Rz.entries_1q(0.7).unwrap();
        let rx = GateKind::Rx.entries_1q(-1.3).unwrap();
        // 1-, 2- and 3-wire windows of two sub-blocks each, every wire of
        // each: spans that do and do not coalesce across sub-blocks, with
        // strip lengths that leave every possible 4-lane remainder.
        for k in 1..=3usize {
            let strips = 1usize << k;
            for len in [1usize, 3, 4, 7, 8, 13, 64, 65] {
                let strides: Vec<usize> = (0..k).map(|i| len << (k - 1 - i)).collect();
                let bases = [0, strips * len];
                for m in [&h, &rz, &rx] {
                    let class = classify2(m);
                    for wb in 0..k {
                        let base: Vec<Vec<f64>> =
                            (0..2).map(|p| fill(41 + p, 2 * strips * len)).collect();
                        let mut scalar = base.clone();
                        let mut simd = base;
                        let mut plans = SpanPlans::default();
                        {
                            let [re, im] = &mut scalar[..] else {
                                unreachable!()
                            };
                            let mut o =
                                // SAFETY: the strips tile both planes
                                // without overlap (strip `x` of sub-block
                                // `t` is the run at `(t · strips + x) · len`).
                                unsafe { Window::new(re, im, &strides, &bases, len, &mut plans) };
                            for i in 0..o.plan_pairs(1 << wb) {
                                let (r0, i0, r1, i1) = o.pair(i);
                                unitary1_inner(m, class, r0, i0, r1, i1);
                            }
                        }
                        {
                            let [re, im] = &mut simd[..] else {
                                unreachable!()
                            };
                            // SAFETY: as above; the kernel call is guarded
                            // by `avx2_supported`.
                            unsafe {
                                let mut o = Window::new(re, im, &strides, &bases, len, &mut plans);
                                unitary1_window_avx2(m, class, &mut o, 1 << wb);
                            }
                        }
                        for (a, b) in scalar.iter().flatten().zip(simd.iter().flatten()) {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{k}-wire window, wire bit {wb}, len {len}, {class:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_unitary2_matches_scalar_bits_at_ragged_lengths() {
        if !KernelMode::avx2_supported() {
            return;
        }
        let mut m = GateKind::Cry.entries_2q(0.9).unwrap();
        // Perturb into a fully dense matrix so every accumulator term is
        // exercised.
        for (k, e) in m.iter_mut().enumerate() {
            *e += Complex64::new(0.01 * (k as f64 + 1.0), -0.003 * (k as f64 + 2.0));
        }
        for swapped in [false, true] {
            for len in [1usize, 3, 4, 7, 8, 13, 64, 65] {
                let base: Vec<Vec<f64>> = (0..8).map(|k| fill(97 + k, len)).collect();
                let mut scalar: Vec<Vec<f64>> = base.clone();
                let mut simd: Vec<Vec<f64>> = base;
                {
                    let (r, i) = scalar.split_at_mut(4);
                    let [r0, r1, r2, r3] = r else { unreachable!() };
                    let [i0, i1, i2, i3] = i else { unreachable!() };
                    let mut g = Quartet {
                        r: [r0, r1, r2, r3],
                        i: [i0, i1, i2, i3],
                    };
                    unitary2_inner(&m, swapped, &mut g);
                }
                {
                    let (r, i) = simd.split_at_mut(4);
                    let [r0, r1, r2, r3] = r else { unreachable!() };
                    let [i0, i1, i2, i3] = i else { unreachable!() };
                    let mut g = Quartet {
                        r: [r0, r1, r2, r3],
                        i: [i0, i1, i2, i3],
                    };
                    // SAFETY: guarded by `avx2_supported` above.
                    unsafe { unitary2_avx2(&m, swapped, &mut g) };
                }
                for (a, b) in scalar.iter().flatten().zip(simd.iter().flatten()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "swapped {swapped} len {len}");
                }
            }
        }
    }
}
