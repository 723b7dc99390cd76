//! Float-to-integer rounding without a library call on the common path.

/// `x.round() as u64`, bit for bit: round half away from zero, then the
/// saturating cast (negative values and NaN give 0, +∞ and values past
/// `u64::MAX` give `u64::MAX`).
///
/// On x86-64 without SSE4.1 (the default target), `f64::round` compiles
/// to a call into `compiler_builtins`. For finite `0 ≤ x < 2⁵²` the
/// integer part and the fraction `x − ⌊x⌋` are both exact, so one
/// comparison rounds; every other input takes `f64::round`.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if (0.0..EXACT).contains(&x) {
        let int = x as u64;
        int + u64::from(x - int as f64 >= 0.5)
    } else {
        x.round() as u64
    }
}

/// `x.ceil() as u64`, bit for bit: round toward +∞, then the saturating
/// cast. `f64::ceil` is a library call on the default x86-64 target too;
/// for finite `0 ≤ x < 2⁵²` the integer part is exact, so one comparison
/// rounds up, and every other input takes `f64::ceil`.
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if (0.0..EXACT).contains(&x) {
        let int = x as u64;
        int + u64::from(x > int as f64)
    } else {
        x.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::{ceil_u64, round_u64};

    #[test]
    fn edge_cases_match_f64_round() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            1e6 + 0.5,
            4503599627370495.5, // 2^52 - 0.5
            two52,
            two52 + 1.0,
            1.8446744073709552e19, // 2^64
            1e300,
            -0.4,
            -0.5,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(round_u64(x), x.round() as u64, "{x:e}");
        }
        assert_eq!(round_u64(0.49999999999999994), 0);
        assert_eq!(round_u64(2.5), 3);
        assert_eq!(round_u64(4503599627370495.5), 1 << 52);
        assert_eq!(round_u64(1e300), u64::MAX);
        assert_eq!(round_u64(f64::NAN), 0);
        for k in [0u64, 1, 7, 1 << 20, (1 << 52) - 1] {
            let x = k as f64 + 0.5;
            assert_eq!(round_u64(x), k + 1, "{k} + 0.5");
            assert_eq!(round_u64(x), x.round() as u64, "{k} + 0.5");
        }
    }

    #[test]
    fn edge_cases_match_f64_ceil() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.49999999999999994,
            0.5,
            0.9999999999999999,
            1.0,
            1.0000000000000002,
            1518.0 * 1.0625,
            1e6 + 0.5,
            4503599627370495.5, // 2^52 - 0.5
            two52,
            two52 + 1.0,
            1.8446744073709552e19, // 2^64
            1e300,
            -0.4,
            -1.0,
            -1.5,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
        }
        assert_eq!(ceil_u64(f64::MIN_POSITIVE), 1);
        assert_eq!(ceil_u64(1.0), 1);
        assert_eq!(ceil_u64(1.0000000000000002), 2);
        assert_eq!(ceil_u64(4503599627370495.5), 1 << 52);
        assert_eq!(ceil_u64(1e300), u64::MAX);
        assert_eq!(ceil_u64(f64::NAN), 0);
        for k in [0u64, 1, 7, 1 << 20, (1 << 52) - 2] {
            for x in [k as f64, k as f64 + 0.25, k as f64 + 0.5] {
                assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
            }
        }
    }
}
