//! Number writers for the exporters: `u64` digits and shortest
//! round-trip `f64`s, appended to a `String` without `core::fmt`.
//!
//! [`write_f64`] prints exactly what Rust's `{}` prints for every
//! `f64`: the shortest digits that parse back to the same value (the
//! closest such digits, ties rounded up), in positional notation with
//! no exponent, `-0` for negative zero, no `.0` on integral values, and
//! `NaN`, `inf` and `-inf` for the non-finite values. The digits come
//! from Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI 2018)
//! with its small tables: powers of five are rebuilt from 26 exact
//! 64-bit powers and 13 + 13 128-bit anchors, plus two-bit corrections,
//! instead of looked up in a 600-entry table.

/// Mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each power of five.
const POW5_BITCOUNT: i32 = 125;
/// Bits kept of each inverse power of five.
const POW5_INV_BITCOUNT: i32 = 125;

/// `"00" "01" … "99"`: two digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Zeros to pad positional notation with, pushed in runs.
const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";

/// Appends `v`'s decimal digits to `out` (what `{}` prints for a `u64`).
pub fn write_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits_into(&mut buf, v);
    out.push_str(ascii(&buf[start..]));
}

/// Appends `v` to `out` exactly as `format!("{v}")` would.
pub fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str(if v.is_nan() {
            "NaN"
        } else if v > 0.0 {
            "inf"
        } else {
            "-inf"
        });
        return;
    }
    if v.is_sign_negative() {
        out.push('-');
    }
    let a = v.abs();
    // Integral values below 2^53 are their own shortest digits (zero
    // included).
    if a < 9_007_199_254_740_992.0 {
        let int = a as u64;
        if int as f64 == a {
            write_u64(out, int);
            return;
        }
    }
    let (digits, exponent) = shortest(a.to_bits());
    write_positional(out, digits, exponent);
}

/// Writes `v`'s digits right-aligned into `buf`; returns where they
/// start. Eight-digit blocks go through `u32` arithmetic, whose
/// divisions by constants are short, independent chains.
fn digits_into(buf: &mut [u8; 20], mut v: u64) -> usize {
    let mut end = buf.len();
    while v >= 100_000_000 {
        let block = (v % 100_000_000) as u32;
        v /= 100_000_000;
        let (high, low) = (block / 10_000, block % 10_000);
        for (at, two) in [
            (8, high / 100),
            (6, high % 100),
            (4, low / 100),
            (2, low % 100),
        ] {
            write_pair(buf, end - at, two);
        }
        end -= 8;
    }
    let mut v = v as u32;
    let mut i = end;
    while v >= 100 {
        i -= 2;
        write_pair(buf, i, v % 100);
        v /= 100;
    }
    if v >= 10 {
        i -= 2;
        write_pair(buf, i, v);
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    i
}

/// Writes the two digits of `two` (< 100) at `buf[i..i + 2]`.
fn write_pair(buf: &mut [u8; 20], i: usize, two: u32) {
    let at = two as usize * 2;
    buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[at..at + 2]);
}

/// The digit bytes as a `str`.
fn ascii(digits: &[u8]) -> &str {
    std::str::from_utf8(digits).expect("decimal digits are ASCII")
}

/// Appends `n` zeros.
fn push_zeros(out: &mut String, mut n: usize) {
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        n -= run;
    }
}

/// Appends `digits × 10^exponent` in positional notation, with no
/// trailing zeros after a decimal point. A value with a decimal point
/// is assembled in one stack buffer and appended at once.
fn write_positional(out: &mut String, digits: u64, mut exponent: i32) {
    let mut buf = [0u8; 20];
    let start = digits_into(&mut buf, digits);
    let mut end = buf.len();
    while exponent < 0 && end - start > 1 && buf[end - 1] == b'0' {
        end -= 1;
        exponent += 1;
    }
    let digits = &buf[start..end];
    if exponent >= 0 {
        out.push_str(ascii(digits));
        push_zeros(out, exponent as usize);
        return;
    }
    // `0.` and the leading zeros, or the whole part and the point,
    // then the rest of the digits.
    let point = digits.len() as i32 + exponent;
    let mut text = [b'0'; 48];
    let len = if point > 0 {
        let (whole, fraction) = digits.split_at(point as usize);
        text[..whole.len()].copy_from_slice(whole);
        text[whole.len()] = b'.';
        text[whole.len() + 1..digits.len() + 1].copy_from_slice(fraction);
        digits.len() + 1
    } else {
        let zeros = (-point) as usize;
        if 2 + zeros + digits.len() > text.len() {
            out.push_str("0.");
            push_zeros(out, zeros);
            out.push_str(ascii(digits));
            return;
        }
        text[1] = b'.';
        text[2 + zeros..2 + zeros + digits.len()].copy_from_slice(digits);
        2 + zeros + digits.len()
    };
    out.push_str(ascii(&text[..len]));
}

/// `ceil(log2(5^e))` for `e > 0` (1 at `e == 0`); exact for `e ≤ 3528`.
fn pow5bits(e: u32) -> i32 {
    ((e * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`; exact for `e ≤ 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))`; exact for `e ≤ 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// How many times 5 divides `v` (`v > 0`).
fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

fn multiple_of_power_of_5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

/// `5^i` scaled to [`POW5_BITCOUNT`] bits, as `[low, high]` words.
fn pow5(i: u32) -> [u64; 2] {
    let base = i / POW5_TABLE_SIZE;
    let base2 = base * POW5_TABLE_SIZE;
    let anchor = POW5_SPLIT2[base as usize];
    let offset = i - base2;
    if offset == 0 {
        return anchor;
    }
    let m = POW5_TABLE[offset as usize] as u128;
    let b0 = m * anchor[0] as u128;
    let b2 = m * anchor[1] as u128;
    let delta = (pow5bits(i) - pow5bits(base2)) as u32;
    let correction = (POW5_OFFSETS[(i / 16) as usize] >> ((i % 16) << 1)) & 3;
    let sum = (b0 >> delta) + (b2 << (64 - delta)) + correction as u128;
    [sum as u64, (sum >> 64) as u64]
}

/// `2^k / 5^i` rounded up, scaled to [`POW5_INV_BITCOUNT`] bits, as
/// `[low, high]` words.
fn inv_pow5(i: u32) -> [u64; 2] {
    let base = i.div_ceil(POW5_TABLE_SIZE);
    let base2 = base * POW5_TABLE_SIZE;
    let anchor = POW5_INV_SPLIT2[base as usize];
    let offset = base2 - i;
    if offset == 0 {
        return anchor;
    }
    let m = POW5_TABLE[offset as usize] as u128;
    let b0 = m * (anchor[0] - 1) as u128;
    let b2 = m * anchor[1] as u128;
    let delta = (pow5bits(base2) - pow5bits(i)) as u32;
    let correction = (POW5_INV_OFFSETS[(i / 16) as usize] >> ((i % 16) << 1)) & 3;
    let sum = (b0 >> delta) + (b2 << (64 - delta)) + 1 + correction as u128;
    [sum as u64, (sum >> 64) as u64]
}

/// `(m × mul) >> j` for `j ≥ 64`, in 128-bit arithmetic.
fn mul_shift(m: u64, mul: [u64; 2], j: i32) -> u64 {
    let b0 = m as u128 * mul[0] as u128;
    let b2 = m as u128 * mul[1] as u128;
    (((b0 >> 64) + b2) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exponent)` with `digits × 10^exponent`
/// inside the rounding interval of the positive, finite, nonzero `f64`
/// with these bits; of two candidates at that length, the closer one,
/// and the larger one on an exact tie.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1u64 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as u32 & 0x7ff;
    // Two extra bits of exponent make room for the interval bounds.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1u64 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // Round-to-even parsing accepts the bounds of an even mantissa.
    let accept_bounds = m2 & 1 == 0;

    // The interval [4m - 1 - mm_shift, 4m + 2] × 2^e2, in scaled units;
    // the lower gap halves at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Convert to a decimal power base: vr, vp, vm = the value and its
    // bounds × 10^-e10, truncated. With ties rounded up, only whether
    // the lower bound is an exact decimal changes the digits chosen.
    let (mut vr, mut vp, mut vm);
    let e10;
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q) - 1;
        let i = -e2 + q as i32 + k;
        let mul = inv_pow5(q);
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i as u32) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = pow5(i as u32);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mm = mv - 1 - mm_shift has a trailing zero bit exactly
            // when mm_shift is 1; mp = mv + 2 always has one.
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate,
    // then take the truncated value or the next one up: the next one
    // when the truncated value left the interval, or the removed digits
    // were half or more (an exact tie rounds up, as Rust's own
    // formatting does; Ryū's reference code rounds it to even).
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // The rare case: the lower bound is an exact decimal, so it is
        // itself a candidate, and trailing zeros past it can go too.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_trailing_zeros) || last_removed >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// Entries of [`POW5_TABLE`]: the exact powers `5^0 … 5^25`.
const POW5_TABLE_SIZE: u32 = 26;

/// `5^0 … 5^25`, exact.
const POW5_TABLE: [u64; POW5_TABLE_SIZE as usize] = [
    1,
    5,
    25,
    125,
    625,
    3125,
    15625,
    78125,
    390625,
    1953125,
    9765625,
    48828125,
    244140625,
    1220703125,
    6103515625,
    30517578125,
    152587890625,
    762939453125,
    3814697265625,
    19073486328125,
    95367431640625,
    476837158203125,
    2384185791015625,
    11920928955078125,
    59604644775390625,
    298023223876953125,
];

/// `5^(26b)` for `b` in `0..13`, scaled to [`POW5_BITCOUNT`] bits.
const POW5_SPLIT2: [[u64; 2]; 13] = [
    [0x0000000000000000, 0x1000000000000000],
    [0x0000000000000000, 0x14adf4b7320334b9],
    [0x0e549208b31adb10, 0x1aba4714957d300d],
    [0x6dc6ad264d8f0866, 0x1145b7e285bf98f5],
    [0xeb1dbd923d8596ca, 0x1652efdc6018a1fc],
    [0xb4c1b80b22ae923c, 0x1cda62055b2d9d83],
    [0x5bb28b4e8f7e4c30, 0x12a5568b9f52f416],
    [0xf08aed437682d4fb, 0x1819651531f9e78f],
    [0xb4ee134ad99bf150, 0x1f25c186a6f04c28],
    [0x16499ecb70c25f03, 0x1420eb449c8842e6],
    [0x85a56ead360865b0, 0x1a03fde214caf085],
    [0x093db1d57999890b, 0x10cfeb353a97dad8],
    [0xcf38bb735e3f36ac, 0x15baaf44fa52673e],
];
/// The inverse of `5^(26b)` for `b` in `0..13`, scaled to
/// [`POW5_INV_BITCOUNT`] bits and rounded up.
const POW5_INV_SPLIT2: [[u64; 2]; 13] = [
    [0x0000000000000001, 0x2000000000000000],
    [0x52a6c95fc0655034, 0x18c240c4aecb13bb],
    [0x7ca8d50071dfc806, 0x1327fc58da0f6ff5],
    [0x6520247d3556476e, 0x1da48ce468e7c702],
    [0x6139cdd76802e6e9, 0x16ef5b40c2fc7779],
    [0xf951a7ff43de8c79, 0x11bebdf578b2f391],
    [0x7be8bee8d6e957e8, 0x1b758d848fac54b0],
    [0x8bd3f9e999a423ea, 0x153eda614071a3b7],
    [0x0848f973cb3ee3ce, 0x10701bd527b4978c],
    [0x153285ebb9efbfa2, 0x196fbb9bb44db44d],
    [0xadeee7f86c07b696, 0x13ae3591f5b4d936],
    [0x4d686a4eaf182222, 0x1e74404f3daada91],
    [0x98c0a106e09ebd9f, 0x17900ea4fda7c257],
];
/// Two-bit corrections that make [`pow5`] exact, 16 per word.
const POW5_OFFSETS: [u32; 21] = [
    0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x40000000, 0x59695995, 0x55545555, 0x56555515,
    0x41150504, 0x40555410, 0x44555145, 0x44504540, 0x45555550, 0x40004000, 0x96440440, 0x55565565,
    0x54454045, 0x40154151, 0x55559155, 0x51405555, 0x00000105,
];
/// Two-bit corrections that make [`inv_pow5`] exact, 16 per word.
const POW5_INV_OFFSETS: [u32; 19] = [
    0x54544554, 0x04055545, 0x10041000, 0x00400414, 0x40010000, 0x41155555, 0x00000454, 0x00010044,
    0x40000000, 0x44000041, 0x50454450, 0x55550054, 0x51655554, 0x40004000, 0x01000001, 0x00010500,
    0x51515411, 0x05555554, 0x00000000,
];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `write_f64`'s text for `v`.
    fn f64_text(v: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, v);
        out
    }

    /// Asserts `write_f64` matches `{}` on `v` and on its negation.
    fn assert_matches_display(v: f64) {
        for v in [v, -v] {
            assert_eq!(f64_text(v), format!("{v}"), "bits {:#018x}", v.to_bits());
        }
    }

    #[test]
    fn u64_writer_matches_to_string() {
        for v in [
            0,
            9,
            10,
            99,
            100,
            101,
            12_345,
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = String::from("x");
            write_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
        for digits in 1..=20u32 {
            let v = 10u64.checked_pow(digits).map_or(u64::MAX, |p| p - 1);
            let mut out = String::new();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn f64_writer_matches_display_on_the_edge_corpus() {
        let mut corpus = vec![
            0.0,
            5e-324,
            1e-323,
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE.next_up(),
            f64::MAX,
            f64::MAX.next_down(),
            0.1 + 0.2,
            0.1,
            0.3,
            1.5,
            123_456.789,
            36.676_543_210_987,
            2.5e21,
            1e-300,
            1e21,
            1e22,
            // Integral values, written as integers.
            1.0,
            100.0,
            1_512_000.0,
            4_294_967_296.0,
        ];
        // 2^53 and its neighbours: the last integers every f64 holds.
        let two53 = 9_007_199_254_740_992.0f64;
        corpus.extend([
            two53.next_down().next_down(),
            two53.next_down(),
            two53,
            two53.next_up(),
            two53.next_up().next_up(),
        ]);
        // Powers of ten with their neighbours, across the positional
        // range the exporters print.
        for e in -7..=23 {
            let p: f64 = format!("1e{e}").parse().expect("power of ten");
            corpus.extend([p.next_down(), p, p.next_up()]);
        }
        // Every power of two.
        corpus.extend((-1074..=1023).map(|e| 2f64.powi(e)));
        for v in corpus {
            assert_matches_display(v);
        }
    }

    /// Values whose exact decimal ends in one 5 past the shortest
    /// length that both neighbours satisfy: the two candidates are
    /// equally close, and `{}` takes the larger.
    #[test]
    fn f64_writer_rounds_decimal_midpoint_ties_like_display() {
        // 2^50 + 0.25 lies halfway between …24.2 and …24.3.
        let two50 = (1u64 << 50) as f64;
        assert_eq!(f64_text(two50 + 0.25), "1125899906842624.3");
        assert_eq!(f64_text(two50 + 0.75), "1125899906842624.8");
        // Quarter and eighth steps in [2^49, 2^51), where such ties live.
        for base in [
            1u64 << 49,
            1 << 50,
            (1 << 50) + 123_456_789,
            (1 << 51) - 4096,
        ] {
            for k in 0..4096u64 {
                let v = (base + k / 8) as f64 + (k % 8) as f64 / 8.0;
                assert_matches_display(v);
            }
        }
    }

    #[test]
    fn f64_writer_keeps_the_non_finite_spellings() {
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(f64_text(v), format!("{v}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// 1000 cases × 1000 patterns: 10^6 random bit patterns, every
        /// exponent equally likely (non-finite ones included).
        #[test]
        fn f64_writer_matches_display_on_random_bit_patterns(
            patterns in proptest::collection::vec(0u64..u64::MAX, 1000),
        ) {
            let mut out = String::new();
            for bits in patterns {
                let v = f64::from_bits(bits);
                out.clear();
                write_f64(&mut out, v);
                prop_assert_eq!(&out, &format!("{v}"), "bits {:#018x}", bits);
            }
        }

        /// Values at the exporters' own scales: temperatures, fractions,
        /// watts and frequencies.
        #[test]
        fn f64_writer_matches_display_at_exporter_scales(
            values in proptest::collection::vec(-1e7f64..1e7, 200),
            scale in -12i32..12,
        ) {
            let mut out = String::new();
            for v in values {
                let v = v * 10f64.powi(scale);
                out.clear();
                write_f64(&mut out, v);
                prop_assert_eq!(&out, &format!("{v}"), "bits {:#018x}", v.to_bits());
            }
        }
    }
}
