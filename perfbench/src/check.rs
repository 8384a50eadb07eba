//! Output checks made apart from the program: each one recomputes from the
//! benchmark's own copy of the input what a correct result must satisfy.

use libpressio::{DType, Data, Options};

/// What a decompressed output must satisfy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expect {
    /// Every value within `bound` (absolute) of the input.
    Lossy { bound: f64 },
    /// The bytes of the input, exactly.
    Lossless,
}

/// Values of a float buffer, read without copying.
enum Floats<'a> {
    F32(&'a [f32]),
    F64(&'a [f64]),
}

fn floats(d: &Data) -> Result<Floats<'_>, String> {
    let bad = |e: libpressio::Error| format!("cannot read {:?} values: {e}", d.dtype());
    match d.dtype() {
        DType::F32 => d.as_slice::<f32>().map(Floats::F32).map_err(bad),
        DType::F64 => d.as_slice::<f64>().map(Floats::F64).map_err(bad),
        other => Err(format!("lossy check needs f32 or f64 data, got {other:?}")),
    }
}

/// `max - min` of a float buffer, in f64, NaNs skipped.
pub fn value_range(d: &Data) -> Result<f64, String> {
    fn range(v: impl Iterator<Item = f64>) -> f64 {
        let (lo, hi) = v
            .filter(|x| !x.is_nan())
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(x), hi.max(x))
            });
        if lo > hi {
            0.0
        } else {
            hi - lo
        }
    }
    Ok(match floats(d)? {
        Floats::F32(v) => range(v.iter().map(|&x| f64::from(x))),
        Floats::F64(v) => range(v.iter().copied()),
    })
}

/// Distance between the `share` and `1 - share` quantiles of a float
/// buffer, in f64, NaNs skipped: a value range that one extreme value
/// cannot move.
pub fn central_range(d: &Data, share: f64) -> Result<f64, String> {
    let mut v: Vec<f64> = match floats(d)? {
        Floats::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        Floats::F64(v) => v.to_vec(),
    };
    v.retain(|x| !x.is_nan());
    if v.is_empty() {
        return Ok(0.0);
    }
    let last = v.len() - 1;
    let lo_at = (share * last as f64).round() as usize;
    let hi_at = last - lo_at;
    let hi = *v.select_nth_unstable_by(hi_at, f64::total_cmp).1;
    let lo = *v[..=hi_at].select_nth_unstable_by(lo_at, f64::total_cmp).1;
    Ok(hi - lo)
}

/// Largest `|x - y|` and whether any pair exceeds `bound` plus one unit in
/// the last place of the input value's own type (the reconstruction is
/// rounded to that type once).
fn max_err(a: impl Iterator<Item = (f64, f64)>, bound: f64, eps: f64) -> (f64, Option<usize>) {
    let mut worst = 0.0f64;
    let mut first_bad = None;
    for (i, (x, y)) in a.enumerate() {
        let e = (x - y).abs();
        if e > worst || e.is_nan() {
            worst = if e.is_nan() { f64::INFINITY } else { e };
        }
        // A NaN error is never within the bound.
        let within = e <= bound + eps * x.abs();
        if first_bad.is_none() && !within {
            first_bad = Some(i);
        }
    }
    (worst, first_bad)
}

/// Check a decompressed `output` against the `input` it came from.
pub fn check_output(input: &Data, output: &Data, expect: Expect) -> Result<(), String> {
    if output.dtype() != input.dtype() {
        return Err(format!(
            "dtype {:?}, expected {:?}",
            output.dtype(),
            input.dtype()
        ));
    }
    if output.dims() != input.dims() {
        return Err(format!(
            "dims {:?}, expected {:?}",
            output.dims(),
            input.dims()
        ));
    }
    match expect {
        Expect::Lossless => check_bytes(input.as_bytes(), output.as_bytes()),
        Expect::Lossy { bound } => {
            let (worst, bad) = match (floats(input)?, floats(output)?) {
                (Floats::F32(a), Floats::F32(b)) => max_err(
                    a.iter().zip(b).map(|(&x, &y)| (f64::from(x), f64::from(y))),
                    bound,
                    f64::from(f32::EPSILON),
                ),
                (Floats::F64(a), Floats::F64(b)) => max_err(
                    a.iter().copied().zip(b.iter().copied()),
                    bound,
                    f64::EPSILON,
                ),
                _ => return Err("mixed float types".to_string()),
            };
            match bad {
                None => Ok(()),
                Some(i) => Err(format!(
                    "max |x - x'| = {worst:e} exceeds the bound {bound:e} (first at element {i})"
                )),
            }
        }
    }
}

/// Byte-exact comparison.
pub fn check_bytes(expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!("{} bytes, expected {}", got.len(), expected.len()));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "byte {i} differs: {:#04x} != {:#04x}",
            got[i], expected[i]
        )),
    }
}

/// Rebuild a typed buffer from the raw bytes a serve response carries.
pub fn data_from_bytes(dtype: DType, dims: &[usize], bytes: &[u8]) -> Result<Data, String> {
    let n: usize = dims.iter().product();
    let width = match dtype {
        DType::F32 => 4,
        DType::F64 => 8,
        DType::U8 => 1,
        other => return Err(format!("unsupported dtype {other:?}")),
    };
    if bytes.len() != n * width {
        return Err(format!(
            "{} bytes do not hold {n} values of {dtype:?} (dims {dims:?})",
            bytes.len()
        ));
    }
    let built = match dtype {
        DType::F32 => Data::from_vec(
            bytes
                .chunks_exact(4)
                .map(|c| f32::from_ne_bytes([c[0], c[1], c[2], c[3]]))
                .collect::<Vec<_>>(),
            dims.to_vec(),
        ),
        DType::F64 => Data::from_vec(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_ne_bytes(c.try_into().expect("chunk of 8")))
                .collect::<Vec<_>>(),
            dims.to_vec(),
        ),
        _ => Data::from_vec(bytes.to_vec(), dims.to_vec()),
    };
    built.map_err(|e| e.to_string())
}

/// The compression ratio from byte lengths, cross-checked against
/// `size:compression_ratio` when that plugin reported one.
pub fn check_ratio(
    original: usize,
    compressed: usize,
    reported: Option<f64>,
) -> Result<f64, String> {
    if compressed == 0 {
        return Err("empty compressed stream".to_string());
    }
    let ratio = original as f64 / compressed as f64;
    match reported {
        Some(r) if (r - ratio).abs().is_nan() || (r - ratio).abs() > 1e-9 * ratio => Err(format!(
            "size:compression_ratio {r} but the lengths give {ratio}"
        )),
        _ => Ok(ratio),
    }
}

/// A value an option must read back as.
#[derive(Debug, Clone, PartialEq)]
pub enum Want {
    /// A floating-point option.
    F64(f64),
    /// An unsigned integer option.
    U32(u32),
    /// A string option.
    Str(&'static str),
}

/// Read `key` back from a handle's options and compare it with `want`.
pub fn check_readback(options: &Options, key: &str, want: &Want) -> Result<(), String> {
    let got = match want {
        Want::F64(v) => options
            .get_as::<f64>(key)
            .map(|g| g.map(|g| (g == *v, g.to_string()))),
        Want::U32(v) => options
            .get_as::<u32>(key)
            .map(|g| g.map(|g| (g == *v, g.to_string()))),
        Want::Str(v) => options
            .get_as::<String>(key)
            .map(|g| g.map(|g| (g == *v, g))),
    };
    match got {
        Ok(Some((true, _))) => Ok(()),
        Ok(Some((false, g))) => Err(format!("option {key} reads back {g}, requested {want:?}")),
        Ok(None) => Err(format!("option {key} is not reported")),
        Err(e) => Err(format!("option {key}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Data {
        let v: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).sin() * 10.0).collect();
        Data::from_vec(v, vec![8, 8, 8]).unwrap()
    }

    #[test]
    fn accepts_output_within_the_bound() {
        let input = field();
        let v: Vec<f32> = input
            .as_slice::<f32>()
            .unwrap()
            .iter()
            .map(|x| x + 0.009)
            .collect();
        let out = Data::from_vec(v, vec![8, 8, 8]).unwrap();
        assert!(check_output(&input, &out, Expect::Lossy { bound: 0.01 }).is_ok());
    }

    #[test]
    fn rejects_one_value_nudged_past_the_bound() {
        let input = field();
        let mut v = input.as_slice::<f32>().unwrap().to_vec();
        v[300] += 0.0105;
        let out = Data::from_vec(v, vec![8, 8, 8]).unwrap();
        let err = check_output(&input, &out, Expect::Lossy { bound: 0.01 }).unwrap_err();
        assert!(err.contains("element 300"), "{err}");
    }

    #[test]
    fn rejects_a_nan() {
        let input = field();
        let mut v = input.as_slice::<f32>().unwrap().to_vec();
        v[7] = f32::NAN;
        let out = Data::from_vec(v, vec![8, 8, 8]).unwrap();
        assert!(check_output(&input, &out, Expect::Lossy { bound: 1.0 }).is_err());
    }

    #[test]
    fn rejects_one_flipped_byte_in_a_lossless_result() {
        let input = field();
        let mut bytes = input.as_bytes().to_vec();
        bytes[1000] ^= 0x01;
        let out = data_from_bytes(DType::F32, &[8, 8, 8], &bytes).unwrap();
        let err = check_output(&input, &out, Expect::Lossless).unwrap_err();
        assert!(err.contains("byte 1000"), "{err}");
        assert!(check_bytes(input.as_bytes(), &bytes).is_err());
        assert!(check_bytes(input.as_bytes(), input.as_bytes()).is_ok());
    }

    #[test]
    fn rejects_wrong_dims_and_dtype() {
        let input = field();
        let v = input.as_slice::<f32>().unwrap().to_vec();
        let out = Data::from_vec(v, vec![8, 64]).unwrap();
        let err = check_output(&input, &out, Expect::Lossless).unwrap_err();
        assert!(err.contains("dims"), "{err}");
        let out = Data::owned(DType::F64, vec![8, 8, 8]);
        assert!(check_output(&input, &out, Expect::Lossy { bound: 1.0 }).is_err());
        // A serve reply of the wrong length cannot be rebuilt at all.
        assert!(data_from_bytes(DType::F32, &[8, 8, 8], &[0u8; 2044]).is_err());
    }

    #[test]
    fn ratio_must_match_the_size_plugin() {
        assert_eq!(check_ratio(1000, 100, Some(10.0)), Ok(10.0));
        assert_eq!(check_ratio(1000, 100, None), Ok(10.0));
        assert!(check_ratio(1000, 100, Some(9.0)).is_err());
        assert!(check_ratio(1000, 100, Some(f64::NAN)).is_err());
        assert!(check_ratio(1000, 0, None).is_err());
    }

    #[test]
    fn readback_catches_an_ignored_option() {
        let o = Options::new().with("sz_omp:rel_bound_ratio", 1e-4f64);
        assert!(check_readback(&o, "sz_omp:rel_bound_ratio", &Want::F64(1e-4)).is_ok());
        assert!(check_readback(&o, "sz_omp:rel_bound_ratio", &Want::F64(1e-3)).is_err());
        assert!(check_readback(&o, "sz_omp:abs_err_bound", &Want::F64(1e-3)).is_err());
    }

    #[test]
    fn central_range_ignores_the_extremes() {
        // 0..=100 plus one far outlier: 102 values, the 1 % quantiles sit
        // at ranks 1 and 100 of 0..=101, that is the values 1 and 100.
        let mut v: Vec<f32> = (0..=100).map(|x| x as f32).collect();
        v.push(1e6);
        let d = Data::from_vec(v, vec![102]).unwrap();
        assert_eq!(central_range(&d, 0.01), Ok(99.0));
        assert_eq!(central_range(&d, 0.0), Ok(1e6));
    }

    #[test]
    fn value_range_is_max_minus_min() {
        let d = Data::from_vec(vec![3.0f64, -1.0, 7.5, 2.0], vec![4]).unwrap();
        assert_eq!(value_range(&d).unwrap(), 8.5);
    }
}
