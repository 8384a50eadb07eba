//! Workload inputs: fields read through the `datagen` io plugin, and blocks
//! cut from them at positions drawn from the workload seed.

use libpressio::{DType, Data, Options, Pressio};

/// SplitMix64: a small, seedable generator for block positions.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One synthetic dataset at one scale.
#[derive(Debug, Clone, Copy)]
pub struct FieldSpec {
    pub name: &'static str,
    pub scale: u64,
}

/// A field read for a workload.
pub struct Field {
    pub name: &'static str,
    pub data: Data,
    /// `max - min`, computed by the benchmark.
    pub range: f64,
}

/// Read one dataset through the `datagen` io plugin. `salt` keeps the
/// fields of one workload independent of each other.
pub fn read_field(lib: &Pressio, spec: FieldSpec, seed: u64, salt: u64) -> Result<Field, String> {
    let mut io = lib.get_io("datagen").map_err(|e| e.to_string())?;
    io.set_options(
        &Options::new()
            .with("datagen:name", spec.name)
            .with("datagen:scale", spec.scale)
            .with(
                "datagen:seed",
                seed.wrapping_mul(1_000_003).wrapping_add(salt),
            ),
    )
    .map_err(|e| e.to_string())?;
    let data = io.read(None).map_err(|e| e.to_string())?;
    let range = crate::check::value_range(&data)?;
    if !(range.is_finite() && range > 0.0) {
        return Err(format!(
            "{} has a degenerate value range {range}",
            spec.name
        ));
    }
    Ok(Field {
        name: spec.name,
        data,
        range,
    })
}

/// Cut a block of `want` extents (clipped to the field) at a random
/// position. A 1-d field yields a run of `want.iter().product()` values.
pub fn cut_block(field: &Data, want: [usize; 3], rng: &mut Rng) -> Result<Data, String> {
    let dims = field.dims();
    let width = match field.dtype() {
        DType::F32 => 4,
        DType::F64 => 8,
        other => return Err(format!("cannot cut {other:?} fields")),
    };
    let bytes = field.as_bytes();
    let mut out = Vec::new();
    let out_dims: Vec<usize> = match dims.len() {
        1 => {
            let n = (want[0] * want[1] * want[2]).min(dims[0]);
            let at = rng.below(dims[0] - n + 1);
            out.extend_from_slice(&bytes[at * width..(at + n) * width]);
            vec![n]
        }
        3 => {
            let b: Vec<usize> = (0..3).map(|a| want[a].min(dims[a])).collect();
            let at: Vec<usize> = (0..3).map(|a| rng.below(dims[a] - b[a] + 1)).collect();
            for z in 0..b[0] {
                for y in 0..b[1] {
                    let row = ((at[0] + z) * dims[1] + at[1] + y) * dims[2] + at[2];
                    out.extend_from_slice(&bytes[row * width..(row + b[2]) * width]);
                }
            }
            b
        }
        n => return Err(format!("cannot cut {n}-d fields")),
    };
    crate::check::data_from_bytes(field.dtype(), &out_dims, &out)
}
