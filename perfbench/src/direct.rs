//! `bulk-fields` and `hacc-stream`: cells compressed and decompressed
//! through long-lived `CompressorHandle`s on the calling thread.

use std::time::Instant;

use libpressio::core::trace;
use libpressio::{CompressorHandle, Data, Options, Pressio};

use crate::alloc;
use crate::check::{self, Expect, Want};
use crate::inputs::{self, FieldSpec};
use crate::tally::{Tally, Tracer};

/// The lossy compressors of the paper's Fig. 3, each on the calling thread.
/// The pooled variants are left to the exec probe of a traced run: a
/// 2-thread pool on a shared 2-CPU host times its neighbours' load.
const BULK_COMPRESSORS: [&str; 3] = ["sz", "zfp", "mgard"];
/// Value-range-relative bounds.
const BULK_BOUNDS: [f64; 2] = [1e-2, 1e-4];
/// Fields whose bound is relative to their central range (1st to 99th
/// percentile) and passed as `pressio:abs`: nyx is lognormal, so its
/// maximum, and with it its full value range, swings from seed to seed.
const CENTRAL_RANGE_FIELDS: [&str; 1] = ["nyx"];
/// The share cut from each end for the central range.
const CENTRAL_SHARE: f64 = 0.01;
/// Fields of `bulk-fields`: 3-D, 0.8 to 2.3 MiB each.
pub const BULK_FIELDS: [FieldSpec; 4] = [
    FieldSpec {
        name: "nyx",
        scale: 2,
    },
    FieldSpec {
        name: "miranda",
        scale: 2,
    },
    FieldSpec {
        name: "hurricane",
        scale: 2,
    },
    FieldSpec {
        name: "scale-letkf",
        scale: 2,
    },
];
/// Fields of `hacc-stream`: two 1-D particle streams of 1 MiB, told apart
/// by their salt.
pub const STREAM_FIELDS: [FieldSpec; 2] = [
    FieldSpec {
        name: "hacc",
        scale: 1,
    },
    FieldSpec {
        name: "hacc",
        scale: 1,
    },
];

struct Cell {
    label: String,
    handle: usize,
    /// Index into [`Direct::fields`]: cells share their input.
    field: usize,
    expect: Expect,
}

/// A prepared direct workload.
pub struct Direct {
    handles: Vec<CompressorHandle>,
    fields: Vec<Data>,
    /// One decompress target per field, reused as a caller reading many
    /// timesteps would: a fresh buffer per call would time the page faults
    /// of the benchmark's own allocation inside the decompress.
    outputs: Vec<Data>,
    cells: Vec<Cell>,
}

/// Create a handle, apply `options`, attach `size` if asked, and read
/// every `readback` key back.
pub fn configure(
    lib: &Pressio,
    compressor: &str,
    options: &Options,
    readback: &[(String, Want)],
    size: bool,
) -> Result<CompressorHandle, String> {
    let mut h = lib.get_compressor(compressor).map_err(|e| e.to_string())?;
    h.set_options(options)
        .map_err(|e| format!("{compressor}: {e}"))?;
    let applied = h.get_options();
    for (key, want) in readback {
        check::check_readback(&applied, key, want).map_err(|e| format!("{compressor}: {e}"))?;
    }
    if size {
        h.set_metrics(lib.new_metrics(&["size"]).map_err(|e| e.to_string())?);
    }
    Ok(h)
}

/// An error bound as a cell requests it.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// `pressio:rel`: a share of the value range the compressor finds.
    Rel(f64),
    /// `pressio:abs`.
    Abs(f64),
}

/// Options and read-back keys for a bound on a bulk compressor.
fn bound_options(compressor: &str, bound: Bound) -> (Options, Vec<(String, Want)>) {
    let sz = compressor.starts_with("sz");
    let zfp = compressor.starts_with("zfp");
    match bound {
        Bound::Rel(rel) => (
            Options::new().with("pressio:rel", rel),
            if sz {
                vec![
                    (
                        format!("{compressor}:error_bound_mode_str"),
                        Want::Str("rel"),
                    ),
                    (format!("{compressor}:rel_bound_ratio"), Want::F64(rel)),
                ]
            } else if zfp {
                vec![("pressio:rel".to_string(), Want::F64(rel))]
            } else {
                vec![("mgard:rel_tolerance".to_string(), Want::F64(rel))]
            },
        ),
        Bound::Abs(abs) => (
            Options::new().with("pressio:abs", abs),
            if sz {
                vec![
                    (
                        format!("{compressor}:error_bound_mode_str"),
                        Want::Str("abs"),
                    ),
                    (format!("{compressor}:abs_err_bound"), Want::F64(abs)),
                ]
            } else if zfp {
                vec![(format!("{compressor}:accuracy"), Want::F64(abs))]
            } else {
                vec![("mgard:tolerance".to_string(), Want::F64(abs))]
            },
        ),
    }
}

/// Options, read-back keys and the registry name for an absolute bound on
/// `sz` or, for any other name, on `guard>sz`.
pub fn abs_options(compressor: &str, abs: f64) -> (&'static str, Options, Vec<(String, Want)>) {
    let sz_rb = vec![
        ("sz:error_bound_mode_str".to_string(), Want::Str("abs")),
        ("sz:abs_err_bound".to_string(), Want::F64(abs)),
    ];
    match compressor {
        "sz" => ("sz", Options::new().with("pressio:abs", abs), sz_rb),
        _ => {
            let mut rb = sz_rb;
            rb.push(("guard:compressor".to_string(), Want::Str("sz")));
            (
                "guard",
                Options::new()
                    .with("guard:compressor", "sz")
                    .with("pressio:abs", abs),
                rb,
            )
        }
    }
}

/// Read a workload's fields and arm one handle per (compressor, bound) for
/// the fields bounded by `pressio:rel`, and one per cell of a field in
/// [`CENTRAL_RANGE_FIELDS`].
pub fn setup(
    lib: &Pressio,
    specs: &[FieldSpec],
    seed: u64,
    io_ms: &mut f64,
) -> Result<Direct, String> {
    let t = Instant::now();
    let fields = specs
        .iter()
        .enumerate()
        .map(|(k, &spec)| inputs::read_field(lib, spec, seed, k as u64))
        .collect::<Result<Vec<_>, _>>()?;
    *io_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut d = Direct {
        handles: Vec::new(),
        fields: Vec::new(),
        outputs: Vec::new(),
        cells: Vec::new(),
    };
    let central = fields
        .iter()
        .map(|f| {
            if CENTRAL_RANGE_FIELDS.contains(&f.name) {
                check::central_range(&f.data, CENTRAL_SHARE).map(Some)
            } else {
                Ok(None)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    for c in BULK_COMPRESSORS {
        for rel in BULK_BOUNDS {
            // One handle for the fields bounded by `pressio:rel`, made on
            // first use, and one per field bounded by `pressio:abs`.
            let mut rel_handle = None;
            for (field, f) in fields.iter().enumerate() {
                let (bound, abs) = match central[field] {
                    Some(range) => (Bound::Abs(rel * range), rel * range),
                    None => (Bound::Rel(rel), rel * f.range),
                };
                let handle = match (bound, rel_handle) {
                    (Bound::Rel(_), Some(h)) => h,
                    _ => {
                        let (o, rb) = bound_options(c, bound);
                        d.handles.push(configure(lib, c, &o, &rb, false)?);
                        d.handles.len() - 1
                    }
                };
                if let Bound::Rel(_) = bound {
                    rel_handle = Some(handle);
                }
                d.cells.push(Cell {
                    label: format!("{c}/{}.{field}/{rel:e}", f.name),
                    handle,
                    field,
                    expect: Expect::Lossy { bound: abs },
                });
            }
        }
    }
    d.fields = fields.into_iter().map(|f| f.data).collect();
    d.outputs = d
        .fields
        .iter()
        .map(|f| Data::owned(f.dtype(), f.dims().to_vec()))
        .collect();
    Ok(d)
}

impl Direct {
    fn tally(&self) -> Tally {
        Tally::new(
            self.cells
                .iter()
                .map(|c| (c.label.clone(), self.fields[c.field].size_in_bytes())),
        )
    }

    /// `rounds` passes over every cell, interleaved round-robin.
    pub fn run(&mut self, rounds: usize, mut tracer: Option<&mut Tracer>) -> Tally {
        let mut tally = self.tally();
        for _ in 0..rounds {
            alloc::reset_peak();
            for (i, cell) in self.cells.iter().enumerate() {
                let stats = &mut tally.cells[i];
                let h = &mut self.handles[cell.handle];
                let input = &self.fields[cell.field];
                tally.attempted += 2;
                let t = Instant::now();
                let compressed = {
                    let _s = trace::span("bench:compress");
                    h.compress(input)
                };
                let c_ms = t.elapsed().as_secs_f64() * 1e3;
                let compressed = match compressed {
                    Ok(c) => c,
                    Err(e) => {
                        tally.fail(2, &cell.label, format!("compress: {e}"));
                        continue;
                    }
                };
                // All-ones bytes are NaN in f32 and f64: a decompress that
                // leaves the target unwritten fails the check.
                let out = &mut self.outputs[cell.field];
                out.as_bytes_mut().fill(0xFF);
                let t = Instant::now();
                let r = {
                    let _s = trace::span("bench:decompress");
                    h.decompress(&compressed, out)
                };
                let d_ms = t.elapsed().as_secs_f64() * 1e3;
                let verdict = {
                    let _s = trace::span("bench:check");
                    r.map_err(|e| format!("decompress: {e}"))
                        .and_then(|()| check::check_output(input, out, cell.expect))
                };
                match verdict {
                    Ok(()) => {
                        stats.compressed += compressed.size_in_bytes();
                        stats.compress_ms.push(c_ms);
                        stats.decompress_ms.push(d_ms);
                    }
                    Err(e) => tally.fail(1, &cell.label, e),
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.drain();
                }
            }
            tally.round_peaks.push(alloc::peak());
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_bounds_read_back_on_every_bulk_compressor() {
        let lib = libpressio::instance();
        for c in BULK_COMPRESSORS {
            for bound in [Bound::Rel(1e-4), Bound::Abs(0.25)] {
                let (o, rb) = bound_options(c, bound);
                configure(&lib, c, &o, &rb, false).unwrap();
            }
        }
        for c in ["sz", "guard>sz"] {
            let (name, o, rb) = abs_options(c, 0.25);
            configure(&lib, name, &o, &rb, true).unwrap();
        }
    }

    #[test]
    fn readback_catches_a_key_meant_for_another_plugin() {
        // `sz:` keys are not `sz_omp:` keys: the handle ignores them and
        // keeps its default bound, which the read-back must notice.
        let lib = libpressio::instance();
        let o = Options::new().with("sz:abs_err_bound", 1e-3f64);
        let rb = [("sz_omp:abs_err_bound".to_string(), Want::F64(1e-3))];
        let err = configure(&lib, "sz_omp", &o, &rb, false).err().unwrap();
        assert!(err.contains("reads back"), "{err}");
    }
}
