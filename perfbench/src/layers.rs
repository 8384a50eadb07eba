//! Per-layer figures of a traced run: the workload's own trace, plus
//! probes that isolate one layer each on fixed, seeded inputs.

use std::time::Instant;

use libpressio::core::trace;
use libpressio::{CompressorHandle, Data, Options, Pressio};

use crate::alloc;
use crate::check::{self, Expect, Want};
use crate::direct::{abs_options, configure};
use crate::inputs::{self, FieldSpec, Rng};
use crate::serve;
use crate::stats::median;
use crate::tally::Tracer;

/// Worker threads asked of the pooled variants.
const POOL_THREADS: u32 = 2;

/// One named figure with its unit.
pub type Metric = (String, f64, &'static str);

fn push(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push((name.into(), value, unit));
}

/// Milliseconds `f` takes, as a median of `reps` calls.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Median of `a` minus median of `b`, in microseconds, with the two timed
/// alternately so host drift hits both alike.
fn paired_diff_us(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let (mut ta, mut tb) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        let t = Instant::now();
        a();
        ta.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        b();
        tb.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&ta) - median(&tb)
}

fn handle(lib: &Pressio, name: &str, options: Options) -> Result<CompressorHandle, String> {
    configure(lib, name, &options, &[], false)
}

/// Compress then decompress once, checking the result, and return the
/// stream so callers can reuse it.
fn round_trip(h: &mut CompressorHandle, input: &Data, expect: Expect) -> Result<Data, String> {
    let c = h
        .compress(input)
        .map_err(|e| format!("{}: {e}", h.name()))?;
    let mut out = Data::owned(input.dtype(), input.dims().to_vec());
    h.decompress(&c, &mut out)
        .map_err(|e| format!("{}: {e}", h.name()))?;
    check::check_output(input, &out, expect).map_err(|e| format!("{}: {e}", h.name()))?;
    Ok(c)
}

/// Traced compress+decompress `reps` times; returns the drained spans.
fn traced(
    reps: usize,
    h: &mut CompressorHandle,
    input: &Data,
    expect: Expect,
) -> Result<Tracer, String> {
    let mut tr = Tracer::default();
    trace::clear();
    trace::enable();
    let mut r = Ok(());
    for _ in 0..reps {
        if let Err(e) = round_trip(h, input, expect) {
            r = Err(e);
            break;
        }
        tr.drain();
    }
    trace::disable();
    tr.drain();
    r.map(|()| tr)
}

/// Every probe. Stage figures are per element of the probe field, fixed
/// costs per call on one block.
pub fn probes(lib: &Pressio, seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let big = inputs::read_field(
        lib,
        FieldSpec {
            name: "nyx",
            scale: 4,
        },
        seed,
        300,
    )?;
    let mid = inputs::read_field(
        lib,
        FieldSpec {
            name: "nyx",
            scale: 2,
        },
        seed,
        301,
    )?;
    let mut rng = Rng::new(seed ^ 0x1A7E);
    let b8 = inputs::cut_block(&mid.data, [8, 8, 8], &mut rng)?;
    let b16 = inputs::cut_block(&mid.data, [16, 16, 16], &mut rng)?;
    let n_big = big.data.num_elements() as f64;
    let rel = 1e-3;
    let lossy_big = Expect::Lossy {
        bound: rel * big.range,
    };
    let lossy_mid = Expect::Lossy {
        bound: rel * mid.range,
    };
    let rel_opts = || Options::new().with("pressio:rel", rel);

    // SZ stages on the 128³ field.
    const REPS: usize = 3;
    let mut sz = handle(lib, "sz", rel_opts())?;
    round_trip(&mut sz, &big.data, lossy_big)?;
    let tr = traced(REPS, &mut sz, &big.data, lossy_big)?;
    let per_elem = |ns: u64| ns as f64 / (REPS as f64 * n_big);
    let (pq, he) = (
        tr.total_ns("sz:predict_quantize"),
        tr.total_ns("sz:huffman_encode"),
    );
    let ll = tr.total_ns("sz:deflate") + tr.total_ns("sz:rans");
    push(out, "sz.predict_quantize_ns_per_elem", per_elem(pq), "ns");
    push(out, "sz.huffman_encode_ns_per_elem", per_elem(he), "ns");
    push(out, "sz.lossless_encode_ns_per_elem", per_elem(ll), "ns");
    let handle_ns = tr.total_ns("handle:compress[sz]");
    push(
        out,
        "sz.self_ms",
        handle_ns.saturating_sub(pq + he + ll) as f64 / REPS as f64 / 1e6,
        "ms",
    );
    let lld = tr.total_ns("sz:deflate_decode") + tr.total_ns("sz:rans_decode");
    push(
        out,
        "sz.huffman_decode_ns_per_elem",
        per_elem(tr.total_ns("sz:huffman_decode")),
        "ns",
    );
    push(out, "sz.lossless_decode_ns_per_elem", per_elem(lld), "ns");
    push(
        out,
        "sz.reconstruct_ns_per_elem",
        per_elem(tr.total_ns("sz:reconstruct")),
        "ns",
    );

    // ZFP stages on the same field.
    let mut zfp = handle(lib, "zfp", rel_opts())?;
    round_trip(&mut zfp, &big.data, lossy_big)?;
    let tr = traced(REPS, &mut zfp, &big.data, lossy_big)?;
    let enc = tr.total_ns("zfp:encode_chunk");
    let dec = tr.total_ns("zfp:decode_stream") + tr.total_ns("zfp:decode_chunk");
    push(out, "zfp.encode_ns_per_elem", per_elem(enc), "ns");
    push(out, "zfp.decode_ns_per_elem", per_elem(dec), "ns");
    push(
        out,
        "zfp.self_ms",
        tr.total_ns("handle:compress[zfp]").saturating_sub(enc) as f64 / REPS as f64 / 1e6,
        "ms",
    );

    // MGARD on the 64³ field, untraced (it emits no stage spans).
    let mut mgard = handle(lib, "mgard", rel_opts())?;
    let stream = round_trip(&mut mgard, &mid.data, lossy_mid)?;
    let n_mid = mid.data.num_elements() as f64;
    let c_ms = median_ms(REPS, || {
        std::hint::black_box(mgard.compress(&mid.data).expect("checked above"));
    });
    let mut scratch = Data::owned(mid.data.dtype(), mid.data.dims().to_vec());
    let d_ms = median_ms(REPS, || {
        mgard
            .decompress(&stream, &mut scratch)
            .expect("checked above");
    });
    push(out, "mgard.compress_ns_per_elem", c_ms * 1e6 / n_mid, "ns");
    push(
        out,
        "mgard.decompress_ns_per_elem",
        d_ms * 1e6 / n_mid,
        "ns",
    );

    // The exec pool: the pooled variants at 1 and at 2 threads, then its
    // counters over traced round trips at 2 threads.
    let (mut fallback, mut steal) = (0, 0);
    for c in ["sz_omp", "zfp_omp"] {
        let mut times = [0.0; 2];
        for (slot, threads) in [1u32, POOL_THREADS].into_iter().enumerate() {
            let readback = [(format!("{c}:nthreads"), Want::U32(threads))];
            let o = rel_opts().with("pressio:nthreads", threads);
            let mut h = configure(lib, c, &o, &readback, false)?;
            round_trip(&mut h, &big.data, lossy_big)?;
            times[slot] = median_ms(REPS, || {
                round_trip(&mut h, &big.data, lossy_big).expect("checked above");
            });
            if threads == POOL_THREADS {
                let tr = traced(REPS, &mut h, &big.data, lossy_big)?;
                fallback += tr.counter("exec:serial_fallback");
                steal += tr.counter("exec:steal");
            }
        }
        push(out, format!("exec.speedup_{c}"), times[0] / times[1], "x");
    }
    push(out, "exec.serial_fallback", fallback as f64, "count");
    push(out, "exec.steal", steal as f64, "count");

    // Fixed per-call costs on single blocks.
    let mut zfp_sized = configure(lib, "zfp", &rel_opts(), &[], true)?;
    let mut zfp_bare = handle(lib, "zfp", rel_opts())?;
    let mut zfp_native = zfp_bare.clone().into_inner();
    let stream = round_trip(
        &mut zfp_sized,
        &b8,
        Expect::Lossy {
            bound: f64::INFINITY,
        },
    )?;
    let reported = zfp_sized
        .metrics_results()
        .get_as::<f64>("size:compression_ratio")
        .map_err(|e| e.to_string())?
        .ok_or("size reported no compression_ratio")?;
    check::check_ratio(b8.size_in_bytes(), stream.size_in_bytes(), Some(reported))?;
    const CALLS: usize = 2000;
    push(
        out,
        "handle.dispatch_us",
        paired_diff_us(
            CALLS,
            || drop(std::hint::black_box(zfp_bare.compress(&b8))),
            || drop(std::hint::black_box(zfp_native.compress(&b8))),
        ),
        "us",
    );
    push(
        out,
        "handle.metrics_hook_us",
        paired_diff_us(
            CALLS,
            || drop(std::hint::black_box(zfp_sized.compress(&b8))),
            || drop(std::hint::black_box(zfp_bare.compress(&b8))),
        ),
        "us",
    );
    let abs = rel * mid.range;
    let lossy_abs = Expect::Lossy { bound: abs };
    let (_, o, rb) = abs_options("sz", abs);
    let mut sz_block = configure(lib, "sz", &o, &rb, false)?;
    round_trip(&mut sz_block, &b8, lossy_abs)?;
    let fixed_ms = median_ms(CALLS / 4, || {
        std::hint::black_box(sz_block.compress(&b8).expect("checked above"));
    });
    push(out, "sz.fixed_us", fixed_ms * 1e3, "us");
    let tr = traced(CALLS / 10, &mut sz_block, &b8, lossy_abs)?;
    push(
        out,
        "sz.fixed_huffman_share",
        tr.total_ns("sz:huffman_encode") as f64 / tr.total_ns("handle:compress[sz]").max(1) as f64,
        "ratio",
    );
    let (name, o, rb) = abs_options("guard>sz", abs);
    let mut guard = configure(lib, name, &o, &rb, false)?;
    let sz_stream = round_trip(&mut sz_block, &b16, lossy_abs)?;
    let guard_stream = round_trip(&mut guard, &b16, lossy_abs)?;
    let mut o16 = Data::owned(b16.dtype(), b16.dims().to_vec());
    let mut g16 = Data::owned(b16.dtype(), b16.dims().to_vec());
    push(
        out,
        "guard.overhead_us",
        paired_diff_us(
            CALLS / 4,
            || {
                std::hint::black_box(guard.compress(&b16).expect("checked above"));
                guard
                    .decompress(&guard_stream, &mut g16)
                    .expect("checked above");
            },
            || {
                std::hint::black_box(sz_block.compress(&b16).expect("checked above"));
                sz_block
                    .decompress(&sz_stream, &mut o16)
                    .expect("checked above");
            },
        ),
        "us",
    );

    // Lossless codecs on raw float bytes.
    let raw = Data::from_bytes(mid.data.as_bytes());
    let mb = raw.size_in_bytes() as f64 / 1e6;
    for c in ["deflate", "rans"] {
        let mut h = handle(lib, c, Options::new())?;
        let stream = round_trip(&mut h, &raw, Expect::Lossless)?;
        let enc = median_ms(5, || {
            std::hint::black_box(h.compress(&raw).expect("checked above"));
        });
        let mut back = Data::owned(raw.dtype(), raw.dims().to_vec());
        let dec = median_ms(5, || {
            h.decompress(&stream, &mut back).expect("checked above")
        });
        push(
            out,
            format!("codecs.{c}_encode_mbps"),
            mb / (enc / 1e3),
            "MB/s",
        );
        push(
            out,
            format!("codecs.{c}_decode_mbps"),
            mb / (dec / 1e3),
            "MB/s",
        );
    }

    // Peak heap of one decode against what the stream and output justify.
    for c in [
        "sz", "sz_omp", "zfp", "zfp_omp", "mgard", "guard>sz", "rans", "deflate",
    ] {
        let (name, o, expect) = match c {
            "rans" | "deflate" => (c, Options::new(), Expect::Lossless),
            "guard>sz" => {
                let (n, o, _) = abs_options(c, abs);
                (n, o, lossy_abs)
            }
            _ if c.ends_with("_omp") => (
                c,
                rel_opts().with("pressio:nthreads", POOL_THREADS),
                lossy_mid,
            ),
            _ => (c, rel_opts(), lossy_mid),
        };
        let mut h = handle(lib, name, o)?;
        let stream = round_trip(&mut h, &mid.data, expect)?;
        let mut back = Data::owned(mid.data.dtype(), mid.data.dims().to_vec());
        alloc::reset_peak();
        let before = alloc::live();
        h.decompress(&stream, &mut back)
            .map_err(|e| e.to_string())?;
        let extra = alloc::peak().saturating_sub(before);
        let justified = stream.size_in_bytes().max(back.size_in_bytes()).max(1);
        push(
            out,
            format!("heap.decode_peak_ratio.{}", c.replace('>', "_")),
            extra as f64 / justified as f64,
            "ratio",
        );
    }

    serve_probe(lib, seed, out)
}

/// Where a serve request's time goes, per default profile: client round
/// trip, the daemon's own latency from admission (Health p50), and the
/// profile's stack called directly. Each profile gets compress requests of
/// one size only (1 MiB lossless, 16³ sz, 256 KiB zfp), so its Health p50
/// is not a median over a mixture; daemon and direct calls alternate.
fn serve_probe(lib: &Pressio, seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    const REPS: usize = 15;
    let mut daemon = serve::start(serve::mix(lib, seed ^ 0xBEEF)?)?;
    let result = serve_phases(lib, &mut daemon, REPS, out);
    daemon.stop()?;
    result
}

fn serve_phases(
    lib: &Pressio,
    daemon: &mut serve::Serve,
    reps: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut rows = Vec::new();
    for i in 0..daemon.kinds().len() {
        let (profile, input, expect) = {
            let k = &daemon.kinds()[i];
            (k.profile, k.input.clone(), k.expect)
        };
        let mut direct = serve::profile_stack(lib, profile)?;
        // The served stream must decode, through the same stack, to a
        // result within the profile's bound.
        let (_, stream) = daemon.compress_once(i)?;
        let mut back = Data::owned(input.dtype(), input.dims().to_vec());
        direct
            .decompress(&Data::from_bytes(&stream), &mut back)
            .map_err(|e| format!("{profile}: {e}"))?;
        check::check_output(&input, &back, expect).map_err(|e| format!("{profile}: {e}"))?;
        round_trip(&mut direct, &input, expect)?;
        let (mut rtt, mut compute) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            rtt.push(daemon.compress_once(i)?.0);
            let t = Instant::now();
            std::hint::black_box(direct.compress(&input).map_err(|e| e.to_string())?);
            compute.push(t.elapsed().as_secs_f64() * 1e3);
        }
        rows.push((profile, median(&rtt), median(&compute)));
    }
    let health = daemon.health()?;
    for (profile, rtt, compute) in rows {
        let server = health_p50(&health, profile)
            .ok_or_else(|| format!("health frame has no p50 for {profile}: {health}"))?;
        push(out, format!("serve.rtt_ms.{profile}"), rtt, "ms");
        push(out, format!("serve.server_ms.{profile}"), server, "ms");
        push(out, format!("serve.compute_ms.{profile}"), compute, "ms");
        push(
            out,
            format!("serve.transport_ms.{profile}"),
            rtt - server,
            "ms",
        );
        push(
            out,
            format!("serve.queue_dispatch_ms.{profile}"),
            server - compute,
            "ms",
        );
    }
    Ok(())
}

/// `profiles.<name>.p50_ms` of a Health document.
fn health_p50(health: &str, profile: &str) -> Option<f64> {
    let at = health.find(&format!("\"{profile}\":{{"))?;
    let rest = &health[at..];
    let p50 = rest.find("\"p50_ms\":")? + "\"p50_ms\":".len();
    let end = rest[p50..].find([',', '}'])?;
    rest[p50..p50 + end].parse().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn health_p50_reads_the_named_profile() {
        let h = r#"{"profiles":{"lossless":{"requests":4,"p50_ms":1.250,"p99_ms":3.000},"sz_abs_1e3":{"ok":2,"p50_ms":0.500,"p99_ms":0.9}}}"#;
        assert_eq!(super::health_p50(h, "lossless"), Some(1.25));
        assert_eq!(super::health_p50(h, "sz_abs_1e3"), Some(0.5));
        assert_eq!(super::health_p50(h, "zfp_default"), None);
    }
}
