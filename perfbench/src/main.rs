//! End-to-end and per-layer benchmark of libpressio.
//!
//! ```text
//! perfbench --workload <bulk-fields|hacc-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload up five times (the median is `setup_s`),
//! warms every cell once, times a fixed reference loop that does not touch
//! the library, then runs a fixed number of rounds, scaled from
//! `--seconds`, over every cell round-robin. Every output is checked. With
//! `--trace 1` half the rounds run untraced and half traced, then the layer
//! probes run. The last line of standard output is the JSON result.

mod alloc;
mod check;
mod direct;
mod inputs;
mod layers;
mod serve;
mod stats;
mod tally;

use std::time::Instant;

use libpressio::core::trace;

use direct::Direct;
use inputs::FieldSpec;
use layers::Metric;
use stats::{geomean, mean, median, tail};
use tally::{Tally, Tracer};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Workloads, their fields and the rounds per `--seconds` each gets: a
/// round of `bulk-fields` is 48 operations on 0.8-2.3 MiB 3-D fields, a
/// round of `hacc-stream` 24 operations on two 1 MiB 1-D streams. The rates
/// were set so the timed phase takes about `--seconds` on a 2-CPU host.
const WORKLOADS: [(&str, &[FieldSpec], f64); 2] = [
    ("bulk-fields", &direct::BULK_FIELDS, 0.85),
    ("hacc-stream", &direct::STREAM_FIELDS, 1.6),
];

/// Independent set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: &'static str,
    fields: &'static [FieldSpec],
    rate: f64,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(w, _, _)| w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let &(workload, fields, rate) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        fields,
        rate,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A fixed integer loop that touches neither the library nor the heap:
/// millions of iterations per second, a yardstick for host speed.
fn reference_loop() -> f64 {
    const ITERS: u64 = 20_000_000;
    let t = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// The end-to-end figures of one timed pass.
fn end_to_end(t: &Tally, setup_s: f64, out: &mut Vec<Metric>) -> String {
    let mut c_mbps = Vec::new();
    let mut d_mbps = Vec::new();
    let mut ratios = Vec::new();
    let mut op_ms = Vec::new();
    let mut tails = Vec::new();
    let mut tail_at = (0.0, 0);
    for c in t
        .cells
        .iter()
        .filter(|c| !c.compress_ms.is_empty() && !c.decompress_ms.is_empty())
    {
        let mb = c.bytes as f64 / 1e6;
        c_mbps.push(mb / (mean(&c.compress_ms) / 1e3));
        d_mbps.push(mb / (mean(&c.decompress_ms) / 1e3));
        ratios.push(c.ratio());
        for samples in [&c.compress_ms, &c.decompress_ms] {
            op_ms.push(mean(samples));
            let (p, v) = tail(samples);
            tails.push(v);
            tail_at = (p, samples.len());
        }
    }
    out.push(("setup_s".into(), setup_s, "s"));
    out.push(("compress_mbps".into(), geomean(&c_mbps), "MB/s"));
    out.push(("decompress_mbps".into(), geomean(&d_mbps), "MB/s"));
    out.push(("compression_ratio".into(), geomean(&ratios), "ratio"));
    out.push(("ops_per_s".into(), t.ops_per_s(), "1/s"));
    out.push(("op_mean_ms".into(), geomean(&op_ms), "ms"));
    // The lowest round peak: a higher one can come from a buffer another
    // thread frees late, which depends on scheduling, not on the program.
    let least = t.round_peaks.iter().min().copied().unwrap_or(0);
    out.push((
        "peak_heap_mib".into(),
        least as f64 / (1024.0 * 1024.0),
        "MiB",
    ));
    // Printed, not bounded: on a shared host the tail tracks the
    // neighbours' load more than the program.
    format!(
        "op tail {:.4} ms: p{} of {} samples per cell and direction, over {} cells",
        geomean(&tails),
        tail_at.0,
        tail_at.1,
        c_mbps.len()
    )
}

fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let lib = libpressio::instance();
    // A traced run times two passes, untraced and traced, so each gets half
    // the rounds and the run takes about as long as an untraced one.
    let share = if args.trace { 0.5 } else { 1.0 };
    let rounds = ((args.seconds as f64 * args.rate * share).round() as usize).max(2);

    let mut setup_s = Vec::new();
    let mut io_ms = Vec::new();
    let mut prepared: Option<Direct> = None;
    for _ in 0..SETUPS {
        let mut io = 0.0;
        let t = Instant::now();
        let d = direct::setup(&lib, args.fields, args.seed, &mut io)?;
        setup_s.push(t.elapsed().as_secs_f64());
        io_ms.push(io);
        // The previous set-up is dropped here, outside the timing.
        prepared = Some(d);
    }
    let mut p = prepared.expect("at least one set-up");

    let warm = p.run(1, None);
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    let mut errors = warm.errors;

    let reference = reference_loop();
    let timed = p.run(rounds, None);
    attempted += timed.attempted;
    failed += timed.failed;
    errors.extend(timed.errors.iter().cloned());

    let mut e2e = Vec::new();
    let tail_note = end_to_end(&timed, median(&setup_s), &mut e2e);
    println!(
        "workload {} seed {} rounds {rounds}; reference loop {reference:.1} Mops/s; {} CPUs",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (name, value, unit) in &e2e {
        println!("  {name:<20} {value:>14.4} {unit}");
    }
    println!("  {tail_note}");
    for c in &timed.cells {
        eprintln!(
            "  cell {:<28} {:>9} B  ratio {:>8.3}  compress {:>9.4} ms  decompress {:>9.4} ms",
            c.label,
            c.bytes,
            c.ratio(),
            mean(&c.compress_ms),
            mean(&c.decompress_ms)
        );
    }

    let metrics = if args.trace {
        let mut tracer = Tracer::default();
        trace::clear();
        trace::enable();
        let traced = p.run(rounds, Some(&mut tracer));
        trace::disable();
        tracer.drain();
        attempted += traced.attempted;
        failed += traced.failed;
        errors.extend(traced.errors.iter().cloned());
        drop(p);
        print!("{}", tracer.render());

        let (untraced_ops, traced_ops) = (timed.ops_per_s(), traced.ops_per_s());
        let mut layer = vec![
            ("io.datagen_read_ms".to_string(), median(&io_ms), "ms"),
            ("trace.dropped".to_string(), tracer.dropped as f64, "count"),
            (
                "trace.overhead_pct".to_string(),
                (untraced_ops / traced_ops - 1.0) * 100.0,
                "%",
            ),
        ];
        layers::probes(&lib, args.seed, &mut layer)?;
        if tracer.dropped != 0 {
            errors.push(format!("the trace ring dropped {} spans", tracer.dropped));
        }
        for (name, value, unit) in &layer {
            println!("  {name:<40} {value:>14.4} {unit}");
        }
        layer
    } else {
        e2e
    };

    for e in &errors {
        eprintln!("FAILED {e}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("a metric is not a finite number");
    }
    let correct = failed == 0 && errors.is_empty() && finite;
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
