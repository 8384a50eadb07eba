//! An in-process `pressio serve` daemon with one client connection, for
//! the serve probe of a traced run: one request kind at a time, each
//! waiting for its reply.

use std::time::Instant;

use libpressio::{Data, Pressio};
use pressio_tools::serve::client::{Client, ServeOutcome};
use pressio_tools::serve::{ProfileSpec, ServeConfig, Server};

use crate::check::Expect;
use crate::inputs::{self, FieldSpec, Rng};

/// Daemon worker threads.
pub const WORKERS: usize = 2;

/// One request kind.
pub struct Kind {
    pub label: String,
    pub profile: &'static str,
    pub input: Data,
    pub expect: Expect,
}

/// The request kinds: 1 MiB `lossless`, a 16³ block for `sz_abs_1e3` and
/// a 256 KiB block for `zfp_default`.
pub fn mix(lib: &Pressio, seed: u64) -> Result<Vec<Kind>, String> {
    let read = |name, scale, salt| inputs::read_field(lib, FieldSpec { name, scale }, seed, salt);
    let nyx = read("nyx", 2, 200)?;
    let hurricane = read("hurricane", 2, 201)?;
    let miranda = read("miranda", 2, 203)?;
    let mut rng = Rng::new(seed ^ 0x5E7E);
    // The bounds the default profiles request, read from the profiles
    // themselves so a changed default cannot pass unnoticed.
    let sz_abs = profile_bound(lib, "sz_abs_1e3", "sz:abs_err_bound")?;
    let zfp_abs = profile_bound(lib, "zfp_default", "zfp:accuracy")?;
    Ok(vec![
        Kind {
            label: "lossless/1MiB".into(),
            profile: "lossless",
            input: nyx.data,
            expect: Expect::Lossless,
        },
        Kind {
            label: "sz_abs_1e3/16^3".into(),
            profile: "sz_abs_1e3",
            input: inputs::cut_block(&hurricane.data, [16, 16, 16], &mut rng)?,
            expect: Expect::Lossy { bound: sz_abs },
        },
        Kind {
            label: "zfp_default/256KiB".into(),
            profile: "zfp_default",
            input: inputs::cut_block(&miranda.data, [16, 32, 64], &mut rng)?,
            expect: Expect::Lossy { bound: zfp_abs },
        },
    ])
}

/// The guard stack a default profile arms, built the way the daemon
/// builds it, so it can be called directly.
pub fn profile_stack(lib: &Pressio, profile: &str) -> Result<libpressio::CompressorHandle, String> {
    let spec = ProfileSpec::defaults()
        .into_iter()
        .find(|p| p.name == profile)
        .ok_or_else(|| format!("no default profile {profile}"))?;
    let mut h = lib.get_compressor("guard").map_err(|e| e.to_string())?;
    let mut o = libpressio::Options::new().with("guard:compressor", spec.compressor.as_str());
    o.merge(&spec.options);
    h.set_options(&o).map_err(|e| format!("{profile}: {e}"))?;
    Ok(h)
}

fn profile_bound(lib: &Pressio, profile: &str, key: &str) -> Result<f64, String> {
    profile_stack(lib, profile)?
        .get_options()
        .get_as::<f64>(key)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("profile {profile} reports no {key}"))
}

/// A running daemon with its connected client.
pub struct Serve {
    server: Option<Server>,
    client: Option<Client>,
    kinds: Vec<Kind>,
}

/// Start a daemon on the default profiles with a queue as long as its
/// worker count, so nothing sheds, and connect one client.
pub fn start(kinds: Vec<Kind>) -> Result<Serve, String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        queue_capacity: WORKERS,
        tcp_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("serve start: {e}"))?;
    let addr = server
        .tcp_addr()
        .ok_or("daemon bound no tcp address")?
        .to_string();
    let mut client = Client::connect_tcp(&addr).map_err(|e| format!("connect: {e}"))?;
    client.set_timeout_ms(30_000);
    Ok(Serve {
        server: Some(server),
        client: Some(client),
        kinds,
    })
}

impl Serve {
    pub fn kinds(&self) -> &[Kind] {
        &self.kinds
    }

    /// One compress request of kind `i`: the round trip in milliseconds and
    /// the returned stream.
    pub fn compress_once(&mut self, i: usize) -> Result<(f64, Vec<u8>), String> {
        let kind = &self.kinds[i];
        let input = &kind.input;
        let client = self.client.as_mut().expect("connected until stop");
        let t = Instant::now();
        let r = client.compress(kind.profile, input.dtype(), input.dims(), input.as_bytes());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(ServeOutcome::Ok(stream)) => Ok((ms, stream)),
            other => Err(format!("{}: compress: {other:?}", kind.label)),
        }
    }

    pub fn health(&mut self) -> Result<String, String> {
        self.client
            .as_mut()
            .expect("connected until stop")
            .health()
            .map_err(|e| e.to_string())
    }

    /// Close the connection, drain the daemon and join its threads.
    pub fn stop(mut self) -> Result<(), String> {
        self.client = None;
        if let Some(server) = self.server.take() {
            let report = server.shutdown();
            if report.stuck_inflight != 0 {
                return Err(format!(
                    "{} requests stuck at shutdown",
                    report.stuck_inflight
                ));
            }
        }
        Ok(())
    }
}
