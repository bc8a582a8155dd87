//! Per-layer probes: each layer timed from outside, by calls into its
//! public functions. Every call (or batch of calls, for operations of a
//! few nanoseconds) is a span in the run's log, under one `probe` span
//! per probe; each metric is the median span duration.

use crate::gen::{self, ConnRecord, Workload};
use crate::run::{directives, Server};
use crate::spans::{Span, SpanLog};
use crate::stats::median;
use qtls_core::{
    pause_job, start_job, AsyncQueue, EngineMode, FdSelector, OffloadEngine, StartResult, VirtualFd,
};
use qtls_crypto::ecc::NamedCurve;
use qtls_crypto::TestRng;
use qtls_qat::ring::Ring;
use qtls_qat::{make_request, seal_in_place, CryptoInstance, CryptoOp, QatDevice};
use qtls_server::net::VListener;
use qtls_server::{Worker, WorkerConfig};
use qtls_tls::client::{ClientSession, ResumeData};
use qtls_tls::provider::{CryptoProvider, OpCounters};
use qtls_tls::record::RecordCodec;
use qtls_tls::server::ServerSession;
use qtls_tls::suite::CipherSuite;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time `calls` spans named `name`, each running `inner` repetitions of
/// `f`, under one `probe` span; returns the median time per repetition
/// in ns.
fn timed(
    log: &mut SpanLog,
    name: &'static str,
    calls: usize,
    inner: usize,
    mut f: impl FnMut(),
) -> f64 {
    let probe = log.begin("probe", None, 0);
    for _ in 0..calls {
        log.time(name, Some(probe), 0, || {
            for _ in 0..inner {
                f();
            }
        });
    }
    log.end(probe);
    median(&log.durations(name)) / inner as f64
}

/// Submit one request on `inst` and poll until its callback runs.
fn roundtrip(inst: &CryptoInstance, op: CryptoOp) {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    inst.submit(make_request(
        0,
        op,
        Box::new(move |r| {
            r.expect("device computes the probe operation");
            flag.store(true, Ordering::Release);
        }),
    ))
    .unwrap_or_else(|_| panic!("an idle instance's request ring has room"));
    while !done.load(Ordering::Acquire) {
        if inst.poll(8) == 0 {
            std::thread::yield_now();
        }
    }
}

/// Handshake a client against a `ServerSession` in-thread, timing only
/// the server calls as `tls.server_call` spans under `parent`. Returns
/// both ends once established.
fn handshake_in_thread(
    server: &Server,
    seed: u64,
    resume: Option<ResumeData>,
    log: &mut SpanLog,
    parent: usize,
) -> (ServerSession, ClientSession) {
    let mut s = ServerSession::new(Arc::clone(&server.tls), CryptoProvider::Software, seed);
    let mut c = ClientSession::new(
        CryptoProvider::Software,
        CipherSuite::TlsRsa,
        NamedCurve::P256,
        resume,
        seed ^ 0x5eed,
    );
    c.start().expect("client hello");
    loop {
        let to_server = c.take_output();
        let to_client = log.time("tls.server_call", Some(parent), 0, || {
            if !to_server.is_empty() {
                s.feed(&to_server);
                s.process().expect("server handshake");
            }
            s.take_output()
        });
        if to_server.is_empty() && to_client.is_empty() {
            break;
        }
        if !to_client.is_empty() {
            c.feed(&to_client);
            c.process().expect("client handshake");
        }
    }
    assert!(
        s.is_established() && c.is_established(),
        "in-thread handshake completes"
    );
    (s, c)
}

fn crypto_probes(log: &mut SpanLog, out: &mut Vec<(&'static str, f64)>) {
    let key = qtls_crypto::test_keys::test_rsa_2048();
    let mut rng = TestRng::new(0xc0ffee);
    let premaster = [0x03u8; 48];
    let ct = key
        .public()
        .encrypt_pkcs1(&premaster, &mut rng)
        .expect("encrypt premaster");
    let ns = timed(log, "crypto.rsa2048_priv", 40, 1, || {
        let pt = key
            .decrypt_pkcs1(black_box(&ct))
            .expect("decrypt premaster");
        assert_eq!(pt, premaster);
    });
    out.push(("crypto.rsa2048_priv_us", ns / 1e3));

    let secret = [7u8; 48];
    let seed = [9u8; 64];
    let ns = timed(log, "crypto.prf_tls12", 200, 10, || {
        black_box(qtls_crypto::kdf::prf_tls12(
            black_box(&secret),
            b"master secret",
            &seed,
            48,
        ));
    });
    out.push(("crypto.prf_tls12_us", ns / 1e3));

    let plain = qtls_server::http::synthetic_body(16 * 1024);
    let mut buf = Vec::with_capacity(plain.len() + 64);
    let ns = timed(log, "crypto.cbc_sha1_16k", 200, 1, || {
        buf.clear();
        buf.extend_from_slice(&plain);
        seal_in_place(&[1; 16], &[2; 20], &[3; 16], &mut buf, &[4; 13]).expect("seal");
        black_box(&buf);
    });
    out.push(("crypto.cbc_sha1_16k_us", ns / 1e3));
}

fn qat_probes(device: &QatDevice, log: &mut SpanLog, out: &mut Vec<(&'static str, f64)>) {
    let ring: Ring<u64> = Ring::new(64);
    let ns = timed(log, "qat.ring_push_pop", 200, 1000, || {
        ring.push(black_box(9)).ok();
        black_box(ring.pop());
    });
    out.push(("qat.ring_push_pop_ns", ns));

    let inst = device.alloc_instance();
    let key = Arc::new(qtls_crypto::test_keys::test_rsa_2048().clone());
    let mut rng = TestRng::new(0xa5);
    let ciphertext = key
        .public()
        .encrypt_pkcs1(&[0x03; 48], &mut rng)
        .expect("encrypt premaster");
    let ns = timed(log, "qat.roundtrip_asym", 40, 1, || {
        roundtrip(
            &inst,
            CryptoOp::RsaDecrypt {
                key: Arc::clone(&key),
                ciphertext: ciphertext.clone(),
            },
        )
    });
    out.push(("qat.roundtrip_asym_us", ns / 1e3));
    let ns = timed(log, "qat.roundtrip_prf", 300, 1, || {
        roundtrip(
            &inst,
            CryptoOp::Prf {
                secret: vec![7; 48],
                label: b"key expansion".to_vec(),
                seed: vec![9; 64],
                out_len: 48,
            },
        )
    });
    out.push(("qat.roundtrip_prf_us", ns / 1e3));
    let plain = qtls_server::http::synthetic_body(16 * 1024);
    let ns = timed(log, "qat.roundtrip_cipher16k", 200, 1, || {
        roundtrip(
            &inst,
            CryptoOp::CipherEncrypt {
                enc_key: [1; 16],
                mac_key: vec![2; 20],
                iv: [3; 16],
                plaintext: plain.clone(),
                aad: vec![4; 13],
            },
        )
    });
    out.push(("qat.roundtrip_cipher16k_us", ns / 1e3));
}

fn core_probes(device: &QatDevice, log: &mut SpanLog, out: &mut Vec<(&'static str, f64)>) {
    let ns = timed(log, "core.job_start", 300, 1, || {
        match start_job(|| black_box(42)) {
            StartResult::Finished(v) => black_box(v),
            StartResult::Paused(_) => unreachable!("the job never pauses"),
        };
    });
    out.push(("core.job_start_us", ns / 1e3));
    let ns = timed(log, "core.job_pause_resume", 300, 1, || {
        let job = match start_job(|| {
            pause_job();
            7
        }) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => unreachable!("the job pauses once"),
        };
        match job.resume() {
            StartResult::Finished(v) => black_box(v),
            StartResult::Paused(_) => unreachable!("the job finishes after one resume"),
        };
    });
    out.push(("core.job_pause_resume_us", ns / 1e3));

    let queue: AsyncQueue<u64> = AsyncQueue::new();
    let ns = timed(log, "core.notify_bypass", 200, 1000, || {
        queue.push(black_box(1));
        black_box(queue.pop());
    });
    out.push(("core.notify_bypass_ns", ns));
    let selector = FdSelector::new();
    let fd = Arc::new(VirtualFd::new(1));
    selector.register(Arc::clone(&fd));
    let ns = timed(log, "core.notify_fd", 200, 1000, || {
        fd.signal();
        black_box(selector.poll_ready());
        fd.clear();
    });
    out.push(("core.notify_fd_ns", ns));

    let engine = Arc::new(OffloadEngine::new(
        device.alloc_instance(),
        EngineMode::Async,
    ));
    let ns = timed(log, "core.offload_prf_async", 300, 1, || {
        let e = Arc::clone(&engine);
        let mut job = match start_job(move || {
            e.offload(CryptoOp::Prf {
                secret: vec![7; 48],
                label: b"key expansion".to_vec(),
                seed: vec![9; 64],
                out_len: 48,
            })
        }) {
            StartResult::Paused(j) => j,
            StartResult::Finished(_) => unreachable!("an async offload pauses its job"),
        };
        loop {
            engine.poll_all();
            match job.resume() {
                StartResult::Finished(r) => {
                    r.expect("offloaded PRF");
                    break;
                }
                StartResult::Paused(j) => {
                    job = j;
                    std::thread::yield_now();
                }
            }
        }
    });
    out.push(("core.offload_prf_async_us", ns / 1e3));
}

fn tls_probes(server: &Server, log: &mut SpanLog, out: &mut Vec<(&'static str, f64)>) {
    let mut resume = None;
    let mut secrets = None;
    for i in 0..20u64 {
        let parent = log.begin("probe.tls.full_hs", None, i);
        let (mut s, mut c) = handshake_in_thread(server, 0x100 + i, None, log, parent);
        log.end(parent);
        assert!(!c.was_resumed());
        resume = c.export_resume_data();
        if secrets.is_none() {
            secrets = Some((
                s.extract_secrets().expect("server secrets"),
                c.extract_secrets().expect("client secrets"),
            ));
        }
    }
    let full = median(&log.child_sums("probe.tls.full_hs", "tls.server_call"));
    out.push(("tls.full_hs_server_us", full / 1e3));
    for i in 0..200u64 {
        let parent = log.begin("probe.tls.resumed_hs", None, i);
        let (_, c) = handshake_in_thread(server, 0x200 + i, resume.clone(), log, parent);
        log.end(parent);
        assert!(c.was_resumed(), "in-thread resumption must be abbreviated");
    }
    let resumed = median(&log.child_sums("probe.tls.resumed_hs", "tls.server_call"));
    out.push(("tls.resumed_hs_server_us", resumed / 1e3));

    let ((ss, sl), (cs, cl)) = secrets.expect("a full handshake ran");
    let mut seal = RecordCodec::new(ss, sl, RecordCodec::DEFAULT_BATCH);
    let mut open = RecordCodec::new(cs, cl, RecordCodec::DEFAULT_BATCH);
    let plain = qtls_server::http::synthetic_body(16 * 1024);
    let mut rng = TestRng::new(0x5ea1);
    let mut counters = OpCounters::default();
    let sw = CryptoProvider::Software;
    let probe = log.begin("probe", None, 0);
    for _ in 0..200 {
        let mut wire = Vec::new();
        let mut pt = Vec::new();
        log.time("tls.record_seal_16k", Some(probe), 0, || {
            seal.seal_into(&plain, &mut wire, &sw, &mut counters, &mut rng)
                .expect("seal record")
        });
        open.feed(&wire);
        log.time("tls.record_open_16k", Some(probe), 0, || {
            open.open_into(&mut pt, &sw, &mut counters)
                .expect("open record")
        });
        assert_eq!(pt, plain, "record round trip");
    }
    log.end(probe);
    out.push((
        "tls.record_seal_16k_us",
        median(&log.durations("tls.record_seal_16k")) / 1e3,
    ));
    out.push((
        "tls.record_open_16k_us",
        median(&log.durations("tls.record_open_16k")) / 1e3,
    ));
}

/// A `Worker` driven in-thread with the workload's connection shape;
/// only its productive `run_iteration` calls are timed, so the idle
/// spin between offload completions is not counted as work.
fn worker_probe(
    server: &Server,
    device: &QatDevice,
    workload: Workload,
    seed: u64,
    log: &mut SpanLog,
) -> Result<f64, String> {
    let listener = Arc::new(VListener::new());
    let mut cfg = WorkerConfig::from_directives(&directives(false));
    cfg.tls = Arc::clone(&server.tls);
    cfg.content = Arc::clone(&server.content);
    let mut worker = Worker::new(Arc::clone(&listener), Some(device), cfg);
    let shape = workload.shape();
    let body = qtls_server::http::synthetic_body(shape.body_len);
    let mut resume = None;
    let budget = Instant::now() + Duration::from_millis(1500);
    let mut conns = 0u64;
    while conns < 5 || (Instant::now() < budget && conns < 200) {
        let mut busy: Vec<(u64, u64)> = Vec::new();
        let mut rec = ConnRecord::default();
        let parent = log.begin("probe.server.conn", None, conns);
        let iterate = |worker: &mut Worker, busy: &mut Vec<(u64, u64)>| {
            let t0 = log.now_ns();
            if worker.run_iteration() > 0 {
                busy.push((t0, log.now_ns()));
            }
        };
        gen::run_conn(
            &listener,
            &shape,
            &body,
            gen::client_seed(seed, 7, conns),
            if shape.resume { resume.clone() } else { None },
            &mut rec,
            &mut || iterate(&mut worker, &mut busy),
            None,
        )?;
        // Let the worker reap the closed socket.
        for _ in 0..3 {
            iterate(&mut worker, &mut busy);
        }
        log.end(parent);
        for (start_ns, end_ns) in busy {
            log.push(Span {
                name: "server.run_iteration",
                start_ns,
                end_ns,
                parent: Some(parent),
                conn: conns,
            });
        }
        if resume.is_none() {
            resume = rec.resume_out;
        }
        conns += 1;
    }
    worker.shutdown();
    if worker.stats.errors != 0 || worker.stats.handshakes != conns {
        return Err(format!(
            "in-thread worker: {} handshakes for {conns} connections, {} errors",
            worker.stats.handshakes, worker.stats.errors
        ));
    }
    let mut per_conn = log.child_sums("probe.server.conn", "server.run_iteration");
    if shape.resume {
        // The first connection is the full handshake the rest resume.
        per_conn.remove(0);
    }
    Ok(median(&per_conn) / 1e3)
}

/// Run every layer probe; `workload` picks the in-thread worker's
/// connection shape. Values are in the units their metric names carry.
pub fn run_all(
    server: &Server,
    workload: Workload,
    seed: u64,
    log: &mut SpanLog,
) -> Result<Vec<(&'static str, f64)>, String> {
    let device = QatDevice::with_defaults();
    let mut values = Vec::new();
    crypto_probes(log, &mut values);
    qat_probes(&device, log, &mut values);
    core_probes(&device, log, &mut values);
    tls_probes(server, log, &mut values);
    let busy = worker_probe(server, &device, workload, seed, log)?;
    values.push(("server.busy_us_per_conn", busy));
    Ok(values)
}
