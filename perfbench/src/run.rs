//! Load segments against the real `qtls-server` cluster: boot, warm up,
//! drive the closed loop for a fixed time, shut down, and check the
//! counters the program exposes against what the generator saw.

use crate::gen::{self, ConnRecord, GenOut, Shape, Workload};
use qtls_core::obs::SpanKind;
use qtls_qat::counters::FwCounters;
use qtls_server::config_file::{parse_ssl_engine_conf, EngineDirectives};
use qtls_server::http::ContentStore;
use qtls_server::{Cluster, MetricsPlane, WorkerStats};
use qtls_tls::client::ResumeData;
use qtls_tls::server::ServerConfig;
use qtls_tls::store::StoreStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections, one generator thread each.
pub const CLIENTS: usize = 2;

/// The paper's full QTLS profile on one worker: async offload, heuristic
/// polling (the default poll mode) and kernel-bypass notification.
/// Every other directive keeps its default, so metrics and tracing are
/// off.
const QTLS_CONF: &str = "worker_processes 1;
ssl_engine {
    use qat_engine;
    qat_engine {
        qat_offload_mode async;
        qat_notify_mode poll;
    }
}
";

/// Added for the traced run only.
const TRACED_CONF: &str = "qat_metrics on;\ntrace_sample_rate 64;\n";

pub fn directives(traced: bool) -> EngineDirectives {
    let conf = if traced {
        format!("{QTLS_CONF}{TRACED_CONF}")
    } else {
        QTLS_CONF.to_string()
    };
    parse_ssl_engine_conf(&conf).expect("the benchmark's server configuration parses")
}

/// What a server loads from disk before it serves: keys and content.
/// Built once per run, before any set-up timer starts.
pub struct Server {
    pub tls: Arc<ServerConfig>,
    pub content: Arc<ContentStore>,
}

impl Server {
    pub fn load() -> Self {
        Server {
            tls: ServerConfig::test_default(),
            content: Arc::new(ContentStore::new()),
        }
    }
}

/// Device counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fw {
    pub submitted: u64,
    pub polled: u64,
    pub doorbells: u64,
    pub ring_full: u64,
    pub resp_stalls: u64,
}

impl Fw {
    fn read(c: &FwCounters) -> Self {
        let l = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Fw {
            submitted: l(&c.submitted),
            polled: l(&c.polled),
            doorbells: l(&c.doorbells),
            ring_full: l(&c.ring_full),
            resp_stalls: l(&c.resp_stalls),
        }
    }

    pub fn minus(self, o: Fw) -> Fw {
        Fw {
            submitted: self.submitted - o.submitted,
            polled: self.polled - o.polled,
            doorbells: self.doorbells - o.doorbells,
            ring_full: self.ring_full - o.ring_full,
            resp_stalls: self.resp_stalls - o.resp_stalls,
        }
    }

    pub fn plus(self, o: Fw) -> Fw {
        Fw {
            submitted: self.submitted + o.submitted,
            polled: self.polled + o.polled,
            doorbells: self.doorbells + o.doorbells,
            ring_full: self.ring_full + o.ring_full,
            resp_stalls: self.resp_stalls + o.resp_stalls,
        }
    }
}

/// The server stages the traced run reads from the program's own
/// sampled-connection attribution, with their mean and count metrics.
pub const STAGES: [(SpanKind, &str, &str); 6] = [
    (
        SpanKind::AcceptWait,
        "server.stage.accept_wait_us",
        "server.stage.accept_wait_count",
    ),
    (
        SpanKind::Handshake,
        "server.stage.handshake_us",
        "server.stage.handshake_count",
    ),
    (
        SpanKind::OffloadWait,
        "server.stage.offload_wait_us",
        "server.stage.offload_wait_count",
    ),
    (
        SpanKind::RecordSeal,
        "server.stage.record_seal_us",
        "server.stage.record_seal_count",
    ),
    (
        SpanKind::RecordOpen,
        "server.stage.record_open_us",
        "server.stage.record_open_count",
    ),
    (
        SpanKind::Serve,
        "server.stage.serve_us",
        "server.stage.serve_count",
    ),
];

/// Sum (ns) and count of one stage over every sampled connection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stage {
    pub sum_ns: u64,
    pub count: u64,
}

/// One segment: a fresh cluster, warmed up, loaded for a fixed time.
pub struct Segment {
    /// `Cluster::start` -> first warm-up connection served, seconds.
    pub setup_s: f64,
    /// The measured window.
    pub gen: GenOut,
    pub window_s: f64,
    /// Device counters over the measured window (warm-up excluded).
    pub fw_window: Fw,
    /// Worker counters over the measured window (warm-up excluded).
    pub work_window: Work,
    pub store: StoreStats,
    pub stages: [Stage; 6],
    /// The program's attribution table, as it renders it.
    pub attribution: String,
    /// Broken conservation laws; empty when every check holds.
    pub broken: Vec<String>,
}

/// A client's first connection: the workload's handshake and object,
/// one request. It is the warm-up, not part of the measured window.
fn warm_shape(workload: Workload) -> Shape {
    Shape {
        requests: 1,
        ..workload.shape()
    }
}

/// Boot a cluster and serve client 0's first connection: the set-up a
/// user waits through before the first response. Returns the running
/// cluster, the time and the warm-up record.
fn boot(
    server: &Server,
    d: &EngineDirectives,
    workload: Workload,
    seed: u64,
) -> Result<(Cluster, f64, ConnRecord), String> {
    let shape = warm_shape(workload);
    let body = qtls_server::http::synthetic_body(shape.body_len);
    let t0 = Instant::now();
    let cluster = Cluster::start(d, Arc::clone(&server.tls), Arc::clone(&server.content));
    let mut rec = ConnRecord::default();
    gen::run_conn(
        &cluster.listener(),
        &shape,
        &body,
        gen::client_seed(seed, 0, 0),
        None,
        &mut rec,
        &mut std::thread::yield_now,
        None,
    )
    .map_err(|e| format!("warm-up connection: {e}"))?;
    Ok((cluster, t0.elapsed().as_secs_f64(), rec))
}

/// Set-up times of `n - 1` throwaway boots; the caller's measured
/// segment supplies the last one. Each throwaway cluster serves its
/// warm-up connection and shuts down clean.
pub fn setup_samples(
    server: &Server,
    workload: Workload,
    seed: u64,
    n: usize,
) -> Result<Vec<f64>, String> {
    let d = directives(false);
    (1..n)
        .map(|_| {
            let (cluster, secs, _) = boot(server, &d, workload, seed)?;
            let work = Work::of_report(&cluster.shutdown().workers);
            if work.handshakes != 1 || work.errors != 0 {
                return Err(format!(
                    "set-up boot served {} handshakes, {} errors",
                    work.handshakes, work.errors
                ));
            }
            Ok(secs)
        })
        .collect()
}

/// The worker counters the benchmark reads, summed over workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    pub handshakes: u64,
    pub resumed: u64,
    pub resume_miss: u64,
    pub requests: u64,
    pub async_jobs: u64,
    pub resumptions: u64,
    pub flushes: u64,
    pub accepted: u64,
    pub errors: u64,
    pub kernel_switches: u64,
}

impl Work {
    fn add(&mut self, s: &WorkerStats, kernel_switches: u64) {
        self.handshakes += s.handshakes;
        self.resumed += s.resumed;
        self.resume_miss += s.resume_miss;
        self.requests += s.requests;
        self.async_jobs += s.async_jobs;
        self.resumptions += s.resumptions;
        self.flushes += s.flushes;
        self.accepted += s.accepted;
        self.errors += s.errors;
        self.kernel_switches += kernel_switches;
    }

    fn of_report(workers: &[(WorkerStats, u64)]) -> Self {
        let mut w = Work::default();
        for (s, k) in workers {
            w.add(s, *k);
        }
        w
    }

    /// The workers' live counters, as each publishes them to its
    /// metrics plane at the end of every event-loop iteration. Waits
    /// (bounded) until they account for `requests` served requests, so
    /// an iteration still finishing its last response is not missed.
    fn live(planes: &[Arc<MetricsPlane>], requests: u64) -> Self {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut w = Work::default();
            for p in planes {
                let snap = p.snapshot();
                w.add(&snap.stats, snap.kernel_switches);
            }
            if w.requests >= requests || Instant::now() > deadline {
                return w;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn minus(self, o: Work) -> Work {
        Work {
            handshakes: self.handshakes - o.handshakes,
            resumed: self.resumed - o.resumed,
            resume_miss: self.resume_miss - o.resume_miss,
            requests: self.requests - o.requests,
            async_jobs: self.async_jobs - o.async_jobs,
            resumptions: self.resumptions - o.resumptions,
            flushes: self.flushes - o.flushes,
            accepted: self.accepted - o.accepted,
            errors: self.errors - o.errors,
            kernel_switches: self.kernel_switches - o.kernel_switches,
        }
    }

    pub fn plus(self, o: Work) -> Work {
        Work {
            handshakes: self.handshakes + o.handshakes,
            resumed: self.resumed + o.resumed,
            resume_miss: self.resume_miss + o.resume_miss,
            requests: self.requests + o.requests,
            async_jobs: self.async_jobs + o.async_jobs,
            resumptions: self.resumptions + o.resumptions,
            flushes: self.flushes + o.flushes,
            accepted: self.accepted + o.accepted,
            errors: self.errors + o.errors,
            kernel_switches: self.kernel_switches + o.kernel_switches,
        }
    }
}

fn read_stages(planes: &[Arc<MetricsPlane>]) -> ([Stage; 6], String) {
    let mut stages = [Stage::default(); 6];
    let mut table = String::new();
    for plane in planes {
        let sink = plane.trace_sink();
        for (slot, (kind, ..)) in stages.iter_mut().zip(STAGES) {
            let snap = sink.stage_snapshot(kind);
            slot.sum_ns += snap.sum;
            slot.count += snap.count();
        }
        table.push_str(&qtls_server::metrics::render_trace_attribution(sink, true));
    }
    (stages, table)
}

/// Run one segment: boot (timed), warm up every client, drive the
/// closed loop for `seconds`, shut down and check conservation.
pub fn segment(
    server: &Server,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    epoch: Option<Instant>,
) -> Result<Segment, String> {
    let shape = warm_shape(workload);
    let body = qtls_server::http::synthetic_body(shape.body_len);
    let (cluster, setup_s, first) = boot(server, &directives(traced), workload, seed)?;
    let listener = cluster.listener();
    let device = Arc::clone(cluster.device().expect("the QTLS profile offloads"));
    // Every client's first connection is a full handshake; on `resume`
    // its session is the one every later connection resumes.
    let mut warm: Vec<Option<ResumeData>> = vec![first.resume_out];
    let mut warm_requests = first.req_s.len() as u64;
    for client in 1..CLIENTS {
        let mut rec = ConnRecord::default();
        gen::run_conn(
            &listener,
            &shape,
            &body,
            gen::client_seed(seed, client, 0),
            None,
            &mut rec,
            &mut std::thread::yield_now,
            None,
        )
        .map_err(|e| format!("warm-up connection: {e}"))?;
        warm_requests += rec.req_s.len() as u64;
        warm.push(rec.resume_out);
    }
    let planes: Vec<Arc<MetricsPlane>> = cluster.metrics_planes().into_iter().flatten().collect();
    let work_start = Work::live(&planes, warm_requests);
    let fw_start = Fw::read(device.fw_counters());
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut out = GenOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = warm
            .into_iter()
            .enumerate()
            .map(|(client, resume)| {
                let (listener, stop) = (&listener, &stop);
                std::thread::Builder::new()
                    .name(format!("perfbench-gen-{client}"))
                    .spawn_scoped(s, move || {
                        gen::closed_loop(listener, workload, seed, client, 1, resume, stop, epoch)
                    })
                    .expect("spawn generator thread")
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            out.merge(h.join().expect("generator thread"));
        }
    });
    let window_s = t0.elapsed().as_secs_f64();
    let requests = warm_requests + out.requests;
    let work_window = Work::live(&planes, requests).minus(work_start);
    let fw_window = Fw::read(device.fw_counters()).minus(fw_start);
    let store = cluster.session_store().stats();
    let report = cluster.shutdown();
    let fw_end = Fw::read(device.fw_counters());
    let (stages, attribution) = read_stages(&planes);
    let stats = Work::of_report(&report.workers);

    let mut broken = Vec::new();
    let conns = CLIENTS as u64 + out.attempted;
    if stats.handshakes != conns {
        broken.push(format!(
            "worker handshakes {} != generator connections {conns} (warm-up included)",
            stats.handshakes
        ));
    }
    if stats.requests != requests {
        broken.push(format!(
            "worker requests {} != generator requests {requests}",
            stats.requests
        ));
    }
    if fw_end.submitted != fw_end.polled {
        broken.push(format!(
            "QAT submitted {} != polled {}",
            fw_end.submitted, fw_end.polled
        ));
    }
    if stats.errors != 0 {
        broken.push(format!("shutdown report shows {} errors", stats.errors));
    }
    Ok(Segment {
        setup_s,
        gen: out,
        window_s,
        fw_window,
        work_window,
        store,
        stages,
        attribution,
        broken,
    })
}
