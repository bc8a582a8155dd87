//! End-to-end and per-layer benchmark of the QTLS cluster.
//!
//! ```text
//! perfbench --workload <handshake|resume|bulk> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <N> --seconds <s> [--trace <0|1>] [--workload a,b,...]
//! ```
//!
//! `--trace 0` boots the real `qtls-server` cluster in-process, drives
//! the workload for `--seconds` and prints every end-to-end metric.
//! `--trace 1` is the separate traced run: it alternates untraced and
//! traced segments (for the tracing overhead), runs the layer probes,
//! writes its spans to `perfbench/out/` and prints every per-layer
//! metric. The last stdout line is always the JSON result. `--steady`
//! reruns the benchmark N times per workload, back to back, and prints
//! each metric's median, quartiles, spread and range. See README.md.

mod gen;
mod json;
mod probes;
mod run;
mod spans;
mod stats;

use gen::{GenOut, Workload};
use json::Metric;
use run::{Segment, Server, STAGES};
use spans::SpanLog;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed by every `--trace 0` run, in the order
/// and with the units `BENCHMARK.json` lists.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("conn_per_s", "1/s"),
    ("goodput_mib_s", "MiB/s"),
    ("conn_p50_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("crypto.rsa2048_priv_us", "us"),
    ("crypto.prf_tls12_us", "us"),
    ("crypto.cbc_sha1_16k_us", "us"),
    ("qat.ring_push_pop_ns", "ns"),
    ("qat.roundtrip_asym_us", "us"),
    ("qat.roundtrip_prf_us", "us"),
    ("qat.roundtrip_cipher16k_us", "us"),
    ("qat.requests_per_conn", "count"),
    ("qat.requests_per_doorbell", "count"),
    ("qat.ring_full", "count"),
    ("qat.resp_stalls", "count"),
    ("core.job_start_us", "us"),
    ("core.job_pause_resume_us", "us"),
    ("core.notify_bypass_ns", "ns"),
    ("core.notify_fd_ns", "ns"),
    ("core.offload_prf_async_us", "us"),
    ("core.pauses_per_conn", "count"),
    ("core.jobs_per_conn", "count"),
    ("core.flushes_per_conn", "count"),
    ("tls.full_hs_server_us", "us"),
    ("tls.resumed_hs_server_us", "us"),
    ("tls.record_seal_16k_us", "us"),
    ("tls.record_open_16k_us", "us"),
    ("tls.resume_hit_ratio", "ratio"),
    ("tls.resume_miss", "count"),
    ("tls.store_hits", "count"),
    ("server.busy_us_per_conn", "us"),
    ("server.stage.accept_wait_us", "us"),
    ("server.stage.accept_wait_count", "count"),
    ("server.stage.handshake_us", "us"),
    ("server.stage.handshake_count", "count"),
    ("server.stage.offload_wait_us", "us"),
    ("server.stage.offload_wait_count", "count"),
    ("server.stage.record_seal_us", "us"),
    ("server.stage.record_seal_count", "count"),
    ("server.stage.record_open_us", "us"),
    ("server.stage.record_open_count", "count"),
    ("server.stage.serve_us", "us"),
    ("server.stage.serve_count", "count"),
    ("server.accepted", "count"),
    ("server.errors", "count"),
    ("server.kernel_switches_per_conn", "count"),
    ("gen.client_tls_us_per_conn", "us"),
    ("gen.wait_us_per_conn", "us"),
    ("gen.check_us_per_conn", "us"),
    ("gen.connect_us", "us"),
    ("trace.conn_per_s_traced", "1/s"),
    ("trace.conn_per_s_untraced", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Cluster boots per run whose median is `setup_s`.
const SETUP_BOOTS: usize = 9;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace, mut steady) = (None, None, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workloads = Some(
                    value()?
                        .split(',')
                        .map(|w| Workload::parse(w).ok_or(format!("unknown workload {w:?}")))
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 120.0)
                        .ok_or("--seconds takes a number in (0, 120]")?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--steady" => {
                steady = Some(
                    value()?
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--steady takes a run count of at least 2")?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if steady.is_some() {
        return Ok(Args {
            workloads: workloads.unwrap_or_else(|| Workload::ALL.to_vec()),
            seed: seed.unwrap_or(1),
            seconds,
            trace,
            steady,
        });
    }
    let workloads = workloads.ok_or("--workload is required")?;
    if workloads.len() != 1 {
        return Err("a measuring run takes exactly one workload".into());
    }
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        steady,
    })
}

/// Process peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn pct(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    stats::percentile(samples, q).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support a {q} quantile (needs {} beyond it)",
            samples.len(),
            stats::MIN_BEYOND
        )
    })
}

fn report_failures(gen: &GenOut, broken: &[String]) {
    for e in &gen.errors {
        eprintln!("perfbench: failed operation: {e}");
    }
    for b in broken {
        eprintln!("perfbench: conservation check broken: {b}");
    }
}

/// `--trace 0`: set-up boots, then one measured segment.
fn untraced(w: Workload, seed: u64, seconds: f64) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let server = Server::load();
    let mut setups = run::setup_samples(&server, w, seed, SETUP_BOOTS)?;
    let seg = run::segment(&server, w, seed, seconds, false, None)?;
    setups.push(seg.setup_s);
    let g = &seg.gen;
    report_failures(g, &seg.broken);
    let ok = (g.attempted - g.failed) as f64;
    let values = [
        stats::median(&setups),
        ok / seg.window_s,
        g.body_bytes as f64 / (1024.0 * 1024.0) / seg.window_s,
        pct(&g.conn_s, 0.5, "conn_p50_ms")? * 1e3,
        pct(&g.req_s, 0.5, "req_p50_ms")? * 1e3,
        pct(&g.req_s, 0.99, "req_p99_ms")? * 1e3,
        peak_rss_mib()?,
    ];
    eprintln!(
        "perfbench: {} seed {seed}: {} connections ({} failed, {} resumed), {} requests in {:.3} s; set-up boots {:?} s",
        w.name(),
        g.attempted,
        g.failed,
        g.resumed,
        g.requests,
        seg.window_s,
        setups
    );
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    Ok((
        g.failed == 0 && seg.broken.is_empty(),
        g.attempted,
        g.failed,
        metrics,
    ))
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// `--trace 1`: untraced and traced segments in ABBA order, the layer
/// probes, the span file.
fn traced(w: Workload, seed: u64, seconds: f64) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let server = Server::load();
    let epoch = Instant::now();
    let quarter = (seconds / 4.0).max(0.5);
    let mut on: Vec<Segment> = Vec::new();
    let mut off: Vec<Segment> = Vec::new();
    for traced in [false, true, true, false] {
        let seg = run::segment(&server, w, seed, quarter, traced, traced.then_some(epoch))?;
        report_failures(&seg.gen, &seg.broken);
        if traced { &mut on } else { &mut off }.push(seg);
    }
    let rate = |segs: &[Segment]| {
        let ok: u64 = segs.iter().map(|s| s.gen.attempted - s.gen.failed).sum();
        ok as f64 / segs.iter().map(|s| s.window_s).sum::<f64>()
    };
    let (rate_on, rate_off) = (rate(&on), rate(&off));

    let mut log = SpanLog::new(epoch);
    let layers = probes::run_all(&server, w, seed, &mut log)?;

    // Counters over the traced segments' measured windows; the warm-up
    // connections are excluded, so per-connection counts repeat exactly
    // wherever the program's behaviour does.
    let mut fw = run::Fw::default();
    let mut work = run::Work::default();
    let mut store_hits = 0;
    let mut stages = [run::Stage::default(); 6];
    let mut gen_out = GenOut::default();
    let mut broken: Vec<String> = Vec::new();
    for seg in on {
        broken.extend(seg.broken);
        fw = fw.plus(seg.fw_window);
        work = work.plus(seg.work_window);
        store_hits += seg.store.hits;
        for (acc, s) in stages.iter_mut().zip(seg.stages) {
            acc.sum_ns += s.sum_ns;
            acc.count += s.count;
        }
        eprint!("{}", seg.attribution);
        gen_out.merge(seg.gen);
    }
    let conns = gen_out.attempted;
    let gen_spans = gen_out.spans.take().unwrap_or_else(|| SpanLog::new(epoch));
    let median_us = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v) / 1e3
        }
    };

    let mut values: Vec<(&str, f64)> = layers;
    values.extend([
        ("qat.requests_per_conn", ratio(fw.submitted, conns)),
        (
            "qat.requests_per_doorbell",
            ratio(fw.submitted, fw.doorbells),
        ),
        ("qat.ring_full", fw.ring_full as f64),
        ("qat.resp_stalls", fw.resp_stalls as f64),
        ("core.pauses_per_conn", ratio(work.resumptions, conns)),
        ("core.jobs_per_conn", ratio(work.async_jobs, conns)),
        ("core.flushes_per_conn", ratio(work.flushes, conns)),
        ("tls.resume_hit_ratio", ratio(work.resumed, work.handshakes)),
        ("tls.resume_miss", work.resume_miss as f64),
        ("tls.store_hits", store_hits as f64),
        ("server.accepted", work.accepted as f64),
        ("server.errors", work.errors as f64),
        (
            "server.kernel_switches_per_conn",
            ratio(work.kernel_switches, conns),
        ),
        (
            "gen.client_tls_us_per_conn",
            median_us(gen_spans.child_sums("gen.conn", "gen.client_tls")),
        ),
        (
            "gen.wait_us_per_conn",
            median_us(gen_spans.self_times("gen.conn")),
        ),
        (
            "gen.check_us_per_conn",
            median_us(gen_spans.child_sums("gen.conn", "gen.check")),
        ),
        (
            "gen.connect_us",
            median_us(gen_spans.durations("gen.connect")),
        ),
        ("trace.conn_per_s_traced", rate_on),
        ("trace.conn_per_s_untraced", rate_off),
        ("trace.overhead_ratio", rate_on / rate_off),
    ]);
    for ((_, mean_name, count_name), s) in STAGES.into_iter().zip(stages) {
        values.push((mean_name, ratio(s.sum_ns, s.count) / 1e3));
        values.push((count_name, s.count as f64));
    }

    log.absorb(gen_spans);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{seed}.json", w.name()));
    std::fs::write(&path, log.to_chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} spans written to {}",
        log.spans().len(),
        path.display()
    );

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        metrics.push(Metric { name, unit, value });
    }
    let correct = gen_out.failed == 0
        && broken.is_empty()
        && off.iter().all(|s| s.gen.failed == 0 && s.broken.is_empty());
    let attempted = gen_out.attempted + off.iter().map(|s| s.gen.attempted).sum::<u64>();
    let failed = gen_out.failed + off.iter().map(|s| s.gen.failed).sum::<u64>();
    Ok((correct, attempted, failed, metrics))
}

/// `--steady N`: rerun this binary N times per workload, back to back,
/// with seeds `seed..seed+N`, and print each metric's spread.
fn steady(args: &Args, runs: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    println!(
        "{:<10} {:<34} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "min", "max"
    );
    for w in &args.workloads {
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        for i in 0..runs {
            let seed = args.seed + i as u64;
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let v = json::parse(line).map_err(|e| {
                format!("{} seed {seed}: unparsable result ({e}): {line}", w.name())
            })?;
            if !out.status.success() || v.get("correct") != Some(&json::Value::Bool(true)) {
                all_ok = false;
                eprintln!("perfbench: {} seed {seed} did not pass: {line}", w.name());
            }
            let Some(json::Value::Obj(metrics)) = v.get("metrics") else {
                return Err(format!("{} seed {seed}: no metrics", w.name()));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                match series.iter_mut().find(|(n, ..)| n == name) {
                    Some((.., vals)) => vals.push(value),
                    None => series.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        for (name, unit, vals) in &series {
            let [q1, q2, q3] = stats::quartiles(vals);
            let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
            let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<10} {:<34} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>12.4} {:>12.4}",
                w.name(),
                format!("{name} ({unit})"),
                q2,
                q1,
                q3,
                (q3 - q1) / q2.abs(),
                min,
                max
            );
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return match steady(&args, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let w = args.workloads[0];
    let result = if args.trace {
        traced(w, args.seed, args.seconds)
    } else {
        untraced(w, args.seed, args.seconds)
    };
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                json::result_line(correct, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &json::Value) -> Vec<(String, String)> {
        match list {
            json::Value::Arr(items) => items
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(json::Value::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(json::Value::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect(),
            _ => panic!("metric list is an array"),
        }
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(spec.get("end_to_end").unwrap()), own(&END_TO_END));
        assert_eq!(declared(spec.get("per_layer").unwrap()), own(&PER_LAYER));
        let workloads: Vec<String> = match spec.get("workloads").unwrap() {
            json::Value::Arr(items) => items
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(json::Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect(),
            _ => panic!("workloads is an array"),
        };
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        for list in [&END_TO_END[..], &PER_LAYER[..]] {
            let metrics: Vec<Metric> = list
                .iter()
                .enumerate()
                .map(|(i, &(name, unit))| Metric {
                    name,
                    unit,
                    value: 0.5 + i as f64,
                })
                .collect();
            let line = json::result_line(true, 12, 0, &metrics);
            let v = json::parse(&line).expect("result line parses");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(v.get(key).is_some(), "{key} missing");
            }
            let got = v.get("metrics").unwrap();
            for (i, (name, unit)) in list.iter().enumerate() {
                let m = got.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(*unit));
                assert_eq!(
                    m.get("value").and_then(json::Value::as_f64),
                    Some(0.5 + i as f64)
                );
            }
        }
    }

    #[test]
    fn arguments_follow_the_command_line() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&argv("--workload bulk --seed 3 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workloads, vec![Workload::Bulk]);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.steady),
            (3, 20.0, true, None)
        );
        assert!(parse_args(&argv("--workload bulk --seed 3 --seconds 20 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 20 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload bulk --seconds 20 --trace 0")).is_err());
        let s = parse_args(&argv("--steady 5 --seconds 10")).unwrap();
        assert_eq!(s.steady, Some(5));
        assert_eq!(s.workloads, Workload::ALL.to_vec());
    }
}
