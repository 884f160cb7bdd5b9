//! End-to-end and per-layer benchmark of the GENERIC HDC serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <net-serve|tenant-mix|online-learn|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One workload runs per process. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md`.

mod common;
mod gen;
mod load;
mod phases;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use common::{Ctx, Run, R};

pub const WORKLOADS: [&str; 3] = ["net-serve", "tenant-mix", "online-learn"];

/// End-to-end metrics, every workload, `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("max_qps", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("accuracy", "share"),
    ("train_samples_per_s", "1/s"),
    ("learn_samples_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, every workload, `--trace 1`. A layer a workload
/// does not exercise reads 0; a percentile with fewer than ten samples
/// beyond it reads -1.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.rtt_over_server_us.p50", "us"),
    ("net.rtt_over_server_us.p90", "us"),
    ("serve.submit_ns", "ns"),
    ("serve.server_elapsed_us.p50", "us"),
    ("serve.server_elapsed_us.p90", "us"),
    ("serve.wakeup_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.queue_wait_base_us", "us"),
    ("serve.refused_share", "share"),
    ("serve.steals", "count"),
    ("serve.degraded_share", "share"),
    ("serve.deadline_miss_share", "share"),
    ("encoding.bins_ns", "ns"),
    ("encoding.encode_bins_ns", "ns"),
    ("encoding.encode_batch_ms", "ms"),
    ("model.score_ns_per_row.b1", "ns"),
    ("model.score_ns_per_row.b16", "ns"),
    ("model.score_reduced_ns_per_row", "ns"),
    ("model.score_reduced_dims", "count"),
    ("model.fit_ms", "ms"),
    ("model.retrain_epoch_ms", "ms"),
    ("model.retrain_epochs", "count"),
    ("model.retrain_updates", "count"),
    ("hv.to_binary_ns", "ns"),
    ("quant.packed_score_ns", "ns"),
    ("quant.pruned_score_ns", "ns"),
    ("compress.prune_ms", "ms"),
    ("registry.get_hit_ns", "ns"),
    ("registry.get_miss_us", "us"),
    ("registry.hit_ratio", "share"),
    ("registry.evictions", "count"),
    ("registry.resident_mib", "MiB"),
    ("ledger.publish_ms", "ms"),
    ("runtime.learn_us", "us"),
    ("runtime.checkpoint_ms", "ms"),
    ("runtime.snapshot_publish_us", "us"),
    ("runtime.drift_retrains", "count"),
    ("runtime.checkpoints", "count"),
    ("runtime.learn_queue_full", "count"),
    ("latency.p99_us", "us"),
    ("latency.p999_us", "us"),
    ("latency.samples", "count"),
    ("gen.lateness_us.p90", "us"),
    ("gen.lateness_us.max", "us"),
    ("gen.samples", "count"),
    ("self.request_us", "us"),
    ("self.train_ms", "ms"),
    ("self.setup_ms", "ms"),
    ("self.replay_us", "us"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// VmHWM of this process, MiB.
fn peak_rss_mib() -> R<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn host_block(args: &Args, threads: usize) -> String {
    format!(
        "{{\"nproc\": {threads}, \"isa\": \"{}\", \"force_portable\": {}, \"profile\": \"{}\", \
         \"seed\": {}, \"workload\": \"{}\", \"seconds\": {}, \"trace\": {}}}",
        generic_hdc::kernels::active().isa().name(),
        std::env::var_os("GENERIC_FORCE_PORTABLE").is_some_and(|v| v != *"0"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    )
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn run_one(args: &Args) -> R<String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: {}", host_block(args, threads));
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let tmp = cwd
        .join(".perfbench_tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        origin: Instant::now(),
        tmp: tmp.clone(),
    };
    let result = match args.workload.as_str() {
        "net-serve" => workloads::net_serve(&ctx),
        "tenant-mix" => workloads::tenant_mix(&ctx),
        _ => workloads::online_learn(&ctx),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(cwd.join(".perfbench_tmp"));
    let mut run: Run = result?;
    let rss = peak_rss_mib()?;

    for p in &run.phases {
        println!("{}", p.line());
    }
    for line in &run.lines {
        println!("{line}");
    }
    let attempted: u64 = run.phases.iter().map(|p| p.sent).sum::<u64>() + run.learn_sent;
    let failed: u64 = run.phases.iter().map(|p| p.failed + p.mismatched).sum();
    let mismatched: u64 = run.phases.iter().map(|p| p.mismatched).sum();
    println!(
        "checks: {} answers replayed against the scalar oracles, {mismatched} mismatches",
        run.phases.iter().map(|p| p.answers.len()).sum::<usize>()
    );

    let e = &run.e2e;
    let values: Vec<(&str, f64, &str)> = if args.trace {
        let trace_path = cwd
            .join(".perfbench_out")
            .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        trace::write_tsv(&trace_path, &run.spans).map_err(|e| format!("write trace: {e}"))?;
        println!(
            "trace: {} spans written to {}",
            run.spans.len(),
            trace_path.display()
        );
        for name in run.layers.keys() {
            if !PER_LAYER.iter().any(|(n, _)| n == name) {
                return Err(format!("layer metric {name} is not declared"));
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let by_name = [
            e.setup_s,
            e.qps,
            e.max_qps,
            e.p50_us,
            e.p90_us,
            e.accuracy,
            e.train_samples_per_s,
            e.learn_samples_per_s,
            rss,
        ];
        END_TO_END
            .iter()
            .zip(by_name)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    for &(name, value, unit) in &values {
        if !value.is_finite() {
            run.problems.push(format!("{name} is not finite"));
        }
        println!("metric {name:<32} {value:>16.4} {unit}");
    }
    for problem in &run.problems {
        println!("PROBLEM: {problem}");
    }
    let correct = run.problems.is_empty() && failed == 0;
    let metrics: Vec<String> = values
        .iter()
        .map(|&(name, value, unit)| {
            json_metric(name, if value.is_finite() { value } else { -1.0 }, unit)
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// `--workload all`: every workload in its own child process.
fn run_all(args: &Args) -> R<()> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawn {w}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        for line in text.lines() {
            println!("[{w}] {line}");
        }
        if !out.status.success() {
            return Err(format!(
                "{w} failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let last = text.lines().last().unwrap_or_default().to_string();
        results.push(format!("\"{w}\": {last}"));
    }
    println!("{{{}}}", results.join(", "));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args).map(|json| println!("{json}"))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The metric names `BENCHMARK.json` declares are exactly the ones
    /// this program prints.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let declared_e2e = section("end_to_end", "per_layer");
        let declared_layers = section("per_layer", "\u{0}");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared_e2e, e2e);
        assert_eq!(declared_layers, layers);
        let workloads = section("workloads", "end_to_end");
        assert_eq!(workloads, WORKLOADS);
    }
}
