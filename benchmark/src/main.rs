//! The repository benchmark. One invocation runs one workload for one seed:
//!
//! ```text
//! cim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics of an untraced run (`--trace 0`) or
//! the per-layer metrics of a traced run (`--trace 1`). It exits non-zero
//! when any check failed. See `README.md`.

mod alloc;
mod harness;
mod manifest;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};

use harness::{Checks, Metrics};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                let known = manifest::WORKLOADS
                    .iter()
                    .position(|(name, _)| *name == value);
                workload = Some(known.ok_or_else(|| {
                    let names: Vec<&str> = manifest::WORKLOADS.iter().map(|(n, _)| *n).collect();
                    bad(&format!("unknown workload (one of {})", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(manifest::RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    })
}

/// `benchmark/out/tmp-<pid>`, removed when dropped — on success, on a failed
/// check and on a panic that unwinds through `main`.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Prints the metrics table and the result line. A metric that is not a
/// finite number is a bug in the benchmark: it is reported as a failed check
/// and printed as 0 so that the line stays valid JSON.
fn report(names: &[(&'static str, &'static str)], metrics: &Metrics, checks: &mut Checks) {
    let mut json = String::new();
    for (name, unit) in names {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            other => {
                checks.fail(format!("metric {name} is {other:?}"));
                0.0
            }
        };
        println!("{name:<34} {value:>18.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in metrics
        .keys()
        .filter(|k| !names.iter().any(|(n, _)| n == *k))
    {
        checks.fail(format!("metric {name} is not in the manifest"));
    }
    for failure in &checks.failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
}

fn run(args: &Args, tmp: &Path) -> Result<Checks, String> {
    let mut all = workloads::all(args.seed, tmp);
    let name = manifest::WORKLOADS[args.workload].0;
    if !args.trace {
        let e2e = harness::run_untraced(all[args.workload].as_mut(), args.seconds)?;
        println!(
            "# {name} seed {}: {} rounds in {:.2} s, untraced; reference kernel {:.3} ms (nominal {} ms)",
            args.seed,
            e2e.rounds,
            e2e.measured_s,
            e2e.host_ref_ms,
            harness::REF_NOMINAL_MS
        );
        let names: Vec<_> = manifest::END_TO_END
            .iter()
            .map(|&(n, u, _, _)| (n, u))
            .collect();
        let mut checks = e2e.checks;
        report(&names, &e2e.metrics, &mut checks);
        return Ok(checks);
    }

    let traced = harness::run_traced(
        &mut all,
        args.workload,
        workloads::COMPILE_COLD,
        args.seconds,
    )?;
    let mut checks = traced.checks;
    println!("# {name} seed {}: traced", args.seed);
    println!("# layer self time per round (span minus children):");
    for (layer, ms) in &traced.breakdown.layer_self_ms {
        println!(
            "#   {layer:<10} {ms:>12.4} ms {:>7.2} %",
            100.0 * ms / traced.breakdown.round_ms.max(f64::MIN_POSITIVE)
        );
    }
    println!("# {}", traced.summary);
    if let Some((case, ms)) = workloads::compile_cold::slowest_case(&traced.recorder) {
        println!("# compiler.case_max_name {case} ({ms:.3} ms)");
    }
    let path = out_dir().join(format!("trace-{name}-{}.json", args.seed));
    let json = spans::chrome_trace(&traced.recorder.spans, &traced.recorder.case_labels);
    checks.result(
        std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display())),
    );
    println!(
        "# {} spans written to {}",
        traced.recorder.spans.len(),
        path.display()
    );
    let names: Vec<_> = manifest::PER_LAYER
        .iter()
        .map(|&(n, u, _)| (n, u))
        .collect();
    report(&names, &traced.metrics, &mut checks);
    Ok(checks)
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cim-benchmark: {e}");
            eprintln!(
                "usage: cim-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]"
            );
            return 2;
        }
    };
    let tmp = TmpDir(out_dir().join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("cim-benchmark: creating {}: {e}", tmp.0.display());
        return 1;
    }
    match run(&args, &tmp.0) {
        Ok(checks) if checks.failed == 0 => 0,
        Ok(_) => 1,
        Err(e) => {
            // Set-up failed: nothing was measured, so no result line.
            eprintln!("cim-benchmark: {e}");
            1
        }
    }
}

fn main() {
    std::process::exit(real_main());
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let Value::Map(entries) = v else {
            panic!("object expected, got {v:?}")
        };
        &entries
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no key {key}"))
            .1
    }

    fn text(v: &Value) -> &str {
        let Value::Str(s) = v else {
            panic!("string expected, got {v:?}")
        };
        s
    }

    fn items(v: &Value) -> &[Value] {
        let Value::Seq(items) = v else {
            panic!("array expected, got {v:?}")
        };
        items
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::U64(n) => *n as f64,
            Value::I64(n) => *n as f64,
            Value::F64(x) => *x,
            other => panic!("number expected, got {other:?}"),
        }
    }

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON")
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_code_emits() {
        let doc = benchmark_json();
        let workloads: Vec<&str> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = manifest::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, ours);
        for (w, (_, why)) in items(field(&doc, "workloads"))
            .iter()
            .zip(manifest::WORKLOADS)
        {
            assert_eq!(text(field(w, "why")), why);
        }

        let end_to_end: Vec<(&str, &str, &str, f64)> = items(field(&doc, "end_to_end"))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")),
                    text(field(m, "unit")),
                    text(field(m, "better")),
                    number(field(m, "bound")),
                )
            })
            .collect();
        assert_eq!(end_to_end, manifest::END_TO_END);

        let per_layer: Vec<(&str, &str, &str)> = items(field(&doc, "per_layer"))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")),
                    text(field(m, "unit")),
                    text(field(m, "better")),
                )
            })
            .collect();
        assert_eq!(per_layer, manifest::PER_LAYER);

        assert_eq!(
            number(field(&doc, "run_seconds")),
            manifest::RUN_SECONDS as f64
        );
        assert_eq!(
            items(field(&doc, "paths"))
                .iter()
                .map(text)
                .collect::<Vec<_>>(),
            ["benchmark"]
        );
    }

    #[test]
    fn the_workloads_are_built_in_manifest_order() {
        let all = workloads::all(1, Path::new("unused"));
        let names: Vec<&str> = all.iter().map(|w| w.name()).collect();
        let ours: Vec<&str> = manifest::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
        assert_eq!(all[workloads::COMPILE_COLD].name(), "compile-cold");
    }

    /// A short traced run of the cheapest workload emits every per-layer
    /// metric and nothing else; a short untraced run emits exactly the
    /// end-to-end metrics. (`report` turns either mismatch into a failed
    /// check, which is what this asserts on.)
    #[test]
    fn a_run_emits_every_metric_in_the_manifest_and_nothing_else() {
        let tmp = TmpDir(out_dir().join(format!("tmp-test-{}", std::process::id())));
        std::fs::create_dir_all(&tmp.0).expect("tmp dir");
        for trace in [false, true] {
            let args = Args {
                workload: 1,
                seed: 3,
                seconds: 0.2,
                trace,
            };
            let checks = run(&args, &tmp.0).expect("the run sets up");
            assert_eq!(checks.failed, 0, "{:?}", checks.failures);
            assert!(checks.attempted > 0);
        }
        let _ = std::fs::remove_file(out_dir().join("trace-reuse-disk-3.json"));
    }
}
