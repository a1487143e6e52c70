//! End-to-end tests of the `cimc` binary's argument handling and the
//! `bench` subcommand: exit codes, error messages that name the
//! offending value, report emission and the regression gate.

use cim_mlc::prelude::Document;
use std::path::PathBuf;
use std::process::{Command, Output};

fn cimc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cimc"))
        .args(args)
        .output()
        .expect("cimc binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cimc_cli_{}_{name}", std::process::id()));
    p
}

#[test]
fn help_lists_the_bench_subcommand() {
    let out = cimc(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("cimc bench"), "{text}");
    assert!(text.contains("--fail-on-regression"), "{text}");
}

#[test]
fn unknown_subcommand_names_it_and_lists_alternatives() {
    let out = cimc(&["benhc"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`benhc`"), "{err}");
    assert!(err.contains("bench"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn jobs_zero_is_rejected_with_the_offending_value() {
    let out = cimc(&["bench", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--jobs") && err.contains("`0`"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn non_numeric_jobs_is_rejected_with_the_offending_value() {
    let out = cimc(&["bench", "--jobs", "many"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`many`"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_sweep_model_is_rejected_with_the_offending_value() {
    let out = cimc(&["bench", "--models", "lenet5,notamodel"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`notamodel`"), "{err}");
}

#[test]
fn repeated_sweep_axis_value_is_rejected_with_usage() {
    let out = cimc(&["bench", "--modes", "auto,auto"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`modes` lists `auto` twice"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn fail_on_regression_requires_a_baseline() {
    let out = cimc(&["bench", "--models", "lenet5", "--fail-on-regression"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--baseline"), "{}", stderr(&out));
}

#[test]
fn bench_names_a_missing_baseline() {
    let out = cimc(&[
        "bench",
        "--models",
        "lenet5",
        "--archs",
        "isaac",
        "--modes",
        "cg",
        "--baseline",
        "/nonexistent/baseline.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("cannot read baseline"), "{err}");
}

#[test]
fn bench_emits_a_schema_valid_report_and_gates_on_it() {
    let report_path = tmp_path("report.json");
    let tiny = [
        "bench", "--models", "lenet5", "--archs", "isaac", "--modes", "cg", "--jobs", "2",
    ];

    // Emit a report and check it parses under the current schema.
    let mut emit = tiny.to_vec();
    emit.extend(["--out", report_path.to_str().unwrap()]);
    let out = cimc(&emit);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = std::fs::read_to_string(&report_path).unwrap();
    let report = cim_mlc::bench::BenchReport::from_json(&json).unwrap();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.failures.len(), 0);

    // Re-running against that report as baseline passes the gate.
    let mut gate = tiny.to_vec();
    gate.extend([
        "--baseline",
        report_path.to_str().unwrap(),
        "--fail-on-regression",
    ]);
    let out = cimc(&gate);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("regression gate: PASS"),
        "{}",
        stdout(&out)
    );

    // A baseline that claims to be faster makes the current run a
    // regression and fails the gate.
    let mut faster = report.clone();
    faster.jobs[0].metrics.latency_cycles /= 2.0;
    let faster_path = tmp_path("faster_baseline.json");
    std::fs::write(&faster_path, faster.to_json()).unwrap();
    let mut gate = tiny.to_vec();
    gate.extend([
        "--baseline",
        faster_path.to_str().unwrap(),
        "--fail-on-regression",
    ]);
    let out = cimc(&gate);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("regression gate: FAIL"),
        "{}",
        stdout(&out)
    );

    // Without --fail-on-regression the same comparison only reports.
    let mut warn = tiny.to_vec();
    warn.extend(["--baseline", faster_path.to_str().unwrap()]);
    let out = cimc(&warn);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("regression gate: FAIL"),
        "{}",
        stdout(&out)
    );

    // A corrupt baseline is a hard error.
    let broken_path = tmp_path("broken_baseline.json");
    std::fs::write(&broken_path, "{not json").unwrap();
    let mut gate = tiny.to_vec();
    gate.extend(["--baseline", broken_path.to_str().unwrap()]);
    let out = cimc(&gate);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid bench report"),
        "{}",
        stderr(&out)
    );

    // A schema-version bump is rejected, not misread.
    let mut future = report;
    future.schema_version += 1;
    let future_path = tmp_path("future_baseline.json");
    std::fs::write(&future_path, future.to_json()).unwrap();
    let mut gate = tiny.to_vec();
    gate.extend(["--baseline", future_path.to_str().unwrap()]);
    let out = cimc(&gate);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("schema_version"), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("scripts/refresh-baseline.sh"),
        "{}",
        stderr(&out)
    );

    for p in [report_path, faster_path, broken_path, future_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn bench_cache_dir_cold_then_warm_is_byte_identical() {
    let cache_dir = tmp_path("cache_dir");
    let cold_path = tmp_path("cache_cold.json");
    let warm_path = tmp_path("cache_warm.json");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let base = [
        "bench",
        "--quick",
        "--jobs",
        "2",
        "--comparable",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];

    let mut cold = base.to_vec();
    cold.extend(["--out", cold_path.to_str().unwrap()]);
    let out = cimc(&cold);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("cache:"), "{}", stdout(&out));

    let mut warm = base.to_vec();
    warm.extend(["--out", warm_path.to_str().unwrap()]);
    let out = cimc(&warm);
    assert!(out.status.success(), "{}", stderr(&out));
    // The warm run answers every lookup from the cache…
    assert!(
        stdout(&out).contains(", 0 miss(es)"),
        "warm run should be all hits: {}",
        stdout(&out)
    );
    // …and its comparison report matches the cold one byte for byte.
    assert_eq!(
        std::fs::read(&cold_path).unwrap(),
        std::fs::read(&warm_path).unwrap()
    );

    // --no-cache produces the same comparable report with no cache line.
    let nocache_path = tmp_path("cache_none.json");
    let out = cimc(&[
        "bench",
        "--quick",
        "--jobs",
        "2",
        "--comparable",
        "--no-cache",
        "--out",
        nocache_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("cache:"), "{}", stdout(&out));
    assert_eq!(
        std::fs::read(&cold_path).unwrap(),
        std::fs::read(&nocache_path).unwrap()
    );

    let _ = std::fs::remove_dir_all(&cache_dir);
    for p in [cold_path, warm_path, nocache_path] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn no_cache_conflicts_with_cache_dir() {
    for cmd in [
        vec!["bench", "--models", "lenet5"],
        vec!["compile", "--model", "lenet5", "--arch", "isaac"],
    ] {
        let mut args = cmd.clone();
        args.extend(["--no-cache", "--cache-dir", "somewhere"]);
        let out = cimc(&args);
        assert_eq!(out.status.code(), Some(2), "{cmd:?}");
        assert!(
            stderr(&out).contains("--no-cache") && stderr(&out).contains("--cache-dir"),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn bench_out_is_written_atomically() {
    // A destination whose parent does not exist fails cleanly: exit 1,
    // no file and no temp litter at the target location.
    let missing_dir = tmp_path("no_such_dir");
    let _ = std::fs::remove_dir_all(&missing_dir);
    let target = missing_dir.join("report.json");
    let out = cimc(&[
        "bench",
        "--models",
        "lenet5",
        "--archs",
        "isaac",
        "--modes",
        "cg",
        "--out",
        target.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("cannot write report"),
        "{}",
        stderr(&out)
    );
    assert!(!target.exists());

    // A successful write leaves exactly the report in the directory —
    // the temp file is renamed away, never left behind.
    let dir = tmp_path("atomic_ok");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("report.json");
    let out = cimc(&[
        "bench",
        "--models",
        "lenet5",
        "--archs",
        "isaac",
        "--modes",
        "cg",
        "--out",
        target.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, vec![std::ffi::OsString::from("report.json")]);
    cim_mlc::bench::BenchReport::from_json(&std::fs::read_to_string(&target).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compile_timings_reports_cache_outcomes() {
    let cache_dir = tmp_path("compile_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let args = [
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--timings",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];
    let out = cimc(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("miss+store"), "{text}");
    assert!(text.contains("cache:"), "{text}");

    let out = cimc(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("hit"), "{text}");
    assert!(text.contains(", 0 miss(es)"), "{text}");
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_second_flow_compile_on_a_cache_dir_is_all_hits() {
    let cache_dir = tmp_path("compile_flow_cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let args = [
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--flow",
        "10",
        "--timings",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
    ];
    let cold = cimc(&args);
    assert!(cold.status.success(), "{}", stderr(&cold));
    let text = stdout(&cold);
    assert!(text.contains("codegen-count"), "{text}");
    assert!(text.contains("4 miss(es)"), "{text}");
    // The flow's counts come back from disk with the schedules: no pass
    // misses, and the answer is the same.
    let warm = cimc(&args);
    assert!(warm.status.success(), "{}", stderr(&warm));
    let text = stdout(&warm);
    assert!(text.contains("4 hit(s), 0 miss(es)"), "{text}");
    let flow = |text: &str| text[text.find("// meta-operator flow").unwrap()..].to_owned();
    assert_eq!(flow(&stdout(&warm)), flow(&stdout(&cold)));
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn compile_timings_prints_the_pass_timeline() {
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--timings",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("wall(ms)"), "{text}");
    for pass in ["stages", "cg", "mvm"] {
        assert!(text.contains(pass), "missing pass `{pass}` in {text}");
    }
    assert!(text.contains("pass(es)"), "{text}");
}

#[test]
fn compile_dump_stage_renders_the_intermediate_artifact() {
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--dump-stage",
        "cg",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // The CG-level plan table appears before the per-level report lines.
    assert!(text.contains("latency(cyc)"), "{text}");
    assert!(text.contains("level cg\n"), "{text}");
}

#[test]
fn compile_dump_stage_rejects_bad_values_with_exit_2() {
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--dump-stage",
        "mvmm",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--dump-stage") && err.contains("`mvmm`"),
        "{err}"
    );
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn compile_dump_stage_that_never_runs_is_reported() {
    // The jia preset is CM-mode: only the CG level runs.
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "jia",
        "--dump-stage",
        "vvm",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("`vvm`") && err.contains("did not run"),
        "{err}"
    );
}

#[test]
fn compile_json_emits_a_machine_readable_report() {
    let out = cimc(&["compile", "--model", "lenet5", "--arch", "isaac", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON document");
    let entries = doc.as_map().expect("top-level object");
    for key in [
        "schema_version",
        "model",
        "arch",
        "mode",
        "level",
        "reports",
        "metrics",
        "timeline",
        "cache_stats",
        "verified",
    ] {
        assert!(
            serde::Value::lookup(entries, key).is_some(),
            "missing `{key}` in {text}"
        );
    }
    assert_eq!(
        serde::Value::lookup(entries, "level"),
        Some(&serde::Value::Str("cg+mvm".to_owned()))
    );
    // No human-readable output mixed into the JSON stream: stdout is one
    // JSON document (the full-string parse above already enforces this).
    assert!(text.starts_with('{') && text.ends_with("}\n"), "{text}");
}

#[test]
fn compile_json_documents_carry_the_scratch_column() {
    // Doc schema v3: every timeline record reports the pass's peak
    // scratch-arena footprint. Schema v4 adds the per-region hit/miss
    // columns of the incremental recompilation memo.
    let out = cimc(&["compile", "--model", "lenet5", "--arch", "isaac", "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON document");
    let entries = doc.as_map().expect("top-level object");
    assert_eq!(
        serde::Value::lookup(entries, "schema_version"),
        Some(&serde::Value::U64(4))
    );
    assert!(text.contains("scratch_peak_bytes"), "{text}");
    assert!(text.contains("region_hits"), "{text}");
    assert!(text.contains("region_misses"), "{text}");
}

// ---------------------------------------------------------------------------
// `cimc recompile` — the one-shot incremental-recompilation shim.

/// Writes a delta file retuning `node` to a Linear with `out_features`.
fn write_delta(name: &str, node: &str, out_features: usize) -> PathBuf {
    let path = tmp_path(name);
    let delta = format!(
        r#"{{"edits":[{{"retune_op_params":{{"node":"{node}","op":{{"Linear":{{"out_features":{out_features}}}}}}}}}]}}"#
    );
    std::fs::write(&path, delta).expect("delta file writes");
    path
}

#[test]
fn recompile_reports_reuse_and_equivalence() {
    // vgg7 on the 16-core jia preset splits into several segments, so a
    // tail edit leaves most region schedules reusable (hits > 0); a
    // fully-resident model would be a single always-invalidated segment.
    let delta = write_delta("recompile_basic.json", "fc2", 32);
    let out = cimc(&[
        "recompile",
        "--model",
        "vgg7",
        "--arch",
        "jia",
        "--delta",
        delta.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&delta);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("equivalent: yes"), "{text}");
    assert!(text.contains("hit(s)"), "{text}");
    // An edited model reuses at least one region schedule.
    assert!(!text.contains("regions 0 hit(s)"), "{text}");
}

#[test]
fn recompile_json_document_carries_timings_and_counters() {
    let delta = write_delta("recompile_json.json", "fc2", 32);
    let out = cimc(&[
        "recompile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--delta",
        delta.to_str().unwrap(),
        "--json",
    ]);
    let _ = std::fs::remove_file(&delta);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON document");
    let entries = doc.as_map().expect("top-level object");
    for key in [
        "schema_version",
        "cold_ms",
        "incremental_ms",
        "region_hits",
        "region_misses",
        "equivalent",
    ] {
        assert!(
            serde::Value::lookup(entries, key).is_some(),
            "missing `{key}` in {text}"
        );
    }
    assert_eq!(
        serde::Value::lookup(entries, "equivalent"),
        Some(&serde::Value::Bool(true))
    );
}

#[test]
fn recompile_out_files_are_byte_identical() {
    let delta = write_delta("recompile_cmp.json", "fc2", 32);
    let inc = tmp_path("recompile_inc.txt");
    let fresh = tmp_path("recompile_fresh.txt");
    let out = cimc(&[
        "recompile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--delta",
        delta.to_str().unwrap(),
        "--out-incremental",
        inc.to_str().unwrap(),
        "--out-fresh",
        fresh.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&delta);
    assert!(out.status.success(), "{}", stderr(&out));
    let a = std::fs::read(&inc).expect("incremental document written");
    let b = std::fs::read(&fresh).expect("fresh document written");
    let _ = std::fs::remove_file(&inc);
    let _ = std::fs::remove_file(&fresh);
    assert!(!a.is_empty());
    assert_eq!(a, b, "incremental and fresh compile documents differ");
}

#[test]
fn recompile_rejects_a_delta_naming_an_unknown_node() {
    let delta = write_delta("recompile_unknown.json", "no_such_layer", 32);
    let out = cimc(&[
        "recompile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--delta",
        delta.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&delta);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("no_such_layer"), "{err}");
}

#[test]
fn recompile_requires_model_arch_and_delta() {
    let out = cimc(&["recompile", "--model", "lenet5"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--delta"), "{err}");
}

#[test]
fn compile_jobs_flag_does_not_change_the_output() {
    // The worker count survives only as the wire's ignored
    // `CompileRequest::jobs`: a served compile answers the same line
    // whatever it carries, wall clocks aside.
    use cim_mlc::api::ResponseBody;
    use cim_mlc::api::{CachePolicy, CompileRequest, Request, RequestEnvelope, Response};
    use std::io::Write;
    use std::process::Stdio;

    let lines: String = [1, 4]
        .iter()
        .map(|&jobs| {
            let compile = CompileRequest {
                model: "resnet50".to_owned(),
                arch: "puma".to_owned(),
                mode: None,
                level: None,
                jobs,
                schedule: true,
                flow: None,
                verify: false,
                dump_stage: None,
                cache: CachePolicy::Off,
                session: None,
            };
            RequestEnvelope::new(7, Request::Compile(compile)).to_json() + "\n"
        })
        .collect();
    let mut server = Command::new(env!("CARGO_BIN_EXE_cimc"))
        .args(["serve", "--stdio"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cimc serve starts");
    let mut stdin = server.stdin.take().expect("stdin is piped");
    stdin.write_all(lines.as_bytes()).expect("requests write");
    drop(stdin);
    let out = server.wait_with_output().expect("cimc serve exits at EOF");
    assert!(out.status.success(), "{:?}", out.status);

    let answers: Vec<String> = stdout(&out)
        .lines()
        .map(|line| {
            let mut response = Response::from_json(line).expect("response parses");
            response.elapsed_ms = 0.0;
            let ResponseBody::Compile(outcome) = &mut response.body else {
                panic!("resnet50@puma compiles: {line}")
            };
            for record in &mut outcome.timeline.records {
                record.wall_ms = 0.0;
            }
            response.to_json()
        })
        .collect();
    assert_eq!(answers.len(), 2, "one answer per request");
    assert_eq!(answers[0], answers[1], "jobs changed the compile answer");
}

#[test]
fn compile_jobs_zero_is_rejected_with_the_offending_value() {
    // `cimc compile` takes no `--jobs`: the offending argument is the
    // flag itself, named before any operand is looked at.
    let out = cimc(&[
        "compile", "--model", "lenet5", "--arch", "isaac", "--jobs", "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    let err = stderr(&out);
    assert!(err.contains("unknown argument `--jobs`"), "{err}");
}

#[test]
fn compile_and_recompile_take_no_jobs_flag() {
    // One compile runs on one thread; `--jobs` belongs to the batch
    // subcommands only.
    for command in [
        "compile --model lenet5 --arch isaac --jobs 2",
        "recompile --model lenet5 --arch isaac --delta d.json --jobs 2",
    ] {
        let args: Vec<&str> = command.split(' ').collect();
        let out = cimc(&args);
        assert_eq!(out.status.code(), Some(2), "{command}");
        let err = stderr(&out);
        assert!(
            err.contains("unknown argument `--jobs`"),
            "{command}: {err}"
        );
    }
}

#[test]
fn compile_json_rejects_text_output_flags() {
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--json",
        "--schedule",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--json"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// `cimc list` — axis-vocabulary discovery.

#[test]
fn list_categories_enumerate_the_vocabularies() {
    let out = cimc(&["list", "models"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.lines().any(|l| l == "lenet5"), "{text}");
    assert!(text.lines().any(|l| l == "vit_base"), "{text}");

    let out = cimc(&["list", "archs"]);
    assert!(out.status.success());
    assert!(stdout(&out).lines().any(|l| l == "isaac-wlm"));

    let out = cimc(&["list", "modes"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.lines().any(|l| l == "auto") && text.lines().any(|l| l == "cg_mvm_vvm"));

    let out = cimc(&["list", "strategies"]);
    assert!(out.status.success());
    assert!(stdout(&out).lines().any(|l| l == "hill-climb"));

    let out = cimc(&["list", "objectives"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.lines().any(|l| l == "latency") && text.lines().any(|l| l == "p99_latency"));

    let out = cimc(&["list", "policies"]);
    assert!(out.status.success());
    assert!(stdout(&out).lines().any(|l| l == "edf"));

    let out = cimc(&["list", "traces"]);
    assert!(out.status.success());
    assert!(stdout(&out).lines().any(|l| l == "bursty"));

    let out = cimc(&["list", "exporters"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.lines().any(|l| l == "chrome_trace") && text.lines().any(|l| l == "metrics_json"),
        "{text}"
    );
}

#[test]
fn list_rejects_unknown_or_missing_category() {
    let out = cimc(&["list", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`nope`") && err.contains("usage:"), "{err}");

    let out = cimc(&["list"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("category"), "{}", stderr(&out));

    let out = cimc(&["list", "models", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`extra`"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// `cimc explore` — design-space exploration.

#[test]
fn explore_rejects_bad_arguments_with_the_offending_value() {
    let out = cimc(&["explore", "--strategy", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("`bogus`") && err.contains("hill-climb"),
        "{err}"
    );

    let out = cimc(&["explore", "--budget", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`0`"), "{}", stderr(&out));

    let out = cimc(&["explore", "--seed", "minus-one"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`minus-one`"), "{}", stderr(&out));

    let out = cimc(&["explore", "--objective", "latency,bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`bogus`"), "{}", stderr(&out));

    let out = cimc(&["explore", "--no-cache", "--cache-dir", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--no-cache"), "{}", stderr(&out));

    let out = cimc(&["explore", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`--frobnicate`"), "{}", stderr(&out));
}

#[test]
fn explore_rejects_a_space_file_naming_the_offending_value() {
    let space_path = tmp_path("bad_space.json");
    // Structurally valid JSON, semantically out of bounds: xb_rows 0.
    let json = r#"{
        "base": "isaac-wlm",
        "xb_rows": [0], "xb_cols": [128], "xb_per_core": [8],
        "cores": [384], "cell_bits": [2], "adc_bits": [8],
        "modes": ["auto"]
    }"#;
    std::fs::write(&space_path, json).unwrap();
    let out = cimc(&["explore", "--space", space_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("xb_rows") && err.contains("`0`"), "{err}");
    std::fs::remove_file(&space_path).unwrap();
}

#[test]
fn explore_emits_a_schema_valid_report_reproducible_across_jobs() {
    let space_path = tmp_path("tiny_space.json");
    let json = r#"{
        "base": "isaac-wlm",
        "xb_rows": [64, 128], "xb_cols": [128], "xb_per_core": [8, 16],
        "cores": [384], "cell_bits": [2], "adc_bits": [8],
        "modes": ["auto", "cg"]
    }"#;
    std::fs::write(&space_path, json).unwrap();
    let run = |jobs: &str, tag: &str| {
        let report_path = tmp_path(&format!("explore_{tag}.json"));
        let out = cimc(&[
            "explore",
            "--space",
            space_path.to_str().unwrap(),
            "--strategy",
            "hill-climb",
            "--budget",
            "12",
            "--seed",
            "42",
            "--jobs",
            jobs,
            "--comparable",
            "--out",
            report_path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(stdout(&out).contains("Pareto front"), "{}", stdout(&out));
        std::fs::read_to_string(&report_path).unwrap()
    };
    let sequential = run("1", "j1");
    let parallel = run("4", "j4");
    assert_eq!(
        sequential, parallel,
        "explore reports must be jobs-invariant"
    );

    let report = cim_mlc::dse::DseReport::from_json(&sequential).unwrap();
    assert_eq!(report.strategy, "hill-climb");
    assert_eq!(report.seed, 42);
    assert!(!report.front.is_empty());
    assert!(
        report.cache_stats.is_none(),
        "--comparable strips cache stats"
    );
    std::fs::remove_file(&space_path).unwrap();
}

// ---------------------------------------------------------------------------
// Byte-parity goldens — the API refactor moved every subcommand onto the
// Request/Handler/render path; these pin the rendered output to captures
// taken from the pre-refactor binary. Only wall-clock digits are
// normalized; everything else must match byte for byte.

/// Blanks the volatile timing digits: ` in N ms` suffixes and
/// `"wall_ms": N` JSON fields.
fn normalize_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if let Some(pos) = line.find("\"wall_ms\":") {
            out.push_str(&line[..pos]);
            out.push_str("\"wall_ms\": X,");
        } else if let Some(pos) = line.rfind(" in ") {
            let rest = &line[pos + 4..];
            let is_timing = rest.strip_suffix(" ms").is_some_and(|num| {
                !num.is_empty() && num.chars().all(|c| c.is_ascii_digit() || c == '.')
            });
            if is_timing {
                out.push_str(&line[..pos]);
                out.push_str(" in X ms");
            } else {
                out.push_str(line);
            }
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

fn assert_matches_golden(args: &[&str], golden: &str) {
    let out = cimc(args);
    assert!(
        out.status.success(),
        "cimc {args:?} failed: {}",
        stderr(&out)
    );
    let path = format!(
        "{}/tests/golden/cli/{golden}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&path).expect("golden file exists");
    assert_eq!(
        normalize_timings(&stdout(&out)),
        normalize_timings(&expected),
        "cimc {args:?} drifted from {path}"
    );
}

#[test]
fn golden_compile_report() {
    assert_matches_golden(
        &["compile", "--model", "lenet5", "--arch", "isaac"],
        "compile_lenet5_isaac",
    );
}

#[test]
fn golden_compile_schedule() {
    assert_matches_golden(
        &[
            "compile",
            "--model",
            "lenet5",
            "--arch",
            "table2",
            "--schedule",
        ],
        "compile_schedule",
    );
}

#[test]
fn golden_compile_flow_head() {
    assert_matches_golden(
        &[
            "compile", "--model", "lenet5", "--arch", "isaac", "--flow", "10",
        ],
        "compile_flow",
    );
}

#[test]
fn golden_compile_verify() {
    assert_matches_golden(
        &["compile", "--model", "lenet5", "--arch", "jain", "--verify"],
        "compile_verify",
    );
}

#[test]
fn golden_compile_json() {
    assert_matches_golden(
        &["compile", "--model", "resnet18", "--arch", "puma", "--json"],
        "compile_json",
    );
}

#[test]
fn golden_compile_dump_stage() {
    assert_matches_golden(
        &[
            "compile",
            "--model",
            "mlp",
            "--arch",
            "isaac",
            "--dump-stage",
            "mvm",
        ],
        "compile_dump",
    );
}

#[test]
fn golden_bench_small_sweep() {
    assert_matches_golden(
        &[
            "bench",
            "--models",
            "lenet5,mlp",
            "--archs",
            "isaac,jain",
            "--modes",
            "auto,cg",
            "--jobs",
            "1",
        ],
        "bench_small",
    );
}

#[test]
fn golden_explore_seeded() {
    assert_matches_golden(
        &[
            "explore", "--model", "lenet5", "--seed", "42", "--budget", "12", "--jobs", "1",
        ],
        "explore_seeded",
    );
}

#[test]
fn golden_archs_models_and_lists() {
    assert_matches_golden(&["archs"], "archs");
    assert_matches_golden(&["models"], "models");
    for category in [
        "models",
        "archs",
        "modes",
        "strategies",
        "objectives",
        "policies",
        "traces",
        "exporters",
    ] {
        assert_matches_golden(&["list", category], &format!("list_{category}"));
    }
}

// ---------------------------------------------------------------------------
// `cimc trace` / `cimc simulate` — trace generation and the traffic
// simulator (engine semantics are tested in cim-traffic; this is the
// CLI surface).

#[test]
fn trace_generation_is_deterministic_and_self_describing() {
    let first = tmp_path("trace_first.json");
    let second = tmp_path("trace_second.json");
    let args = ["trace", "--models", "lenet5,mlp", "--seed", "7"];
    let out = cimc(&[&args[..], &["--out", first.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("tenant0"), "{}", stdout(&out));
    let out = cimc(&[&args[..], &["--out", second.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", stderr(&out));
    let a = std::fs::read(&first).expect("first trace written");
    let b = std::fs::read(&second).expect("second trace written");
    assert_eq!(a, b, "identical (spec, seed) must yield identical traces");

    // --describe round-trips the written file.
    let out = cimc(&["trace", "--describe", first.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("lenet5"), "{}", stdout(&out));

    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&second);
}

#[test]
fn trace_rejects_conflicting_and_missing_inputs() {
    let out = cimc(&["trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--models"), "{}", stderr(&out));

    let out = cimc(&["trace", "--describe", "x.json", "--models", "lenet5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--describe"), "{}", stderr(&out));

    let out = cimc(&["trace", "--models", "lenet5", "--kind", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`bogus`") && err.contains("poisson"), "{err}");
}

#[test]
fn simulate_ranks_policies_and_is_reproducible_across_jobs() {
    let trace = tmp_path("sim_trace.json");
    let out = cimc(&[
        "trace",
        "--models",
        "lenet5,mlp",
        "--kind",
        "bursty",
        "--deadline",
        "30000",
        "--horizon",
        "400000",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let report1 = tmp_path("sim_report_j1.json");
    let report4 = tmp_path("sim_report_j4.json");
    for (jobs, path) in [("1", &report1), ("4", &report4)] {
        let out = cimc(&[
            "simulate",
            "--trace",
            trace.to_str().unwrap(),
            "--jobs",
            jobs,
            "--comparable",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("ranked policies"), "{text}");
        assert!(text.contains("edf"), "{text}");
    }
    let a = std::fs::read(&report1).expect("jobs=1 report written");
    let b = std::fs::read(&report4).expect("jobs=4 report written");
    assert_eq!(a, b, "comparable reports must not depend on --jobs");

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&report1);
    let _ = std::fs::remove_file(&report4);
}

#[test]
fn simulate_rejects_bad_arguments_with_the_offending_value() {
    let out = cimc(&["simulate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--trace"), "{}", stderr(&out));

    let out = cimc(&["simulate", "--trace", "a.json", "--spec", "b.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--spec"), "{}", stderr(&out));

    let out = cimc(&["simulate", "--trace", "/nonexistent/trace.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("trace"), "{}", stderr(&out));
}

#[test]
fn explore_rejects_traffic_objectives_only_when_unservable() {
    // A traffic metric with no trace still works (built-in default
    // workload), but an unknown policy is an argument error.
    let out = cimc(&[
        "explore",
        "--objective",
        "p99_latency",
        "--policy",
        "bogus",
        "--budget",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("`bogus`") && err.contains("edf"), "{err}");
}

// ---------------------------------------------------------------------------
// Trailing arguments — every subcommand rejects leftovers with exit 2,
// naming the offender (`archs` and `models` silently ignored them before).

#[test]
fn archs_rejects_trailing_arguments() {
    let out = cimc(&["archs", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("`extra`") && err.contains("cimc archs"),
        "{err}"
    );
}

#[test]
fn models_rejects_trailing_arguments() {
    let out = cimc(&["models", "--verbose"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("`--verbose`") && err.contains("cimc models"),
        "{err}"
    );
}

#[test]
fn list_rejects_trailing_arguments() {
    let out = cimc(&["list", "models", "extra"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`extra`"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// `cimc serve` / `cimc loadtest` — argument handling (the server's
// behavior itself is exercised end to end in tests/cimc_serve.rs).

#[test]
fn help_lists_serve_and_loadtest() {
    let out = cimc(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("cimc serve"), "{text}");
    assert!(text.contains("cimc loadtest"), "{text}");
    let out = cimc(&["benhc"]);
    let err = stderr(&out);
    assert!(err.contains("serve") && err.contains("loadtest"), "{err}");
}

#[test]
fn serve_rejects_bad_arguments() {
    let out = cimc(&["serve", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--workers"), "{}", stderr(&out));

    let out = cimc(&["serve", "--queue", "none"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`none`"), "{}", stderr(&out));

    let out = cimc(&["serve", "--stdio", "--tcp", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--stdio") && err.contains("--tcp"), "{err}");

    let out = cimc(&["serve", "--no-cache", "--cache-dir", "somewhere"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("--no-cache") && err.contains("--cache-dir"),
        "{err}"
    );

    let out = cimc(&["serve", "--deadline-ms", "-5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--deadline-ms"), "{}", stderr(&out));
}

#[test]
fn loadtest_requires_an_address() {
    let out = cimc(&["loadtest"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--addr"), "{}", stderr(&out));
}

#[test]
fn loadtest_rejects_bad_arguments() {
    let out = cimc(&["loadtest", "--addr", "127.0.0.1:1", "--requests", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--requests") && err.contains("`0`"), "{err}");

    let out = cimc(&["loadtest", "--addr", "127.0.0.1:1", "--concurrency", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--concurrency"), "{}", stderr(&out));

    let out = cimc(&["loadtest", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("`--bogus`"), "{}", stderr(&out));
}

#[test]
fn loadtest_fails_cleanly_when_the_server_is_unreachable() {
    // Port 1 is essentially never listening; the pre-flight probe turns
    // this into one clean error instead of a thread-fleet pileup.
    let out = cimc(&["loadtest", "--addr", "127.0.0.1:1", "--requests", "10"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("127.0.0.1:1"), "{}", stderr(&out));
}

// ---------------------------------------------------------------------------
// Observability flags — `--trace-out` exports a schema-valid Chrome
// trace with at least one event per compiler pass; `--profile` prints a
// hot-path tree; neither may change the command's stdout.

#[test]
fn compile_trace_out_writes_a_valid_chrome_trace_covering_every_pass() {
    let path = tmp_path("compile_trace.json");
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--trace-out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("trace:"), "{}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("trace file written");
    let summary = cim_mlc::obs::validate_chrome_trace(&json).expect("schema-valid chrome trace");
    assert!(
        summary.complete >= 3,
        "expected pass spans, got {summary:?}"
    );
    // Every pipeline pass for lenet5@isaac shows up as a `pass` span.
    for pass in ["stages", "cg", "mvm"] {
        assert!(
            json.contains(&format!("\"name\":\"{pass}\",\"cat\":\"pass\"")),
            "missing pass span `{pass}` in {json}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compile_profile_prints_a_tree_without_changing_stdout() {
    let plain = cimc(&["compile", "--model", "lenet5", "--arch", "isaac"]);
    let profiled = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--profile",
    ]);
    assert!(profiled.status.success(), "{}", stderr(&profiled));
    let err = stderr(&profiled);
    assert!(err.contains("profile:") && err.contains("pass:cg"), "{err}");
    assert_eq!(
        normalize_timings(&stdout(&plain)),
        normalize_timings(&stdout(&profiled)),
        "--profile changed the report"
    );
}

#[test]
fn trace_out_rejects_an_unwritable_path() {
    let out = cimc(&[
        "compile",
        "--model",
        "lenet5",
        "--arch",
        "isaac",
        "--trace-out",
        "/nonexistent-dir/trace.json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("cannot write trace"),
        "{}",
        stderr(&out)
    );
}

// ---------------------------------------------------------------------------
// The flag tables (`cim_mlc::api::args`) driven through the real binary:
// every subcommand × flag gets the same four checks, so a new table row
// is covered the moment it exists.

use cim_mlc::api::args::{parse, usage, Flag, Kind, COMMANDS};

/// Operands the flag's kind must reject, with the value the message
/// must name (for a list of choices, the offending item).
fn bad_operands(flag: &Flag) -> Vec<(String, String)> {
    let same = |values: &[&str]| values.iter().map(|&v| (v.into(), v.into())).collect();
    match flag.kind {
        Kind::Switch | Kind::Text | Kind::List => Vec::new(),
        Kind::Positive => same(&["0", "x"]),
        Kind::Unsigned | Kind::Lines => same(&["-1", "x"]),
        Kind::Millis => same(&["0", "inf", "x"]),
        Kind::Percent => same(&["-1", "nan"]),
        Kind::Cycles => same(&["0.5", "nan"]),
        Kind::Choice(_) => same(&["zz"]),
        Kind::Choices(words) => vec![(format!("{},zz", words[0]), "zz".into())],
    }
}

/// Operands on the accepting side of each kind's boundary.
fn good_operands(flag: &Flag) -> Vec<String> {
    let all = |values: &[&str]| values.iter().map(|&v| v.to_owned()).collect();
    match flag.kind {
        Kind::Switch => Vec::new(),
        Kind::Text | Kind::List => all(&["a,b"]),
        Kind::Positive => all(&["1"]),
        Kind::Unsigned | Kind::Lines | Kind::Percent => all(&["0"]),
        Kind::Millis => all(&["0.5"]),
        Kind::Cycles => all(&["1"]),
        Kind::Choice(words) => all(words),
        Kind::Choices(words) => vec![words.join(",")],
    }
}

fn assert_usage_error(args: &[&str], needles: &[&str]) {
    let out = cimc(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    for needle in needles {
        assert!(err.contains(needle), "{args:?}: no {needle} in: {err}");
    }
    assert!(err.contains("usage:"), "{args:?}: {err}");
}

#[test]
fn every_flag_of_every_subcommand_rejects_bad_input_uniformly() {
    for cmd in COMMANDS.iter().filter(|c| c.flags().next().is_some()) {
        assert_usage_error(&[cmd.name, "--bogus"], &["unknown argument `--bogus`"]);
        for flag in cmd.flags() {
            if flag.kind == Kind::Switch {
                continue;
            }
            // No operand, or the next flag where the operand should be
            // (`compile --mode --arch isaac` used to blame `--arch`).
            let missing = format!("missing value for `{}`", flag.name);
            assert_usage_error(&[cmd.name, flag.name], &[&missing]);
            assert_usage_error(&[cmd.name, flag.name, "--bogus"], &[&missing]);
            for (operand, offender) in bad_operands(flag) {
                let named = format!("`{offender}`");
                assert_usage_error(&[cmd.name, flag.name, &operand], &[flag.name, &named]);
            }
            for operand in good_operands(flag) {
                let args = [flag.name.to_owned(), operand];
                assert!(parse(cmd, &args).is_ok(), "{} {args:?}", cmd.name);
            }
        }
    }
}

#[test]
fn help_documents_exactly_the_flags_in_the_tables() {
    let out = cimc(&["help"]);
    assert!(out.status.success());
    let help = stdout(&out);
    assert_eq!(
        help.trim_end(),
        usage(),
        "`cimc help` is the generated usage"
    );
    for cmd in COMMANDS {
        let prefix = format!("  cimc {}", cmd.name);
        let mut lines = help.lines().filter(|line| {
            let rest = line.strip_prefix(&prefix);
            rest.is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
        });
        let (Some(line), None) = (lines.next(), lines.next()) else {
            panic!("exactly one help line for `{}`: {help}", cmd.name);
        };
        let words = line.split_whitespace();
        let documented: Vec<&str> = words
            .map(|word| word.trim_matches(['[', ']']))
            .filter(|word| word.starts_with("--"))
            .collect();
        let table: Vec<&str> = cmd.flags().map(|flag| flag.name).collect();
        assert_eq!(documented, table, "`cimc {}` help vs table", cmd.name);
    }
}

#[test]
fn choice_vocabularies_are_the_words_the_shims_convert() {
    use cim_mlc::api::{LevelArg, ModeArg, StageArg};
    use cim_mlc::prelude::{GeneratorKind, OptLevel};
    let wire = |word: &str| format!("\"{word}\"");
    for cmd in COMMANDS {
        for flag in cmd.flags() {
            let (Kind::Choice(words) | Kind::Choices(words)) = flag.kind else {
                continue;
            };
            for word in words {
                let converts = match flag.name {
                    "--mode" => serde_json::from_str::<ModeArg>(&wire(word)).is_ok(),
                    "--level" => serde_json::from_str::<LevelArg>(&wire(word)).is_ok(),
                    "--dump-stage" => serde_json::from_str::<StageArg>(&wire(word)).is_ok(),
                    "--kind" => GeneratorKind::parse(word).is_some(),
                    "--modes" => OptLevel::parse(word).is_some(),
                    other => panic!("no conversion known for choice flag `{other}`"),
                };
                assert!(converts, "`{} {word}` has no typed value", flag.name);
            }
        }
    }
}
