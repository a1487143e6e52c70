//! Integration and property tests of the content-addressed compile
//! cache: fingerprint stability (equal inputs ⇒ equal keys, any single
//! perturbed field ⇒ different key), graph keys that follow the wire
//! form rather than the arena layout, arch keys that cover every field
//! of the arch document, cached-session equivalence with uncached
//! compilation, chain invalidation, distrust of poisoned on-disk
//! entries, and a warm `Session::run` that serves every pass from one
//! lookup of the deepest entry yet shows the timeline a step loop shows.

use cim_arch::{presets, CimArchitecture};
use cim_compiler::cache::{fingerprint_arch, fingerprint_graph, source_fingerprint};
use cim_compiler::cg::CgOptions;
use cim_compiler::mvm::MvmOptions;
use cim_compiler::{
    CacheStats, CgPass, CodegenPass, CompileCache, CompileOptions, Compiler, DiskCache,
    ExtractStagesPass, Fingerprint, MemoryCache, MvmPass, OptLevel, Pass, PassContext,
    PassTimeline, Pipeline, StageKind, TieredCache, VvmPass,
};
use cim_graph::{zoo, Graph, GraphDelta, GraphEdit, OpKind};
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;
use std::sync::Arc;

fn pass_by_name(name: &str) -> Box<dyn Pass> {
    match name {
        "stages" => Box::new(ExtractStagesPass),
        "cg" => Box::new(CgPass),
        "mvm" => Box::new(MvmPass),
        "vvm" => Box::new(VvmPass),
        other => panic!("unexpected planned pass `{other}`"),
    }
}

/// The cache key of the *final* artifact of the planned pipeline for
/// (graph, arch, options) — the full fingerprint chain a cached session
/// walks.
fn job_key(graph: &Graph, arch: &CimArchitecture, options: &CompileOptions) -> Fingerprint {
    let scratch = cim_compiler::ScratchArena::new();
    let memo = cim_compiler::RegionMemo::new();
    let cx = PassContext {
        graph,
        arch,
        options,
        scratch: &scratch,
        memo: &memo,
    };
    let mut key = source_fingerprint(graph, arch);
    for name in Pipeline::plan(options, arch).names() {
        let link = pass_by_name(name)
            .fingerprint(&cx)
            .expect("built-in scheduling passes are cacheable");
        key = key.chain(link);
    }
    key
}

fn models() -> [Graph; 3] {
    [zoo::lenet5(), zoo::mlp(), zoo::vgg7()]
}

fn archs() -> [CimArchitecture; 3] {
    [
        presets::isaac_baseline(),
        presets::jia_isscc21(),
        presets::jain_sram(),
    ]
}

fn options_strategy() -> impl Strategy<Value = CompileOptions> {
    (
        2u32..17,
        2u32..17,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0usize..4,
    )
        .prop_map(|(wb, ab, cgp, cgd, mvmd, mvmp, level)| CompileOptions {
            weight_bits: wb,
            act_bits: ab,
            cg: CgOptions {
                pipeline: cgp,
                duplication: cgd,
            },
            mvm: MvmOptions {
                duplication: mvmd,
                pipeline: mvmp,
            },
            level: OptLevel::ALL[level],
            ..CompileOptions::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn equal_inputs_always_fingerprint_equal(
        model in 0usize..3,
        arch in 0usize..3,
        options in options_strategy(),
    ) {
        let g = &models()[model];
        let a = &archs()[arch];
        // Rebuilt graph/arch values (not clones) must fingerprint
        // identically, key by key.
        prop_assert_eq!(fingerprint_graph(g), fingerprint_graph(&models()[model]));
        prop_assert_eq!(fingerprint_arch(a), fingerprint_arch(&archs()[arch]));
        prop_assert_eq!(job_key(g, a, &options), job_key(g, a, &options));
    }

    #[test]
    fn perturbing_any_single_field_changes_the_fingerprint(
        model in 0usize..3,
        arch in 0usize..3,
        options in options_strategy(),
    ) {
        let g = &models()[model];
        let a = &archs()[arch];
        let base = job_key(g, a, &options);

        // Graph axis: a different model must key differently.
        let other_model = &models()[(model + 1) % 3];
        prop_assert_ne!(job_key(other_model, a, &options), base);

        // Architecture axis: another preset, and the same preset under a
        // different computing mode.
        let other_arch = &archs()[(arch + 1) % 3];
        prop_assert_ne!(job_key(g, other_arch, &options), base);
        let remoded = a.with_mode(match a.mode() {
            cim_arch::ComputingMode::Cm => cim_arch::ComputingMode::Wlm,
            _ => cim_arch::ComputingMode::Cm,
        });
        prop_assert_ne!(
            source_fingerprint(g, &remoded),
            source_fingerprint(g, a)
        );

        // Option axis, one field at a time. Every consumed field must
        // change the key of the planned pipeline.
        let mut wb = options;
        wb.weight_bits += 1;
        prop_assert_ne!(job_key(g, a, &wb), base);

        let mut ab = options;
        ab.act_bits += 1;
        prop_assert_ne!(job_key(g, a, &ab), base);

        let mut cgp = options;
        cgp.cg.pipeline = !cgp.cg.pipeline;
        prop_assert_ne!(job_key(g, a, &cgp), base);

        let mut cgd = options;
        cgd.cg.duplication = !cgd.cg.duplication;
        prop_assert_ne!(job_key(g, a, &cgd), base);

        // The MVM toggles are consumed only when the plan runs the mvm
        // pass; otherwise they must NOT perturb the key (that sharing is
        // what lets auto/cg jobs reuse each other's prefixes).
        let plan_has_mvm = Pipeline::plan(&options, a).names().contains(&"mvm");
        let mut mvmd = options;
        mvmd.mvm.duplication = !mvmd.mvm.duplication;
        prop_assert_eq!(job_key(g, a, &mvmd) != base, plan_has_mvm);

        // The level field keys by the *work it selects*: a level change
        // changes the key exactly when it changes the planned pass list.
        for level in OptLevel::ALL {
            let mut relevelled = options;
            relevelled.level = level;
            let same_plan =
                Pipeline::plan(&relevelled, a).names() == Pipeline::plan(&options, a).names();
            prop_assert_eq!(job_key(g, a, &relevelled) == base, same_plan);
        }
    }
}

/// The zoo, and each model after a seeded weight replacement, after a
/// seeded head retune, rebuilt from the retuned model's document, and
/// retuned back. A retune leaves the old operator interned, so these
/// graphs differ in arena layout where their documents agree.
#[test]
fn the_graph_key_is_the_wire_form_not_the_arena_layout() {
    let mut seed = 0x5eed_u64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) as usize
    };
    let mut graphs = Vec::new();
    let mut relaid = 0;
    for g in zoo::all() {
        let weighted: Vec<String> = g
            .nodes()
            .filter(|n| n.op().has_static_weights())
            .map(|n| n.name().to_owned())
            .collect();
        let reweighted = GraphDelta::new()
            .with(GraphEdit::ReplaceNodeWeights {
                node: weighted[next() % weighted.len()].clone(),
            })
            .apply(&g)
            .unwrap();
        let head = g
            .nodes()
            .rfind(|n| matches!(n.op(), OpKind::Linear { .. }))
            .expect("every zoo model ends in a Linear head");
        let retune = |op: OpKind| {
            GraphDelta::new().with(GraphEdit::RetuneOpParams {
                node: head.name().to_owned(),
                op,
            })
        };
        let retuned = retune(OpKind::linear(1 + next() % 4096)).apply(&g).unwrap();
        let rebuilt = cim_graph::from_json(&cim_graph::to_json(&retuned)).unwrap();
        let restored = retune(head.op().clone()).apply(&retuned).unwrap();
        assert_eq!(rebuilt, retuned, "{}", g.name());
        assert_eq!(restored, g, "{}", g.name());
        relaid += usize::from(rebuilt.op_count() != retuned.op_count());
        relaid += usize::from(restored.op_count() != g.op_count());
        graphs.extend([g, reweighted, retuned, rebuilt, restored]);
    }
    assert!(relaid >= 15, "too few arena layouts differ: {relaid}");

    let keyed: Vec<(String, Fingerprint)> = graphs
        .iter()
        .map(|g| (cim_graph::to_json(g), fingerprint_graph(g)))
        .collect();
    for (i, (doc_a, key_a)) in keyed.iter().enumerate() {
        for (j, (doc_b, key_b)) in keyed.iter().enumerate().skip(i + 1) {
            assert_eq!(
                key_a == key_b,
                doc_a == doc_b,
                "graphs {i} (`{}`) and {j} (`{}`)",
                graphs[i].name(),
                graphs[j].name()
            );
        }
    }
}

/// Every document that differs from `v` in exactly one leaf: integers
/// ±1, floats shifted and scaled, booleans flipped, nulls set, a string
/// that is one of `variants` swapped for each other variant, and any
/// other string renamed.
fn leaf_perturbations(v: &Value, variants: &[Value]) -> Vec<Value> {
    match v {
        Value::Null => vec![Value::U64(1)],
        Value::Bool(b) => vec![Value::Bool(!b)],
        Value::U64(n) => [n.checked_add(1), n.checked_sub(1)]
            .into_iter()
            .flatten()
            .map(Value::U64)
            .collect(),
        Value::I64(n) => vec![Value::I64(n + 1), Value::I64(n - 1)],
        Value::F64(x) => vec![Value::F64(x + 0.5), Value::F64(x * 2.0)],
        Value::Str(_) if variants.contains(v) => {
            variants.iter().filter(|c| *c != v).cloned().collect()
        }
        Value::Str(s) => vec![Value::Str(format!("{s}'"))],
        Value::Seq(items) => (0..items.len())
            .flat_map(|i| {
                leaf_perturbations(&items[i], variants)
                    .into_iter()
                    .map(move |p| {
                        let mut items = items.clone();
                        items[i] = p;
                        Value::Seq(items)
                    })
            })
            .collect(),
        Value::Map(entries) => (0..entries.len())
            .flat_map(|i| {
                leaf_perturbations(&entries[i].1, variants)
                    .into_iter()
                    .map(move |p| {
                        let mut entries = entries.clone();
                        entries[i].1 = p;
                        Value::Map(entries)
                    })
            })
            .collect(),
    }
}

fn strs(names: &[&str]) -> Vec<Value> {
    names.iter().map(|s| Value::Str((*s).to_owned())).collect()
}

/// Each single-leaf edit of each model's document that still parses is
/// a different graph, and must key differently. Together the models use
/// every operator field of the zoo.
#[test]
fn the_graph_key_covers_every_field_of_the_graph_document() {
    let unit_ops = strs(&[
        "MatMul",
        "Relu",
        "Gelu",
        "Softmax",
        "GlobalAvgPool",
        "Add",
        "Flatten",
        "BatchNorm",
        "LayerNorm",
        "Max",
        "Avg",
    ]);
    let tiny_vit = zoo::vit("vit_tiny", 1, 16, 2, 32);
    for g in [zoo::lenet5(), zoo::resnet18(), tiny_vit] {
        let key = fingerprint_graph(&g);
        let tree: Value = serde_json::from_str(&cim_graph::to_json(&g)).unwrap();
        let mut valid = 0;
        for edited in leaf_perturbations(&tree, &unit_ops) {
            let edited = serde_json::to_string(&edited).unwrap();
            let Ok(other) = cim_graph::from_json(&edited) else {
                continue;
            };
            valid += 1;
            assert_ne!(other, g, "{edited}");
            assert_ne!(fingerprint_graph(&other), key, "{edited}");
        }
        assert!(
            valid >= 2 * g.len(),
            "{}: only {valid} valid edits",
            g.name()
        );
    }
}

/// For each preset, each single-leaf edit of its arch document that
/// still parses must key differently; a field added to the document
/// later is covered without touching this test.
#[test]
fn the_arch_key_covers_every_field_of_the_arch_document() {
    let mut variants = strs(&[
        "mesh",
        "h_tree",
        "shared_buffer",
        "disjoint_buffer_switch",
        "ideal",
        "SRAM",
        "RERAM",
        "FLASH",
        "PCM",
        "STT-MRAM",
        "CM",
        "XBM",
        "WLM",
    ]);
    variants.push(Value::Map(vec![(
        "uniform_per_bit".to_owned(),
        Value::F64(1.0),
    )]));
    for preset in presets::all() {
        let doc = cim_arch::to_json(&preset);
        let base = cim_arch::from_json(&doc).unwrap();
        let key = fingerprint_arch(&base);
        if base == preset {
            assert_eq!(fingerprint_arch(&preset), key, "{}", preset.name());
        }
        let tree: Value = serde_json::from_str(&doc).unwrap();
        let mut valid = 0;
        for edited in leaf_perturbations(&tree, &variants) {
            let edited = serde_json::to_string(&edited).unwrap();
            let Ok(arch) = cim_arch::from_json(&edited) else {
                continue;
            };
            valid += 1;
            assert_ne!(arch, base, "{edited}");
            assert_ne!(fingerprint_arch(&arch), key, "{edited}");
        }
        assert!(valid >= 25, "{}: only {valid} valid edits", preset.name());
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cim_cache_it_{tag}_{}", std::process::id()))
}

#[test]
fn cached_sessions_reproduce_uncached_results_exactly() {
    let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());
    for g in &models() {
        for a in &archs() {
            let uncached = Compiler::new().compile(g, a).unwrap();
            // Cold: populates the cache; must already match.
            let cold = Compiler::new()
                .session(g, a)
                .with_cache(Arc::clone(&cache))
                .finish()
                .unwrap();
            assert_eq!(cold.report(), uncached.report());
            // Warm: every pass served from the cache.
            let mut warm_session = Compiler::new().session(g, a).with_cache(Arc::clone(&cache));
            warm_session.run().unwrap();
            assert!(
                warm_session
                    .timeline()
                    .records
                    .iter()
                    .all(|r| r.cache == "hit"),
                "{:?}",
                warm_session.timeline()
            );
            let warm = warm_session.finish().unwrap();
            assert_eq!(warm.report(), uncached.report());
            assert_eq!(warm.reports().len(), uncached.reports().len());
            assert_eq!(
                warm.steady_state_interval(),
                uncached.steady_state_interval()
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.hits > 0 && stats.misses > 0 && stats.stores == stats.misses);
}

#[test]
fn auto_and_cg_jobs_share_their_pipeline_prefix() {
    let g = zoo::lenet5();
    let a = presets::isaac_baseline();
    let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());
    let auto = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    auto.finish().unwrap(); // stages, cg, mvm → 3 stores
    let cg_only = Compiler::with_options(CompileOptions {
        level: OptLevel::Cg,
        ..CompileOptions::default()
    });
    let mut session = cg_only.session(&g, &a).with_cache(Arc::clone(&cache));
    session.run().unwrap();
    // Despite the different `level`, both of the cg-only job's passes
    // hit the artifacts the auto job banked.
    assert!(
        session.timeline().records.iter().all(|r| r.cache == "hit"),
        "{:?}",
        session.timeline()
    );
}

#[test]
fn skipping_or_mutating_stops_cache_participation() {
    let g = zoo::lenet5();
    let a = presets::isaac_baseline();
    let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());

    let mut session = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    session.step().unwrap(); // stages: miss+store
    let _ = session.artifact_mut(); // caller may have edited the stages
    session.run().unwrap();
    let records = &session.timeline().records;
    assert_eq!(records[0].cache, "miss+store");
    assert!(
        records[1..].iter().all(|r| r.cache.is_empty()),
        "{records:?}"
    );

    // skip_next likewise poisons the chain for later passes.
    let mut session = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    session.skip_next();
    while session.step().is_ok_and(|ran| ran) {}
    assert!(
        session
            .timeline()
            .records
            .iter()
            .all(|r| r.cache.is_empty()),
        "{:?}",
        session.timeline()
    );
}

#[test]
fn custom_passes_without_fingerprints_break_the_chain_safely() {
    struct Identity;
    impl Pass for Identity {
        fn name(&self) -> &'static str {
            "identity"
        }
        fn run(
            &self,
            _cx: &PassContext<'_>,
            _diag: &mut cim_compiler::Diagnostics,
            input: cim_compiler::Artifact,
        ) -> cim_compiler::Result<cim_compiler::Artifact> {
            Ok(input)
        }
    }

    let g = zoo::lenet5();
    let a = presets::isaac_baseline();
    let options = CompileOptions::default();
    let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());
    let mut pipeline = Pipeline::plan(&options, &a);
    assert!(pipeline.insert_after("stages", Box::new(Identity)));
    let mut session = pipeline
        .session(&g, &a, options)
        .with_cache(Arc::clone(&cache));
    session.run().unwrap();
    let records = &session.timeline().records;
    assert_eq!(records[0].cache, "miss+store"); // stages, before the break
    assert!(
        records[1..].iter().all(|r| r.cache.is_empty()),
        "{records:?}"
    );
}

#[test]
fn poisoned_disk_entries_are_recompiled_not_trusted() {
    let dir = tmp_dir("poison");
    let _ = std::fs::remove_dir_all(&dir);
    let g = zoo::vgg7();
    let a = presets::jain_sram();
    let clean = Compiler::new().compile(&g, &a).unwrap();

    // Populate the cache.
    {
        let cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
        Compiler::new()
            .session(&g, &a)
            .with_cache(cache)
            .finish()
            .unwrap();
    }
    // Poison every entry: flip one payload byte in each.
    let mut poisoned = 0;
    for shard in std::fs::read_dir(&dir).unwrap() {
        for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let path = entry.unwrap().path();
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, bytes).unwrap();
            poisoned += 1;
        }
    }
    assert!(poisoned >= 3, "expected one entry per scheduling pass");

    // A warm run over the poisoned cache must detect every corruption,
    // recompile, and still produce the clean result.
    let cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let mut session = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    session.run().unwrap();
    assert!(
        session
            .timeline()
            .records
            .iter()
            .all(|r| r.cache == "miss+store"),
        "poisoned entries must read as misses: {:?}",
        session.timeline()
    );
    let recompiled = session.finish().unwrap();
    assert_eq!(recompiled.report(), clean.report());
    assert_eq!(cache.stats().hits, 0);
    assert_eq!(cache.stats().misses as usize, poisoned);

    // The recompilation re-banked good entries: a second warm run hits.
    let cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let rewarmed = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache))
        .finish()
        .unwrap();
    assert_eq!(rewarmed.report(), clean.report());
    assert_eq!(cache.stats().misses, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The timeline with its wall clocks zeroed: the one field a warm `run()`
/// and a warm step loop may differ in.
fn without_wall_clocks(timeline: &PassTimeline) -> PassTimeline {
    let mut timeline = timeline.clone();
    for record in &mut timeline.records {
        record.wall_ms = 0.0;
    }
    timeline
}

fn outcomes(timeline: &PassTimeline) -> Vec<&str> {
    timeline.records.iter().map(|r| r.cache.as_str()).collect()
}

#[test]
fn a_warm_run_shows_the_timeline_of_a_warm_step_loop() {
    let g = zoo::lenet5();
    for arch in presets::all() {
        for level in OptLevel::ALL {
            let options = CompileOptions {
                level,
                ..CompileOptions::default()
            };
            for head in [false, true] {
                let case = format!("lenet5@{} {} head={head}", arch.name(), level.name());
                let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());
                let session = || {
                    let mut pipeline = Pipeline::plan(&options, &arch);
                    if head {
                        pipeline.push(Box::new(CodegenPass::keeping(0)));
                        pipeline.push(Box::new(CodegenPass::keeping(200)));
                    }
                    pipeline
                        .session(&g, &arch, options)
                        .with_cache(Arc::clone(&cache))
                };
                session().run().unwrap();

                let before = cache.stats();
                let mut run = session();
                run.run().unwrap();
                let ran = cache.stats().since(&before);
                let before = cache.stats();
                let mut stepped = session();
                while stepped.step().unwrap() {}
                let steps = cache.stats().since(&before);

                assert_eq!(
                    without_wall_clocks(run.timeline()),
                    without_wall_clocks(stepped.timeline()),
                    "{case}"
                );
                assert_eq!(ran, steps, "{case}");
                let cached = run.timeline().records.len() - usize::from(head);
                let want = CacheStats {
                    hits: cached as u64,
                    misses: 0,
                    stores: 0,
                };
                assert_eq!(ran, want, "{case}");
                // Only the deepest served pass carries the lookup's time.
                let records = &run.timeline().records;
                assert!(
                    records[..cached - 1].iter().all(|r| r.wall_ms == 0.0),
                    "{case}: {records:?}"
                );
                assert_eq!(
                    run.compiled().unwrap().report(),
                    stepped.compiled().unwrap().report(),
                    "{case}"
                );
            }
        }
    }
}

#[test]
fn a_cache_holding_up_to_cg_serves_two_passes_and_runs_two() {
    let g = zoo::lenet5();
    let a = presets::isaac_baseline_wlm();
    let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());
    let cg_only = Compiler::with_options(CompileOptions {
        level: OptLevel::Cg,
        ..CompileOptions::default()
    });
    cg_only
        .session(&g, &a)
        .with_cache(Arc::clone(&cache))
        .finish()
        .unwrap();

    let before = cache.stats();
    let mut session = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    session.run().unwrap();
    assert_eq!(
        outcomes(session.timeline()),
        ["hit", "hit", "miss+store", "miss+store"]
    );
    assert_eq!(
        cache.stats().since(&before),
        CacheStats {
            hits: 2,
            misses: 2,
            stores: 2
        }
    );
    assert_eq!(
        session.finish().unwrap().report(),
        Compiler::new().compile(&g, &a).unwrap().report()
    );
}

#[test]
fn a_corrupt_deepest_disk_entry_is_removed_counted_as_a_miss_and_restored() {
    let dir = tmp_dir("deepest");
    let _ = std::fs::remove_dir_all(&dir);
    let g = zoo::lenet5();
    let a = presets::isaac_baseline_wlm();
    let fill: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let clean = Compiler::new()
        .session(&g, &a)
        .with_cache(fill)
        .finish()
        .unwrap();

    let key = job_key(&g, &a, &CompileOptions::default());
    let path = DiskCache::open(&dir).unwrap().entry_path(&key);
    let banked = std::fs::read(&path).expect("the vvm entry");
    let mut torn = banked.clone();
    let mid = torn.len() / 2;
    torn[mid] ^= 0x01;
    std::fs::write(&path, torn).unwrap();

    let cache: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    let mut session = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    session.run().unwrap();
    assert_eq!(
        outcomes(session.timeline()),
        ["hit", "hit", "hit", "miss+store"]
    );
    assert_eq!(
        cache.stats(),
        CacheStats {
            hits: 3,
            misses: 1,
            stores: 1
        }
    );
    assert_eq!(std::fs::read(&path).unwrap(), banked, "re-stored intact");
    assert_eq!(session.finish().unwrap().report(), clean.report());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_tiered_cache_serves_vvm_from_disk_past_cg_in_memory() {
    let dir = tmp_dir("tiered");
    let _ = std::fs::remove_dir_all(&dir);
    let g = zoo::lenet5();
    let a = presets::isaac_baseline_wlm();
    let fill: Arc<dyn CompileCache> = Arc::new(DiskCache::open(&dir).unwrap());
    Compiler::new()
        .session(&g, &a)
        .with_cache(fill)
        .finish()
        .unwrap();

    let tiered = Arc::new(TieredCache::open(&dir).unwrap());
    let cache: Arc<dyn CompileCache> = tiered.clone();
    // A cg-only compile promotes the cg entry, and only it, into memory.
    Compiler::with_options(CompileOptions {
        level: OptLevel::Cg,
        ..CompileOptions::default()
    })
    .session(&g, &a)
    .with_cache(Arc::clone(&cache))
    .finish()
    .unwrap();
    assert_eq!(tiered.memory_len(), 1);

    let before = cache.stats();
    let mut session = Compiler::new()
        .session(&g, &a)
        .with_cache(Arc::clone(&cache));
    session.run().unwrap();
    assert_eq!(session.artifact().kind(), StageKind::Vvm);
    assert_eq!(outcomes(session.timeline()), ["hit"; 4]);
    assert_eq!(
        cache.stats().since(&before),
        CacheStats {
            hits: 4,
            misses: 0,
            stores: 0
        }
    );
    assert_eq!(tiered.memory_len(), 2, "the disk's vvm entry is promoted");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The `mvm` pass under a false declaration: it says it lowers to `vvm`.
struct MisdeclaredMvm;

impl Pass for MisdeclaredMvm {
    fn name(&self) -> &'static str {
        "mvm"
    }

    fn output_stage(&self) -> Option<StageKind> {
        Some(StageKind::Vvm)
    }

    fn run(
        &self,
        cx: &PassContext<'_>,
        diag: &mut cim_compiler::Diagnostics,
        input: cim_compiler::Artifact,
    ) -> cim_compiler::Result<cim_compiler::Artifact> {
        MvmPass.run(cx, diag, input)
    }

    fn fingerprint(&self, cx: &PassContext<'_>) -> Option<Fingerprint> {
        MvmPass.fingerprint(cx)
    }
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "pass `mvm` declares output stage `vvm`, of which the served `codegen`")]
fn serving_a_pass_that_misdeclares_its_stage_fails_a_debug_build() {
    let g = zoo::lenet5();
    let a = presets::isaac_baseline();
    let cache: Arc<dyn CompileCache> = Arc::new(MemoryCache::new());
    let session = || {
        let mut pipeline = Pipeline::new();
        pipeline
            .push(Box::new(ExtractStagesPass))
            .push(Box::new(CgPass))
            .push(Box::new(MisdeclaredMvm))
            .push(Box::new(CodegenPass::keeping(0)));
        pipeline
            .session(&g, &a, CompileOptions::default())
            .with_cache(Arc::clone(&cache))
    };
    // Cold, every pass runs and nothing is served.
    session().run().unwrap();
    // Warm, the `codegen-count` entry serves all four passes, and it has
    // no `vvm` view to show the misdeclared pass through.
    let _ = session().run();
}
