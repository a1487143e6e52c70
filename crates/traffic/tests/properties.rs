//! Property tests for the traffic subsystem's determinism and policy
//! invariants:
//!
//! * identical `(spec, seed)` pairs serialize to byte-identical trace
//!   files, across generator kinds and tenant mixes;
//! * `comparable()` reports are bit-identical at 1 and 4 simulation
//!   threads;
//! * EDF never serves an admitted request while a strictly-earlier-
//!   deadline request sits in the same queue (checked against the
//!   per-request outcomes and the trace), and every request has
//!   exactly one outcome;
//! * the merging generator builds exactly the trace that generating
//!   every arrival and stably sorting them builds.

use cim_arch::presets;
use cim_obs::Document;
use cim_sim::ServiceModel;
use cim_traffic::{
    simulate_priced, Batching, GeneratorKind, Placement, PolicyKind, SimConfig, SplitMix64,
    TenantSpec, Trace, TraceError, TraceEvent, TraceSpec,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Arbitrary small-but-varied specs: 1–3 tenants over the two smallest
/// zoo models, every generator kind, and optional deadlines.
fn specs() -> impl Strategy<Value = TraceSpec> {
    (
        prop_oneof![
            Just(GeneratorKind::Poisson),
            Just(GeneratorKind::Bursty),
            Just(GeneratorKind::Mix),
        ],
        0u64..1_000,
        100_000u64..400_000,
        (200u32..4_000).prop_map(f64::from),
        1u32..24,
        (1_000u32..40_000).prop_map(f64::from),
        proptest::collection::vec(
            (
                prop_oneof![Just("lenet5"), Just("mlp")],
                0u32..4,
                proptest::option::of(5_000u64..80_000),
            ),
            1..4,
        ),
    )
        .prop_map(
            |(kind, seed, horizon, mean_gap, burst_len, idle_gap, tenants)| TraceSpec {
                name: "prop".into(),
                kind,
                seed,
                horizon,
                mean_gap,
                burst_len,
                idle_gap,
                tenants: tenants
                    .into_iter()
                    .enumerate()
                    .map(|(idx, (model, priority, deadline))| TenantSpec {
                        name: format!("t{idx}"),
                        model: model.to_owned(),
                        weight: 1.0 + idx as f64,
                        priority,
                        deadline,
                    })
                    .collect(),
            },
        )
}

/// The generator before the merge, kept as the reference: every
/// tenant's arrivals into one list, stably sorted by `(arrival, tenant)`.
fn sorting_generate(spec: &TraceSpec) -> Result<Trace, TraceError> {
    spec.validate()?;
    let exp_gap = |rng: &mut SplitMix64, mean: f64| (-mean * rng.unit().ln()).max(1.0);
    let mut raw: Vec<(u64, usize)> = Vec::new();
    match spec.kind {
        GeneratorKind::Poisson => {
            for idx in 0..spec.tenants.len() {
                let mut rng = SplitMix64::new(spec.seed.wrapping_add(idx as u64));
                let mut t = 0.0f64;
                loop {
                    t += exp_gap(&mut rng, spec.mean_gap);
                    let at = t as u64;
                    if at >= spec.horizon {
                        break;
                    }
                    raw.push((at, idx));
                }
            }
        }
        GeneratorKind::Bursty => {
            for idx in 0..spec.tenants.len() {
                let mut rng = SplitMix64::new(spec.seed.wrapping_add(idx as u64));
                let mut t = exp_gap(&mut rng, spec.idle_gap);
                'outer: loop {
                    for _ in 0..spec.burst_len {
                        let at = t as u64;
                        if at >= spec.horizon {
                            break 'outer;
                        }
                        raw.push((at, idx));
                        t += exp_gap(&mut rng, spec.mean_gap);
                    }
                    t += exp_gap(&mut rng, spec.idle_gap);
                }
            }
        }
        GeneratorKind::Mix => {
            let mut rng = SplitMix64::new(spec.seed);
            let total: f64 = spec.tenants.iter().map(|t| t.weight).sum();
            let mut t = 0.0f64;
            loop {
                t += exp_gap(&mut rng, spec.mean_gap);
                let at = t as u64;
                if at >= spec.horizon {
                    break;
                }
                let draw = rng.unit() * total;
                let mut acc = 0.0;
                let mut idx = spec.tenants.len() - 1;
                for (i, tenant) in spec.tenants.iter().enumerate() {
                    acc += tenant.weight;
                    if draw < acc {
                        idx = i;
                        break;
                    }
                }
                raw.push((at, idx));
            }
        }
    }
    raw.sort_by_key(|&(at, tenant)| (at, tenant));
    let requests = raw
        .into_iter()
        .enumerate()
        .map(|(id, (arrival, tenant))| TraceEvent {
            id: id as u64,
            tenant,
            arrival,
            priority: spec.tenants[tenant].priority,
            deadline: spec.tenants[tenant].deadline.map(|d| arrival + d),
        })
        .collect();
    Ok(Trace {
        schema_version: Trace::VERSION,
        spec: spec.clone(),
        requests,
    })
}

/// Specs for the generator oracle: up to six tenants, and mean gaps
/// from a few cycles (tenants collide on the same cycle all the time)
/// down below one cycle, which [`TraceSpec::validate`] rejects.
fn dense_specs() -> impl Strategy<Value = TraceSpec> {
    (
        prop_oneof![
            Just(GeneratorKind::Poisson),
            Just(GeneratorKind::Bursty),
            Just(GeneratorKind::Mix),
        ],
        0u64..1_000,
        1_000u64..20_000,
        prop_oneof![0.25f64..1.0, 1.0f64..4.0, 4.0f64..400.0],
        1u32..40,
        prop_oneof![1.0f64..8.0, 8.0f64..2_000.0],
        proptest::collection::vec((0.1f64..4.0, 0u32..4), 1..7),
    )
        .prop_map(
            |(kind, seed, horizon, mean_gap, burst_len, idle_gap, tenants)| TraceSpec {
                name: "dense".into(),
                kind,
                seed,
                horizon,
                mean_gap,
                burst_len,
                idle_gap,
                tenants: tenants
                    .into_iter()
                    .enumerate()
                    .map(|(idx, (weight, priority))| TenantSpec {
                        name: format!("t{idx}"),
                        model: "lenet5".into(),
                        weight,
                        priority,
                        deadline: Some(1_000 * u64::from(priority)),
                    })
                    .collect(),
            },
        )
}

/// A fixed service per partition: deterministic and cheap, so the
/// properties exercise the engine rather than the compiler.
fn services(n: usize) -> Vec<ServiceModel> {
    vec![
        ServiceModel {
            latency_cycles: 4_000,
            interval_cycles: 400,
        };
        n
    ]
}

fn config(policy: PolicyKind) -> SimConfig {
    SimConfig {
        policy,
        batching: Batching {
            max_batch: 4,
            max_wait: 0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identical_specs_generate_byte_identical_traces(spec in specs()) {
        let a = spec.generate().unwrap().to_json();
        let b = spec.generate().unwrap().to_json();
        prop_assert_eq!(&a, &b, "same (spec, seed) must be byte-identical");
        // And the file round-trips losslessly.
        let reparsed = Trace::from_json(&a).unwrap();
        prop_assert_eq!(reparsed.to_json(), a);
    }

    #[test]
    fn merging_generator_matches_the_sorting_oracle(spec in dense_specs()) {
        prop_assert_eq!(spec.generate(), sorting_generate(&spec));
    }

    #[test]
    fn comparable_reports_are_bit_identical_across_thread_counts(spec in specs()) {
        let trace = spec.generate().unwrap();
        let arch = presets::isaac_baseline();
        let placement = Placement::balanced(&arch, &spec).unwrap();
        let services = services(placement.partitions.len());
        for policy in PolicyKind::ALL {
            let (one, _) = simulate_priced(
                &trace, &arch, &placement, &services, &config(policy), 1,
            )
            .unwrap();
            let (four, _) = simulate_priced(
                &trace, &arch, &placement, &services, &config(policy), 4,
            )
            .unwrap();
            prop_assert_eq!(
                one.comparable().to_json(),
                four.comparable().to_json(),
                "policy {:?} diverged across thread counts",
                policy
            );
        }
    }

    #[test]
    fn edf_never_serves_past_an_earlier_deadline_in_queue(spec in specs()) {
        let trace = spec.generate().unwrap();
        let arch = presets::isaac_baseline();
        let placement = Placement::balanced(&arch, &spec).unwrap();
        let services = services(placement.partitions.len());
        let (_, outcomes) = simulate_priced(
            &trace, &arch, &placement, &services, &config(PolicyKind::Edf), 1,
        )
        .unwrap();
        // Every trace id has exactly one outcome, in trace order.
        prop_assert_eq!(outcomes.len(), trace.requests.len());
        prop_assert!(outcomes.iter().zip(&trace.requests).all(|(o, r)| o.id == r.id));

        // Requests without a deadline sort last.
        let deadline = |i: usize| trace.requests[i].deadline.unwrap_or(u64::MAX);
        let mut batches = BTreeMap::new();
        for (i, o) in outcomes.iter().enumerate() {
            if o.finished.is_some() {
                let latest = batches.entry((o.partition, o.dispatched)).or_insert(0);
                *latest = deadline(i).max(*latest);
            }
        }
        for (&(partition, at), &latest_served) in &batches {
            // Waiting at `at`: arrived by then, dispatched (or dropped)
            // after it.
            for (i, o) in outcomes.iter().enumerate() {
                let waiting = o.partition == partition
                    && trace.requests[i].arrival <= at
                    && o.dispatched > at;
                prop_assert!(
                    !waiting || deadline(i) >= latest_served,
                    "request {} (deadline {:?}) was left queued while a later-deadline \
                     request was served at cycle {}",
                    o.id,
                    trace.requests[i].deadline,
                    at
                );
            }
        }
    }
}
