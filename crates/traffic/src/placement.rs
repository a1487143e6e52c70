//! Spatial partitioning: carving one chip's crossbars into per-model
//! partitions, and pricing each partition's service times.
//!
//! Crossbars are weight-stationary, so co-residency is *spatial*: each
//! model owns a slice of the chip's cores (and therefore crossbars) and
//! keeps its weights programmed there — no reprogramming between
//! requests of different tenants. A [`Placement`] records that carve;
//! [`Placement::balanced`] derives one from a trace (cores split
//! proportionally to the tenants' weights), and
//! [`price_placement`](crate::price_placement) compiles each model against
//! its partition ([`CimArchitecture::partition`]) to obtain the
//! integer-cycle `ServiceModel` the event loop charges per batch.

use crate::trace::{TraceError, TraceSpec};
use cim_arch::CimArchitecture;
use serde::{Deserialize, Serialize};

/// One model's slice of the chip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// The model resident in this partition (zoo name).
    pub model: String,
    /// Cores this partition owns.
    pub cores: u32,
}

/// A complete carve of a chip into per-model partitions.
///
/// Tenants map onto partitions by model: two traffic classes running
/// the same model share its partition (and its queue), which is what
/// makes priority- and deadline-ordering policies meaningful.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// The partitions, in first-tenant-seen order. Models are unique.
    pub partitions: Vec<Partition>,
}

impl Placement {
    /// Splits `arch`'s cores across the distinct models of `spec`,
    /// proportionally to the summed weights of the tenants running
    /// each model (largest-remainder rounding, every partition at
    /// least one core).
    ///
    /// # Errors
    /// Returns [`TraceError::InvalidSpec`] when the chip has fewer
    /// cores than the spec has distinct models.
    pub fn balanced(arch: &CimArchitecture, spec: &TraceSpec) -> Result<Self, TraceError> {
        // Distinct models in first-seen order, with summed weights.
        let mut models: Vec<(String, f64)> = Vec::new();
        for t in &spec.tenants {
            match models.iter_mut().find(|(m, _)| *m == t.model) {
                Some((_, w)) => *w += t.weight,
                None => models.push((t.model.clone(), t.weight)),
            }
        }
        let total_cores = arch.chip().core_count();
        if (models.len() as u64) > u64::from(total_cores) {
            return Err(TraceError::InvalidSpec(format!(
                "{} distinct model(s) cannot share a {total_cores}-core chip \
                 (each partition needs at least one core)",
                models.len()
            )));
        }
        let total_weight: f64 = models.iter().map(|(_, w)| w).sum();
        // Floor shares (minimum 1 core each), then hand out the
        // remaining cores by largest fractional remainder (ties to the
        // earlier model — deterministic).
        let mut shares: Vec<(usize, u32, f64)> = models
            .iter()
            .enumerate()
            .map(|(i, (_, w))| {
                let exact = f64::from(total_cores) * w / total_weight;
                let floor = (exact.floor() as u32).max(1);
                (i, floor, exact - exact.floor())
            })
            .collect();
        let mut used: u32 = shares.iter().map(|&(_, c, _)| c).sum();
        // Floors can overshoot when many tenants round up to 1; shave
        // from the largest shares first.
        while used > total_cores {
            let (_, cores, _) = shares
                .iter_mut()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .expect("at least one model");
            *cores -= 1;
            used -= 1;
        }
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&a, &b| {
            shares[b]
                .2
                .partial_cmp(&shares[a].2)
                .expect("remainders are finite")
                .then(a.cmp(&b))
        });
        let mut spare = total_cores - used;
        let mut next = 0usize;
        while spare > 0 {
            shares[order[next % order.len()]].1 += 1;
            spare -= 1;
            next += 1;
        }
        let partitions = models
            .into_iter()
            .zip(&shares)
            .map(|((model, _), &(_, cores, _))| Partition { model, cores })
            .collect();
        let placement = Placement { partitions };
        placement.validate(arch)?;
        Ok(placement)
    }

    /// Validates the carve against a chip: non-empty, unique models,
    /// every partition at least one core, and the total within the
    /// chip's core count.
    ///
    /// # Errors
    /// Returns [`TraceError::InvalidSpec`] naming the violation.
    pub fn validate(&self, arch: &CimArchitecture) -> Result<(), TraceError> {
        if self.partitions.is_empty() {
            return Err(TraceError::InvalidSpec(
                "placement has no partitions".into(),
            ));
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.cores == 0 {
                return Err(TraceError::InvalidSpec(format!(
                    "partition for model `{}` owns zero cores",
                    p.model
                )));
            }
            if self.partitions[..i].iter().any(|o| o.model == p.model) {
                return Err(TraceError::InvalidSpec(format!(
                    "model `{}` appears in two partitions",
                    p.model
                )));
            }
        }
        let used: u64 = self.partitions.iter().map(|p| u64::from(p.cores)).sum();
        let available = u64::from(arch.chip().core_count());
        if used > available {
            return Err(TraceError::InvalidSpec(format!(
                "placement uses {used} core(s) but `{}` has {available}",
                arch.name()
            )));
        }
        Ok(())
    }

    /// The partition index serving `model`, if any.
    #[must_use]
    pub fn partition_of(&self, model: &str) -> Option<usize> {
        self.partitions.iter().position(|p| p.model == model)
    }

    /// Fraction of the chip's cores this placement occupies.
    #[must_use]
    pub fn occupancy(&self, arch: &CimArchitecture) -> f64 {
        let used: u64 = self.partitions.iter().map(|p| u64::from(p.cores)).sum();
        used as f64 / f64::from(arch.chip().core_count().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{GeneratorKind, TenantSpec};
    use cim_arch::presets;

    fn spec_with(tenants: Vec<TenantSpec>) -> TraceSpec {
        TraceSpec {
            name: "t".into(),
            kind: GeneratorKind::Poisson,
            seed: 1,
            horizon: 1000,
            mean_gap: 10.0,
            burst_len: 8,
            idle_gap: 100.0,
            tenants,
        }
    }

    fn tenant(name: &str, model: &str, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            model: model.into(),
            weight,
            priority: 0,
            deadline: None,
        }
    }

    #[test]
    fn balanced_splits_cores_by_weight_and_uses_the_whole_chip() {
        let arch = presets::isaac_baseline();
        let total = arch.chip().core_count();
        let spec = spec_with(vec![tenant("a", "lenet5", 3.0), tenant("b", "mlp", 1.0)]);
        let p = Placement::balanced(&arch, &spec).unwrap();
        assert_eq!(p.partitions.len(), 2);
        let used: u32 = p.partitions.iter().map(|q| q.cores).sum();
        assert_eq!(used, total);
        assert!(p.partitions[0].cores > p.partitions[1].cores);
        assert!((p.occupancy(&arch) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tenants_sharing_a_model_share_a_partition() {
        let arch = presets::isaac_baseline();
        let spec = spec_with(vec![
            tenant("interactive", "lenet5", 1.0),
            tenant("batch", "lenet5", 1.0),
            tenant("other", "mlp", 2.0),
        ]);
        let p = Placement::balanced(&arch, &spec).unwrap();
        assert_eq!(p.partitions.len(), 2);
        assert_eq!(p.partition_of("lenet5"), Some(0));
        assert_eq!(p.partition_of("mlp"), Some(1));
        assert_eq!(p.partition_of("vgg7"), None);
    }

    #[test]
    fn validation_names_violations() {
        let arch = presets::isaac_baseline();
        let empty = Placement { partitions: vec![] };
        assert!(empty.validate(&arch).is_err());

        let zero = Placement {
            partitions: vec![Partition {
                model: "lenet5".into(),
                cores: 0,
            }],
        };
        assert!(zero
            .validate(&arch)
            .unwrap_err()
            .to_string()
            .contains("zero cores"));

        let over = Placement {
            partitions: vec![Partition {
                model: "lenet5".into(),
                cores: arch.chip().core_count() + 1,
            }],
        };
        assert!(over.validate(&arch).is_err());

        let dup = Placement {
            partitions: vec![
                Partition {
                    model: "lenet5".into(),
                    cores: 1,
                },
                Partition {
                    model: "lenet5".into(),
                    cores: 1,
                },
            ],
        };
        assert!(dup
            .validate(&arch)
            .unwrap_err()
            .to_string()
            .contains("two partitions"));
    }

    #[test]
    fn pricing_compiles_on_the_partition_slice() {
        let arch = presets::isaac_baseline();
        let part = |model: &str, cores| Partition {
            model: model.into(),
            cores,
        };
        let mut digital = cim_graph::Graph::new("digital");
        let shape = cim_graph::Shape::vec(8);
        let x = digital.add("x", cim_graph::OpKind::Input { shape }, []);
        digital
            .add("r", cim_graph::OpKind::Relu, [x.unwrap()])
            .unwrap();
        let models = vec![
            ("lenet5".to_owned(), cim_graph::zoo::lenet5()),
            ("digital".to_owned(), digital),
        ];
        let price = |partitions| {
            crate::price_placement(&arch, &Placement { partitions }, &models, None, 2)
                .map_err(|e| e.to_string())
        };
        let half = arch.chip().core_count() / 2;
        let m = &price(vec![part("lenet5", half)]).unwrap()[0];
        assert!(m.latency_cycles >= 1);
        assert!(m.interval_cycles >= 1);
        // Errors name the first failing partition; a missing graph wins.
        let err = price(vec![part("digital", 1), part("lenet5", 0)]).unwrap_err();
        assert!(
            err.starts_with("model `digital` failed to compile on its 1-core"),
            "{err}"
        );
        let err = price(vec![part("lenet5", 0), part("digital", 1)]).unwrap_err();
        assert!(err.starts_with("invalid partition for `lenet5`: "), "{err}");
        let err = price(vec![part("lenet5", 0), part("vgg7", 1)]).unwrap_err();
        assert_eq!(err, "no graph supplied for placed model `vgg7`");
    }
}
