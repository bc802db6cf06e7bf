//! The fuzz loop: generate → check → (on divergence) shrink → report.

use crate::checks::{run_check, telemetry_snapshot, CheckKind, CheckSettings};
use crate::report::{DivergenceRecord, TriageReport};
use icoil_world::{shrink, MapFamilyKind, ProcGen, ProcGenConfig};

/// Configuration of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of scenarios to generate and check.
    pub cases: usize,
    /// First generator seed; case `i` uses `seed0 + i`.
    pub seed0: u64,
    /// Use the reduced smoke settings (shorter episodes, wider strides).
    pub smoke: bool,
    /// Also run the deliberately-failing canary check, to demonstrate
    /// the shrink-and-triage path end to end.
    pub inject: bool,
    /// Generator sampling ranges.
    pub gen: ProcGenConfig,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            cases: 200,
            seed0: 0,
            smoke: false,
            inject: false,
            gen: ProcGenConfig::default(),
        }
    }
}

/// How often each check runs, as a stride over the case index.
///
/// Cheap checks run on every scenario; episode-heavy ones are strided so
/// a 200-case campaign stays in CI-friendly wall-clock territory while
/// every check still sees a diverse scenario sample. The tallies in the
/// report make the striding visible rather than silent.
fn stride(kind: CheckKind, smoke: bool) -> usize {
    let base = match kind {
        CheckKind::QpWarmCold
        | CheckKind::Inference
        | CheckKind::BatchedSingleIl
        | CheckKind::HsaWindow
        | CheckKind::HsaGuard
        | CheckKind::InjectedCanary => 1,
        CheckKind::WarmColdMpc => 2,
        CheckKind::SimdScalarKernels => 2,
        CheckKind::Determinism => 5,
        CheckKind::Parallelism => 5,
        CheckKind::CheckpointRestoreReplay => 5,
        // two full-stack episodes per case
        CheckKind::FamilyDeterminism => 5,
        // two served episodes plus a stale-restore round trip per case
        CheckKind::WeightVersionPinning => 5,
    };
    if smoke && base > 1 {
        base * 2
    } else {
        base
    }
}

/// Runs the campaign and produces the triage report.
///
/// Every divergence is re-verified and then shrunk with the world
/// crate's deterministic shrinker: the minimized spec recorded in the
/// report still fails the same check.
pub fn run_fuzz(config: &FuzzConfig) -> TriageReport {
    run_fuzz_with_progress(config, |_, _| {})
}

/// [`run_fuzz`] with a progress callback `(case_index, cases)`.
pub fn run_fuzz_with_progress<P>(config: &FuzzConfig, mut progress: P) -> TriageReport
where
    P: FnMut(usize, usize),
{
    // With no family pinned, the campaign cycles the full matrix: case i
    // generates from family ALL[i % 6], so every family sees an even
    // share of every check (strides are coprime with nothing here — the
    // tallies in the report make the split visible). A pinned family
    // runs the whole campaign on that family alone.
    let generators: Vec<ProcGen> = match config.gen.family {
        Some(_) => vec![ProcGen::new(config.gen)],
        None => MapFamilyKind::ALL
            .into_iter()
            .map(|kind| {
                ProcGen::new(ProcGenConfig {
                    family: Some(kind),
                    ..config.gen
                })
            })
            .collect(),
    };
    let settings = if config.smoke {
        CheckSettings::smoke()
    } else {
        CheckSettings::default()
    };
    let mut checks: Vec<CheckKind> = CheckKind::ALL.to_vec();
    if config.inject {
        checks.push(CheckKind::InjectedCanary);
    }

    let mut report = TriageReport {
        cases: config.cases,
        seed0: config.seed0,
        smoke: config.smoke,
        checks: Vec::new(),
        divergences: Vec::new(),
        unexplained: 0,
    };

    for i in 0..config.cases {
        progress(i, config.cases);
        let seed = config.seed0 + i as u64;
        let spec = generators[i % generators.len()].generate(seed);
        for &kind in &checks {
            if i % stride(kind, config.smoke) != 0 {
                continue;
            }
            report.tally_mut(kind.name()).runs += 1;
            let Err(detail) = run_check(kind, &spec, &settings) else {
                continue;
            };
            report.tally_mut(kind.name()).divergences += 1;
            let minimized = shrink(&spec, |cand| run_check(kind, cand, &settings).is_err());
            let injected = kind == CheckKind::InjectedCanary;
            if !injected {
                report.unexplained += 1;
            }
            let telemetry = telemetry_snapshot(&minimized, &settings);
            report.divergences.push(DivergenceRecord {
                check: kind.name().to_string(),
                seed,
                detail,
                injected,
                shrunk_away: (
                    spec.statics.len() - minimized.statics.len(),
                    spec.routes.len() - minimized.routes.len(),
                ),
                scenario: spec.clone(),
                minimized,
                telemetry,
            });
        }
    }
    progress(config.cases, config.cases);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fuzz_is_clean_and_deterministic() {
        let config = FuzzConfig {
            cases: 2,
            seed0: 0,
            smoke: true,
            inject: false,
            gen: ProcGenConfig::default(),
        };
        let a = run_fuzz(&config);
        assert!(a.passed(), "unexpected divergences: {:?}", a.divergences);
        let b = run_fuzz(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_canary_is_caught_and_shrunk() {
        // pick a seed whose case-0 generator (family ALL[0] when no
        // family is pinned) yields a dynamic-obstacle scenario
        let gen = ProcGen::new(ProcGenConfig {
            family: Some(MapFamilyKind::ALL[0]),
            ..ProcGenConfig::default()
        });
        let seed0 = (0..500)
            .find(|&s| !gen.generate(s).routes.is_empty())
            .expect("a dynamic scenario exists");
        let config = FuzzConfig {
            cases: 1,
            seed0,
            smoke: true,
            inject: true,
            gen: ProcGenConfig::default(),
        };
        let report = run_fuzz(&config);
        // the canary must fire, be marked injected, and not fail the run
        assert!(report.passed(), "canary must not count as unexplained");
        let canary: Vec<_> = report
            .divergences
            .iter()
            .filter(|d| d.check == "injected_canary")
            .collect();
        assert_eq!(canary.len(), 1);
        let d = canary[0];
        assert!(d.injected);
        // minimized: exactly one route, nothing else left to remove
        assert_eq!(d.minimized.routes.len(), 1);
        assert!(d.minimized.statics.is_empty());
        assert_eq!(d.minimized.noise_scale, 0.0);
        assert_eq!(d.minimized.validity(), Ok(()));
        // the repro carries a telemetry snapshot with real solver context
        assert!(
            d.telemetry.iter().any(|(k, v)| k == "mpc_solves" && *v > 0),
            "telemetry snapshot attached: {:?}",
            d.telemetry
        );
    }
}
