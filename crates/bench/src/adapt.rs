//! The online-adaptation (DAgger-style) serving loop shared by the
//! `loadgen` adapt phase, the `gen_demos` seeder and the `adapt_smoke`
//! gate.
//!
//! The flywheel: every CO-mode frame a running server answers is a free
//! expert label — the CO stack *is* the expert the IL network imitates.
//! The bench client keeps a **mirror world** per session (world,
//! perception pipeline, and a relabeling CO controller, all rebuilt from
//! the same scenario), so it can reconstruct bit-identically the BEV
//! image the server's IL lane saw each frame without any server-side
//! data path. CO-mode responses pair that BEV with the served (expert)
//! action; shed frames — where the server answered with a degraded full
//! brake instead of solving — are relabeled offline by running the
//! mirror's own CO controller on the mirrored state. Harvested frames
//! land in a per-family reservoir [`AdaptDataset`]; between generations
//! the retrainer warm-starts from the previous weights and the result is
//! published to the shared [`WeightStore`], which new sessions pin on
//! their next episode.

use crate::FamilyCoCounts;
use icoil_adapt::{AdaptDataset, LabelAggregator, WeightStore};
use icoil_co::CoController;
use icoil_il::TrainConfig;
use icoil_perception::Perception;
use icoil_serve::{Serve, ServeConfig, SessionSpec};
use icoil_telemetry::Metrics;
use icoil_vehicle::ActionCodec;
use icoil_world::episode::Observation;
use icoil_world::{MapFamilyKind, ProcGen, ProcGenConfig, Scenario, World};
use std::sync::Arc;

/// Run shape of one adaptation generation: which families to serve, how
/// many episodes each, and how the retraining between generations is
/// configured.
#[derive(Debug, Clone)]
pub struct AdaptOptions {
    /// Families to serve each generation (the bench phase uses the hard
    /// tail: `parallel_curb`, `dead_end_stub`, `crowded_lot`).
    pub families: Vec<MapFamilyKind>,
    /// Episodes per family per generation. Seeds are fixed per (family,
    /// episode) slot, so every generation replays the same scenario set
    /// and mode-share movement is attributable to the weights alone.
    pub sessions_per_family: u64,
    /// Frames stepped per episode.
    pub frames_per_session: u64,
    /// Base seed for the evaluation scenario set.
    pub seed: u64,
    /// Training passes per retraining round (cumulative across
    /// generations, since each round warm-starts from the last).
    pub epochs_per_generation: usize,
    /// Mini-batch size for retraining.
    pub batch_size: usize,
    /// Adam learning rate for retraining.
    pub lr: f32,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            families: vec![
                MapFamilyKind::ParallelCurb,
                MapFamilyKind::DeadEndStub,
                MapFamilyKind::CrowdedLot,
            ],
            sessions_per_family: 2,
            frames_per_session: 40,
            seed: 0x1C01_1AD0,
            epochs_per_generation: 8,
            batch_size: 16,
            lr: 3e-3,
        }
    }
}

impl AdaptOptions {
    /// The deterministic evaluation scenario for one (family, episode)
    /// slot — identical across generations by construction.
    pub fn scenario(&self, family: MapFamilyKind, episode: u64) -> Scenario {
        let gen = ProcGen::new(ProcGenConfig {
            family: Some(family),
            ..ProcGenConfig::default()
        });
        // disjoint seed blocks per family, mirroring the scenarios bin
        gen.generate(self.seed + family as u64 * 1000 + episode)
            .build()
    }

    /// The retraining configuration for one generation.
    pub fn train_config(&self, generation: u32) -> TrainConfig {
        // Label smoothing anneals across retraining rounds: the smoothed
        // target distribution sets the entropy floor the softmax
        // converges to, and the HSA gate reads exactly that entropy
        // (eq. 7) — so halving the smoothing each round strictly lowers
        // the floor and moves more frames below λ. Early rounds keep the
        // policy humble while the reservoir is thin; later rounds let
        // confidence sharpen as coverage grows.
        let label_smoothing = match generation {
            0 | 1 => 0.10,
            g => (0.04 / f32::powi(2.0, g as i32 - 2)).max(0.01),
        };
        TrainConfig {
            epochs: self.epochs_per_generation,
            batch_size: self.batch_size,
            lr: self.lr,
            // a fresh shuffle stream per generation, still deterministic
            seed: self.seed ^ u64::from(generation),
            label_smoothing,
        }
    }
}

/// What one serving generation measured, aggregated over every episode
/// of the generation's fixed evaluation scenario set.
#[derive(Debug, Clone)]
pub struct GenerationStats {
    /// The weight-store generation every session of this run pinned.
    pub weight_version: u32,
    /// Frames answered by the IL lane.
    pub il_frames: u64,
    /// Frames answered by the CO lane, solved or shed, per map family
    /// ([`FamilyCoCounts::zeroed`] layout).
    pub co_by_family: Vec<FamilyCoCounts>,
    /// Episodes that ended in a collision (the acceptance bar is zero).
    pub collisions: u64,
    /// Episodes that parked successfully within the stepped frames.
    pub successes: u64,
    /// Expert labels harvested into the dataset this generation.
    pub harvested: u64,
    /// The server's merged telemetry for the generation.
    pub metrics: Metrics,
}

impl GenerationStats {
    /// Frames answered by a CO solve.
    pub fn co_frames(&self) -> u64 {
        self.co_by_family.iter().map(|row| row.co_solved).sum()
    }

    /// Frames shed by the CO deadline lane (degraded full brake).
    pub fn shed_frames(&self) -> u64 {
        FamilyCoCounts::total_shed(&self.co_by_family)
    }

    /// Mode-tagged frames this generation served.
    pub fn tagged_frames(&self) -> u64 {
        self.il_frames + self.co_frames() + self.shed_frames()
    }

    /// Fraction of mode-tagged frames served by the IL lane.
    pub fn il_share(&self) -> f64 {
        self.il_frames as f64 / (self.tagged_frames() as f64).max(1.0)
    }

    /// Fraction of mode-tagged frames that cost a CO solve or a shed —
    /// the expert load the adaptation loop is meant to shrink.
    pub fn co_shed_share(&self) -> f64 {
        (self.co_frames() + self.shed_frames()) as f64 / (self.tagged_frames() as f64).max(1.0)
    }
}

/// The client-side twin of one served session: enough replayed state to
/// reconstruct the server's per-frame sensing (world + perception are
/// pure functions of the scenario and the executed actions) and to
/// relabel shed frames with a local CO expert.
struct Mirror {
    id: u64,
    family: MapFamilyKind,
    world: World,
    perception: Perception,
    expert: CoController,
    done: bool,
}

/// Serves one generation of the fixed evaluation scenario set against
/// `store`'s currently-published weights, harvesting every CO-mode and
/// shed frame into `aggregator`.
///
/// # Panics
///
/// Panics when the server refuses a session or a step, or when the
/// mirror world diverges from the served trajectory (which would mean
/// the harvested BEV images no longer match what the policy saw).
pub fn run_generation(
    store: &Arc<WeightStore>,
    config: &ServeConfig,
    opts: &AdaptOptions,
    aggregator: &mut LabelAggregator,
) -> GenerationStats {
    let server = Serve::start_with_store(*config, Arc::clone(store));
    let handle = server.handle();
    let mut mirrors: Vec<Mirror> = Vec::new();
    for &family in &opts.families {
        for episode in 0..opts.sessions_per_family {
            let scenario = opts.scenario(family, episode);
            let id = handle
                .create(SessionSpec::Scenario(Box::new(scenario.clone())))
                .expect("create adapt session");
            mirrors.push(Mirror {
                id,
                family,
                world: World::new(scenario.clone()),
                perception: Perception::new(config.icoil.bev, &scenario),
                expert: CoController::new(config.icoil.co, scenario.vehicle_params),
                done: false,
            });
        }
    }

    let mut stats = GenerationStats {
        weight_version: store.published(),
        il_frames: 0,
        co_by_family: FamilyCoCounts::zeroed(),
        collisions: 0,
        successes: 0,
        harvested: 0,
        metrics: Metrics::new(),
    };
    let harvested_before = aggregator.co_frames() + aggregator.shed_frames();
    for _ in 0..opts.frames_per_session {
        for mirror in mirrors.iter_mut().filter(|m| !m.done) {
            // sense BEFORE stepping: this is exactly the sensing the
            // server computes for the same frame index
            let sensing = mirror.perception.observe(&Observation::new(&mirror.world));
            let resp = handle.step(mirror.id).expect("step adapt session");
            assert_eq!(
                resp.weight_version, stats.weight_version,
                "adapt sessions must pin the generation published at creation"
            );
            if resp.mode == "DONE" {
                mirror.done = true;
                continue;
            }
            FamilyCoCounts::record(&mut stats.co_by_family, mirror.family, &resp);
            match (resp.mode.as_str(), resp.shed) {
                ("IL", _) => stats.il_frames += 1,
                ("CO", true) => {
                    // the served action is a degraded brake, not a label —
                    // relabel offline with the mirror's own CO expert
                    let out = mirror
                        .expert
                        .control(&Observation::new(&mirror.world), &sensing.boxes);
                    aggregator.record_shed_frame(mirror.family, &sensing.bev, &out.action);
                }
                ("CO", false) => {
                    // the served CO action IS the expert label for this BEV
                    aggregator.record_co_frame(mirror.family, &sensing.bev, &resp.action);
                }
                (other, _) => panic!("unexpected serve mode {other:?}"),
            }
            mirror.world.step(&resp.action);
            let ego = mirror.world.ego();
            assert!(
                ego.pose.x == resp.x && ego.pose.y == resp.y && ego.pose.theta == resp.heading,
                "mirror world diverged from the served trajectory at frame {}",
                resp.frame
            );
            if let Some(outcome) = &resp.outcome {
                mirror.done = true;
                match outcome.as_str() {
                    "collision" => stats.collisions += 1,
                    "success" => stats.successes += 1,
                    _ => {}
                }
            }
        }
    }
    stats.harvested = aggregator.co_frames() + aggregator.shed_frames() - harvested_before;
    stats.metrics = handle.metrics().expect("adapt metrics snapshot");
    server.shutdown();
    stats
}

/// Seeds a generation-0 dataset by running the CO expert closed-loop
/// over `episodes` procedurally generated scenarios of each family —
/// the `gen_demos` entry point. Every frame is harvested through the
/// same perception pipeline the server uses, so generation-0 samples
/// are distributionally identical to the online harvest.
///
/// Returns the number of frames offered per family (reservoir caps may
/// keep fewer).
pub fn seed_demos(
    config: &ServeConfig,
    opts: &AdaptOptions,
    episodes: u64,
    aggregator: &mut LabelAggregator,
) -> [u64; MapFamilyKind::ALL.len()] {
    let mut offered = [0u64; MapFamilyKind::ALL.len()];
    for family in MapFamilyKind::ALL {
        for episode in 0..episodes {
            let scenario = opts.scenario(family, 10_000 + episode);
            let mut world = World::new(scenario.clone());
            let mut perception = Perception::new(config.icoil.bev, &scenario);
            let mut expert = CoController::new(config.icoil.co, scenario.vehicle_params);
            if world.collision_cause().is_some() {
                continue;
            }
            for _ in 0..opts.frames_per_session {
                let sensing = perception.observe(&Observation::new(&world));
                let out = expert.control(&Observation::new(&world), &sensing.boxes);
                aggregator.record_co_frame(family, &sensing.bev, &out.action);
                offered[family.index()] += 1;
                world.step(&out.action);
                if world.collision_cause().is_some()
                    || world.at_goal()
                    || world.time() >= config.max_time
                {
                    break;
                }
            }
        }
    }
    offered
}

/// A fresh aggregator sized for the serving config's BEV geometry.
pub fn new_aggregator(config: &ServeConfig, cap_per_family: usize, seed: u64) -> LabelAggregator {
    LabelAggregator::new(
        ActionCodec::default(),
        AdaptDataset::for_bev(&config.icoil.bev, cap_per_family, seed),
    )
}

/// What a full adaptation phase produced: one [`GenerationStats`] per
/// serving generation (generation 0 runs the seed model) and the final
/// dataset size.
#[derive(Debug, Clone)]
pub struct AdaptPhaseOutcome {
    /// Per-generation serving statistics, generation 0 first.
    pub generations: Vec<GenerationStats>,
    /// Frames in the reservoir dataset after the last harvest.
    pub dataset_len: usize,
    /// Total frames ever offered to the reservoirs.
    pub dataset_seen: u64,
}

impl AdaptPhaseOutcome {
    /// Server telemetry merged across every generation.
    pub fn merged_metrics(&self) -> Metrics {
        let mut merged = Metrics::new();
        for g in &self.generations {
            merged.merge(&g.metrics);
        }
        merged
    }
}

/// Runs the complete adaptation flywheel: seed the dataset with expert
/// demonstrations ([`seed_demos`]), then alternate serving generations
/// (harvesting CO/shed frames) with retraining rounds that warm-start
/// from the previous weights and publish into `store`. `generations`
/// counts serving runs, so `generations = 3` performs two retraining
/// rounds — the paper-loop minimum for a trend.
///
/// # Panics
///
/// Panics when a serving run misbehaves (see [`run_generation`]) or a
/// retraining round sees an empty dataset.
pub fn run_adapt_phase(
    store: &Arc<WeightStore>,
    config: &ServeConfig,
    opts: &AdaptOptions,
    generations: usize,
    seed_episodes: u64,
    cap_per_family: usize,
) -> AdaptPhaseOutcome {
    let mut aggregator = new_aggregator(config, cap_per_family, opts.seed);
    seed_demos(config, opts, seed_episodes, &mut aggregator);
    let mut stats = Vec::with_capacity(generations);
    for generation in 0..generations {
        stats.push(run_generation(store, config, opts, &mut aggregator));
        if generation + 1 < generations {
            let prev = store.latest();
            let (model, _report) = icoil_adapt::retrain(
                &prev.model,
                aggregator.dataset(),
                &opts.train_config(generation as u32 + 1),
            );
            store.publish(model, aggregator.dataset().len() as u64);
        }
    }
    AdaptPhaseOutcome {
        dataset_len: aggregator.dataset().len(),
        dataset_seen: aggregator.dataset().seen(),
        generations: stats,
    }
}
