//! Regenerates the **§V-E execution-frequency** measurement: the average
//! per-step rates of the IL inference and the CO solve (the paper reports
//! 75 Hz and 18 Hz on an i9 + RTX 3080).
//!
//! Absolute numbers differ on other hardware; the shape to reproduce is
//! IL being several times faster than CO, which is what makes the HSA
//! mode switching worthwhile.
//!
//! Both rates are timed over [`ROUNDS`] rounds and reported as median,
//! min and max. An IL round times [`IL_ITERS`] passes over one live BEV
//! image. A CO round starts from a fresh world and controller, plans the
//! path once untimed, then times [`CO_ITERS`] frames of the drive, so
//! every round solves the same frames.
//!
//! ```text
//! cargo run --release -p icoil-bench --bin freq
//! ```

use icoil_bench::{shared_model, RunSize};
use icoil_co::{CoConfig, CoController};
use icoil_perception::Perception;
use icoil_world::episode::Observation;
use icoil_world::{Difficulty, Scenario, ScenarioConfig, World};
use std::time::Instant;

/// Timed rounds per rate.
const ROUNDS: usize = 21;
/// IL passes per round.
const IL_ITERS: usize = 200;
/// CO frames per round.
const CO_ITERS: usize = 100;

/// One CO round: a fresh world and controller, one untimed warm-up
/// solve (the path plan), then `CO_ITERS` timed frames along the drive
/// (fresh constraints each frame, like the deployed system). Returns Hz.
fn co_round(scenario: &Scenario, config: &icoil_core::ICoilConfig) -> f64 {
    let mut perception = Perception::new(config.bev, scenario);
    let mut world = World::new(scenario.clone());
    let mut co = CoController::new(CoConfig::default(), scenario.vehicle_params);
    let sensing = perception.observe(&Observation::new(&world));
    let _ = co.control(&Observation::new(&world), &sensing.boxes);
    let t0 = Instant::now();
    for _ in 0..CO_ITERS {
        let s = perception.observe(&Observation::new(&world));
        let out = co.control(&Observation::new(&world), &s.boxes);
        world.step(&out.action);
    }
    CO_ITERS as f64 / t0.elapsed().as_secs_f64()
}

/// Median, min and max of a sample set.
fn summary(mut rates: Vec<f64>) -> (f64, f64, f64) {
    rates.sort_by(f64::total_cmp);
    (rates[rates.len() / 2], rates[0], rates[rates.len() - 1])
}

fn main() {
    let size = RunSize::from_env();
    let mut model = shared_model(&size);
    let config = icoil_core::ICoilConfig::default();
    let scenario = ScenarioConfig::new(Difficulty::Normal, 3).build();
    let bev = Perception::new(config.bev, &scenario)
        .observe(&Observation::new(&World::new(scenario.clone())))
        .bev;

    let mut il_rates = Vec::with_capacity(ROUNDS);
    let mut co_rates = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..IL_ITERS {
            let _ = model.infer(&bev);
        }
        il_rates.push(IL_ITERS as f64 / t0.elapsed().as_secs_f64());
        co_rates.push(co_round(&scenario, &config));
    }
    let (il, il_min, il_max) = summary(il_rates);
    let (co, co_min, co_max) = summary(co_rates);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!("# §V-E execution frequency (one thread; nproc = {nproc})");
    println!(
        "# {ROUNDS} rounds of {IL_ITERS} IL passes and {CO_ITERS} CO frames; median [min, max]"
    );
    println!("IL inference: {il:8.1} Hz  [{il_min:.1}, {il_max:.1}]");
    println!("CO solve:     {co:8.1} Hz  [{co_min:.1}, {co_max:.1}]");
    println!("ratio IL/CO:  {:8.1}x (of the medians)", il / co);
    println!("# paper reports 75 Hz vs 18 Hz (~4x) on i9 + RTX 3080");
}
