//! Illustrates **Fig. 3**: the perception pipeline's artifacts — the
//! ego-centric BEV image `y_i = g(x_i)` and the detected bounding boxes
//! `z_i = h(y_i)` — for one frame, clean and under hard-level noise.
//!
//! (Fig. 3 in the paper shows camera images; our substrate starts at the
//! BEV stage, so this binary renders the BEV occupancy as ASCII shading
//! and lists the detected boxes.)
//!
//! ```text
//! cargo run --release -p icoil-bench --bin fig3
//! ```

use icoil_perception::{BevConfig, BevImage, Perception};
use icoil_world::episode::Observation;
use icoil_world::{Difficulty, NoiseConfig, ScenarioConfig, World};

fn shade(v: f32) -> char {
    match v {
        v if v < 0.1 => ' ',
        v if v < 0.35 => '.',
        v if v < 0.6 => ':',
        v if v < 0.85 => 'x',
        _ => '#',
    }
}

fn print_bev(image: &BevImage, title: &str) {
    println!(
        "\n## {title} (obstacle channel, {0}x{0} @ {1:.2} m/px; ego at center facing right)",
        image.size,
        2.0 * image.range / image.size as f64
    );
    for row in 0..image.size {
        let line: String = (0..image.size)
            .map(|col| shade(image.at(0, row, col)))
            .collect();
        println!("|{line}|");
    }
}

fn main() {
    // place the ego mid-lot where obstacles and the bay are in view
    let scenario = ScenarioConfig::new(Difficulty::Easy, 5).build();
    let mut world = World::new(scenario);
    world.set_ego(icoil_vehicle::VehicleState::at_rest(
        icoil_geom::Pose2::new(15.0, 9.0, 0.2),
    ));

    let mut perception = Perception::new(BevConfig::default(), world.scenario());
    let clean = perception.observe(&Observation::new(&world));
    print_bev(&clean.bev, "clean BEV");
    println!(
        "# goal-channel pixels set: {}",
        clean.bev.data[clean.bev.size * clean.bev.size..2 * clean.bev.size * clean.bev.size]
            .iter()
            .filter(|&&v| v > 0.5)
            .count()
    );
    println!("# detected boxes ({}):", clean.boxes.len());
    for b in &clean.boxes {
        println!(
            "#   center ({:5.1}, {:5.1})  {:.1} x {:.1}  heading {:+.2}",
            b.center.x,
            b.center.y,
            b.length(),
            b.width(),
            b.theta
        );
    }

    perception.set_noise(NoiseConfig::hard());
    let noisy = perception.observe(&Observation::new(&world));
    print_bev(&noisy.bev, "hard-level BEV (speckle + dropout)");
    println!("# detected boxes under noise ({}):", noisy.boxes.len());
    for b in &noisy.boxes {
        println!(
            "#   center ({:5.1}, {:5.1})  {:.1} x {:.1}  heading {:+.2}",
            b.center.x,
            b.center.y,
            b.length(),
            b.width(),
            b.theta
        );
    }
}
