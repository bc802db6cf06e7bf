//! The `icoil` command-line interface.
//!
//! ```text
//! icoil run       --method co --difficulty easy --seed 7 [--ascii] [--model FILE]
//! icoil evaluate  --method icoil --difficulty normal --episodes 20 [--model FILE]
//! icoil train     --episodes 8 --epochs 15 --rounds 1 --out artifacts/il_model.json
//! icoil plan      --difficulty easy --seed 3
//! ```
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency set at the sanctioned offline crates.

use icoil::core::{artifacts, eval, ICoilConfig, Method};
use icoil::il::IlModel;
use icoil::planner::{plan as hybrid_plan, PlannerConfig, PlanningProblem};
use icoil::world::episode::EpisodeConfig;
use icoil::world::{render_trace, Difficulty, MapKind, ParkingStats, ScenarioConfig, World};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, options)) = parse_args(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "run" => cmd_run(&options),
        "evaluate" => cmd_evaluate(&options),
        "train" => cmd_train(&options),
        "plan" => cmd_plan(&options),
        _ => Err(format!("unknown command `{command}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
icoil — scenario-aware autonomous parking

USAGE:
  icoil run      --method co|il|icoil --difficulty easy|normal|hard --seed N
                 [--map mocam|compact|parallel] [--model FILE] [--max-time SECS] [--ascii]
  icoil evaluate --method co|il|icoil --difficulty D --episodes N [--model FILE]
                 [--parallelism W]  (default: ICOIL_PARALLELISM or core count)
  icoil train    [--episodes N] [--epochs E] [--rounds R] [--out FILE]
  icoil plan     --difficulty D --seed N";

/// Splits `cmd --key value --key value …` into the command name and an
/// option map. Returns `None` when the shape is wrong.
fn parse_args(args: &[String]) -> Option<(String, HashMap<String, String>)> {
    let mut it = args.iter();
    let command = it.next()?.clone();
    let mut options = HashMap::new();
    while let Some(key) = it.next() {
        let key = key.strip_prefix("--")?;
        if key == "ascii" {
            options.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it.next()?;
        options.insert(key.to_string(), value.clone());
    }
    Some((command, options))
}

fn get_difficulty(options: &HashMap<String, String>) -> Result<Difficulty, String> {
    match options.get("difficulty").map(String::as_str) {
        None | Some("easy") => Ok(Difficulty::Easy),
        Some("normal") => Ok(Difficulty::Normal),
        Some("hard") => Ok(Difficulty::Hard),
        Some(other) => Err(format!("unknown difficulty `{other}`")),
    }
}

fn get_map(options: &HashMap<String, String>) -> Result<MapKind, String> {
    match options.get("map").map(String::as_str) {
        None | Some("mocam") => Ok(MapKind::Mocam),
        Some("compact") => Ok(MapKind::Compact),
        Some("parallel") => Ok(MapKind::Parallel),
        Some(other) => Err(format!("unknown map `{other}`")),
    }
}

fn get_method(options: &HashMap<String, String>) -> Result<Method, String> {
    match options.get("method").map(String::as_str) {
        Some("co") | None => Ok(Method::Co),
        Some("il") => Ok(Method::Il),
        Some("icoil") => Ok(Method::ICoil),
        Some(other) => Err(format!("unknown method `{other}`")),
    }
}

fn get_u64(options: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("`--{key}` expects an integer")),
    }
}

fn get_f64(options: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match options.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("`--{key}` expects a number")),
    }
}

/// Loads the model for IL-dependent methods; CO runs without one.
fn load_model(options: &HashMap<String, String>, method: Method) -> Result<IlModel, String> {
    let path = options
        .get("model")
        .map(String::as_str)
        .unwrap_or("artifacts/il_model.json");
    if method == Method::Co {
        // placeholder model: never consulted by the CO policy
        return Ok(IlModel::untrained(
            icoil::vehicle::ActionCodec::default(),
            ICoilConfig::default().bev,
            0,
        ));
    }
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read model `{path}` ({e}); train one with `icoil train`"))?;
    IlModel::from_json(&json).map_err(|e| format!("model `{path}` is corrupt: {e}"))
}

fn cmd_run(options: &HashMap<String, String>) -> Result<(), String> {
    let difficulty = get_difficulty(options)?;
    let method = get_method(options)?;
    let seed = get_u64(options, "seed", 0)?;
    let max_time = get_f64(options, "max-time", 60.0)?;
    let model = load_model(options, method)?;
    let config = ICoilConfig::default();
    let sc = ScenarioConfig::new(difficulty, seed).with_map(get_map(options)?);
    let episode = EpisodeConfig {
        max_time,
        record_trace: true,
    };
    let result = eval::run_one(method, &config, &model, &sc, &episode);
    println!(
        "{method} on {difficulty} seed {seed}: {} after {:.1} s ({:.1} m driven)",
        result.outcome, result.parking_time, result.path_length
    );
    if options.contains_key("ascii") {
        let world = World::new(sc.build());
        println!("{}", render_trace(&world, &result.trace, 90));
    }
    Ok(())
}

fn cmd_evaluate(options: &HashMap<String, String>) -> Result<(), String> {
    let difficulty = get_difficulty(options)?;
    let method = get_method(options)?;
    let episodes = get_u64(options, "episodes", 20)?;
    // --parallelism overrides ICOIL_PARALLELISM / the detected core count;
    // results are bit-identical at any setting.
    let eval_config = match options.get("parallelism") {
        None => eval::EvalConfig::from_env(),
        Some(v) => {
            let workers: usize = v
                .parse()
                .map_err(|_| "`--parallelism` expects an integer".to_string())?;
            eval::EvalConfig::with_parallelism(workers)
        }
    };
    let model = load_model(options, method)?;
    let config = ICoilConfig::default();
    let scenario_configs: Vec<ScenarioConfig> = (0..episodes)
        .map(|s| ScenarioConfig::new(difficulty, s))
        .collect();
    let results = eval::run_batch_with(
        method,
        &config,
        &model,
        &scenario_configs,
        &EpisodeConfig {
            max_time: 60.0,
            record_trace: false,
        },
        &eval_config,
    );
    let stats = ParkingStats::from_results(&results);
    println!(
        "{method} on {difficulty} ({episodes} episodes, {} worker(s)): {stats}",
        eval_config.parallelism
    );
    Ok(())
}

fn cmd_train(options: &HashMap<String, String>) -> Result<(), String> {
    let episodes = get_u64(options, "episodes", 8)?;
    let epochs = get_u64(options, "epochs", 15)? as usize;
    let rounds = get_u64(options, "rounds", 1)? as usize;
    let default_out = "artifacts/il_model.json".to_string();
    let out = options.get("out").unwrap_or(&default_out);
    println!("training: {episodes} expert episodes, {epochs} epochs, {rounds} DAgger round(s)");
    let model = if rounds == 0 {
        artifacts::train_default_model(episodes, epochs)
    } else {
        artifacts::train_dagger_model(episodes, epochs, rounds)
    };
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, model.to_json()).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_plan(options: &HashMap<String, String>) -> Result<(), String> {
    let difficulty = get_difficulty(options)?;
    let seed = get_u64(options, "seed", 0)?;
    let scenario = ScenarioConfig::new(difficulty, seed)
        .with_map(get_map(options)?)
        .build();
    let obstacles = scenario.static_footprints();
    let problem = PlanningProblem {
        start: scenario.start_state.pose,
        goal: scenario.map.goal_pose(),
        bounds: scenario.map.bounds(),
        obstacles: &obstacles,
        vehicle: &scenario.vehicle_params,
        safety_margin: 0.3,
    };
    let path = hybrid_plan(&problem, &PlannerConfig::default()).map_err(|e| e.to_string())?;
    println!(
        "planned {:.1} m with {} gear change(s) from {} to {}",
        path.length(),
        path.direction_switches(),
        scenario.start_state.pose,
        scenario.map.goal_pose()
    );
    for (pose, dir) in path.poses.iter().zip(&path.directions).step_by(8) {
        println!(
            "  ({:5.1}, {:5.1}) {:+5.2}  {}",
            pose.x,
            pose.y,
            pose.theta,
            if *dir > 0.0 { "fwd" } else { "rev" }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_command_and_options() {
        let (cmd, opts) =
            parse_args(&args(&["run", "--seed", "7", "--method", "co", "--ascii"])).unwrap();
        assert_eq!(cmd, "run");
        assert_eq!(opts["seed"], "7");
        assert_eq!(opts["method"], "co");
        assert_eq!(opts["ascii"], "true");
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_args(&args(&[])).is_none());
        assert!(parse_args(&args(&["run", "seed", "7"])).is_none()); // missing --
        assert!(parse_args(&args(&["run", "--seed"])).is_none()); // missing value
    }

    #[test]
    fn difficulty_and_method_parsing() {
        let mut o = HashMap::new();
        assert_eq!(get_difficulty(&o).unwrap(), Difficulty::Easy);
        o.insert("difficulty".into(), "hard".into());
        assert_eq!(get_difficulty(&o).unwrap(), Difficulty::Hard);
        o.insert("difficulty".into(), "extreme".into());
        assert!(get_difficulty(&o).is_err());
        let mut o = HashMap::new();
        o.insert("method".into(), "icoil".into());
        assert_eq!(get_method(&o).unwrap(), Method::ICoil);
    }

    #[test]
    fn numeric_parsing_defaults_and_errors() {
        let mut o = HashMap::new();
        assert_eq!(get_u64(&o, "episodes", 20).unwrap(), 20);
        o.insert("episodes".into(), "7".into());
        assert_eq!(get_u64(&o, "episodes", 20).unwrap(), 7);
        o.insert("episodes".into(), "x".into());
        assert!(get_u64(&o, "episodes", 20).is_err());
    }
}
