//! Per-layer counts taken from the stack's public return values, and the
//! per-layer metrics every workload reports from its traced pass.

use crate::report::Report;
use crate::stats::{mean, percentile, share};
use crate::trace::{Layer, LayerTable};
use icoil_co::{CoController, CoOutput, MPC_QP_MAX_ITERS};
use icoil_il::IlModel;
use icoil_nn::layer::LayerKind;
use icoil_nn::Tensor;
use icoil_perception::BevImage;
use icoil_solver::Backend;

/// Counts gathered alongside the traced pass, one per worker, merged at
/// the end.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Frames decided.
    pub frames: u64,
    /// Frames HSA sent to CO.
    pub co_frames: u64,
    /// Boxes perception reported, summed over frames.
    pub boxes: u64,
    /// IL samples inferred one at a time.
    pub il_single_rows: u64,
    /// IL samples inferred inside batches.
    pub il_batch_rows: u64,
    /// IL-mode actions passed through the safety projection.
    pub projections: u64,
    /// Projections that changed the action.
    pub clipped: u64,
    /// CO frames that ran an MPC solve.
    pub solves: u64,
    /// ADMM iterations per solve.
    pub admm_iters: Vec<f64>,
    /// Solves whose every SCP pass used up the ADMM budget.
    pub capped: u64,
    /// Solves that fell back to a cold re-solve.
    pub cold_restarts: u64,
    /// SCP passes, summed over solves.
    pub scp_passes: u64,
    /// CO frames answered with the emergency brake.
    pub emergencies: u64,
    /// CO frames after which `CoController::path()` differed.
    pub replans: u64,
    /// `co.control` seconds on those frames.
    pub replan_secs: Vec<f64>,
    /// Numeric KKT factorizations, summed over solves.
    pub factorizations: u64,
    /// Whole-factorization cache reuses, summed over solves.
    pub factor_cache_hits: u64,
    /// Sparse symbolic analyses computed fresh, summed over solves.
    pub symbolic_rebuilds: u64,
    /// Regularization bumps, summed over solves.
    pub reg_bumps: u64,
    /// Solves on the sparse KKT backend.
    pub sparse: u64,
}

/// What identifies a planned path cheaply: a re-plan starts from the
/// current ego pose, so the first pose changes with every new path.
pub type PathKey = Option<(usize, u64, u64, u64)>;

/// The [`PathKey`] of the controller's current path.
pub fn path_key(co: &CoController) -> PathKey {
    co.path().map(|p| {
        let first = p.poses.first().copied().unwrap_or_default();
        (
            p.poses.len(),
            first.x.to_bits(),
            first.y.to_bits(),
            first.theta.to_bits(),
        )
    })
}

impl LayerCounts {
    /// Books one CO frame: its output, the `co.control` time and whether
    /// the global path changed during the call.
    pub fn co_frame(&mut self, out: &CoOutput, secs: f64, replanned: bool) {
        self.co_frames += 1;
        self.emergencies += u64::from(out.emergency);
        if replanned {
            self.replans += 1;
            self.replan_secs.push(secs);
        }
        if let Some(mpc) = &out.mpc {
            self.solves += 1;
            self.admm_iters.push(mpc.qp_iterations as f64);
            let passes = mpc.scp_passes as usize;
            self.capped += u64::from(passes > 0 && mpc.qp_iterations >= passes * MPC_QP_MAX_ITERS);
            self.cold_restarts += u64::from(mpc.cold_restarted);
            self.scp_passes += u64::from(mpc.scp_passes);
            let d = &mpc.diagnostics;
            self.factorizations += u64::from(d.factorizations);
            self.factor_cache_hits += u64::from(d.factor_cache_hits);
            self.symbolic_rebuilds += u64::from(d.symbolic_rebuilds);
            self.reg_bumps += u64::from(d.reg_bumps);
            self.sparse += u64::from(mpc.backend == Backend::Sparse);
        }
    }

    /// Adds another worker's counts.
    pub fn merge(&mut self, other: LayerCounts) {
        self.frames += other.frames;
        self.co_frames += other.co_frames;
        self.boxes += other.boxes;
        self.il_single_rows += other.il_single_rows;
        self.il_batch_rows += other.il_batch_rows;
        self.projections += other.projections;
        self.clipped += other.clipped;
        self.solves += other.solves;
        self.admm_iters.extend(other.admm_iters);
        self.capped += other.capped;
        self.cold_restarts += other.cold_restarts;
        self.scp_passes += other.scp_passes;
        self.emergencies += other.emergencies;
        self.replans += other.replans;
        self.replan_secs.extend(other.replan_secs);
        self.factorizations += other.factorizations;
        self.factor_cache_hits += other.factor_cache_hits;
        self.symbolic_rebuilds += other.symbolic_rebuilds;
        self.reg_bumps += other.reg_bumps;
        self.sparse += other.sparse;
    }
}

/// Floating-point operations of one IL forward pass, computed from the
/// network's layer shapes (2 per multiply-accumulate of every conv and
/// dense layer; activations and pooling are not counted).
pub fn il_flops_per_row(model: &IlModel) -> f64 {
    let mut model = model.clone();
    let size = model.bev_config().size;
    let mut x = Tensor::zeros(vec![1, BevImage::CHANNELS, size, size]);
    let mut flops = 0.0;
    for layer in model.network_mut().layers_mut() {
        let y = layer.forward(&x, false);
        let positions = match layer {
            LayerKind::Conv2d(_) => y.shape()[2] * y.shape()[3],
            LayerKind::Dense(_) => 1,
            _ => 0,
        };
        if positions > 0 {
            let weights = layer.params_grads()[0].0.len();
            flops += 2.0 * (weights * positions) as f64;
        }
        x = y;
    }
    flops
}

fn p50_us(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).map(|s| s * 1e6)
}

/// Sets every per-layer metric a traced pass measures the same way on
/// each workload. The serve metrics, `unattributed_share` and
/// `tracing_overhead` are the workload's own.
pub fn set_layer_metrics(
    report: &mut Report,
    table: &LayerTable,
    c: &LayerCounts,
    flops_per_row: f64,
) {
    let us = |layer: Layer| table.durations(layer);
    for (name, layer) in [
        ("perception.observe_p50_us", Layer::Perception),
        ("il.infer_p50_us", Layer::Il),
        ("hsa.update_p50_us", Layer::Hsa),
        ("adapt.project_p50_us", Layer::Adapt),
        ("co.control_p50_us", Layer::Co),
        ("world.step_p50_us", Layer::World),
    ] {
        report.set_pct(name, p50_us(us(layer)), us(layer).len());
    }
    report.set_pct(
        "co.control_p99_us",
        percentile(us(Layer::Co), 0.99).map(|s| s * 1e6),
        us(Layer::Co).len(),
    );
    report.set("perception.boxes_per_frame", share(c.boxes, c.frames));
    report.set(
        "il.batch_row_us",
        table.total_secs(Layer::IlBatch) * 1e6 / c.il_batch_rows.max(1) as f64,
    );
    let il_secs = table.total_secs(Layer::Il) + table.total_secs(Layer::IlBatch);
    let il_rows = (c.il_single_rows + c.il_batch_rows) as f64;
    report.set(
        "il.gflops",
        if il_secs > 0.0 {
            flops_per_row * il_rows / il_secs * 1e-9
        } else {
            0.0
        },
    );
    report.set("hsa.co_share", share(c.co_frames, c.frames));
    report.set("adapt.clip_share", share(c.clipped, c.projections));
    report.set("co.admm_iters_per_solve", mean(&c.admm_iters));
    report.set_pct(
        "co.admm_iters_p99",
        percentile(&c.admm_iters, 0.99),
        c.admm_iters.len(),
    );
    report.set("co.capped_solve_share", share(c.capped, c.solves));
    report.set("co.cold_restart_share", share(c.cold_restarts, c.solves));
    report.set("co.scp_passes_per_solve", share(c.scp_passes, c.solves));
    report.set("co.emergency_share", share(c.emergencies, c.co_frames));
    report.set("planner.replans", c.replans as f64);
    report.set("planner.replan_frame_us", mean(&c.replan_secs) * 1e6);
    report.set(
        "solver.factor_cache_hit_share",
        share(c.factor_cache_hits, c.factor_cache_hits + c.factorizations),
    );
    report.set(
        "solver.symbolic_rebuilds_per_solve",
        share(c.symbolic_rebuilds, c.solves),
    );
    report.set("solver.reg_bumps", c.reg_bumps as f64);
    report.set("solver.sparse_share", share(c.sparse, c.solves));
}

/// The per-layer self-time table, as note lines: calls, total self time
/// and share of the traced crate time.
pub fn self_time_notes(report: &mut Report, table: &LayerTable) {
    let total = table.crate_self_secs().max(1e-12);
    report.note("layer self time in the traced pass:".to_string());
    for layer in Layer::ALL {
        let calls = table.durations(layer).len();
        if calls == 0 {
            continue;
        }
        let secs = table.self_secs(layer);
        let share = if layer.is_crate_call() {
            format!("{:5.1}%", 100.0 * secs / total)
        } else {
            "  glue".to_string()
        };
        report.note(format!(
            "  {:<20} calls {:>8}  self {:>10.4} s  {share}",
            layer.name(),
            calls,
            secs
        ));
    }
}
