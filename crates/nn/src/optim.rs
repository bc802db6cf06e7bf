//! Optimizers: SGD with momentum, and Adam.

use crate::Network;

/// A first-order optimizer stepping a [`Network`]'s parameters using the
/// gradients accumulated by the last backward pass(es).
///
/// Implementations keep per-parameter state (momentum / moment buffers)
/// keyed by the network's stable parameter order, so an optimizer must be
/// used with a single network for its lifetime.
pub trait Optimizer {
    /// Applies one update step; does **not** clear gradients (call
    /// [`Network::zero_grad`] afterwards).
    fn step(&mut self, net: &mut Network);
}

/// Stochastic gradient descent with classical momentum.
///
/// # Example
///
/// ```
/// use icoil_nn::optim::{Optimizer, Sgd};
/// use icoil_nn::{layer::LayerKind, loss, Network, Tensor};
///
/// let mut net = Network::new(vec![LayerKind::dense(1, 1, 0)]);
/// let x = Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap();
/// let mut opt = Sgd::new(0.1, 0.0);
/// let before = net.forward(&x, false).data()[0];
/// let logits = net.forward(&x, true);
/// net.backward(&Tensor::from_vec(vec![1, 1], vec![1.0]).unwrap());
/// opt.step(&mut net);
/// let after = net.forward(&x, false).data()[0];
/// assert!(after < before); // moved against the gradient
/// # let _ = logits;
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer with learning rate `lr` and momentum
    /// coefficient `momentum` (0 disables momentum).
    ///
    /// # Panics
    ///
    /// Panics for a non-positive learning rate or momentum outside
    /// `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Network) {
        let mut params = net.params_grads();
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
        }
        for (i, (p, g)) in params.iter_mut().enumerate() {
            let v = &mut self.velocity[i];
            for ((pv, gv), vv) in p.data_mut().iter_mut().zip(g.data()).zip(v.iter_mut()) {
                *vv = self.momentum * *vv - self.lr * gv;
                *pv += *vv;
            }
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β = (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics for a non-positive learning rate.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Network) {
        let mut params = net.params_grads();
        if self.m.len() != params.len() {
            self.m = params.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for (i, (p, g)) in params.iter_mut().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for (((pv, gv), mv), vv) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// A step learning-rate schedule: multiplies the learning rate by
/// `gamma` every `period` epochs.
///
/// # Example
///
/// ```
/// use icoil_nn::optim::StepLr;
///
/// let schedule = StepLr::new(1e-2, 10, 0.5);
/// assert_eq!(schedule.lr_at(0), 1e-2);
/// assert_eq!(schedule.lr_at(9), 1e-2);
/// assert_eq!(schedule.lr_at(10), 5e-3);
/// assert_eq!(schedule.lr_at(25), 2.5e-3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StepLr {
    base: f32,
    period: usize,
    gamma: f32,
}

impl StepLr {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive base rate, zero period, or a decay
    /// factor outside `(0, 1]`.
    pub fn new(base: f32, period: usize, gamma: f32) -> Self {
        assert!(base > 0.0, "base learning rate must be positive");
        assert!(period > 0, "decay period must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        StepLr {
            base,
            period,
            gamma,
        }
    }

    /// The learning rate for a given epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.base * self.gamma.powi((epoch / self.period) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;
    use crate::{loss, Tensor};

    fn quadratic_problem() -> (Network, Tensor, Vec<usize>) {
        // logistic regression on linearly separable points
        let x =
            Tensor::from_vec(vec![4, 2], vec![2.0, 0.1, 1.5, -0.2, -2.0, 0.3, -1.2, -0.1]).unwrap();
        let y = vec![0usize, 0, 1, 1];
        let net = Network::new(vec![LayerKind::dense(2, 2, 5)]);
        (net, x, y)
    }

    fn train<O: Optimizer>(
        mut net: Network,
        x: &Tensor,
        y: &[usize],
        opt: &mut O,
        iters: usize,
    ) -> f32 {
        for _ in 0..iters {
            let logits = net.forward(x, true);
            let (_, grad) = loss::cross_entropy(&logits, y);
            net.backward(&grad);
            opt.step(&mut net);
            net.zero_grad();
        }
        loss::cross_entropy(&net.forward(x, false), y).0
    }

    #[test]
    fn sgd_converges() {
        let (net, x, y) = quadratic_problem();
        let final_loss = train(net, &x, &y, &mut Sgd::new(0.5, 0.0), 200);
        assert!(final_loss < 0.05, "final loss {final_loss}");
    }

    #[test]
    fn momentum_accelerates() {
        let (net, x, y) = quadratic_problem();
        let plain = train(net.clone(), &x, &y, &mut Sgd::new(0.05, 0.0), 50);
        let momo = train(net, &x, &y, &mut Sgd::new(0.05, 0.9), 50);
        assert!(momo < plain, "momentum {momo} vs plain {plain}");
    }

    #[test]
    fn adam_converges() {
        let (net, x, y) = quadratic_problem();
        let final_loss = train(net, &x, &y, &mut Adam::new(0.05), 200);
        assert!(final_loss < 0.05, "final loss {final_loss}");
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0, 0.0);
    }

    #[test]
    fn step_lr_schedule_decays() {
        let sch = StepLr::new(0.1, 5, 0.1);
        assert_eq!(sch.lr_at(4), 0.1);
        assert!((sch.lr_at(5) - 0.01).abs() < 1e-9);
        assert!((sch.lr_at(14) - 0.001).abs() < 1e-8);
        // schedules drive set_lr on either optimizer
        let mut sgd = Sgd::new(sch.lr_at(0), 0.0);
        sgd.set_lr(sch.lr_at(5));
        let mut adam = Adam::new(sch.lr_at(0));
        adam.set_lr(sch.lr_at(5));
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        let _ = StepLr::new(0.1, 0, 0.5);
    }

    #[test]
    fn step_without_backward_is_noop() {
        let (mut net, x, _) = quadratic_problem();
        let before = net.forward(&x, false);
        let mut opt = Adam::new(0.1);
        net.zero_grad();
        opt.step(&mut net);
        let after = net.forward(&x, false);
        assert_eq!(before.data(), after.data());
    }
}
