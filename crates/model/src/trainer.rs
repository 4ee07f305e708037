//! SGD training loop.

use mann_babi::{EncodedSample, Encoder, TaskData, TaskId, Vocab};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::{forward, Gradients, ModelConfig, Params, Workspace};

/// One single-sample SGD step (forward, loss, backward, clip, apply),
/// returning the sample loss. Allocation-free once `ws` is warm; factored
/// out of [`Trainer::train`] so callers can drive the production step.
pub fn train_step(
    params: &mut Params,
    sample: &EncodedSample,
    ws: &mut Workspace,
    velocity: Option<&mut Gradients>,
    mu: f32,
    lr: f32,
    clip_norm: f32,
) -> f32 {
    ws.forward(params, sample);
    let loss = ws.loss(sample.answer);
    ws.grads.clear();
    ws.backward(params, sample);
    ws.grads.clip_to(clip_norm);
    match velocity {
        Some(v) => {
            v.blend_into(mu, &ws.grads);
            v.apply(params, lr);
        }
        None => ws.grads.apply(params, lr),
    }
    loss
}

/// Training hyper-parameters (original MemN2N recipe scaled down).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// Halve the learning rate every this many epochs (0 disables decay).
    pub decay_every: usize,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// Heavy-ball momentum coefficient (0 disables; 0.9 is the classic
    /// value and usually reaches the paper-era accuracies a few epochs
    /// sooner).
    pub momentum: f32,
    /// Seed for shuffling and weight initialization.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 40,
            learning_rate: 0.02,
            decay_every: 15,
            clip_norm: 40.0,
            momentum: 0.0,
            seed: 0,
        }
    }
}

/// Per-epoch training metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f32,
    /// Test accuracy after the final epoch.
    pub final_test_accuracy: f32,
}

/// A trained model bundled with the encoder that produced its inputs —
/// everything downstream consumers (thresholding calibration, the hardware
/// simulator, the platform models) need.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Which task the model was trained on.
    pub task: TaskId,
    /// The trained weights.
    pub params: Params,
    /// The encoder (vocabulary + temporal tokens) the weights assume.
    pub encoder: Encoder,
}

impl TrainedModel {
    /// Predicts the answer class of one encoded sample (Eq 6).
    pub fn predict(&self, sample: &EncodedSample) -> usize {
        forward(&self.params, sample).prediction()
    }

    /// Predicts using a reusable [`Workspace`] (allocation-free once warm).
    pub fn predict_with(&self, ws: &mut Workspace, sample: &EncodedSample) -> usize {
        ws.predict(&self.params, sample)
    }

    /// Fraction of samples predicted correctly.
    pub fn accuracy(&self, samples: &[EncodedSample]) -> f32 {
        let mut ws = Workspace::for_params(&self.params);
        self.accuracy_with(&mut ws, samples)
    }

    /// [`TrainedModel::accuracy`] with a caller-provided [`Workspace`].
    pub fn accuracy_with(&self, ws: &mut Workspace, samples: &[EncodedSample]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|s| self.predict_with(ws, s) == s.answer)
            .count();
        correct as f32 / samples.len() as f32
    }
}

/// Trains a memory network on one task's data.
#[derive(Debug, Clone)]
pub struct Trainer {
    task: TaskId,
    params: Params,
    encoder: Encoder,
    train_set: Vec<EncodedSample>,
    test_set: Vec<EncodedSample>,
    cfg: TrainConfig,
}

impl Trainer {
    /// Builds the vocabulary over both splits, encodes the data, and
    /// initializes a model.
    ///
    /// # Panics
    ///
    /// Panics if `data` has no training samples or the model config is
    /// invalid.
    pub fn from_task_data(data: &TaskData, model: ModelConfig, cfg: TrainConfig) -> Self {
        Self::from_task_data_with_time_tokens(data, model, cfg, Encoder::DEFAULT_TIME_TOKENS)
    }

    /// Like [`Trainer::from_task_data`] with an explicit temporal-token
    /// budget (0 disables the per-sentence age markers — the temporal
    /// encoding ablation).
    ///
    /// # Panics
    ///
    /// Panics if `data` has no training samples or the model config is
    /// invalid.
    pub fn from_task_data_with_time_tokens(
        data: &TaskData,
        model: ModelConfig,
        cfg: TrainConfig,
        time_tokens: usize,
    ) -> Self {
        assert!(!data.train.is_empty(), "no training samples");
        model.validate().expect("valid model config");
        let vocab =
            Vocab::from_samples(data.train.iter().chain(&data.test)).with_time_tokens(time_tokens);
        let encoder = Encoder::with_time_tokens(vocab, time_tokens);
        let (train_set, skipped_train) = encoder.encode_all(&data.train);
        let (test_set, skipped_test) = encoder.encode_all(&data.test);
        assert_eq!(skipped_train + skipped_test, 0, "vocab covers both splits");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let params = Params::init(model, encoder.vocab().len(), &mut rng);
        Self {
            task: data.task,
            params,
            encoder,
            train_set,
            test_set,
            cfg,
        }
    }

    /// The encoded training split.
    pub fn train_set(&self) -> &[EncodedSample] {
        &self.train_set
    }

    /// The encoded test split.
    pub fn test_set(&self) -> &[EncodedSample] {
        &self.test_set
    }

    /// Runs the configured number of epochs of single-sample SGD (with
    /// heavy-ball momentum when configured).
    ///
    /// All per-sample buffers (trace, gradients, loss gradient) live in one
    /// [`Workspace`] reused across samples and epochs, so the inner loop is
    /// allocation-free after the first few samples warm the buffers up.
    pub fn train(&mut self) -> TrainReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5347_4421);
        let mut lr = self.cfg.learning_rate;
        let mut order: Vec<usize> = (0..self.train_set.len()).collect();
        let mut epoch_losses = Vec::with_capacity(self.cfg.epochs);
        let mu = self.cfg.momentum;
        let mut velocity = (mu > 0.0).then(|| Gradients::zeros(&self.params));
        let mut ws = Workspace::for_params(&self.params);
        for epoch in 0..self.cfg.epochs {
            if self.cfg.decay_every > 0 && epoch > 0 && epoch % self.cfg.decay_every == 0 {
                lr *= 0.5;
            }
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0;
            for &i in &order {
                let sample = &self.train_set[i];
                loss_sum += train_step(
                    &mut self.params,
                    sample,
                    &mut ws,
                    velocity.as_mut(),
                    mu,
                    lr,
                    self.cfg.clip_norm,
                );
            }
            epoch_losses.push(loss_sum / self.train_set.len().max(1) as f32);
            debug_assert!(self.params.is_finite(), "weights diverged at epoch {epoch}");
        }
        let model = self.as_model();
        TrainReport {
            final_train_accuracy: model.accuracy_with(&mut ws, &self.train_set),
            final_test_accuracy: model.accuracy_with(&mut ws, &self.test_set),
            epoch_losses,
        }
    }

    /// Snapshot of the current weights as a [`TrainedModel`].
    pub fn as_model(&self) -> TrainedModel {
        TrainedModel {
            task: self.task,
            params: self.params.clone(),
            encoder: self.encoder.clone(),
        }
    }

    /// Consumes the trainer, returning the trained model and encoded splits.
    pub fn into_parts(self) -> (TrainedModel, Vec<EncodedSample>, Vec<EncodedSample>) {
        let model = TrainedModel {
            task: self.task,
            params: self.params,
            encoder: self.encoder,
        };
        (model, self.train_set, self.test_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mann_babi::DatasetBuilder;

    fn quick_cfg() -> (ModelConfig, TrainConfig) {
        (
            ModelConfig {
                embed_dim: 20,
                hops: 2,
                tie_embeddings: false,
                ..ModelConfig::default()
            },
            TrainConfig {
                epochs: 25,
                learning_rate: 0.05,
                decay_every: 10,
                clip_norm: 40.0,
                seed: 1,
                ..TrainConfig::default()
            },
        )
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let data = DatasetBuilder::new()
            .train_samples(150)
            .test_samples(30)
            .seed(5)
            .build_task(TaskId::SingleSupportingFact);
        let (m, t) = quick_cfg();
        let mut trainer = Trainer::from_task_data(&data, m, t);
        let report = trainer.train();
        let first = report.epoch_losses.first().copied().unwrap();
        let last = report.epoch_losses.last().copied().unwrap();
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn learns_single_supporting_fact_well() {
        let data = DatasetBuilder::new()
            .train_samples(300)
            .test_samples(60)
            .seed(6)
            .build_task(TaskId::SingleSupportingFact);
        let (m, t) = quick_cfg();
        let mut trainer = Trainer::from_task_data(&data, m, t);
        let report = trainer.train();
        assert!(
            report.final_test_accuracy > 0.75,
            "test accuracy {}",
            report.final_test_accuracy
        );
    }

    #[test]
    fn overfits_a_tiny_set() {
        let data = DatasetBuilder::new()
            .train_samples(10)
            .test_samples(2)
            .seed(7)
            .build_task(TaskId::AgentMotivations);
        let (m, mut t) = quick_cfg();
        t.epochs = 60;
        let mut trainer = Trainer::from_task_data(&data, m, t);
        let report = trainer.train();
        assert!(
            report.final_train_accuracy >= 0.9,
            "train accuracy {}",
            report.final_train_accuracy
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = DatasetBuilder::new()
            .train_samples(40)
            .test_samples(10)
            .seed(8)
            .build_task(TaskId::YesNoQuestions);
        let (m, mut t) = quick_cfg();
        t.epochs = 3;
        let r1 = Trainer::from_task_data(&data, m, t).train();
        let r2 = Trainer::from_task_data(&data, m, t).train();
        assert_eq!(r1, r2);
    }

    #[test]
    fn momentum_matches_plain_sgd_at_equal_effective_step() {
        // Heavy-ball with step lr and coefficient mu has asymptotic
        // effective step lr / (1 - mu); at that operating point it must
        // train comparably (and stay finite) on a learnable task.
        let data = DatasetBuilder::new()
            .train_samples(200)
            .test_samples(20)
            .seed(15)
            .build_task(TaskId::SingleSupportingFact);
        let (m, mut t) = quick_cfg();
        t.epochs = 8;
        let plain = Trainer::from_task_data(&data, m, t).train();
        t.momentum = 0.9;
        t.learning_rate /= 10.0;
        let with = Trainer::from_task_data(&data, m, t).train();
        let p_last = *plain.epoch_losses.last().expect("losses");
        let f_last = *with.epoch_losses.last().expect("losses");
        assert!(f_last.is_finite());
        assert!(
            f_last < p_last * 2.0 && f_last < 2.0,
            "momentum loss {f_last} vs plain {p_last}"
        );
        // And it must actually be descending.
        let f_first = *with.epoch_losses.first().expect("losses");
        assert!(f_last < f_first, "{f_first} -> {f_last}");
    }

    #[test]
    fn blend_into_implements_heavy_ball() {
        let data = DatasetBuilder::new()
            .train_samples(5)
            .test_samples(1)
            .seed(3)
            .build_task(TaskId::Counting);
        let (m, t) = quick_cfg();
        let trainer = Trainer::from_task_data(&data, m, t);
        let params = trainer.as_model().params;
        let mut v = Gradients::zeros(&params);
        let mut g = Gradients::zeros(&params);
        g.w_o[(0, 0)] = 2.0;
        v.blend_into(0.5, &g); // v = 0*0.5 + 2
        assert_eq!(v.w_o[(0, 0)], 2.0);
        v.blend_into(0.5, &g); // v = 2*0.5 + 2
        assert_eq!(v.w_o[(0, 0)], 3.0);
        g.w_o[(0, 0)] = 0.0;
        v.blend_into(0.5, &g); // pure decay
        assert_eq!(v.w_o[(0, 0)], 1.5);
    }

    #[test]
    fn momentum_velocity_respects_gru_weights() {
        // A GRU model trained with momentum must stay finite and learn.
        let data = DatasetBuilder::new()
            .train_samples(60)
            .test_samples(10)
            .seed(16)
            .build_task(TaskId::AgentMotivations);
        let cfg = ModelConfig {
            embed_dim: 12,
            hops: 2,
            tie_embeddings: false,
            controller: crate::ControllerKind::Gru,
        };
        let mut trainer = Trainer::from_task_data(
            &data,
            cfg,
            TrainConfig {
                epochs: 10,
                learning_rate: 0.01,
                momentum: 0.9,
                seed: 16,
                ..TrainConfig::default()
            },
        );
        let report = trainer.train();
        let first = report.epoch_losses.first().copied().unwrap();
        let last = report.epoch_losses.last().copied().unwrap();
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn trained_model_round_trips_through_serde() {
        let data = DatasetBuilder::new()
            .train_samples(20)
            .test_samples(5)
            .seed(9)
            .build_task(TaskId::Counting);
        let (m, mut t) = quick_cfg();
        t.epochs = 2;
        let mut trainer = Trainer::from_task_data(&data, m, t);
        trainer.train();
        let model = trainer.as_model();
        let json = serde_json::to_string(&model).unwrap();
        let back: TrainedModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
        // Predictions survive the round trip.
        let sample = trainer.test_set()[0].clone();
        assert_eq!(model.predict(&sample), back.predict(&sample));
    }
}
