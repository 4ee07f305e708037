//! Dataset → training → calibration pipeline.

use mann_babi::{DatasetBuilder, EncodedSample, TaskData, TaskId};
use mann_ith::{ThresholdingCalibrator, ThresholdingModel};
use memn2n::{ModelConfig, TrainConfig, TrainedModel, Trainer};
use serde::{Deserialize, Serialize};

/// Configuration for building a multi-task suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteConfig {
    /// Which tasks to include (paper: all 20).
    pub tasks: Vec<TaskId>,
    /// Training samples per task.
    pub train_samples: usize,
    /// Test samples per task.
    pub test_samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Pin every story to this many sentences (0 keeps each task's default
    /// shape). Best-effort per task — task 1 honors it exactly, which is
    /// the large-memory workload for the addressing index.
    pub story_sentences: usize,
    /// Model architecture.
    pub model: ModelConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Thresholding confidence ρ (paper default 1.0).
    pub rho: f32,
}

impl Default for SuiteConfig {
    /// Paper-scale defaults: all 20 tasks, bAbI-sized splits.
    fn default() -> Self {
        Self {
            tasks: TaskId::all().to_vec(),
            train_samples: 1000,
            test_samples: 100,
            seed: 0,
            story_sentences: 0,
            model: ModelConfig::default(),
            train: TrainConfig::default(),
            rho: 1.0,
        }
    }
}

impl SuiteConfig {
    /// A reduced configuration that trains in seconds — used by tests,
    /// examples, and quick bench runs. Experiment *shapes* survive the
    /// scale-down; EXPERIMENTS.md reports the full-scale numbers.
    pub fn quick() -> Self {
        Self {
            tasks: TaskId::all().to_vec(),
            train_samples: 250,
            test_samples: 40,
            seed: 0,
            story_sentences: 0,
            model: ModelConfig {
                embed_dim: 24,
                hops: 2,
                tie_embeddings: false,
                ..ModelConfig::default()
            },
            train: TrainConfig {
                epochs: 18,
                learning_rate: 0.05,
                decay_every: 8,
                clip_norm: 40.0,
                seed: 0,
                ..TrainConfig::default()
            },
            rho: 1.0,
        }
    }
}

/// One task's trained artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedTask {
    /// The task.
    pub task: TaskId,
    /// Trained model + encoder.
    pub model: TrainedModel,
    /// Encoded training split (used by the calibration and Fig 2b).
    pub train_set: Vec<EncodedSample>,
    /// Encoded test split (the measured workload).
    pub test_set: Vec<EncodedSample>,
    /// Calibrated thresholding model at the suite's ρ.
    pub ith: ThresholdingModel,
    /// Test accuracy of the exact (exhaustive) model.
    pub test_accuracy: f32,
}

/// A trained multi-task suite — the input to every experiment runner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSuite {
    /// Per-task artifacts, in `config.tasks` order.
    pub tasks: Vec<TrainedTask>,
    /// The generating configuration.
    pub config: SuiteConfig,
}

impl TaskSuite {
    /// Generates data, trains, and calibrates every configured task.
    ///
    /// Tasks train concurrently on a work-stealing queue sized by
    /// [`crate::parallel::worker_threads`] (override with `MANN_THREADS`).
    /// Each task's build is seeded independently of scheduling, and results
    /// are collected in `config.tasks` order, so the suite is identical for
    /// any worker count — see [`TaskSuite::build_with_workers`].
    ///
    /// # Panics
    ///
    /// Panics if `config.tasks` is empty or the model config is invalid.
    pub fn build(config: &SuiteConfig) -> Self {
        Self::build_with_workers(config, crate::parallel::worker_threads(config.tasks.len()))
    }

    /// [`TaskSuite::build`] with an explicit worker count. `workers <= 1`
    /// builds sequentially; any count produces the same suite.
    ///
    /// # Panics
    ///
    /// Panics if `config.tasks` is empty or the model config is invalid.
    pub fn build_with_workers(config: &SuiteConfig, workers: usize) -> Self {
        assert!(!config.tasks.is_empty(), "suite needs at least one task");
        // Tasks are independent and vary widely in cost (story length,
        // vocabulary); the work-stealing queue keeps every worker busy
        // until the last task finishes.
        let tasks = crate::parallel::parallel_map_indexed(config.tasks.len(), workers, |i| {
            Self::build_task(config, config.tasks[i])
        });
        Self {
            tasks,
            config: config.clone(),
        }
    }

    fn build_task(config: &SuiteConfig, task: TaskId) -> TrainedTask {
        let data = DatasetBuilder::new()
            .train_samples(config.train_samples)
            .test_samples(config.test_samples)
            .seed(config.seed)
            .story_sentences(config.story_sentences)
            .build_task(task);
        let mut train_cfg = config.train;
        // Decorrelate per-task initialization while keeping determinism.
        train_cfg.seed = config.train.seed ^ (task.number() as u64) << 17;
        let mut trainer = Trainer::from_task_data(&data, config.model, train_cfg);
        // The report's test accuracy is this model's on this test set: the
        // workspace forward pass it ran agrees with a fresh one bit for bit.
        let test_accuracy = trainer.train().final_test_accuracy;
        let (model, train_set, test_set) = trainer.into_parts();
        let ith = ThresholdingCalibrator::new()
            .rho(config.rho)
            .calibrate(&model, &train_set);
        TrainedTask {
            task,
            model,
            train_set,
            test_set,
            ith,
            test_accuracy,
        }
    }

    /// Trains **one** model jointly over every configured task — the
    /// paper's actual setting (a single pre-trained model with a shared
    /// vocabulary serves all 20 tasks). The shared vocabulary makes `|I|`
    /// several times larger than any per-task vocabulary, which lengthens
    /// the sequential output layer and strengthens the inference-
    /// thresholding effect.
    ///
    /// Thresholds are calibrated once on the combined training set and
    /// shared across tasks, as Algorithm 1 prescribes for "the training
    /// dataset D".
    ///
    /// # Panics
    ///
    /// Panics if `config.tasks` is empty or the model config is invalid.
    pub fn build_joint(config: &SuiteConfig) -> Self {
        assert!(!config.tasks.is_empty(), "suite needs at least one task");
        let datas: Vec<TaskData> = config
            .tasks
            .iter()
            .map(|&task| {
                DatasetBuilder::new()
                    .train_samples(config.train_samples)
                    .test_samples(config.test_samples)
                    .seed(config.seed)
                    .story_sentences(config.story_sentences)
                    .build_task(task)
            })
            .collect();
        let combined = TaskData {
            task: config.tasks[0],
            train: datas.iter().flat_map(|d| d.train.iter().cloned()).collect(),
            test: datas.iter().flat_map(|d| d.test.iter().cloned()).collect(),
        };
        let mut trainer = Trainer::from_task_data(&combined, config.model, config.train);
        trainer.train();
        let (shared_model, joint_train_set, _) = trainer.into_parts();
        let shared_ith = ThresholdingCalibrator::new()
            .rho(config.rho)
            .calibrate(&shared_model, &joint_train_set);

        let tasks = datas
            .into_iter()
            .map(|data| {
                let (train_set, skipped_train) = shared_model.encoder.encode_all(&data.train);
                let (test_set, skipped_test) = shared_model.encoder.encode_all(&data.test);
                assert_eq!(
                    skipped_train + skipped_test,
                    0,
                    "shared vocab covers all tasks"
                );
                let mut model = shared_model.clone();
                model.task = data.task;
                let test_accuracy = model.accuracy(&test_set);
                TrainedTask {
                    task: data.task,
                    model,
                    train_set,
                    test_set,
                    ith: shared_ith.clone(),
                    test_accuracy,
                }
            })
            .collect();
        Self {
            tasks,
            config: config.clone(),
        }
    }

    /// Returns the suite with every task's embedding weights multiplied
    /// by `scale` — the numeric stress campaign for the fixed-point
    /// datapath. Large scales push embedding sums past the Q16.16
    /// saturation point (and, at extreme scales, past `f32` range, so
    /// quantization sees ±∞); `1.0` is the identity. Each task's
    /// `test_accuracy` is recomputed on the scaled model so the suite
    /// stays honest about what the stressed reference achieves.
    #[must_use]
    pub fn with_embedding_scale(mut self, scale: f32) -> Self {
        for t in &mut self.tasks {
            for m in [&mut t.model.params.w_emb_a, &mut t.model.params.w_emb_c] {
                for x in m.as_mut_slice() {
                    *x *= scale;
                }
            }
            t.test_accuracy = t.model.accuracy(&t.test_set);
        }
        self
    }

    /// Total number of test inferences across tasks.
    pub fn total_test_samples(&self) -> usize {
        self.tasks.iter().map(|t| t.test_set.len()).sum()
    }

    /// Mean exhaustive test accuracy across tasks.
    pub fn mean_accuracy(&self) -> f32 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(|t| t.test_accuracy).sum::<f32>() / self.tasks.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SuiteConfig {
        SuiteConfig {
            tasks: vec![TaskId::SingleSupportingFact, TaskId::AgentMotivations],
            train_samples: 150,
            test_samples: 15,
            seed: 3,
            story_sentences: 0,
            model: ModelConfig {
                embed_dim: 16,
                hops: 2,
                tie_embeddings: false,
                ..ModelConfig::default()
            },
            train: TrainConfig {
                epochs: 16,
                learning_rate: 0.06,
                decay_every: 7,
                clip_norm: 40.0,
                seed: 3,
                ..TrainConfig::default()
            },
            rho: 1.0,
        }
    }

    #[test]
    fn suite_builds_all_requested_tasks() {
        let suite = TaskSuite::build(&tiny_cfg());
        assert_eq!(suite.tasks.len(), 2);
        assert_eq!(suite.tasks[0].task, TaskId::SingleSupportingFact);
        assert_eq!(suite.total_test_samples(), 30);
        for t in &suite.tasks {
            assert_eq!(t.ith.classes(), t.model.params.vocab_size);
            assert!(!t.train_set.is_empty());
        }
    }

    #[test]
    fn learnable_task_reaches_usable_accuracy() {
        let suite = TaskSuite::build(&tiny_cfg());
        assert!(
            suite.tasks[1].test_accuracy > 0.5,
            "agent-motivations accuracy {}",
            suite.tasks[1].test_accuracy
        );
        assert!(suite.mean_accuracy() > 0.4);
        // The accuracy the training report carries is a fresh evaluation's.
        for t in &suite.tasks {
            assert_eq!(
                t.test_accuracy.to_bits(),
                t.model.accuracy(&t.test_set).to_bits()
            );
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = TaskSuite::build(&tiny_cfg());
        let b = TaskSuite::build(&tiny_cfg());
        assert_eq!(a.tasks[0].model, b.tasks[0].model);
        assert_eq!(a.tasks[0].ith, b.tasks[0].ith);
    }

    #[test]
    fn one_worker_and_many_workers_build_identical_suites() {
        let cfg = tiny_cfg();
        let sequential = TaskSuite::build_with_workers(&cfg, 1);
        for workers in [2, 4, 16] {
            let parallel = TaskSuite::build_with_workers(&cfg, workers);
            // Exact equality: same weights, same encoders, same thresholds,
            // same sample sets, bit for bit.
            assert_eq!(parallel, sequential, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_suite_rejected() {
        let mut cfg = tiny_cfg();
        cfg.tasks.clear();
        let _ = TaskSuite::build(&cfg);
    }

    #[test]
    fn joint_suite_shares_model_and_vocabulary() {
        let suite = TaskSuite::build_joint(&tiny_cfg());
        assert_eq!(suite.tasks.len(), 2);
        // One shared parameter set (identical weights), per-task labels.
        assert_eq!(suite.tasks[0].model.params, suite.tasks[1].model.params);
        assert_eq!(suite.tasks[0].model.task, TaskId::SingleSupportingFact);
        assert_eq!(suite.tasks[1].model.task, TaskId::AgentMotivations);
        // Shared vocabulary spans both tasks → larger |I| than either alone.
        let per_task = TaskSuite::build(&tiny_cfg());
        assert!(suite.tasks[0].model.params.vocab_size > per_task.tasks[0].model.params.vocab_size);
        // Shared thresholds.
        assert_eq!(suite.tasks[0].ith, suite.tasks[1].ith);
    }

    #[test]
    fn joint_model_still_learns_the_easy_task() {
        let mut cfg = tiny_cfg();
        cfg.train.epochs = 20;
        let suite = TaskSuite::build_joint(&cfg);
        let motivations = &suite.tasks[1];
        assert!(
            motivations.test_accuracy > 0.4,
            "joint accuracy {}",
            motivations.test_accuracy
        );
    }
}
