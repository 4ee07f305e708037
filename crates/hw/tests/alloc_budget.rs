//! Allocation budgets of the story, query and training hot paths.
//!
//! After warm-up, `Accelerator::answer_query` allocates a fixed number of
//! buffers per query, independent of the embedding width `E`, of the
//! class count and of the story length: no per-row, per-column or
//! per-dot-product temporaries, no per-hop operand copies, and no
//! per-query MEM module or exp LUT; with the candidate index armed, the
//! count is pinned per story length. `Accelerator::write_story` allocates
//! the two memory tables of the story, each sized once, and nothing per
//! sentence, and no exp LUT copy; with the candidate index armed, its
//! build adds a fixed number of buffers, again none per sentence. A warm
//! `train_step` allocates nothing at all. Unlike host time, an allocation
//! count is deterministic, so it guards the hot paths exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use mann_babi::{DatasetBuilder, EncodedSample, TaskId};
use mann_hw::{AccelConfig, Accelerator, MemIndexConfig};
use mann_ith::threshold::ClassThreshold;
use mann_ith::{Kernel, ThresholdingModel};
use memn2n::{
    train_step, ControllerKind, Gradients, ModelConfig, Params, TrainConfig, TrainedModel, Trainer,
    Workspace,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations made by this thread; tests run on parallel threads and
    /// must not see each other's.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread. The default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count too.
struct CountingAlloc;

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a thread-local
// `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// An accelerator for an `E`-wide model with `classes` output rows,
/// optionally behind a thresholding plan that never fires (so every class
/// row is still evaluated), with the given candidate index.
fn accelerator(
    embed_dim: usize,
    classes: usize,
    thresholded: bool,
    mem_index: MemIndexConfig,
) -> Accelerator {
    let params = Params::init(
        ModelConfig {
            embed_dim,
            hops: 3,
            tie_embeddings: false,
            ..ModelConfig::default()
        },
        classes,
        &mut StdRng::seed_from_u64(3),
    );
    let model = TrainedModel {
        task: TaskId::SingleSupportingFact,
        params,
        encoder: mann_babi::Encoder::with_time_tokens(mann_babi::Vocab::new(), 0),
    };
    let ith = thresholded.then(|| ThresholdingModel {
        thresholds: vec![ClassThreshold { theta: None }; classes],
        order: (0..classes).collect(),
        silhouettes: vec![0.0; classes],
        rho: 1.0,
        kernel: Kernel::Epanechnikov,
    });
    Accelerator::new(
        model,
        AccelConfig {
            ith,
            mem_index,
            ..AccelConfig::default()
        },
    )
}

/// A sample whose story has `sentences` sentences.
fn sample(sentences: usize) -> EncodedSample {
    let pattern = [vec![1, 2, 3], vec![0, 3], vec![2, 1, 1, 0]];
    EncodedSample {
        sentences: pattern.iter().cycle().take(sentences).cloned().collect(),
        question: vec![3, 1],
        answer: 0,
    }
}

/// Allocations of one warmed-up hit-form query on an `E`-wide model with
/// `classes` output rows over a story of `sentences` sentences, optionally
/// behind a thresholding plan that never fires, with the given candidate
/// index.
fn query_allocations(
    embed_dim: usize,
    classes: usize,
    sentences: usize,
    thresholded: bool,
    mem_index: MemIndexConfig,
) -> u64 {
    let accel = accelerator(embed_dim, classes, thresholded, mem_index);
    let sample = sample(sentences);
    let story = accel.write_story(&sample);
    black_box(accel.answer_query(&story, &sample));
    allocations_during(|| {
        black_box(accel.answer_query(black_box(&story), black_box(&sample)));
    })
}

/// Allocations of one warm query today: the key, the controller output,
/// the attention and the read vector, each reused across hops. The scaling
/// check alone would pass a constant per-query addition, such as a MEM
/// module and its exp LUT built for every inference instead of once per
/// loadout, or an `f32` copy of a vector one module hands the next.
const QUERY_ALLOCATION_CEILING: u64 = 4;

#[test]
fn answer_query_allocations_do_not_grow_with_width_classes_or_story() {
    for thresholded in [false, true] {
        let base = query_allocations(4, 8, 3, thresholded, MemIndexConfig::default());
        assert!(
            base <= QUERY_ALLOCATION_CEILING,
            "{base} allocations per query, ceiling {QUERY_ALLOCATION_CEILING} \
             (thresholded = {thresholded})"
        );
        for sentences in [1, 3, 40] {
            for (embed_dim, classes) in [(4, 8), (32, 8), (4, 64), (48, 96)] {
                assert_eq!(
                    query_allocations(
                        embed_dim,
                        classes,
                        sentences,
                        thresholded,
                        MemIndexConfig::default()
                    ),
                    base,
                    "E = {embed_dim}, classes = {classes}, sentences = {sentences}, \
                     thresholded = {thresholded}"
                );
            }
        }
    }
}

/// Allocations of one warm indexed query (`k = 4`, `nprobe = 2`, zero
/// band, `E = 16`, 3 hops) per story length. Each hop allocates the
/// probe's centroid scores, its centroid order and its candidate list, and
/// the candidates' scores and flags: 15 over the three hops, beside the
/// key, controller output, attention and read vector of every query and
/// the flags buffer. The candidate list, gathered from the two probed
/// clusters' members, grows once on a hop whose second cluster overflows
/// the list's first allocation: two of the three hops from 8 sentences on.
/// Nothing else depends on the story length, so a per-candidate or per-hop
/// copy would add to the count.
const INDEXED_QUERY_ALLOCATIONS: [(usize, u64); 5] =
    [(4, 20), (8, 22), (16, 22), (40, 22), (160, 22)];

#[test]
fn indexed_answer_query_allocations_are_pinned() {
    for (sentences, budget) in INDEXED_QUERY_ALLOCATIONS {
        assert_eq!(
            query_allocations(
                16,
                8,
                sentences,
                false,
                MemIndexConfig::with_params(4, 2, 0.0)
            ),
            budget,
            "sentences = {sentences}"
        );
    }
}

/// Allocations of one warm `write_story` of a `sentences`-sentence story
/// on an `E`-wide model with the given candidate index.
fn story_allocations(embed_dim: usize, sentences: usize, mem_index: MemIndexConfig) -> u64 {
    let accel = accelerator(embed_dim, 8, false, mem_index);
    let sample = sample(sentences);
    black_box(accel.write_story(&sample));
    allocations_during(|| {
        black_box(accel.write_story(black_box(&sample)));
    })
}

/// Allocations of a warm story: the flat address and content tables, each
/// sized once for the whole story. Each sentence's embedding sums
/// accumulate in its table row, so a sentence allocates nothing; a copy of
/// the MEM module's exp LUT per story would add one.
const STORY_ALLOCATIONS: u64 = 2;

#[test]
fn write_story_allocations_are_a_pinned_constant() {
    for embed_dim in [4, 48] {
        for sentences in [1, 2, 5, 40] {
            assert_eq!(
                story_allocations(embed_dim, sentences, MemIndexConfig::default()),
                STORY_ALLOCATIONS,
                "E = {embed_dim}, sentences = {sentences}"
            );
        }
    }
}

/// Allocations of a warm story with the candidate index armed: the two
/// tables, plus the index build's working buffers (the `f32` centroids,
/// the slot assignment and the cluster counts) and the index it keeps (the
/// stored centroids, the member slots and their group starts). The build
/// clusters the stored address rows in place, so neither depends on the
/// sentence count; a copy of each row would add one per sentence.
const INDEXED_STORY_ALLOCATIONS: u64 = STORY_ALLOCATIONS + 6;

#[test]
fn indexed_write_story_allocations_are_a_pinned_constant() {
    for sentences in [4, 8, 16, 40] {
        assert_eq!(
            story_allocations(16, sentences, MemIndexConfig::with_params(4, 2, 0.0)),
            INDEXED_STORY_ALLOCATIONS,
            "sentences = {sentences}"
        );
    }
}

/// Allocations of one pass of warm SGD steps over task 1's training set
/// (stories of 4 to 8 sentences) on an `embed_dim`-wide, `hops`-hop model,
/// with or without a momentum velocity. A first pass grows the workspace
/// to the longest story.
fn train_pass_allocations(
    controller: ControllerKind,
    embed_dim: usize,
    hops: usize,
    momentum: bool,
) -> u64 {
    let data = DatasetBuilder::new()
        .train_samples(150)
        .test_samples(1)
        .seed(7)
        .build_task(TaskId::SingleSupportingFact);
    let model = ModelConfig {
        embed_dim,
        hops,
        tie_embeddings: false,
        controller,
    };
    let trainer = Trainer::from_task_data(&data, model, TrainConfig::default());
    let mut params = trainer.as_model().params;
    let mut ws = Workspace::for_params(&params);
    let mut velocity = momentum.then(|| Gradients::zeros(&params));
    let mut pass = |params: &mut Params| {
        for sample in trainer.train_set() {
            let v = velocity.as_mut();
            black_box(train_step(params, sample, &mut ws, v, 0.9, 0.05, 40.0));
        }
    };
    pass(&mut params);
    allocations_during(|| pass(&mut params))
}

#[test]
fn warm_train_steps_do_not_allocate() {
    for controller in [ControllerKind::Linear, ControllerKind::Gru] {
        for (embed_dim, hops) in [(20, 1), (50, 3)] {
            for momentum in [false, true] {
                assert_eq!(
                    train_pass_allocations(controller, embed_dim, hops, momentum),
                    0,
                    "{controller:?}, E = {embed_dim}, {hops} hops, momentum = {momentum}"
                );
            }
        }
    }
}
