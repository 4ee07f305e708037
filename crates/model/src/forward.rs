//! The forward pass (paper Eqs 1–6) with a full intermediate trace.

use mann_babi::EncodedSample;
use mann_linalg::activation::sigmoid;
use mann_linalg::{Matrix, Vector};

use crate::{GruParams, Params};

/// Per-hop intermediates of the GRU controller, retained for backprop.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GruTrace {
    /// Update gate `z = σ(W_z r + U_z k)`.
    pub z: Vector,
    /// Reset gate `g = σ(W_g r + U_g k)`.
    pub g: Vector,
    /// Gated state `g ⊙ k`.
    pub gk: Vector,
    /// Candidate `h̃ = tanh(W_h r + U_h (g ⊙ k))`.
    pub h_tilde: Vector,
}

/// Reusable scratch for the forward pass; every buffer is resized in place,
/// so a warm workspace runs [`forward_into`] without heap allocation.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// Column-sum embedding target (Eq 2).
    emb: Vector,
    /// Controller `W_r k` term (Eq 4) / GRU gate input term.
    wk: Vector,
    /// Second gate input term (GRU only).
    uk: Vector,
}

/// One GRU controller step: `h = (1-z) ⊙ k + z ⊙ h̃`, written into `h` and
/// `trace` (all buffers resized in place).
pub(crate) fn gru_step_into(
    gru: &GruParams,
    r: &Vector,
    k: &Vector,
    h: &mut Vector,
    trace: &mut GruTrace,
    s: &mut ForwardScratch,
) {
    gru.w_z.matvec_into(r, &mut s.wk).expect("gate width");
    gru.u_z.matvec_into(k, &mut s.uk).expect("gate width");
    trace.z.add_into(&s.wk, &s.uk).expect("same dim");
    for x in trace.z.iter_mut() {
        *x = sigmoid(*x);
    }
    gru.w_g.matvec_into(r, &mut s.wk).expect("gate width");
    gru.u_g.matvec_into(k, &mut s.uk).expect("gate width");
    trace.g.add_into(&s.wk, &s.uk).expect("same dim");
    for x in trace.g.iter_mut() {
        *x = sigmoid(*x);
    }
    trace.gk.hadamard_into(&trace.g, k).expect("same dim");
    gru.w_h.matvec_into(r, &mut s.wk).expect("gate width");
    gru.u_h
        .matvec_into(&trace.gk, &mut s.uk)
        .expect("gate width");
    trace.h_tilde.add_into(&s.wk, &s.uk).expect("same dim");
    for x in trace.h_tilde.iter_mut() {
        *x = x.tanh();
    }
    h.resize_zeroed(k.len());
    for (i, hv) in h.iter_mut().enumerate() {
        let zv = trace.z[i];
        *hv = (1.0 - zv) * k[i] + zv * trace.h_tilde[i];
    }
}

/// Every intermediate of one forward pass, retained for backprop, for
/// attention-trace demos, and for the hardware simulator's functional
/// cross-check.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForwardTrace {
    /// Address memory `M_a` (`L x E`, one row per sentence) — Eq 2.
    pub mem_a: Matrix,
    /// Content memory `M_c` (`L x E`) — Eq 2.
    pub mem_c: Matrix,
    /// Embedded question (the first read key, Eq 3).
    pub q_emb: Vector,
    /// Read key per hop (`hops` entries; `keys[0] == q_emb`).
    pub keys: Vec<Vector>,
    /// Raw attention scores `M_a · k` per hop (pre-softmax).
    pub scores: Vec<Vector>,
    /// Attention weights per hop (Eq 1).
    pub attention: Vec<Vector>,
    /// Read vectors per hop (Eq 5).
    pub reads: Vec<Vector>,
    /// Controller outputs per hop (Eq 4); the last is the output-layer
    /// input.
    pub hiddens: Vec<Vector>,
    /// Output logits `z = W_o h` (Eq 6).
    pub logits: Vector,
    /// GRU gate traces per hop, when the controller is gated.
    pub gru: Option<Vec<GruTrace>>,
}

impl ForwardTrace {
    /// The controller state fed to the output layer (`h^T`).
    pub fn final_hidden(&self) -> &Vector {
        self.hiddens.last().expect("at least one hop")
    }

    /// The predicted label (Eq 6).
    pub fn prediction(&self) -> usize {
        self.logits.argmax().expect("non-empty logits")
    }
}

/// Embeds the story into address/content memories and the question into the
/// first read key, then runs `hops` read iterations and the output layer.
///
/// # Panics
///
/// Panics if any word index is outside the vocabulary the parameters were
/// initialized for (an encoder/model mismatch is a programming error, not a
/// runtime condition).
pub fn forward(params: &Params, sample: &EncodedSample) -> ForwardTrace {
    let mut trace = ForwardTrace::default();
    let mut scratch = ForwardScratch::default();
    forward_into(params, sample, &mut trace, &mut scratch);
    trace
}

/// Resizes a list of per-hop vectors in place, keeping the existing
/// element buffers alive for reuse.
fn resize_hop_list<T: Default>(list: &mut Vec<T>, hops: usize) {
    list.resize_with(hops, T::default);
}

/// [`forward`] into caller-provided storage: every trace field and scratch
/// buffer is resized in place, so a warm (`trace`, `scratch`) pair runs the
/// whole pass without touching the allocator. Produces bit-identical
/// results to [`forward`].
///
/// # Panics
///
/// Panics if any word index is outside the vocabulary the parameters were
/// initialized for.
pub fn forward_into(
    params: &Params,
    sample: &EncodedSample,
    trace: &mut ForwardTrace,
    scratch: &mut ForwardScratch,
) {
    let e = params.config.embed_dim;
    let l = sample.sentences.len();
    let hops = params.config.hops;
    let w_a = &params.w_emb_a;
    let w_c = params.content_embedding();

    // Eq 2: index-based embedding — sum one column per word.
    trace.mem_a.resize_zeroed(l, e);
    trace.mem_c.resize_zeroed(l, e);
    for (i, sent) in sample.sentences.iter().enumerate() {
        w_a.sum_cols_into(sent, &mut scratch.emb);
        trace
            .mem_a
            .row_mut(i)
            .copy_from_slice(scratch.emb.as_slice());
        w_c.sum_cols_into(sent, &mut scratch.emb);
        trace
            .mem_c
            .row_mut(i)
            .copy_from_slice(scratch.emb.as_slice());
    }
    w_a.sum_cols_into(&sample.question, &mut trace.q_emb);

    resize_hop_list(&mut trace.keys, hops);
    resize_hop_list(&mut trace.scores, hops);
    resize_hop_list(&mut trace.attention, hops);
    resize_hop_list(&mut trace.reads, hops);
    resize_hop_list(&mut trace.hiddens, hops);
    match (&params.gru, &mut trace.gru) {
        (Some(_), Some(traces)) => resize_hop_list(traces, hops),
        (Some(_), slot @ None) => {
            let mut traces = Vec::new();
            resize_hop_list(&mut traces, hops);
            *slot = Some(traces);
        }
        (None, slot) => *slot = None,
    }

    let ForwardTrace {
        mem_a,
        mem_c,
        q_emb,
        keys,
        scores,
        attention,
        reads,
        hiddens,
        logits,
        gru,
    } = trace;

    keys[0].copy_from(q_emb); // Eq 3: the first key is the question.
    for t in 0..hops {
        // Eq 1: content-based addressing.
        mem_a
            .matvec_into(&keys[t], &mut scores[t])
            .expect("key matches memory width");
        attention[t].softmax_into(&scores[t]);
        // Eq 5: soft read.
        mem_c
            .matvec_transposed_into(&attention[t], &mut reads[t])
            .expect("attention matches rows");
        // Controller: Eq 4 (linear) or the gated variant.
        match (&params.gru, &mut *gru) {
            (Some(gru_params), Some(traces)) => {
                // `hiddens[t]` and `keys[t]` live in different lists, so the
                // split borrows are disjoint.
                let (h, k) = (&mut hiddens[t], &keys[t]);
                gru_step_into(gru_params, &reads[t], k, h, &mut traces[t], scratch);
            }
            _ => {
                params
                    .w_r
                    .matvec_into(&keys[t], &mut scratch.wk)
                    .expect("controller width");
                hiddens[t]
                    .add_into(&reads[t], &scratch.wk)
                    .expect("same embed dim");
            }
        }
        if t + 1 < hops {
            // Eq 3: next key is the controller output.
            keys[t + 1].copy_from(&hiddens[t]);
        }
    }

    // Eq 6: output layer.
    let h_final = hiddens.last().expect("hops >= 1");
    params
        .w_o
        .matvec_into(h_final, logits)
        .expect("output width");
}

/// Runs the forward pass only up to the controller output `h^T`, skipping
/// the output layer — Step 4 of Algorithm 1 computes logits lazily from this
/// vector.
pub fn forward_until_output(params: &Params, sample: &EncodedSample) -> Vector {
    let e = params.config.embed_dim;
    let l = sample.sentences.len();
    let w_a = &params.w_emb_a;
    let w_c = params.content_embedding();
    let mut scratch = ForwardScratch::default();
    let mut mem_a = Matrix::zeros(l, e);
    let mut mem_c = Matrix::zeros(l, e);
    for (i, sent) in sample.sentences.iter().enumerate() {
        w_a.sum_cols_into(sent, &mut scratch.emb);
        mem_a.row_mut(i).copy_from_slice(scratch.emb.as_slice());
        w_c.sum_cols_into(sent, &mut scratch.emb);
        mem_c.row_mut(i).copy_from_slice(scratch.emb.as_slice());
    }
    let mut k = w_a.sum_cols(&sample.question);
    let mut h = Vector::zeros(0);
    let mut a = Vector::zeros(0);
    let mut u = Vector::zeros(0);
    let mut r = Vector::zeros(0);
    let mut gru_trace = GruTrace::default();
    for _ in 0..params.config.hops {
        mem_a.matvec_into(&k, &mut u).expect("key width");
        a.softmax_into(&u);
        mem_c.matvec_transposed_into(&a, &mut r).expect("rows");
        match &params.gru {
            Some(gru) => gru_step_into(gru, &r, &k, &mut h, &mut gru_trace, &mut scratch),
            None => {
                params
                    .w_r
                    .matvec_into(&k, &mut scratch.wk)
                    .expect("controller width");
                h.add_into(&r, &scratch.wk).expect("embed dim");
            }
        }
        std::mem::swap(&mut k, &mut h);
    }
    k
}

/// One output logit `z_i = W_o[i] · h` — the unit of work of the
/// accelerator's sequential OUTPUT module and of inference thresholding.
///
/// # Panics
///
/// Panics if `index >= vocab_size`.
pub fn output_logit(params: &Params, h: &Vector, index: usize) -> f32 {
    let row = params.w_o.row(index);
    row.iter().zip(h.iter()).map(|(w, x)| w * x).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> (Params, EncodedSample) {
        let cfg = ModelConfig {
            embed_dim: 6,
            hops: 3,
            tie_embeddings: false,
            ..ModelConfig::default()
        };
        let params = Params::init(cfg, 12, &mut StdRng::seed_from_u64(7));
        let sample = EncodedSample {
            sentences: vec![vec![1, 2, 3], vec![4, 5], vec![6, 7, 8, 9]],
            question: vec![10, 11],
            answer: 3,
        };
        (params, sample)
    }

    #[test]
    fn trace_shapes_are_consistent() {
        let (p, s) = tiny();
        let t = forward(&p, &s);
        assert_eq!(t.mem_a.shape(), (3, 6));
        assert_eq!(t.keys.len(), 3);
        assert_eq!(t.attention.len(), 3);
        assert_eq!(t.hiddens.len(), 3);
        assert_eq!(t.logits.len(), 12);
        for a in &t.attention {
            assert!((a.sum() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn first_key_is_embedded_question() {
        let (p, s) = tiny();
        let t = forward(&p, &s);
        assert_eq!(t.keys[0], t.q_emb);
        assert_eq!(t.q_emb, p.w_emb_a.sum_cols(&s.question));
    }

    #[test]
    fn keys_chain_through_hiddens() {
        let (p, s) = tiny();
        let t = forward(&p, &s);
        assert_eq!(t.keys[1], t.hiddens[0]);
        assert_eq!(t.keys[2], t.hiddens[1]);
    }

    #[test]
    fn hidden_satisfies_eq4() {
        let (p, s) = tiny();
        let t = forward(&p, &s);
        for hop in 0..3 {
            let wk = p.w_r.matvec(&t.keys[hop]).unwrap();
            let expect = t.reads[hop].add(&wk).unwrap();
            assert_eq!(t.hiddens[hop], expect);
        }
    }

    #[test]
    fn logits_match_per_index_dot_products() {
        let (p, s) = tiny();
        let t = forward(&p, &s);
        for i in 0..p.vocab_size {
            let z = output_logit(&p, t.final_hidden(), i);
            assert!((z - t.logits[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_until_output_matches_full_pass() {
        let (p, s) = tiny();
        let t = forward(&p, &s);
        let h = forward_until_output(&p, &s);
        assert_eq!(&h, t.final_hidden());
    }

    #[test]
    fn tied_embeddings_change_the_result() {
        let (p, s) = tiny();
        let mut tied = p.clone();
        tied.config.tie_embeddings = true;
        let a = forward(&p, &s);
        let b = forward(&tied, &s);
        assert_ne!(a.logits, b.logits);
        // With tied embeddings the content memory equals the address memory.
        assert_eq!(b.mem_a, b.mem_c);
    }

    #[test]
    fn attention_concentrates_with_scaled_memory() {
        // A memory row aligned with the key dominates the softmax.
        let cfg = ModelConfig {
            embed_dim: 4,
            hops: 1,
            tie_embeddings: false,
            ..ModelConfig::default()
        };
        let mut p = Params::init(cfg, 8, &mut StdRng::seed_from_u64(1));
        p.w_emb_a.clear();
        // Word 0 embeds to e0*10; word 1 to e1. Question = word 0.
        p.w_emb_a[(0, 0)] = 10.0;
        p.w_emb_a[(1, 1)] = 1.0;
        let s = EncodedSample {
            sentences: vec![vec![0], vec![1]],
            question: vec![0],
            answer: 0,
        };
        let t = forward(&p, &s);
        assert!(t.attention[0][0] > 0.99, "attention {:?}", t.attention[0]);
    }
}
