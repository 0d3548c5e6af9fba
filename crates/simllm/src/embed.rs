//! The frozen base embedding model `W0`.
//!
//! Questions are encoded as hashed bags of word tokens and word bigrams,
//! then projected through a dense matrix `W0` initialised from a seeded
//! Gaussian — a random projection that preserves lexical similarity (the
//! Johnson–Lindenstrauss property), standing in for a pretrained text
//! encoder. `W0` is *frozen*: all adaptation happens in LoRA modules.

use crate::lora::LoraModule;
use textenc::{tokenize, FeatureHasher, SparseVec};

/// Input hash-space bits.
pub const INPUT_BITS: u32 = 14;
/// Embedding dimensionality.
pub const EMBED_DIM: usize = 64;

/// The base model: a frozen linear text encoder.
#[derive(Debug, Clone)]
pub struct EmbeddingModel {
    hasher: FeatureHasher,
    /// Row-major `dim_in × EMBED_DIM`.
    w0: Vec<f32>,
    seed: u64,
}

impl EmbeddingModel {
    /// "Pretrains" the base model: a seeded Gaussian random projection.
    pub fn pretrained(seed: u64) -> Self {
        let hasher = FeatureHasher::new(INPUT_BITS);
        let dim_in = hasher.dim();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next_gauss = move || {
            // Box–Muller over a splitmix64 stream.
            let mut unit = || {
                state ^= state >> 30;
                state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                state ^= state >> 27;
                state = state.wrapping_mul(0x94D0_49BB_1331_11EB);
                state ^= state >> 31;
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                ((state >> 11) as f64 / (1u64 << 53) as f64).max(1e-12)
            };
            let (u1, u2) = (unit(), unit());
            ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
        };
        let scale = 1.0 / (EMBED_DIM as f32).sqrt();
        let w0 = (0..dim_in * EMBED_DIM).map(|_| next_gauss() * scale).collect();
        EmbeddingModel { hasher, w0, seed }
    }

    /// The seed this model was pretrained with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Input feature dimensionality.
    pub fn dim_in(&self) -> usize {
        self.hasher.dim()
    }

    /// Encodes text into its sparse input features: word unigrams and
    /// bigrams, with *structure words* (the aggregation, comparison,
    /// grouping and ordering cues that determine a query's shape)
    /// up-weighted — the pretrained attention bias any usable text-to-SQL
    /// encoder exhibits, and what lets the model generalise across
    /// unseen surface phrasings. L2-normalised.
    pub fn features(&self, text: &str) -> SparseVec {
        // Numeric tokens are normalised to a "#num" symbol: the presence
        // and count of literals is a strong structural signal, their
        // values are noise. Tokens are borrowed, not cloned — each one is
        // hashed to its bucket directly, and bigrams are assembled in one
        // reused buffer.
        let raw_tokens = tokenize(text);
        let tokens: Vec<&str> = raw_tokens
            .iter()
            .map(|t| {
                if t.bytes().all(|b| b.is_ascii_digit()) {
                    "#num"
                } else {
                    t.as_str()
                }
            })
            .collect();
        let mut raw: Vec<(u32, f32)> = Vec::with_capacity(tokens.len().saturating_mul(2));
        for t in &tokens {
            let w = if is_structure_word(t) { 2.5 } else { 1.0 };
            raw.push((self.hasher.bucket(t), w));
        }
        let mut bigram = String::new();
        for w in tokens.windows(2) {
            bigram.clear();
            bigram.push_str(w[0]);
            bigram.push(' ');
            bigram.push_str(w[1]);
            raw.push((self.hasher.bucket(&bigram), 1.0));
        }
        let mut v = SparseVec::from_entries(raw);
        v.normalize();
        v
    }

    /// Projects sparse features through the frozen `W0`.
    pub fn project_base(&self, x: &SparseVec) -> Vec<f32> {
        let mut out = vec![0.0f32; EMBED_DIM];
        for (i, w) in x.entries() {
            let row = &self.w0[*i as usize * EMBED_DIM..(*i as usize + 1) * EMBED_DIM];
            for (o, r) in out.iter_mut().zip(row) {
                *o += w * r;
            }
        }
        out
    }

    /// Full embedding: base projection plus optional LoRA delta,
    /// L2-normalised.
    pub fn embed(&self, text: &str, lora: Option<&LoraModule>) -> Vec<f32> {
        let x = self.features(text);
        self.embed_features(&x, lora)
    }

    /// Embeds pre-computed features.
    pub fn embed_features(&self, x: &SparseVec, lora: Option<&LoraModule>) -> Vec<f32> {
        let mut h = self.project_base(x);
        if let Some(l) = lora {
            l.add_delta(x, &mut h);
        }
        normalize(&mut h);
        h
    }

    /// Unnormalised forward pass (used by training, where the MSE target
    /// lives in the unnormalised space).
    pub fn forward_raw(&self, x: &SparseVec, lora: Option<&LoraModule>) -> Vec<f32> {
        let mut h = self.project_base(x);
        if let Some(l) = lora {
            l.add_delta(x, &mut h);
        }
        h
    }

}

/// Query-structure cue words (en word tokens and cn character tokens).
/// Sorted for binary search.
const STRUCTURE_WORDS: &[&str] = &[
    "above", "average", "between", "contains", "count", "different", "distinct", "each",
    "exceeds", "grouped", "higher", "highest", "how", "largest", "latest", "leading", "lowest",
    "many", "maximum", "mean", "minimum", "more", "most", "number", "over", "per", "ranked",
    "recent", "than", "top", "total", "unique", "不", "之", "于", "们", "低", "几", "分", "包", "总",
    "新", "最", "每", "比", "超", "间", "高",
];

/// True when `token` is one of the query-structure cue words.
pub fn is_structure_word(token: &str) -> bool {
    STRUCTURE_WORDS.binary_search(&token).is_ok()
}

/// L2-normalises in place (no-op on the zero vector).
pub fn normalize(v: &mut [f32]) {
    // finlint: ordered — sequential left-to-right fold over a slice
    let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v {
            *x /= n;
        }
    }
}

/// Plain dot product of two equal-length vectors — the fast path for
/// scoring when both sides are already unit-norm (embeddings and
/// prototype centroids are), where it equals cosine similarity without
/// paying two sqrt-norm reductions per call.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    // finlint: ordered — sequential left-to-right fold over a slice
    a.iter().zip(b).map(|(x, y)| x * y).sum::<f32>()
}

/// Cosine similarity of two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    // finlint: ordered — sequential left-to-right folds over slices
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    // finlint: ordered — sequential left-to-right fold over a slice
    let na = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    // finlint: ordered — sequential left-to-right fold over a slice
    let nb = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretraining_is_deterministic() {
        let a = EmbeddingModel::pretrained(5);
        let b = EmbeddingModel::pretrained(5);
        assert_eq!(a.embed("show the nav", None), b.embed("show the nav", None));
        let c = EmbeddingModel::pretrained(6);
        assert_ne!(a.embed("show the nav", None), c.embed("show the nav", None));
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let m = EmbeddingModel::pretrained(1);
        let e = m.embed("what is the closing price", None);
        let n: f32 = e.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let m = EmbeddingModel::pretrained(2);
        let a = m.embed("what is the unit net value of the fund", None);
        let b = m.embed("show the unit net value of this fund", None);
        let c = m.embed("count employees by province and gender", None);
        assert!(cosine(&a, &b) > cosine(&a, &c) + 0.2);
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }
}
