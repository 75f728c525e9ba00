//! Known-answer tests for the histogram GBDT, the model serving routes
//! unflagged windows to.
//!
//! Each test folds the f64 bits of a fixed model's outputs into one
//! FNV-1a digest and pins it. The model is fitted on the quick corpus;
//! it scores that corpus's rows plus rows holding NaN, ±∞ and −0.0 in
//! every feature. The digests freeze both prediction paths bit for bit,
//! so a change to the node layout or the tree walk that moves one
//! probability, or sends a NaN the other way, fails here first.

use hmd_ml::{Classifier, Gbdt};
use hmd_sim::{build_corpus, CorpusConfig};
use hmd_tabular::{Class, Dataset};

/// FNV-1a over little-endian byte strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn values(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// The fitted model and the rows it is scored on: every corpus row,
/// then one special value (NaN, +∞, −∞, −0.0) written into each
/// feature of the first row in turn, then one row of each special
/// value throughout.
fn fitted() -> (Gbdt, Dataset) {
    let corpus = build_corpus(&CorpusConfig::quick(1));
    let data = corpus.dataset;
    let targets = data.binary_targets(Class::is_attack);
    let mut model = Gbdt::new();
    model.fit(&data, &targets).expect("the quick corpus is a valid training set");

    let mut rows = data.clone();
    let first = data.row(0).expect("the corpus has rows").to_vec();
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    for &v in &specials {
        for f in 0..data.n_features() {
            let mut row = first.clone();
            row[f] = v;
            rows.push(&row, Class::Benign).expect("row width matches");
        }
    }
    for &v in &specials {
        rows.push(&vec![v; data.n_features()], Class::Malware).expect("row width matches");
    }
    (model, rows)
}

#[test]
fn predict_proba_is_pinned() {
    let (model, rows) = fitted();
    let mut h = Fnv::new();
    h.values(&model.predict_proba(&rows).expect("fitted model, matching width"));
    assert_eq!(h.0, 0x38B9_C462_FD26_F91D);
}

#[test]
fn predict_proba_into_at_batch_32_is_pinned() {
    let (model, rows) = fitted();
    let width = rows.n_features();
    let flat: Vec<f64> =
        (0..rows.len()).flat_map(|i| rows.row(i).expect("row index in range").to_vec()).collect();
    let mut scratch = model.make_scratch(32);
    let mut out = Vec::with_capacity(32);
    let mut h = Fnv::new();
    for batch in flat.chunks(32 * width) {
        model
            .predict_proba_into(batch, width, &mut scratch, &mut out)
            .expect("fitted model, matching width");
        h.values(&out);
    }
    assert_eq!(h.0, 0x38B9_C462_FD26_F91D);
}

#[test]
fn footprint_and_tree_count_are_pinned() {
    let (model, _) = fitted();
    assert_eq!((model.size_bytes(), model.tree_count()), (62_672, 80));
}
