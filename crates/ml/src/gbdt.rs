//! Histogram-based gradient-boosted decision trees with leaf-wise
//! (best-first) growth — the LightGBM analogue the paper's model zoo
//! includes.
//!
//! Training follows the LightGBM recipe: features are pre-binned into
//! quantile histograms, each boosting iteration fits a regression tree on
//! the logistic-loss gradients/hessians, and trees grow *leaf-wise*: the
//! leaf with the globally best split gain is split next, until the leaf
//! budget is exhausted.

use hmd_tabular::Dataset;

use hmd_nn::sigmoid;

use crate::model::{validate_batch_shape, validate_training_set, Classifier, PredictScratch};
use crate::MlError;

/// Hyper-parameters for [`Gbdt`].
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct GbdtConfig {
    /// Boosting iterations (trees).
    pub n_iters: usize,
    /// Shrinkage applied to each tree's output.
    pub learning_rate: f64,
    /// Maximum leaves per tree (leaf-wise growth budget).
    pub num_leaves: usize,
    /// Histogram bins per feature.
    pub max_bins: usize,
    /// Minimum samples per leaf.
    pub min_data_in_leaf: usize,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum split gain.
    pub min_gain: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_iters: 80,
            learning_rate: 0.1,
            num_leaves: 31,
            max_bins: 64,
            min_data_in_leaf: 5,
            lambda: 1.0,
            min_gain: 1e-6,
        }
    }
}

/// Rows the batch walk steps through each tree together. Eight
/// independent chains of node loads keep the core busy where one row's
/// chain would stall on every load.
const LANES: usize = 8;

/// One node of the fitted forest's arena, 16 bytes. A split sends
/// `x[feature] <= threshold` to `left` and everything else (NaN
/// included) to `left + 1`; a leaf holds its value in `threshold`, and
/// its zero `mask` keeps a step on it in place (its `left` is itself).
#[derive(Copy, Clone, Debug)]
struct Node {
    threshold: f64,
    feature: u16,
    /// 1 on a split, 0 on a leaf.
    mask: u16,
    left: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn leaf(value: f64, at: usize) -> Self {
        Self { threshold: value, feature: 0, mask: 0, left: arena_index(at) }
    }

    fn split(feature: usize, threshold: f64, left: usize) -> Self {
        let feature = u16::try_from(feature).expect("fit bounds the feature count to u16");
        Self { threshold, feature, mask: 1, left: arena_index(left) }
    }
}

fn arena_index(at: usize) -> u32 {
    u32::try_from(at).expect("fit bounds the arena to u32 indices")
}

/// A leaf under construction during leaf-wise growth.
struct GrowingLeaf {
    /// Row indices in this leaf.
    rows: Vec<usize>,
    /// Node index in the model's arena.
    node: usize,
    /// Cached best split: (gain, feature, bin, threshold).
    best: Option<(f64, usize, usize, f64)>,
}

/// LightGBM-style gradient boosting for binary classification.
///
/// # Example
///
/// ```
/// use hmd_ml::{Classifier, Gbdt};
/// use hmd_tabular::{Class, Dataset};
///
/// # fn main() -> Result<(), hmd_ml::MlError> {
/// let mut d = Dataset::new(vec!["x".into()])?;
/// for i in 0..60 {
///     let label = if i < 30 { Class::Benign } else { Class::Malware };
///     d.push(&[i as f64], label)?;
/// }
/// let targets = d.binary_targets(Class::is_attack);
/// let mut gbm = Gbdt::new();
/// gbm.fit(&d, &targets)?;
/// assert!(gbm.predict_proba_row(&[55.0])? > 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Gbdt {
    config: GbdtConfig,
    /// Every tree's nodes, tree after tree; each split's children sit
    /// next to each other.
    nodes: Vec<Node>,
    /// Arena index of each tree's root, in boosting order; empty until
    /// `fit`.
    roots: Vec<u32>,
    /// Per-feature ascending bin thresholds (upper edges).
    bin_edges: Vec<Vec<f64>>,
    base_score: f64,
    n_features: usize,
}

impl Default for Gbdt {
    fn default() -> Self {
        Self::new()
    }
}

impl Gbdt {
    /// A booster with default hyper-parameters.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(GbdtConfig::default())
    }

    /// A booster with explicit hyper-parameters.
    #[must_use]
    pub fn with_config(config: GbdtConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
            roots: Vec::new(),
            bin_edges: Vec::new(),
            base_score: 0.0,
            n_features: 0,
        }
    }

    /// Number of fitted trees.
    #[must_use]
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    fn compute_bin_edges(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.bin_edges.clear();
        for f in 0..data.n_features() {
            let mut col = data.column(f)?;
            col.sort_by(f64::total_cmp);
            col.dedup();
            let edges: Vec<f64> = if col.len() <= self.config.max_bins {
                // edge between each pair of adjacent distinct values
                col.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
            } else {
                (1..self.config.max_bins)
                    .map(|b| {
                        let pos = b * (col.len() - 1) / self.config.max_bins;
                        (col[pos] + col[pos + 1]) / 2.0
                    })
                    .collect()
            };
            let mut edges = edges;
            edges.dedup();
            self.bin_edges.push(edges);
        }
        Ok(())
    }

    fn bin_of(&self, feature: usize, x: f64) -> usize {
        self.bin_edges[feature].partition_point(|&e| e < x)
    }

    /// Rejects rows before `fit` and rows of the wrong width.
    fn check_width(&self, width: usize) -> Result<(), MlError> {
        if self.roots.is_empty() {
            return Err(MlError::NotFitted);
        }
        if width != self.n_features {
            return Err(MlError::DimensionMismatch { expected: self.n_features, actual: width });
        }
        Ok(())
    }

    /// Raw (pre-sigmoid) scores of the `width`-wide rows of `rows`, one
    /// per slot of `out`: the one tree walk, shared by the row and the
    /// batch path. Rows go through in groups of [`LANES`]; each tree is
    /// walked by the whole group in lockstep until every lane stands on
    /// a leaf. Each row still sums `base_score + lr·v₀ + lr·v₁ + …` in
    /// tree order, so its score does not depend on its group.
    ///
    /// The lane loops index plain slices and arrays: unoptimized test
    /// builds time the zoo for the latency-constrained agent, and
    /// iterator adapters there would make this model ten times slower
    /// than its peers.
    fn raw_scores_into(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        let lr = self.config.learning_rate;
        let nodes = self.nodes.as_slice();
        for (g, scores) in out.chunks_mut(LANES).enumerate() {
            let lanes = scores.len();
            let group = &rows[g * LANES * width..][..lanes * width];
            scores.fill(self.base_score);
            for &root in &self.roots {
                let mut at = [root as usize; LANES];
                loop {
                    let mut on_split = 0;
                    for l in 0..lanes {
                        let node = &nodes[at[l]];
                        // NaN fails `<=` and goes right; a leaf's zero
                        // mask keeps it in place
                        let left = group[l * width + node.feature as usize] <= node.threshold;
                        at[l] = node.left as usize + (usize::from(!left) & node.mask as usize);
                        on_split |= node.mask;
                    }
                    if on_split == 0 {
                        break;
                    }
                }
                for l in 0..lanes {
                    scores[l] += lr * nodes[at[l]].threshold;
                }
            }
        }
    }

    /// Finds the best split for one leaf via feature histograms.
    fn best_split(
        &self,
        binned: &[Vec<u16>],
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
    ) -> Option<(f64, usize, usize, f64)> {
        let total_g: f64 = rows.iter().map(|&i| grad[i]).sum();
        let total_h: f64 = rows.iter().map(|&i| hess[i]).sum();
        let lambda = self.config.lambda;
        let parent = total_g * total_g / (total_h + lambda);
        let mut best: Option<(f64, usize, usize, f64)> = None;
        #[allow(clippy::needless_range_loop)] // f indexes three parallel tables
        for f in 0..self.n_features {
            let n_bins = self.bin_edges[f].len() + 1;
            if n_bins < 2 {
                continue;
            }
            let mut hist_g = vec![0.0; n_bins];
            let mut hist_h = vec![0.0; n_bins];
            let mut hist_n = vec![0usize; n_bins];
            for &i in rows {
                let b = binned[f][i] as usize;
                hist_g[b] += grad[i];
                hist_h[b] += hess[i];
                hist_n[b] += 1;
            }
            let mut left_g = 0.0;
            let mut left_h = 0.0;
            let mut left_n = 0usize;
            for b in 0..n_bins - 1 {
                left_g += hist_g[b];
                left_h += hist_h[b];
                left_n += hist_n[b];
                let right_n = rows.len() - left_n;
                if left_n < self.config.min_data_in_leaf
                    || right_n < self.config.min_data_in_leaf
                {
                    continue;
                }
                let right_g = total_g - left_g;
                let right_h = total_h - left_h;
                let gain = 0.5
                    * (left_g * left_g / (left_h + lambda)
                        + right_g * right_g / (right_h + lambda)
                        - parent);
                if gain > self.config.min_gain
                    && best.is_none_or(|(g, _, _, _)| gain > g)
                {
                    best = Some((gain, f, b, self.bin_edges[f][b]));
                }
            }
        }
        best
    }

    fn leaf_value(&self, grad: &[f64], hess: &[f64], rows: &[usize]) -> f64 {
        let g: f64 = rows.iter().map(|&i| grad[i]).sum();
        let h: f64 = rows.iter().map(|&i| hess[i]).sum();
        -g / (h + self.config.lambda)
    }
}

impl Classifier for Gbdt {
    fn name(&self) -> &'static str {
        "LightGBM"
    }

    fn fit(&mut self, data: &Dataset, targets: &[f64]) -> Result<(), MlError> {
        validate_training_set(data, targets)?;
        if self.config.n_iters == 0 || self.config.num_leaves < 2 || self.config.max_bins < 2 {
            return Err(MlError::InvalidHyperparameter(
                "iterations, leaves and bins must allow at least one split",
            ));
        }
        // the arena addresses nodes as u32 and features as u16; a tree
        // holds fewer than 2 × num_leaves nodes
        let per_tree = self.config.num_leaves.saturating_mul(2);
        let max_nodes = per_tree.saturating_mul(self.config.n_iters);
        if max_nodes > u32::MAX as usize || data.n_features() > 1 << 16 {
            return Err(MlError::InvalidHyperparameter(
                "the node arena holds at most 2^32 nodes and 2^16 features",
            ));
        }
        let n = data.len();
        self.n_features = data.n_features();
        self.compute_bin_edges(data)?;

        // pre-bin the whole training matrix (column-major, u16 bins)
        let mut binned: Vec<Vec<u16>> = Vec::with_capacity(self.n_features);
        for f in 0..self.n_features {
            let col = data.column(f)?;
            binned.push(col.iter().map(|&x| self.bin_of(f, x) as u16).collect());
        }

        let pos = targets.iter().sum::<f64>() / n as f64;
        self.base_score = (pos / (1.0 - pos)).ln();
        let mut raw: Vec<f64> = vec![self.base_score; n];
        self.nodes.clear();
        self.roots.clear();

        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        for _ in 0..self.config.n_iters {
            for i in 0..n {
                let p = sigmoid(raw[i]);
                grad[i] = p - targets[i];
                hess[i] = (p * (1.0 - p)).max(1e-12);
            }

            let root = self.nodes.len();
            self.nodes.push(Node::leaf(0.0, root));
            let all_rows: Vec<usize> = (0..n).collect();
            let root_best = self.best_split(&binned, &grad, &hess, &all_rows);
            let mut leaves = vec![GrowingLeaf { rows: all_rows, node: root, best: root_best }];

            let mut n_leaves = 1;
            while n_leaves < self.config.num_leaves {
                // leaf-wise: globally best-gain leaf splits next
                let Some(leaf_idx) = leaves
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| l.best.map(|(g, ..)| (i, g)))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let (_, feature, bin, threshold) =
                    leaves[leaf_idx].best.expect("selected leaf has a split");
                let rows = std::mem::take(&mut leaves[leaf_idx].rows);
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.into_iter().partition(|&i| (binned[feature][i] as usize) <= bin);

                let node = leaves[leaf_idx].node;
                let left_node = self.nodes.len();
                let right_node = left_node + 1;
                self.nodes.push(Node::leaf(0.0, left_node));
                self.nodes.push(Node::leaf(0.0, right_node));
                self.nodes[node] = Node::split(feature, threshold, left_node);

                let left_best = self.best_split(&binned, &grad, &hess, &left_rows);
                let right_best = self.best_split(&binned, &grad, &hess, &right_rows);
                leaves[leaf_idx] =
                    GrowingLeaf { rows: left_rows, node: left_node, best: left_best };
                leaves.push(GrowingLeaf { rows: right_rows, node: right_node, best: right_best });
                n_leaves += 1;
            }

            // finalize leaf values and update raw scores
            for leaf in &leaves {
                let value = self.leaf_value(&grad, &hess, &leaf.rows);
                self.nodes[leaf.node] = Node::leaf(value, leaf.node);
                for &i in &leaf.rows {
                    raw[i] += self.config.learning_rate * value;
                }
            }
            self.roots.push(arena_index(root));
        }
        Ok(())
    }

    fn predict_proba_row(&self, row: &[f64]) -> Result<f64, MlError> {
        self.check_width(row.len())?;
        let mut raw = [0.0];
        self.raw_scores_into(row, row.len(), &mut raw);
        Ok(sigmoid(raw[0]))
    }

    /// The whole batch goes through [`LANES`]-row lockstep tree walks;
    /// results and errors are those of the trait default.
    fn predict_proba_into(
        &self,
        rows: &[f64],
        width: usize,
        _scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        validate_batch_shape(rows, width)?;
        out.clear();
        if rows.is_empty() {
            return Ok(());
        }
        self.check_width(width)?;
        out.resize(rows.len() / width, 0.0);
        self.raw_scores_into(rows, width, out);
        for p in out.iter_mut() {
            *p = sigmoid(*p);
        }
        Ok(())
    }

    fn size_bytes(&self) -> usize {
        // the footprint the constraint controller routes on: 32 bytes
        // a node plus the bin-edge tables
        let edges: usize = self.bin_edges.iter().map(Vec::len).sum();
        self.nodes.len() * 32 + edges * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::evaluate;
    use hmd_tabular::Class;
    use hmd_util::prop_tests;
    use hmd_util::proptest_lite::collection;
    use hmd_util::rng::prelude::*;
    use std::sync::OnceLock;

    fn blobs(n: usize, seed: u64) -> (Dataset, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["a".into(), "b".into()]).unwrap();
        for _ in 0..n {
            let benign = [rng.random_range(-1.0..0.5), rng.random_range(-1.0..0.5)];
            let attack = [rng.random_range(0.3..1.8), rng.random_range(0.3..1.8)];
            d.push(&benign, Class::Benign).unwrap();
            d.push(&attack, Class::Malware).unwrap();
        }
        let t = d.binary_targets(Class::is_attack);
        (d, t)
    }

    #[test]
    fn learns_overlapping_blobs() {
        let (train, tt) = blobs(200, 1);
        let (test, te) = blobs(200, 2);
        let mut gbm = Gbdt::new();
        gbm.fit(&train, &tt).unwrap();
        let m = evaluate(&gbm, &test, &te).unwrap();
        assert!(m.accuracy > 0.88, "accuracy {}", m.accuracy);
        assert!(m.auc > 0.93, "auc {}", m.auc);
    }

    #[test]
    fn more_iterations_reduce_training_loss() {
        let (d, t) = blobs(150, 3);
        let acc_at = |iters| {
            let mut g = Gbdt::with_config(GbdtConfig { n_iters: iters, ..GbdtConfig::default() });
            g.fit(&d, &t).unwrap();
            evaluate(&g, &d, &t).unwrap().accuracy
        };
        assert!(acc_at(60) >= acc_at(2) - 1e-9);
    }

    /// Each tree's slice of the arena.
    fn tree_nodes(g: &Gbdt) -> impl Iterator<Item = &[Node]> {
        let ends = g.roots.iter().skip(1).map(|&r| r as usize).chain([g.nodes.len()]);
        g.roots.iter().zip(ends).map(|(&root, end)| &g.nodes[root as usize..end])
    }

    #[test]
    fn leaf_budget_bounds_tree_size() {
        let (d, t) = blobs(200, 4);
        let mut g = Gbdt::with_config(GbdtConfig { num_leaves: 4, ..GbdtConfig::default() });
        g.fit(&d, &t).unwrap();
        for tree in tree_nodes(&g) {
            let leaves = tree.iter().filter(|n| n.mask == 0).count();
            assert!(leaves <= 4, "tree has {leaves} leaves");
        }
    }

    #[test]
    fn binning_respects_max_bins() {
        let (d, t) = blobs(300, 5);
        let mut g = Gbdt::with_config(GbdtConfig { max_bins: 8, ..GbdtConfig::default() });
        g.fit(&d, &t).unwrap();
        for edges in &g.bin_edges {
            assert!(edges.len() < 8);
        }
    }

    #[test]
    fn errors_on_misuse() {
        let g = Gbdt::new();
        assert_eq!(g.predict_proba_row(&[0.0]).unwrap_err(), MlError::NotFitted);
        let (d, t) = blobs(30, 6);
        let mut bad =
            Gbdt::with_config(GbdtConfig { num_leaves: 1, ..GbdtConfig::default() });
        assert!(matches!(bad.fit(&d, &t), Err(MlError::InvalidHyperparameter(_))));
        // 2^31 leaves a tree overflow the arena's u32 node indices
        let mut huge =
            Gbdt::with_config(GbdtConfig { num_leaves: 1 << 31, ..GbdtConfig::default() });
        assert!(matches!(huge.fit(&d, &t), Err(MlError::InvalidHyperparameter(_))));
        let mut g = Gbdt::new();
        g.fit(&d, &t).unwrap();
        assert!(matches!(
            g.predict_proba_row(&[1.0]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn base_score_matches_class_prior() {
        let (d, t) = blobs(100, 7);
        let mut g = Gbdt::with_config(GbdtConfig { n_iters: 1, ..GbdtConfig::default() });
        g.fit(&d, &t).unwrap();
        // balanced classes → prior logit ≈ 0
        assert!(g.base_score.abs() < 1e-9);
    }

    /// A default-sized booster on the overlapping blobs: 80 trees that
    /// spend their whole leaf budget.
    fn deep_model() -> &'static Gbdt {
        static MODEL: OnceLock<Gbdt> = OnceLock::new();
        MODEL.get_or_init(|| {
            let (d, t) = blobs(300, 8);
            let mut g = Gbdt::new();
            g.fit(&d, &t).unwrap();
            g
        })
    }

    /// The probability by a plain one-row walk of the arena, apart
    /// from [`Gbdt::raw_scores_into`]: `x <= threshold` goes left,
    /// anything else (NaN included) goes right.
    fn reference_proba(g: &Gbdt, row: &[f64]) -> f64 {
        let mut score = g.base_score;
        for &root in &g.roots {
            let mut at = root as usize;
            while g.nodes[at].mask == 1 {
                let node = g.nodes[at];
                at = if row[usize::from(node.feature)] <= node.threshold {
                    node.left as usize
                } else {
                    node.left as usize + 1
                };
            }
            score += g.config.learning_rate * g.nodes[at].threshold;
        }
        sigmoid(score)
    }

    /// The trait's default `predict_proba_into`, which [`Gbdt`]
    /// overrides: the override must match its results and its errors.
    fn default_predict_proba_into(
        g: &Gbdt,
        rows: &[f64],
        width: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), MlError> {
        validate_batch_shape(rows, width)?;
        out.clear();
        for row in rows.chunks(width) {
            out.push(g.predict_proba_row(row)?);
        }
        Ok(())
    }

    prop_tests! {
        cases = 64;

        /// Batches of 0..=33 rows, across the lane width, score each row
        /// bit for bit as the one-row path and the reference walk do.
        /// Cells hit split thresholds exactly (read from the arena), or
        /// hold NaN, ±∞, −0.0 or an ordinary value.
        fn batch_matches_row_bit_for_bit(
            n in 0usize..=33,
            cells in collection::vec((0u8..4, 0usize..1_000_000, -2.0f64..3.0), 66),
        ) {
            let g = deep_model();
            let width = g.n_features;
            let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
            let rows: Vec<f64> = cells[..n * width]
                .iter()
                .enumerate()
                .map(|(k, &(kind, pick, value))| {
                    let thresholds: Vec<f64> = g
                        .nodes
                        .iter()
                        .filter(|node| node.mask == 1 && usize::from(node.feature) == k % width)
                        .map(|node| node.threshold)
                        .collect();
                    match kind {
                        0 if !thresholds.is_empty() => thresholds[pick % thresholds.len()],
                        1 => specials[pick % specials.len()],
                        _ => value,
                    }
                })
                .collect();
            let mut scratch = g.make_scratch(n);
            let mut out = Vec::with_capacity(n);
            g.predict_proba_into(&rows, width, &mut scratch, &mut out).unwrap();
            assert_eq!(out.len(), n);
            for (row, p) in rows.chunks(width).zip(&out) {
                let one = g.predict_proba_row(row).unwrap();
                assert_eq!(p.to_bits(), one.to_bits(), "batch vs row on {row:?}");
                assert_eq!(one.to_bits(), reference_proba(g, row).to_bits(), "row {row:?}");
            }
        }
    }

    #[test]
    fn batch_errors_match_the_trait_default() {
        let fitted = deep_model();
        let unfitted = Gbdt::new();
        let row = [0.25, 0.5];
        let cases: [(&Gbdt, &[f64], usize); 7] = [
            (&unfitted, &[], 2),
            (&unfitted, &row, 2),
            (fitted, &[], 3),
            (fitted, &[0.0; 6], 3),
            (fitted, &[0.0; 5], 2),
            (fitted, &row, 0),
            (fitted, &row, 2),
        ];
        for (g, rows, width) in cases {
            let mut want = vec![7.0];
            let expected = default_predict_proba_into(g, rows, width, &mut want);
            let mut got = vec![7.0];
            let actual = g.predict_proba_into(rows, width, &mut g.make_scratch(1), &mut got);
            assert_eq!(actual, expected, "{} rows of width {width}", rows.len());
            assert_eq!(got, want, "{} rows of width {width}", rows.len());
        }
    }
}
