//! Synthetic datasets and batching for the training experiments.
//!
//! The paper evaluates on CIFAR-10; real CIFAR-10 is not available in this
//! environment, so [`SyntheticImages`] generates a CIFAR-*like* task
//! (DESIGN.md §2 documents the substitution): each of the 10 classes has a
//! smooth random template image, and every sample is its class template
//! plus a random spatial shift and pixel noise. The task difficulty is
//! controlled by the noise level, and — like CIFAR — it is learnable by a
//! small MLP but not linearly trivial for high noise.
//!
//! [`Dataset`] holds normalized flat samples; [`BatchSampler`] yields the
//! per-iteration batches `B_t`, and [`split_batch_into_files`] partitions a
//! batch into the `f` files that the assignment graph distributes to
//! workers (paper Section 2, "Worker Assignment").

mod batch;
mod synthetic;

pub use batch::{split_batch_into_files, BatchSampler};
pub use synthetic::{SyntheticConfig, SyntheticImages};

/// An in-memory labelled dataset of equally-shaped samples.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Flat row-major sample data, `num_samples × sample_len`.
    data: Vec<f32>,
    /// Class label per sample.
    labels: Vec<usize>,
    /// Shape of a single sample (e.g. `[3, 16, 16]` or `[256]`).
    item_shape: Vec<usize>,
    /// Number of classes.
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset from flat data.
    ///
    /// # Panics
    ///
    /// Panics when lengths are inconsistent or a label is out of range.
    pub fn new(
        data: Vec<f32>,
        labels: Vec<usize>,
        item_shape: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let sample_len: usize = item_shape.iter().product();
        assert_eq!(
            data.len(),
            labels.len() * sample_len,
            "data length must be num_samples × sample_len"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Dataset {
            data,
            labels,
            item_shape,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample shape.
    pub fn item_shape(&self) -> &[usize] {
        &self.item_shape
    }

    /// Flat length of one sample.
    pub fn sample_len(&self) -> usize {
        self.item_shape.iter().product()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Flat view of sample `i`.
    pub fn sample(&self, i: usize) -> &[f32] {
        let n = self.sample_len();
        &self.data[i * n..(i + 1) * n]
    }

    /// Assembles the samples at `indices`, each flattened to
    /// [`sample_len`](Self::sample_len) values, into one row-major
    /// `b × sample_len` buffer plus the label vector — the form
    /// `FastMlp::gradient_sum` and `FastMlp::predict` take.
    pub fn gather(&self, indices: &[usize]) -> (Vec<f32>, Vec<usize>) {
        let mut data = Vec::with_capacity(indices.len() * self.sample_len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.sample(i));
            labels.push(self.labels[i]);
        }
        (data, labels)
    }

    /// Normalizes the dataset in place to zero mean, unit variance
    /// (global statistics — the analogue of the paper's per-channel
    /// CIFAR normalization). Returns the `(mean, std)` used.
    pub fn normalize(&mut self) -> (f32, f32) {
        let n = self.data.len() as f32;
        let mean = self.data.iter().sum::<f32>() / n;
        let var = self.data.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
        let std = var.sqrt().max(1e-8);
        for x in &mut self.data {
            *x = (*x - mean) / std;
        }
        (mean, std)
    }

    /// Top-1 accuracy of `predictions` (row-argmax already applied)
    /// against this dataset's labels at `indices`.
    pub fn accuracy(&self, indices: &[usize], predictions: &[usize]) -> f64 {
        assert_eq!(indices.len(), predictions.len());
        if indices.is_empty() {
            return 0.0;
        }
        let correct = indices
            .iter()
            .zip(predictions)
            .filter(|(&i, &p)| self.labels[i] == p)
            .count();
        correct as f64 / indices.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::new(
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0, 1, 0],
            vec![2],
            2,
        )
    }

    #[test]
    fn construction_and_access() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.sample_len(), 2);
        assert_eq!(d.sample(1), &[2.0, 3.0]);
        assert_eq!(d.label(2), 0);
        assert_eq!(d.num_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_range_checked() {
        Dataset::new(vec![0.0, 1.0], vec![5], vec![2], 2);
    }

    #[test]
    fn gather_shapes() {
        let d = tiny();
        let (x, labels) = d.gather(&[2, 0]);
        assert_eq!(x, vec![4.0, 5.0, 0.0, 1.0]);
        assert_eq!(labels, vec![0, 0]);
    }

    #[test]
    fn normalization() {
        let mut d = tiny();
        d.normalize();
        let data: Vec<f32> = (0..3).flat_map(|i| d.sample(i).to_vec()).collect();
        let mean: f32 = data.iter().sum::<f32>() / 6.0;
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn accuracy_metric() {
        let d = tiny();
        assert_eq!(d.accuracy(&[0, 1, 2], &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(d.accuracy(&[], &[]), 0.0);
    }
}
