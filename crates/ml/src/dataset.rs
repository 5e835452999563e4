//! Labelled training data for the classifiers.
//!
//! Values are stored column-major as `i64`, the one value type a tuple
//! attribute has here (`TupleValues::value`), and every attribute is
//! ordered: the tree splits it at a threshold. Labels are dense `u32` class
//! ids — in Schism these are partition numbers plus virtual replication
//! labels (§4.3).

use crate::entropy::xlog2x;

/// Attribute metadata: the column's name, for rendering rules.
#[derive(Clone, Debug)]
pub struct Attribute {
    pub name: String,
}

/// A labelled dataset, column-major.
#[derive(Clone, Debug)]
pub struct Dataset {
    attrs: Vec<Attribute>,
    /// `columns[a][row]` = value of attribute `a` in `row`.
    columns: Vec<Vec<i64>>,
    labels: Vec<u32>,
    num_classes: u32,
    /// `xlog2x[c]` = [`crate::entropy::xlog2x`]`(c)` for every count
    /// `0..=len`: the tree's split criterion reads it instead of taking logs.
    xlog2x: Vec<f64>,
}

impl Dataset {
    /// Creates a dataset from attribute metadata, column vectors, and labels.
    ///
    /// # Panics
    /// Panics if the shapes disagree or a label is `>= num_classes`.
    pub fn new(
        attrs: Vec<Attribute>,
        columns: Vec<Vec<i64>>,
        labels: Vec<u32>,
        num_classes: u32,
    ) -> Self {
        assert_eq!(attrs.len(), columns.len(), "one column per attribute");
        for col in &columns {
            assert_eq!(
                col.len(),
                labels.len(),
                "all columns must match label count"
            );
        }
        for &l in &labels {
            assert!(l < num_classes, "label {l} >= num_classes {num_classes}");
        }
        let xlog2x = (0..=labels.len() as u32).map(xlog2x).collect();
        Self {
            attrs,
            columns,
            labels,
            num_classes,
            xlog2x,
        }
    }

    /// Keeps only the attributes `keep` names (distinct indices), in that
    /// order; their columns and the labels move, nothing is copied.
    pub fn project(self, keep: &[usize]) -> Self {
        let mut all: Vec<Option<(Attribute, Vec<i64>)>> =
            self.attrs.into_iter().zip(self.columns).map(Some).collect();
        let (attrs, columns) = keep
            .iter()
            .map(|&a| all[a].take().expect("attribute kept twice"))
            .unzip();
        Self {
            attrs,
            columns,
            labels: self.labels,
            num_classes: self.num_classes,
            xlog2x: self.xlog2x,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of attributes.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> u32 {
        self.num_classes
    }

    /// Attribute metadata.
    pub fn attr(&self, a: usize) -> &Attribute {
        &self.attrs[a]
    }

    /// All attributes.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Value of attribute `a` in `row`.
    #[inline]
    pub fn value(&self, a: usize, row: usize) -> i64 {
        self.columns[a][row]
    }

    /// Whole column for attribute `a`.
    pub fn column(&self, a: usize) -> &[i64] {
        &self.columns[a]
    }

    /// Label of `row`.
    #[inline]
    pub fn label(&self, row: usize) -> u32 {
        self.labels[row]
    }

    /// All labels.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// `c·log2 c` for every count `c` a histogram over this dataset can hold.
    pub(crate) fn xlog2x_table(&self) -> &[f64] {
        &self.xlog2x
    }

    /// Class histogram over the given row indices.
    pub fn class_counts(&self, rows: &[u32]) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_classes as usize];
        for &r in rows {
            counts[self.labels[r as usize] as usize] += 1;
        }
        counts
    }
}

/// Convenience builder for tests and small callers.
#[derive(Clone, Debug, Default)]
pub struct DatasetBuilder {
    attrs: Vec<Attribute>,
    rows: Vec<Vec<i64>>,
    labels: Vec<u32>,
}

impl DatasetBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn numeric(mut self, name: &str) -> Self {
        self.attrs.push(Attribute { name: name.into() });
        self
    }

    pub fn row(&mut self, values: &[i64], label: u32) -> &mut Self {
        assert_eq!(values.len(), self.attrs.len());
        self.rows.push(values.to_vec());
        self.labels.push(label);
        self
    }

    pub fn build(self) -> Dataset {
        let n_attrs = self.attrs.len();
        let mut columns = vec![Vec::with_capacity(self.rows.len()); n_attrs];
        for row in &self.rows {
            for (a, &v) in row.iter().enumerate() {
                columns[a].push(v);
            }
        }
        let num_classes = self.labels.iter().copied().max().map_or(1, |m| m + 1);
        Dataset::new(self.attrs, columns, self.labels, num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let mut b = DatasetBuilder::new().numeric("x").numeric("c");
        b.row(&[10, 0], 0);
        b.row(&[20, 1], 1);
        b.row(&[30, 2], 1);
        let ds = b.build();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.num_attrs(), 2);
        assert_eq!(ds.num_classes(), 2);
        assert_eq!(ds.value(0, 1), 20);
        assert_eq!(ds.value(1, 2), 2);
        assert_eq!(ds.label(0), 0);
        assert_eq!(ds.class_counts(&[0, 1, 2]), vec![1, 2]);
    }

    #[test]
    fn project_keeps_named_attributes_in_order() {
        let mut b = DatasetBuilder::new().numeric("x").numeric("c").numeric("y");
        b.row(&[10, 0, 7], 0);
        b.row(&[20, 1, 8], 1);
        let ds = b.build().project(&[2, 0]);
        let names: Vec<&str> = ds.attrs().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["y", "x"]);
        assert_eq!((ds.column(0), ds.column(1)), (&[7, 8][..], &[10, 20][..]));
        assert_eq!((ds.labels(), ds.num_classes()), (&[0, 1][..], 2));
    }
}
