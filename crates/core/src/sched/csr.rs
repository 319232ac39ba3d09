//! Flat adjacency lists for precomputed task-graph slices.

/// Compressed sparse rows with `u32` entries: row `r` is
/// `idx[ptr[r]..ptr[r + 1]]`. The task-graph slices (consumer lists,
/// destination sets, blocks by row) use it instead of one `Vec` per row:
/// two allocations in total, and a row lookup is two loads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    ptr: Vec<u32>,
    idx: Vec<u32>,
}

impl Csr {
    /// Build `rows` rows from `(row, value)` pairs. A counting sort: every
    /// row keeps its values in the order the pairs list them.
    ///
    /// # Panics
    /// Panics if a pair names a row `>= rows`.
    pub fn from_pairs(rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut ptr = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            ptr[r as usize + 1] += 1;
        }
        for r in 0..rows {
            ptr[r + 1] += ptr[r];
        }
        let mut fill = ptr.clone();
        let mut idx = vec![0u32; pairs.len()];
        for &(r, v) in pairs {
            let at = &mut fill[r as usize];
            idx[*at as usize] = v;
            *at += 1;
        }
        Csr { ptr, idx }
    }

    /// Row `r`'s values.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.idx[self.ptr[r] as usize..self.ptr[r + 1] as usize]
    }

    /// Total values over all rows.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// True when no row holds a value.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_keep_pair_order() {
        let c = Csr::from_pairs(4, &[(2, 7), (0, 1), (2, 3), (0, 9), (2, 5)]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.row(0), &[1, 9]);
        assert!(c.row(1).is_empty());
        assert_eq!(c.row(2), &[7, 3, 5]);
        assert!(c.row(3).is_empty());
    }

    #[test]
    fn empty_rows() {
        let c = Csr::from_pairs(3, &[]);
        assert!(c.is_empty());
        assert!((0..3).all(|r| c.row(r).is_empty()));
    }
}
