//! Distributed block storage for the factor.
//!
//! Each rank materializes exactly the blocks the 2D map assigns to it: the
//! diagonal block of supernode `j` is a dense `w×w` matrix (lower triangle
//! significant), an off-diagonal block `B(i,j)` is a dense `n_rows × w`
//! matrix whose rows are the block's slice of the supernode's row pattern.

use crate::map2d::ProcGrid;
use std::collections::HashMap;
use sympack_dense::{BlockRef, LowRankMat, Mat};
use sympack_sparse::SparseSym;
use sympack_symbolic::SymbolicFactor;

/// Key of a stored block: `(target supernode, owner supernode)`; the
/// diagonal block of `j` is `(j, j)`.
pub type BlockKey = (usize, usize);

/// A stored factor block: dense, or compressed to `U·Vᵀ` by the BLR path.
///
/// Diagonal blocks and update targets are always `Dense`; only factored
/// off-diagonal panels may be `LowRank`, and only when the solver runs with
/// a nonzero compression tolerance.
#[derive(Debug, Clone)]
pub enum Block {
    /// Full `rows × cols` storage.
    Dense(Mat),
    /// Factored `U·Vᵀ` storage holding `(rows + cols) · rank` values.
    LowRank(LowRankMat),
}

impl Block {
    /// Row count of the block this value represents.
    pub fn rows(&self) -> usize {
        match self {
            Block::Dense(m) => m.rows(),
            Block::LowRank(lr) => lr.rows(),
        }
    }

    /// Column count of the block this value represents.
    pub fn cols(&self) -> usize {
        match self {
            Block::Dense(m) => m.cols(),
            Block::LowRank(lr) => lr.cols(),
        }
    }

    /// Bytes of f64 payload actually stored (dense extent for `Dense`,
    /// factored extent for `LowRank`) — the number the memory gauge and the
    /// fleet's cache charge.
    pub fn bytes(&self) -> u64 {
        match self {
            Block::Dense(m) => (m.rows() * m.cols() * 8) as u64,
            Block::LowRank(lr) => lr.bytes(),
        }
    }

    /// True when stored in factored form.
    pub fn is_lowrank(&self) -> bool {
        matches!(self, Block::LowRank(_))
    }

    /// Stored rank (`None` for dense blocks).
    pub fn lr_rank(&self) -> Option<usize> {
        match self {
            Block::Dense(_) => None,
            Block::LowRank(lr) => Some(lr.rank()),
        }
    }

    /// Borrow as a dense matrix. Panics on a low-rank block: callers on the
    /// dense-only paths (diagonal blocks, update targets) use this to state
    /// the invariant rather than silently densify.
    pub fn dense(&self) -> &Mat {
        match self {
            Block::Dense(m) => m,
            Block::LowRank(_) => panic!("block stored low-rank where dense storage is invariant"),
        }
    }

    /// Mutably borrow as a dense matrix. Panics on a low-rank block.
    pub fn dense_mut(&mut self) -> &mut Mat {
        match self {
            Block::Dense(m) => m,
            Block::LowRank(_) => panic!("block stored low-rank where dense storage is invariant"),
        }
    }

    /// Consume into a dense matrix, expanding a low-rank block.
    pub fn into_dense(self) -> Mat {
        match self {
            Block::Dense(m) => m,
            Block::LowRank(lr) => lr.to_dense(),
        }
    }

    /// Dense copy of the block, expanding a low-rank block.
    pub fn to_dense(&self) -> Mat {
        match self {
            Block::Dense(m) => m.clone(),
            Block::LowRank(lr) => lr.to_dense(),
        }
    }

    /// Borrow as a kernel operand.
    pub fn as_ref(&self) -> BlockRef<'_> {
        match self {
            Block::Dense(m) => BlockRef::Dense(m),
            Block::LowRank(lr) => BlockRef::LowRank(lr),
        }
    }
}

impl From<Mat> for Block {
    fn from(m: Mat) -> Block {
        Block::Dense(m)
    }
}

impl From<LowRankMat> for Block {
    fn from(lr: LowRankMat) -> Block {
        Block::LowRank(lr)
    }
}

/// This rank's slice of the factor.
///
/// Blocks sit in a `Vec` in [`BlockStore::init`]'s allocation order — for
/// each supernode `j` ascending, the diagonal block `(j, j)` if owned, then
/// the owned off-diagonal blocks of `j` in layout (ascending target)
/// order. A block's position is its *slot*; precomputed schedules (the
/// triangular solve's `SolveSchedule`) read blocks by slot, and keyed
/// access goes through a key → slot index built in the same pass.
#[derive(Debug, Default)]
pub struct BlockStore {
    keys: Vec<BlockKey>,
    blocks: Vec<Option<Block>>,
    index: HashMap<BlockKey, u32>,
}

impl BlockStore {
    /// Allocate every block owned by `rank` under `grid` and scatter the
    /// permuted matrix values into them.
    ///
    /// `ap` must already carry the symbolic factor's composite permutation.
    pub fn init(sf: &SymbolicFactor, ap: &SparseSym, grid: &ProcGrid, rank: usize) -> Self {
        let ns = sf.n_supernodes();
        let mut store = BlockStore::default();
        // Slot of each owned off-diagonal block of the current supernode,
        // by its position in the layout.
        let mut col_slots: Vec<Option<usize>> = Vec::new();
        for j in 0..ns {
            let w = sf.partition.width(j);
            let diag = (grid.map(j, j) == rank).then(|| store.push((j, j), Mat::zeros(w, w)));
            let blocks = sf.layout.blocks_of(j);
            col_slots.clear();
            col_slots.extend(blocks.iter().map(|b| {
                (grid.map(b.target, j) == rank)
                    .then(|| store.push((b.target, j), Mat::zeros(b.n_rows, w)))
            }));
            // Scatter values of A's lower triangle in supernode j.
            let first = sf.partition.first_col(j);
            let last = sf.partition.last_col(j);
            let pat = &sf.patterns[j];
            for c in sf.partition.cols(j) {
                let jc = c - first;
                for (&r, &v) in ap.col_rows(c).iter().zip(ap.col_values(c)) {
                    if r <= last {
                        // Diagonal block entry.
                        if let Some(slot) = diag {
                            store.dense_at(slot)[(r - first, jc)] = v;
                        }
                        continue;
                    }
                    let t = sf.partition.supno(r);
                    let k = blocks
                        .binary_search_by_key(&t, |b| b.target)
                        .expect("pattern row must have a block");
                    let Some(slot) = col_slots[k] else {
                        continue;
                    };
                    let b = &blocks[k];
                    let rows = &pat[b.row_offset..b.row_offset + b.n_rows];
                    let ri = rows.binary_search(&r).expect("row in block");
                    store.dense_at(slot)[(ri, jc)] = v;
                }
            }
        }
        store
    }

    /// Append a block in a new slot and index it.
    fn push(&mut self, key: BlockKey, m: impl Into<Block>) -> usize {
        let slot = self.blocks.len();
        self.keys.push(key);
        self.blocks.push(Some(m.into()));
        self.index.insert(key, slot as u32);
        slot
    }

    fn dense_at(&mut self, slot: usize) -> &mut Mat {
        self.blocks[slot]
            .as_mut()
            .expect("freshly allocated block")
            .dense_mut()
    }

    /// Borrow an owned block.
    pub fn get(&self, key: BlockKey) -> Option<&Block> {
        let slot = *self.index.get(&key)?;
        self.blocks[slot as usize].as_ref()
    }

    /// Mutably borrow an owned block.
    pub fn get_mut(&mut self, key: BlockKey) -> Option<&mut Block> {
        let slot = *self.index.get(&key)?;
        self.blocks[slot as usize].as_mut()
    }

    /// The block in `slot` with its key (`None` for an empty or taken
    /// slot). Slots follow [`BlockStore::init`]'s allocation order.
    pub fn slot(&self, slot: usize) -> Option<(BlockKey, &Block)> {
        let b = self.blocks.get(slot)?.as_ref()?;
        Some((self.keys[slot], b))
    }

    /// Take a block out (e.g. to run a kernel without aliasing); its slot
    /// stays reserved for [`put`](Self::put).
    pub fn take(&mut self, key: BlockKey) -> Option<Block> {
        let slot = *self.index.get(&key)?;
        self.blocks[slot as usize].take()
    }

    /// Put a block (back) into its slot — a new key gets a new slot at the
    /// end. Accepts dense and low-rank forms.
    pub fn put(&mut self, key: BlockKey, m: impl Into<Block>) {
        match self.index.get(&key) {
            Some(&slot) => self.blocks[slot as usize] = Some(m.into()),
            None => {
                self.push(key, m);
            }
        }
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }

    /// True when this rank holds no block (tiny matrices on big grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over held blocks in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockKey, &Block)> {
        self.keys
            .iter()
            .zip(&self.blocks)
            .filter_map(|(k, b)| Some((k, b.as_ref()?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_ordering::{compute_ordering, OrderingKind};
    use sympack_sparse::gen::laplacian_2d;
    use sympack_symbolic::{analyze, AnalyzeOptions};

    fn setup() -> (SymbolicFactor, SparseSym) {
        let a = laplacian_2d(6, 5);
        let ord = compute_ordering(&a, OrderingKind::NestedDissection);
        let sf = analyze(&a, &ord, &AnalyzeOptions::default());
        let ap = a.permute(sf.perm.as_slice());
        (sf, ap)
    }

    #[test]
    fn single_rank_holds_all_blocks_and_all_values() {
        let (sf, ap) = setup();
        let grid = ProcGrid::squarest(1);
        let store = BlockStore::init(&sf, &ap, &grid, 0);
        let ns = sf.n_supernodes();
        let expect = ns + sf.layout.n_off_diagonal();
        assert_eq!(store.len(), expect);
        // Every stored lower-triangle entry of A appears at the right spot.
        for j in 0..ns {
            let first = sf.partition.first_col(j);
            let last = sf.partition.last_col(j);
            for c in sf.partition.cols(j) {
                for (&r, &v) in ap.col_rows(c).iter().zip(ap.col_values(c)) {
                    if r <= last {
                        let m = store.get((j, j)).unwrap().dense();
                        assert_eq!(m[(r - first, c - first)], v);
                    } else {
                        let t = sf.partition.supno(r);
                        let b = sf.layout.find(t, j).unwrap();
                        let rows = &sf.patterns[j][b.row_offset..b.row_offset + b.n_rows];
                        let ri = rows.binary_search(&r).unwrap();
                        let m = store.get((t, j)).unwrap().dense();
                        assert_eq!(m[(ri, c - first)], v);
                    }
                }
            }
        }
    }

    #[test]
    fn multi_rank_stores_partition_blocks_disjointly() {
        let (sf, ap) = setup();
        let grid = ProcGrid::squarest(4);
        let stores: Vec<BlockStore> = (0..4)
            .map(|r| BlockStore::init(&sf, &ap, &grid, r))
            .collect();
        let total: usize = stores.iter().map(BlockStore::len).sum();
        assert_eq!(total, sf.n_supernodes() + sf.layout.n_off_diagonal());
        // No block key appears on two ranks.
        let mut seen = std::collections::HashSet::new();
        for s in &stores {
            for (k, _) in s.iter() {
                assert!(seen.insert(*k), "block {k:?} duplicated");
            }
        }
    }

    #[test]
    fn slots_follow_allocation_order_and_survive_take_put() {
        let (sf, ap) = setup();
        let grid = ProcGrid::squarest(2);
        for rank in 0..2 {
            let mut store = BlockStore::init(&sf, &ap, &grid, rank);
            let mut want = Vec::new();
            for j in 0..sf.n_supernodes() {
                if grid.map(j, j) == rank {
                    want.push((j, j));
                }
                for b in sf.layout.blocks_of(j) {
                    if grid.map(b.target, j) == rank {
                        want.push((b.target, j));
                    }
                }
            }
            let got: Vec<BlockKey> = store.iter().map(|(k, _)| *k).collect();
            assert_eq!(got, want, "rank {rank}");
            for (s, key) in want.iter().enumerate() {
                assert_eq!(store.slot(s).map(|(k, _)| k), Some(*key));
            }
            // A taken block leaves its slot empty; putting it back refills
            // the same slot.
            let key = want[0];
            let blk = store.take(key).unwrap();
            assert!(store.slot(0).is_none());
            assert!(store.get(key).is_none());
            assert_eq!(store.len(), want.len() - 1);
            store.put(key, blk);
            assert_eq!(store.slot(0).map(|(k, _)| k), Some(key));
            assert_eq!(store.len(), want.len());
        }
    }
}
