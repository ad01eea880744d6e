//! Cross-shard tiling: one logical operator spread over many shards.
//!
//! The single-group [`TiledOperator`](gramc_core::tiling::TiledOperator)
//! spreads tiles over the macros of *one* group; this version spreads them
//! round-robin over the runtime's **shards**, so every tile's partial
//! product runs on a different analog plane concurrently and the digital
//! reduction happens once the scheduler drains. Both use
//! [`tile_grid`](gramc_core::tiling::tile_grid), so they split a matrix
//! identically.

use std::sync::Arc;

use gramc_core::tiling::{tile_grid, TileMapping};
use gramc_core::CoreError;
use gramc_linalg::Matrix;

use crate::error::RuntimeError;
use crate::registry::{OperatorHandle, Placement};
use crate::runtime::Runtime;

/// One placed tile: its handle and its window into the logical matrix.
#[derive(Debug, Clone, Copy)]
struct Tile {
    handle: OperatorHandle,
    r0: usize,
    c0: usize,
    rows: usize,
    cols: usize,
}

/// A matrix operator tiled across the runtime's shards.
#[derive(Debug)]
pub struct ShardedTiledOperator {
    rows: usize,
    cols: usize,
    tiles: Vec<Tile>,
    freed: bool,
}

impl ShardedTiledOperator {
    /// Splits `a` into array-sized tiles and places them round-robin
    /// across the shards. All tile loads are submitted up front and retire
    /// in one scheduler drain (per-shard program order still loads each
    /// shard's tiles in submission order).
    ///
    /// # Errors
    ///
    /// Capacity/mapping errors from the shards; everything loaded so far
    /// is rolled back on failure.
    pub fn load(rt: &Runtime, a: &Matrix, mapping: TileMapping) -> Result<Self, RuntimeError> {
        let (rows, cols) = a.shape();
        if rows == 0 || cols == 0 {
            return Err(CoreError::InvalidArgument("cannot tile an empty matrix").into());
        }
        let config = rt.config();
        let (row_starts, col_starts) = tile_grid(rows, cols, config.array_rows, config.array_cols);
        let mut tiles: Vec<Tile> = Vec::with_capacity(row_starts.len() * col_starts.len());
        let mut jobs = Vec::with_capacity(tiles.capacity());
        for &r0 in &row_starts {
            for &c0 in &col_starts {
                let tr = config.array_rows.min(rows - r0);
                let tc = config.array_cols.min(cols - c0);
                let block = a.block(r0, c0, tr, tc);
                let (handle, jh) = rt.submit_load(&block, mapping, Placement::RoundRobin)?;
                tiles.push(Tile { handle, r0, c0, rows: tr, cols: tc });
                jobs.push(jh);
            }
        }
        rt.run_all();
        let results: Vec<_> = jobs.iter().map(|jh| jh.wait()).collect();
        if let Some(e) = results.iter().find_map(|r| r.as_ref().err()) {
            // Roll back the tiles that did load (failed loads already
            // retired their registry entries).
            let frees: Vec<_> = tiles
                .iter()
                .zip(&results)
                .filter(|(_, r)| r.is_ok())
                .filter_map(|(t, _)| rt.submit_free(t.handle).ok())
                .collect();
            rt.run_all();
            for jh in frees {
                let _ = jh.wait();
            }
            return Err(e.clone());
        }
        Ok(Self { rows, cols, tiles, freed: false })
    }

    /// Logical shape of the tiled matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Sharded batched MVM: one matrix job per tile is submitted, the
    /// scheduler drains them across the shards (stealing as needed), and
    /// the partial products reduce digitally into the full result.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] after [`free`](Self::free); shape
    /// errors for wrong input lengths; shard errors propagate.
    pub fn mvm_batch(&self, rt: &Runtime, xs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, RuntimeError> {
        for x in xs {
            if x.len() != self.cols {
                return Err(CoreError::ShapeMismatch { expected: self.cols, found: x.len() }.into());
            }
        }
        let drive = Arc::new(Matrix::from_row_vecs(self.cols, xs));
        Ok(self.mvm_batch_rows(rt, &drive)?.to_row_vecs())
    }

    /// [`mvm_batch`](Self::mvm_batch) on matrix batches (row `b` in, row `b`
    /// out). Every tile's job ([`Work::MvmRows`](crate::Work::MvmRows))
    /// shares the one `xs` by reference count, and the tile's DACs read its
    /// column window in place, so the payload crossing the shard boundary
    /// is one `Arc` per tile per batch — nothing is copied or allocated per
    /// drive row. The streaming `gramc-nn` pipeline submits whole-dataset
    /// drive matrices through this.
    ///
    /// # Errors
    ///
    /// See [`mvm_batch`](Self::mvm_batch).
    pub fn mvm_batch_rows(&self, rt: &Runtime, xs: &Arc<Matrix>) -> Result<Matrix, RuntimeError> {
        if self.freed {
            return Err(RuntimeError::InvalidHandle);
        }
        if xs.cols() != self.cols {
            return Err(CoreError::ShapeMismatch { expected: self.cols, found: xs.cols() }.into());
        }
        let bsz = xs.rows();
        if bsz == 0 {
            return Ok(Matrix::zeros(0, self.rows));
        }
        let mut jobs = Vec::with_capacity(self.tiles.len());
        for t in &self.tiles {
            jobs.push(rt.submit_mvm_rows(t.handle, xs.clone(), t.c0..t.c0 + t.cols)?);
        }
        rt.run_all();
        let mut ys = Matrix::zeros(bsz, self.rows);
        for (t, jh) in self.tiles.iter().zip(&jobs) {
            let partials = jh.wait_rows()?;
            for b in 0..bsz {
                let y = &mut ys.row_mut(b)[t.r0..t.r0 + t.rows];
                for (yk, &p) in y.iter_mut().zip(partials.row(b)) {
                    *yk += p;
                }
            }
        }
        Ok(ys)
    }

    /// Sharded single MVM (a batch of one).
    ///
    /// # Errors
    ///
    /// See [`mvm_batch`](Self::mvm_batch).
    pub fn mvm(&self, rt: &Runtime, x: &[f64]) -> Result<Vec<f64>, RuntimeError> {
        let mut ys = self.mvm_batch(rt, std::slice::from_ref(&x.to_vec()))?;
        Ok(ys.remove(0))
    }

    /// Releases every tile.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidHandle`] if already freed.
    pub fn free(&mut self, rt: &Runtime) -> Result<(), RuntimeError> {
        if self.freed {
            return Err(RuntimeError::InvalidHandle);
        }
        self.freed = true;
        let mut jobs = Vec::with_capacity(self.tiles.len());
        for t in &self.tiles {
            jobs.push(rt.submit_free(t.handle)?);
        }
        rt.run_all();
        for jh in jobs {
            jh.wait()?;
        }
        Ok(())
    }
}
