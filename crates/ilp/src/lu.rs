//! Sparse LU factorization of the simplex basis with Forrest–Tomlin
//! updates.
//!
//! The basis matrix `B` of the revised simplex ([`crate::simplex`]) is
//! maintained as the product `B = F · H · V`:
//!
//! * **`F`** — the lower-triangular factor of the last refactorization,
//!   stored as a file of column etas (the Gaussian elimination
//!   multipliers). `F` is frozen between refactorizations.
//! * **`V`** — the permuted upper-triangular factor, stored **explicitly**
//!   in dual (column-wise + row-wise) form so Forrest–Tomlin can rewrite
//!   its columns and rows in place.
//! * **`H`** — a growing file of elementary *row* transformations, one
//!   appended per Forrest–Tomlin update, that re-triangularise `V` after
//!   a basis column is replaced.
//!
//! Refactorization ([`LuFactors::factorize`]) runs right-looking Gaussian
//! elimination with **Markowitz pivot ordering**: each pivot minimises the
//! fill-in proxy `(row_count − 1) · (col_count − 1)` over the active
//! submatrix, restricted to entries that pass the **threshold
//! partial-pivoting** test `|a| ≥ τ · max|column|` (τ =
//! [`PIVOT_THRESHOLD`]) so sparsity can never buy numerical garbage. The
//! search walks candidate columns in increasing active count, ties by
//! column index, and settles after a few eligible columns (the Suhl–Suhl
//! compromise).
//!
//! The active columns stay **bucketed by count across elimination
//! steps**, as in Suhl & Suhl (1990, *ORSA J. Computing* 2(4)), instead of
//! being re-bucketed at every step. Each count owns a bitset over the
//! columns, and a step moves only the columns whose count it changes: the
//! pivot column, which leaves, and the columns of the frozen pivot row,
//! which lose that entry and may gain fill-in or lose a cancelled entry.
//! A move is two bit flips and the search reads only the lowest nonempty
//! buckets, so ordering no longer costs an O(m) scan per step, which made
//! a whole factorization O(m²) and refactorization the solver's hottest
//! path.
//!
//! **Bit-identity.** Reading a bucket's bitset yields its columns in
//! ascending index, so the search visits columns in exactly the order a
//! per-step rebuild produces. Every step therefore picks the same pivot,
//! every factor entry lands at the same list position, and FTRAN/BTRAN
//! return the same bits; the unit tests keep the per-step rebuild as the
//! reference and compare the two bit for bit. The search trees above are
//! sensitive to the last bit (a refactorization-level perturbation
//! reshuffles branch-and-bound), so a change to the selection rule, the
//! list handling or the tolerances here changes the search, not just its
//! speed.
//!
//! A pivot ([`LuFactors::replace_column`]) applies the classic
//! Forrest–Tomlin rewrite: the leaving position's column of `V` is
//! replaced by the entering column's partial FTRAN (its *spike*), the
//! pivot's row/column pair moves to the back of the elimination order,
//! and the now off-diagonal entries of the freed pivot row are eliminated
//! with one appended `H` eta. The update **fails** — forcing the caller
//! to refactorize from the updated basis — when the resulting diagonal is
//! absolutely tiny ([`ABS_PIVOT_TOL`]) or small relative to the spike it
//! came from ([`REL_PIVOT_TOL`]): the Forrest–Tomlin stability test.
//! [`LuFactors::should_refactor`] additionally recommends a rebuild once
//! update-file growth makes FTRAN/BTRAN more expensive than a fresh
//! factorization would be — a fill-in policy, not a fixed cadence.
//!
//! Everything is deterministic: pivot ties break on larger magnitude and
//! then smaller indices, and all sweeps run in fixed order.

/// Threshold partial pivoting: an entry may be chosen as pivot only when
/// its magnitude is at least this fraction of the largest magnitude in
/// its active column. Higher is more stable, lower is sparser; 0.1 is the
/// textbook LP default.
pub const PIVOT_THRESHOLD: f64 = 0.1;
/// Pivots below this magnitude declare the basis numerically singular.
pub const ABS_PIVOT_TOL: f64 = 1e-10;
/// A Forrest–Tomlin update is rejected (→ refactorize) when the new
/// diagonal is smaller than this fraction of the spike's largest entry.
pub const REL_PIVOT_TOL: f64 = 1e-8;
/// Entries below this magnitude are dropped from factor files.
const DROP_TOL: f64 = 1e-12;
/// [`LuFactors::should_refactor`] triggers once the live fill (`V` plus
/// the `H` update file) exceeds this multiple of the fill right after the
/// last refactorization, plus a one-entry-per-row allowance.
const FILL_GROWTH_LIMIT: f64 = 3.0;
/// Hard cap on Forrest–Tomlin updates between refactorizations — a
/// drift backstop far above what the fill policy usually allows, so
/// long warm-start chains can run hundreds of updates on one factor.
const MAX_UPDATES: usize = 1024;
/// The Markowitz search settles after examining this many candidate
/// columns that hold at least one threshold-eligible entry.
const MARKOWITZ_SEARCH_COLS: usize = 4;

/// One column eta of the `F` factor: the multipliers that eliminated the
/// sub-pivot entries of one elimination step.
#[derive(Debug)]
struct ColEta {
    /// Pivot row of the elimination step.
    pivot_row: usize,
    /// `(row, multiplier)` for rows pivoted later than this step.
    entries: Vec<(usize, f64)>,
}

impl Clone for ColEta {
    fn clone(&self) -> Self {
        ColEta {
            pivot_row: self.pivot_row,
            entries: self.entries.clone(),
        }
    }

    // Reuses the eta's entry buffer (see [`LuFactors::clone_from`]).
    fn clone_from(&mut self, src: &Self) {
        self.pivot_row = src.pivot_row;
        self.entries.clone_from(&src.entries);
    }
}

impl ColEta {
    /// `v ← L_t⁻¹ v`.
    #[inline]
    fn ftran(&self, v: &mut [f64]) {
        let t = v[self.pivot_row];
        if t != 0.0 {
            for &(i, m) in &self.entries {
                v[i] -= m * t;
            }
        }
    }

    /// `v ← L_t⁻ᵀ v`.
    #[inline]
    fn btran(&self, v: &mut [f64]) {
        let mut acc = 0.0;
        for &(i, m) in &self.entries {
            acc += m * v[i];
        }
        v[self.pivot_row] -= acc;
    }
}

/// One row eta of the `H` update file: the row operation that eliminated
/// the freed pivot row after a Forrest–Tomlin column replacement.
#[derive(Debug)]
struct RowEta {
    /// The row that was re-triangularised.
    row: usize,
    /// `(other_row, multiplier)` pairs subtracted from `row`.
    entries: Vec<(usize, f64)>,
}

impl Clone for RowEta {
    fn clone(&self) -> Self {
        RowEta {
            row: self.row,
            entries: self.entries.clone(),
        }
    }

    // Reuses the eta's entry buffer (see [`LuFactors::clone_from`]).
    fn clone_from(&mut self, src: &Self) {
        self.row = src.row;
        self.entries.clone_from(&src.entries);
    }
}

impl RowEta {
    /// `v ← E v` (forward step): `v[row] -= Σ mult · v[other]`.
    #[inline]
    fn ftran(&self, v: &mut [f64]) {
        let mut acc = 0.0;
        for &(i, m) in &self.entries {
            acc += m * v[i];
        }
        v[self.row] -= acc;
    }

    /// `v ← Eᵀ v`: `v[other] -= mult · v[row]`.
    #[inline]
    fn btran(&self, v: &mut [f64]) {
        let t = v[self.row];
        if t != 0.0 {
            for &(i, m) in &self.entries {
                v[i] -= m * t;
            }
        }
    }
}

/// Cumulative factorization effort counters, exposed through the simplex
/// engine so branch and bound (and through it `ablation`) can report how
/// the basis was maintained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Full Markowitz refactorizations performed.
    pub refactorizations: usize,
    /// Forrest–Tomlin updates applied in place.
    pub ft_updates: usize,
    /// Updates rejected by the stability test (each forces a
    /// refactorization).
    pub rejected_updates: usize,
}

/// Why a factorization or update could not be completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The basis matrix is numerically singular (no acceptable pivot).
    Singular,
    /// The Forrest–Tomlin stability test failed; the factorization is
    /// left unusable and the caller must refactorize.
    UnstableUpdate,
}

/// A sparse LU factorization of one basis matrix, updatable in place by
/// Forrest–Tomlin column replacements.
///
/// The owner supplies basis columns through a callback at
/// [`LuFactors::factorize`] time and identifies columns by their **basis
/// position** (`0..m`) thereafter. [`LuFactors::ftran`] maps a dense
/// right-hand side to the solution indexed by basis position;
/// [`LuFactors::btran`] maps a position-indexed cost vector to row-indexed
/// simplex multipliers.
#[derive(Debug, Default)]
pub struct LuFactors {
    m: usize,
    /// Column etas of `F`, applied in append order for FTRAN.
    f_file: Vec<ColEta>,
    /// Row etas of `H`, applied in append order for FTRAN.
    h_file: Vec<RowEta>,
    /// `V` column-wise: `(row, value)` entries of each basis position,
    /// **excluding** the diagonal (kept in `vdiag`). Unordered.
    vcols: Vec<Vec<(usize, f64)>>,
    /// `V` row-wise mirror: `(position, value)` entries, no diagonals.
    vrows: Vec<Vec<(usize, f64)>>,
    /// Diagonal (pivot) value per basis position.
    vdiag: Vec<f64>,
    /// Elimination order: `order[t]` is the basis position pivoted at
    /// step `t` (solves sweep it forwards for `Vᵀ`, backwards for `V`).
    order: Vec<usize>,
    /// Inverse of `order`.
    step_of: Vec<usize>,
    /// Pivot row of each basis position.
    pivot_row_of: Vec<usize>,
    /// Whether a usable factorization is loaded.
    valid: bool,
    /// `V`+`H` stored entries right after the last refactorization.
    base_fill: usize,
    /// Live `V` entry count (diagonals included), kept incrementally.
    v_fill: usize,
    /// Live `H` entry count.
    h_fill: usize,
    /// Forrest–Tomlin updates applied since the last refactorization
    /// (some leave no `H` eta, so this is not `h_file.len()`).
    updates_since: usize,
    /// Dense scratch for the solve permutations.
    scratch: Vec<f64>,
    stats: FactorStats,
    /// The elimination's working storage, kept so the next
    /// refactorization reuses its buffers instead of reallocating them.
    /// It is no part of the factors: `clone_from` neither copies nor
    /// clears it, which keeps the simplex engine's per-node snapshot as
    /// cheap as the factors themselves. A rollback by `mem::swap` trades
    /// it along with the factors, which is harmless: any storage serves
    /// any refactorization.
    work: Active,
}

impl Clone for LuFactors {
    fn clone(&self) -> Self {
        let mut c = LuFactors::default();
        c.clone_from(self);
        c
    }

    /// Allocation-reusing deep copy: the simplex engine snapshots the
    /// factorization before every dual walk and rolls it back after, so
    /// this runs once per warm branch-and-bound node — `Vec::clone_from`
    /// keeps the eta/`V` buffers (outer and inner) instead of
    /// reallocating them each time. The working storage stays behind.
    fn clone_from(&mut self, src: &Self) {
        self.m = src.m;
        self.f_file.clone_from(&src.f_file);
        self.h_file.clone_from(&src.h_file);
        self.vcols.clone_from(&src.vcols);
        self.vrows.clone_from(&src.vrows);
        self.vdiag.clone_from(&src.vdiag);
        self.order.clone_from(&src.order);
        self.step_of.clone_from(&src.step_of);
        self.pivot_row_of.clone_from(&src.pivot_row_of);
        self.valid = src.valid;
        self.base_fill = src.base_fill;
        self.v_fill = src.v_fill;
        self.h_fill = src.h_fill;
        self.updates_since = src.updates_since;
        self.scratch.clone_from(&src.scratch);
        self.stats = src.stats;
    }
}

impl LuFactors {
    /// An empty factorization; call [`LuFactors::factorize`] before
    /// solving.
    pub fn new() -> Self {
        LuFactors::default()
    }

    /// Cumulative effort counters (never reset by refactorization).
    pub fn stats(&self) -> FactorStats {
        self.stats
    }

    /// Whether a usable factorization is currently loaded.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Forrest–Tomlin updates applied since the last refactorization.
    pub fn updates_since_refactor(&self) -> usize {
        self.updates_since
    }

    /// Whether the fill-in policy recommends a rebuild: the live factor
    /// fill has grown past `FILL_GROWTH_LIMIT` times the
    /// post-refactorization fill (plus one entry per row of slack), or
    /// the update count hit the `MAX_UPDATES` drift backstop. Unlike
    /// the product-form eta file this module replaces, triggering is a
    /// *cost* decision — the factorization stays numerically valid either
    /// way.
    pub fn should_refactor(&self) -> bool {
        self.updates_since >= MAX_UPDATES
            || (self.v_fill + self.h_fill) as f64
                > FILL_GROWTH_LIMIT * self.base_fill as f64 + self.m as f64
    }

    /// Factorizes the `m × m` basis whose column at position `p` is
    /// produced by `column(p, &mut buf)` (pushing `(row, value)` entries,
    /// duplicates pre-summed). Replaces any previous factorization.
    ///
    /// # Errors
    ///
    /// [`LuError::Singular`] when some elimination step finds no
    /// acceptable pivot; the factorization is left unusable.
    pub fn factorize(
        &mut self,
        m: usize,
        column: impl FnMut(usize, &mut Vec<(usize, f64)>),
    ) -> Result<(), LuError> {
        let mut work = std::mem::take(&mut self.work);
        let result = self.factorize_with(&mut work, m, column, markowitz_pivot);
        self.work = work;
        result
    }

    /// [`LuFactors::factorize`] in the working storage `a`, with the pivot
    /// search passed in, so the unit tests can run the one elimination
    /// loop under a reference search and compare the factors bit for bit.
    fn factorize_with(
        &mut self,
        a: &mut Active,
        m: usize,
        mut column: impl FnMut(usize, &mut Vec<(usize, f64)>),
        search: impl Fn(&Active) -> Option<(usize, usize)>,
    ) -> Result<(), LuError> {
        self.m = m;
        self.valid = false;
        self.f_file.clear();
        self.h_file.clear();
        self.stats.refactorizations += 1;

        a.reset(m);
        let mut buf: Vec<(usize, f64)> = Vec::new();
        for (p, col) in a.cols.iter_mut().enumerate() {
            buf.clear();
            column(p, &mut buf);
            for &(r, v) in &buf {
                debug_assert!(r < m, "column {p} references row {r} of {m}");
                if v != 0.0 {
                    col.push((r, v));
                    a.rows[r].push((p, v));
                }
            }
        }
        for c in 0..m {
            a.list(c);
        }

        for list in self.vcols.iter_mut().chain(self.vrows.iter_mut()) {
            list.clear();
        }
        self.vcols.resize_with(m, Vec::new);
        self.vrows.resize_with(m, Vec::new);
        self.vdiag = vec![0.0; m];
        self.order.clear();
        self.step_of = vec![usize::MAX; m];
        self.pivot_row_of = vec![usize::MAX; m];
        self.scratch.clear();
        self.scratch.resize(m, 0.0);
        self.v_fill = 0;
        self.h_fill = 0;
        self.updates_since = 0;

        let mut urow: Vec<(usize, f64)> = Vec::new();
        for _step in 0..m {
            let Some((pr, pc)) = search(a) else {
                return Err(LuError::Singular);
            };
            let pivot_val = a.cols[pc]
                .iter()
                .find(|&&(r, _)| r == pr)
                .map(|&(_, v)| v)
                .expect("chosen pivot entry exists");

            a.unlist(pc);
            a.col_active[pc] = false;
            a.row_active[pr] = false;
            self.step_of[pc] = self.order.len();
            self.order.push(pc);
            self.pivot_row_of[pc] = pr;
            self.vdiag[pc] = pivot_val;
            self.v_fill += 1;

            // Freeze row pr: its remaining active entries become the V
            // row; drop them from the active columns, whose counts change
            // here and in the update below, so they leave the count order
            // until the step is done.
            urow.clear();
            urow.extend(a.rows[pr].iter().filter(|&&(c, _)| a.col_active[c]));
            for &(c, v) in &urow {
                a.unlist(c);
                remove_entry(&mut a.cols[c], pr);
                self.vcols[c].push((pr, v));
                self.vrows[pr].push((c, v));
                self.v_fill += 1;
            }
            a.rows[pr].clear();

            // Multipliers for the still-active entries of column pc.
            let mults: Vec<(usize, f64)> = a.cols[pc]
                .iter()
                .filter(|&&(r, _)| a.row_active[r])
                .map(|&(r, v)| (r, v / pivot_val))
                .collect();
            for &(r, _) in &mults {
                remove_entry(&mut a.rows[r], pc);
            }
            a.cols[pc].clear();

            // Right-looking update over the active submatrix:
            // row_i -= mult_i × row_pr, generating fill-in.
            for &(c, u) in &urow {
                for &(r, mlt) in &mults {
                    add_to_entry(&mut a.cols[c], r, -mlt * u, &mut a.rows[r], c);
                }
                a.list(c);
            }
            if !mults.is_empty() {
                self.f_file.push(ColEta {
                    pivot_row: pr,
                    entries: mults,
                });
            }
        }
        self.base_fill = self.v_fill;
        self.valid = true;
        Ok(())
    }

    /// `v ← B⁻¹ v` (dense, row-indexed in, **basis-position**-indexed
    /// out). `spike`, when supplied, receives the partial transform
    /// `H⁻¹F⁻¹ v` — exactly the vector a subsequent
    /// [`LuFactors::replace_column`] for this column needs.
    pub fn ftran(&mut self, v: &mut [f64], spike: Option<&mut Vec<f64>>) {
        debug_assert!(self.valid, "ftran on an invalid factorization");
        debug_assert_eq!(v.len(), self.m);
        for eta in &self.f_file {
            eta.ftran(v);
        }
        for eta in &self.h_file {
            eta.ftran(v);
        }
        if let Some(s) = spike {
            s.clear();
            s.extend_from_slice(v);
        }
        // Back substitution V x = v over the elimination order; x for the
        // position pivoted on row r accumulates at v[r].
        for t in (0..self.m).rev() {
            let p = self.order[t];
            let r = self.pivot_row_of[p];
            let xv = v[r] / self.vdiag[p];
            if xv != 0.0 {
                for &(row, val) in &self.vcols[p] {
                    v[row] -= val * xv;
                }
            }
            v[r] = xv;
        }
        // Permute row-indexed solution entries onto basis positions.
        self.scratch.copy_from_slice(v);
        for (vp, &row) in v.iter_mut().zip(&self.pivot_row_of) {
            *vp = self.scratch[row];
        }
    }

    /// `v ← B⁻ᵀ v` (dense, **basis-position**-indexed in, row-indexed
    /// out — the simplex-multiplier convention `y = B⁻ᵀ c_B`).
    pub fn btran(&mut self, v: &mut [f64]) {
        debug_assert!(self.valid, "btran on an invalid factorization");
        debug_assert_eq!(v.len(), self.m);
        // Forward substitution Vᵀ z = v over the elimination order; the
        // input is read per position, the output lands per row, so the
        // result accumulates in scratch.
        for t in 0..self.m {
            let p = self.order[t];
            let r = self.pivot_row_of[p];
            let mut acc = v[p];
            for &(row, val) in &self.vcols[p] {
                acc -= val * self.scratch[row];
            }
            self.scratch[r] = acc / self.vdiag[p];
        }
        v.copy_from_slice(&self.scratch);
        for eta in self.h_file.iter().rev() {
            eta.btran(v);
        }
        for eta in self.f_file.iter().rev() {
            eta.btran(v);
        }
    }

    /// Forrest–Tomlin update: the basis column at position `p` is
    /// replaced by the column whose partial FTRAN (`H⁻¹F⁻¹ a`, captured
    /// by [`LuFactors::ftran`]) is `spike`.
    ///
    /// # Errors
    ///
    /// [`LuError::UnstableUpdate`] when the re-triangularised diagonal
    /// fails the stability test; the factorization is unusable afterwards
    /// and the caller must refactorize from the updated basis.
    pub fn replace_column(&mut self, p: usize, spike: &[f64]) -> Result<(), LuError> {
        debug_assert!(self.valid, "update on an invalid factorization");
        debug_assert_eq!(spike.len(), self.m);
        let t = self.step_of[p];
        let r = self.pivot_row_of[p];

        // Drop column p's current entries from the row mirror.
        self.v_fill -= 1 + self.vcols[p].len();
        let old_col = std::mem::take(&mut self.vcols[p]);
        for (row, _) in old_col {
            remove_entry(&mut self.vrows[row], p);
        }

        // Install the spike as the new column p, diagonal split off.
        let mut spike_max = 0.0f64;
        let mut diag = 0.0;
        for (row, &val) in spike.iter().enumerate() {
            if val.abs() <= DROP_TOL {
                continue;
            }
            spike_max = spike_max.max(val.abs());
            if row == r {
                diag = val;
            } else {
                self.vcols[p].push((row, val));
                self.vrows[row].push((p, val));
                self.v_fill += 1;
            }
        }
        self.v_fill += 1;

        // Move position p to the back of the elimination order.
        for s in t..self.m - 1 {
            self.order[s] = self.order[s + 1];
            self.step_of[self.order[s]] = s;
        }
        self.order[self.m - 1] = p;
        self.step_of[p] = self.m - 1;

        // Row r is no longer pivoted early: eliminate its entries in all
        // columns now ordered before p, sweeping in elimination order so
        // each step only creates fill in columns processed later. The
        // multipliers become one appended H eta.
        let mut eta_entries: Vec<(usize, f64)> = Vec::new();
        for s in t..self.m - 1 {
            let c = self.order[s];
            let Some(idx) = self.vrows[r].iter().position(|&(pos, _)| pos == c) else {
                continue;
            };
            let val = self.vrows[r][idx].1;
            self.vrows[r].swap_remove(idx);
            remove_entry(&mut self.vcols[c], r);
            self.v_fill -= 1;
            let mult = val / self.vdiag[c];
            if mult.abs() <= DROP_TOL {
                continue;
            }
            // row r -= mult × (pivot row of c), which lives in columns
            // ordered after c plus the spike column p.
            let pr_c = self.pivot_row_of[c];
            let updates = self.vrows[pr_c].clone();
            for (c2, u) in updates {
                if c2 == p {
                    continue; // the spike's pr_c entry feeds the diagonal
                }
                add_to_entry_v(
                    &mut self.vrows[r],
                    c2,
                    -mult * u,
                    &mut self.vcols[c2],
                    r,
                    &mut self.v_fill,
                );
            }
            if let Some(&(_, sv)) = self.vcols[p].iter().find(|&&(row, _)| row == pr_c) {
                diag -= mult * sv;
            }
            eta_entries.push((pr_c, mult));
        }

        // Stability test on the re-triangularised diagonal (Forrest–
        // Tomlin): absolute floor plus a relative test against the spike.
        if diag.abs() <= ABS_PIVOT_TOL || diag.abs() < REL_PIVOT_TOL * spike_max {
            self.stats.rejected_updates += 1;
            self.valid = false;
            return Err(LuError::UnstableUpdate);
        }
        if !eta_entries.is_empty() {
            self.h_fill += eta_entries.len();
            self.h_file.push(RowEta {
                row: r,
                entries: eta_entries,
            });
        }
        self.vdiag[p] = diag;
        self.updates_since += 1;
        self.stats.ft_updates += 1;
        Ok(())
    }
}

/// Removes the entry keyed `key` from `list` if present (at most once);
/// list order is not preserved.
#[inline]
fn remove_entry(list: &mut Vec<(usize, f64)>, key: usize) {
    if let Some(idx) = list.iter().position(|&(k, _)| k == key) {
        list.swap_remove(idx);
    }
}

/// Adds `delta` to the `row` entry of active column `col`, mirroring into
/// `row_list` (keyed by `col_key`); creates the entry on fill-in and
/// drops it on cancellation, keeping the Markowitz counts honest.
#[inline]
fn add_to_entry(
    col: &mut Vec<(usize, f64)>,
    row: usize,
    delta: f64,
    row_list: &mut Vec<(usize, f64)>,
    col_key: usize,
) {
    if let Some(idx) = col.iter().position(|&(r, _)| r == row) {
        let nv = col[idx].1 + delta;
        if nv.abs() <= DROP_TOL {
            col.swap_remove(idx);
            remove_entry(row_list, col_key);
        } else {
            col[idx].1 = nv;
            if let Some(re) = row_list.iter_mut().find(|(c, _)| *c == col_key) {
                re.1 = nv;
            }
        }
    } else if delta.abs() > DROP_TOL {
        col.push((row, delta));
        row_list.push((col_key, delta));
    }
}

/// [`add_to_entry`] for the `V` mirrors (row-major primary), tracking
/// fill.
#[inline]
fn add_to_entry_v(
    row_list: &mut Vec<(usize, f64)>,
    col_key: usize,
    delta: f64,
    col: &mut Vec<(usize, f64)>,
    row: usize,
    fill: &mut usize,
) {
    if let Some(idx) = row_list.iter().position(|&(c, _)| c == col_key) {
        let nv = row_list[idx].1 + delta;
        if nv.abs() <= DROP_TOL {
            row_list.swap_remove(idx);
            remove_entry(col, row);
            *fill -= 1;
        } else {
            row_list[idx].1 = nv;
            if let Some(ce) = col.iter_mut().find(|(r, _)| *r == row) {
                ce.1 = nv;
            }
        }
    } else if delta.abs() > DROP_TOL {
        row_list.push((col_key, delta));
        col.push((row, delta));
        *fill += 1;
    }
}

/// The active submatrix of one refactorization in dual form, with its
/// nonempty columns kept in Markowitz search order. Deleted entries are
/// swap-removed; order within a list is irrelevant to the search but
/// fixes the order of the factor entries.
#[derive(Debug, Default)]
struct Active {
    cols: Vec<Vec<(usize, f64)>>,
    rows: Vec<Vec<(usize, f64)>>,
    col_active: Vec<bool>,
    row_active: Vec<bool>,
    /// Every active column with at least one entry, bucketed by its
    /// count. An empty active column is structurally singular and never
    /// listed; it surfaces as a failed search.
    by_count: CountBuckets,
}

impl Active {
    /// Empties the storage for an `m × m` matrix, keeping its buffers.
    fn reset(&mut self, m: usize) {
        for list in self.cols.iter_mut().chain(self.rows.iter_mut()) {
            list.clear();
        }
        self.cols.resize_with(m, Vec::new);
        self.rows.resize_with(m, Vec::new);
        self.col_active.clear();
        self.col_active.resize(m, true);
        self.row_active.clear();
        self.row_active.resize(m, true);
        self.by_count.reset(m);
    }

    /// Takes column `c` out of the search order before its count changes.
    fn unlist(&mut self, c: usize) {
        self.by_count.remove(self.cols[c].len(), c);
    }

    /// Puts column `c` back under its new count (if it has entries left).
    fn list(&mut self, c: usize) {
        if !self.cols[c].is_empty() {
            self.by_count.insert(self.cols[c].len(), c);
        }
    }
}

/// Columns bucketed by count, one bitset over the columns per count:
/// moving a column between buckets is two bit flips, and iteration
/// yields `(count, column)` in ascending order — counts ascending, each
/// bucket by ascending column.
#[derive(Debug, Default)]
struct CountBuckets {
    /// `u64` words per bucket: `⌈m / 64⌉`.
    words: usize,
    /// Bucket `k` is `bits[k * words..(k + 1) * words]`.
    bits: Vec<u64>,
    /// Members per bucket, so iteration skips empty buckets unscanned.
    len: Vec<usize>,
}

impl CountBuckets {
    /// Empties every bucket, sized for `m` columns.
    fn reset(&mut self, m: usize) {
        self.words = m.div_ceil(64);
        self.bits.clear();
        self.len.clear();
    }

    fn insert(&mut self, count: usize, c: usize) {
        if count >= self.len.len() {
            self.len.resize(count + 1, 0);
            self.bits.resize((count + 1) * self.words, 0);
        }
        self.bits[count * self.words + c / 64] |= 1 << (c % 64);
        self.len[count] += 1;
    }

    fn remove(&mut self, count: usize, c: usize) {
        let word = &mut self.bits[count * self.words + c / 64];
        debug_assert!(
            *word & (1 << (c % 64)) != 0,
            "column {c} not in bucket {count}"
        );
        *word &= !(1 << (c % 64));
        self.len[count] -= 1;
    }

    /// The listed `(count, column)` pairs in ascending order.
    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let words = self.words;
        (0..self.len.len())
            .filter(|&k| self.len[k] > 0)
            .flat_map(move |k| {
                let bucket = &self.bits[k * words..(k + 1) * words];
                bucket.iter().enumerate().flat_map(move |(w, &bits)| {
                    let mut rest = bits;
                    std::iter::from_fn(move || {
                        (rest != 0).then(|| {
                            let b = rest.trailing_zeros() as usize;
                            rest &= rest - 1;
                            (k, w * 64 + b)
                        })
                    })
                })
            })
    }
}

/// Markowitz pivot search over the active submatrix: the entry
/// minimising `(row_count − 1)(col_count − 1)` among threshold-eligible
/// entries, scanning columns in increasing active count (ties by column)
/// and settling after [`MARKOWITZ_SEARCH_COLS`] eligible columns (or
/// immediately on a zero-cost pivot). Ties break on larger magnitude,
/// then smaller `(row, col)`.
fn markowitz_pivot(a: &Active) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    let mut best_cost = usize::MAX;
    let mut best_mag = 0.0f64;
    let mut examined = 0usize;
    for (count, c) in a.by_count.iter() {
        let col = &a.cols[c];
        debug_assert_eq!(count, col.len(), "stale count of column {c}");
        let col_max = col.iter().map(|&(_, v)| v.abs()).fold(0.0f64, f64::max);
        if col_max <= ABS_PIVOT_TOL {
            continue;
        }
        let mut found_any = false;
        for &(r, v) in col {
            if v.abs() < PIVOT_THRESHOLD * col_max || v.abs() <= ABS_PIVOT_TOL {
                continue;
            }
            found_any = true;
            let cost = (a.rows[r].len() - 1) * (count - 1);
            let better = match best {
                None => true,
                Some((br, bc)) => {
                    cost < best_cost
                        || (cost == best_cost
                            && (v.abs() > best_mag || (v.abs() == best_mag && (r, c) < (br, bc))))
                }
            };
            if better {
                best = Some((r, c));
                best_cost = cost;
                best_mag = v.abs();
            }
        }
        if found_any {
            examined += 1;
            if best_cost == 0 || examined >= MARKOWITZ_SEARCH_COLS {
                return best;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense m×m reference: columns by position.
    fn dense_from(cols: &[Vec<(usize, f64)>], m: usize) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0; m]; m];
        for (p, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a[r][p] += v;
            }
        }
        a
    }

    fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    fn mat_t_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = a.len();
        (0..m)
            .map(|j| (0..m).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    fn factorize_cols(lu: &mut LuFactors, cols: &[Vec<(usize, f64)>]) -> Result<(), LuError> {
        let m = cols.len();
        lu.factorize(m, |p, buf| buf.extend_from_slice(&cols[p]))
    }

    /// FTRAN/BTRAN of `lu` must invert the dense reference on a basis of
    /// unit vectors.
    fn check_inverse(lu: &mut LuFactors, a: &[Vec<f64>]) {
        let m = a.len();
        for k in 0..m {
            // ftran: B x = e_k  ⇒  B x must reproduce e_k.
            let mut v = vec![0.0; m];
            v[k] = 1.0;
            lu.ftran(&mut v, None);
            let back = mat_vec(a, &v);
            for (i, &b) in back.iter().enumerate() {
                let expect = if i == k { 1.0 } else { 0.0 };
                assert!(
                    (b - expect).abs() < 1e-8,
                    "ftran residual at ({i},{k}): {b} vs {expect}"
                );
            }
            // btran: Bᵀ y = e_k  ⇒  Bᵀ y must reproduce e_k.
            let mut v = vec![0.0; m];
            v[k] = 1.0;
            lu.btran(&mut v);
            let back = mat_t_vec(a, &v);
            for (i, &b) in back.iter().enumerate() {
                let expect = if i == k { 1.0 } else { 0.0 };
                assert!(
                    (b - expect).abs() < 1e-8,
                    "btran residual at ({i},{k}): {b} vs {expect}"
                );
            }
        }
    }

    /// Deterministic pseudo-random stream (SplitMix64) for test matrices.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random sparse nonsingular matrix: identity diagonal plus a few
    /// off-diagonal entries.
    fn random_cols(m: usize, extra: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut s = seed;
        let mut cols: Vec<Vec<(usize, f64)>> = (0..m).map(|p| vec![(p, 2.0)]).collect();
        for _ in 0..extra {
            let r = (splitmix(&mut s) % m as u64) as usize;
            let c = (splitmix(&mut s) % m as u64) as usize;
            if r == c {
                continue;
            }
            let v = ((splitmix(&mut s) % 9) as f64 - 4.0) / 4.0;
            if v != 0.0 && !cols[c].iter().any(|&(row, _)| row == r) {
                cols[c].push((r, v));
            }
        }
        cols
    }

    #[test]
    fn identity_round_trip() {
        let cols: Vec<Vec<(usize, f64)>> = (0..5).map(|p| vec![(p, 1.0)]).collect();
        let mut lu = LuFactors::new();
        factorize_cols(&mut lu, &cols).unwrap();
        let mut v = vec![3.0, -1.0, 0.5, 2.0, 7.0];
        let orig = v.clone();
        lu.ftran(&mut v, None);
        assert_eq!(v, orig);
        lu.btran(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn permuted_diagonal_solves() {
        // Columns are scaled unit vectors in scrambled row order: pure
        // permutation handling, no elimination at all.
        let rows = [2usize, 0, 3, 1];
        let cols: Vec<Vec<(usize, f64)>> = rows
            .iter()
            .enumerate()
            .map(|(p, &r)| vec![(r, (p + 1) as f64)])
            .collect();
        let a = dense_from(&cols, 4);
        let mut lu = LuFactors::new();
        factorize_cols(&mut lu, &cols).unwrap();
        check_inverse(&mut lu, &a);
    }

    #[test]
    fn random_sparse_matrices_invert() {
        for seed in 0..20u64 {
            let m = 3 + (seed % 8) as usize;
            let cols = random_cols(m, 3 * m, 0xC0FFEE ^ seed);
            let a = dense_from(&cols, m);
            let mut lu = LuFactors::new();
            factorize_cols(&mut lu, &cols).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
            check_inverse(&mut lu, &a);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        // Two identical columns.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        let mut lu = LuFactors::new();
        assert_eq!(factorize_cols(&mut lu, &cols), Err(LuError::Singular));
        assert!(!lu.is_valid());
        // Structurally empty column.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![]];
        assert_eq!(factorize_cols(&mut lu, &cols), Err(LuError::Singular));
    }

    #[test]
    fn forrest_tomlin_matches_refactorization() {
        // Apply a chain of column replacements via FT updates and check
        // the solves against a fresh factorization of the same matrix
        // after every step.
        let m = 7;
        let mut cols = random_cols(m, 2 * m, 0xFEED);
        let mut lu = LuFactors::new();
        factorize_cols(&mut lu, &cols).unwrap();
        let mut s = 0xF00Du64;
        for step in 0..24 {
            let p = (splitmix(&mut s) % m as u64) as usize;
            // New column: diagonal-dominant so updates stay acceptable.
            let mut newcol = vec![(p, 3.0 + f64::from(step % 3))];
            let r = (splitmix(&mut s) % m as u64) as usize;
            if r != p {
                newcol.push((r, 1.0 - f64::from(step % 5) / 2.0));
            }
            // Spike = H⁻¹F⁻¹ a, captured through a full FTRAN.
            let mut dense = vec![0.0; m];
            for &(row, v) in &newcol {
                dense[row] += v;
            }
            let mut spike = Vec::new();
            lu.ftran(&mut dense, Some(&mut spike));
            lu.replace_column(p, &spike)
                .unwrap_or_else(|e| panic!("step {step}: {e:?}"));
            cols[p] = newcol;
            let a = dense_from(&cols, m);
            check_inverse(&mut lu, &a);
        }
        assert_eq!(lu.stats().ft_updates, 24);
        assert_eq!(lu.stats().refactorizations, 1);
        assert_eq!(lu.updates_since_refactor(), 24);
    }

    #[test]
    fn hundreds_of_updates_without_refactorization() {
        // The drift backstop is deliberately high: a long well-behaved
        // warm-start chain must be able to push hundreds of
        // Forrest–Tomlin updates through one factorization and stay
        // exact against the dense reference.
        let m = 10;
        let mut cols = random_cols(m, 2 * m, 0x1E57);
        let mut lu = LuFactors::new();
        factorize_cols(&mut lu, &cols).unwrap();
        let mut s = 0xCAFEu64;
        for step in 0..300 {
            let p = (splitmix(&mut s) % m as u64) as usize;
            let mut newcol = vec![(p, 2.5 + f64::from(step % 4) / 2.0)];
            let r = (splitmix(&mut s) % m as u64) as usize;
            if r != p {
                newcol.push((r, 1.0 - f64::from(step % 3) / 2.0));
            }
            let mut dense = vec![0.0; m];
            for &(row, v) in &newcol {
                dense[row] += v;
            }
            let mut spike = Vec::new();
            lu.ftran(&mut dense, Some(&mut spike));
            lu.replace_column(p, &spike)
                .unwrap_or_else(|e| panic!("step {step}: {e:?}"));
            cols[p] = newcol;
            // Full inverse checks are O(m²); sample the chain.
            if step % 25 == 24 || step == 299 {
                let a = dense_from(&cols, m);
                check_inverse(&mut lu, &a);
            }
        }
        assert_eq!(lu.stats().refactorizations, 1, "no intervening rebuild");
        assert_eq!(lu.stats().ft_updates, 300);
        assert_eq!(lu.updates_since_refactor(), 300);
    }

    #[test]
    fn unstable_update_rejected() {
        // Replacing a column with (almost) a copy of another column makes
        // the basis singular; the FT stability test must refuse rather
        // than produce a garbage factorization.
        let cols = vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]];
        let mut lu = LuFactors::new();
        factorize_cols(&mut lu, &cols).unwrap();
        // New column 2 := e_1 (duplicates column 1).
        let mut dense = vec![0.0, 1.0, 0.0];
        let mut spike = Vec::new();
        lu.ftran(&mut dense, Some(&mut spike));
        assert_eq!(lu.replace_column(2, &spike), Err(LuError::UnstableUpdate));
        assert!(!lu.is_valid());
        assert_eq!(lu.stats().rejected_updates, 1);
    }

    #[test]
    fn fill_policy_eventually_requests_refactorization() {
        // Dense-ish replacement columns grow V fill until the policy
        // trips; it must not trip right after a fresh factorization.
        let m = 6;
        let cols = random_cols(m, m, 0xABCD);
        let mut lu = LuFactors::new();
        factorize_cols(&mut lu, &cols).unwrap();
        assert!(!lu.should_refactor(), "fresh factorization must be clean");
        let mut s = 0x5EEDu64;
        let mut tripped = false;
        for _ in 0..512 {
            let p = (splitmix(&mut s) % m as u64) as usize;
            // A dense column: every row populated.
            let mut dense: Vec<f64> = (0..m)
                .map(|i| {
                    1.0 + ((splitmix(&mut s) % 7) as f64) / 4.0 + if i == p { 3.0 } else { 0.0 }
                })
                .collect();
            let mut spike = Vec::new();
            lu.ftran(&mut dense, Some(&mut spike));
            if lu.replace_column(p, &spike).is_err() {
                factorize_cols(&mut lu, &random_cols(m, m, s)).unwrap();
                continue;
            }
            if lu.should_refactor() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "fill/update policy never requested a rebuild");
    }

    /// The search with its count buckets rebuilt from scratch at every
    /// elimination step, O(m) per step: the reference the incrementally
    /// kept buckets must match pivot for pivot.
    fn rebuild_markowitz_pivot(a: &Active) -> Option<(usize, usize)> {
        let (cols, rows, col_active) = (&a.cols, &a.rows, &a.col_active);
        // Bucket the active columns by count (count 0 ⇒ structurally
        // singular: unreachable as a pivot, surfaces as `None` at the end).
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        for (c, col) in cols.iter().enumerate() {
            if !col_active[c] || col.is_empty() {
                continue;
            }
            let count = col.len();
            if buckets.len() < count {
                buckets.resize(count, Vec::new());
            }
            buckets[count - 1].push(c);
        }
        let mut best: Option<(usize, usize)> = None;
        let mut best_cost = usize::MAX;
        let mut best_mag = 0.0f64;
        let mut examined = 0usize;
        for bucket in &buckets {
            for &c in bucket {
                let col = &cols[c];
                let col_max = col.iter().map(|&(_, v)| v.abs()).fold(0.0f64, f64::max);
                if col_max <= ABS_PIVOT_TOL {
                    continue;
                }
                let mut found_any = false;
                for &(r, v) in col {
                    if v.abs() < PIVOT_THRESHOLD * col_max || v.abs() <= ABS_PIVOT_TOL {
                        continue;
                    }
                    found_any = true;
                    let cost = (rows[r].len() - 1) * (col.len() - 1);
                    let better = match best {
                        None => true,
                        Some((br, bc)) => {
                            cost < best_cost
                                || (cost == best_cost
                                    && (v.abs() > best_mag
                                        || (v.abs() == best_mag && (r, c) < (br, bc))))
                        }
                    };
                    if better {
                        best = Some((r, c));
                        best_cost = cost;
                        best_mag = v.abs();
                    }
                }
                if found_any {
                    examined += 1;
                    if best_cost == 0 || examined >= MARKOWITZ_SEARCH_COLS {
                        return best;
                    }
                }
            }
        }
        best
    }

    type BitList = Vec<(usize, u64)>;

    /// Every number a factorization stores, as raw bits, lists in order.
    #[derive(Debug, PartialEq)]
    struct FactorBits {
        order: Vec<usize>,
        step_of: Vec<usize>,
        pivot_row_of: Vec<usize>,
        vdiag: Vec<u64>,
        vcols: Vec<BitList>,
        vrows: Vec<BitList>,
        f_file: Vec<(usize, BitList)>,
        h_file: Vec<(usize, BitList)>,
        /// `valid`, `base_fill`, `v_fill`, `h_fill`, `updates_since`.
        counters: (bool, usize, usize, usize, usize),
    }

    fn bits(list: &[(usize, f64)]) -> BitList {
        list.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    fn factor_bits(lu: &LuFactors) -> FactorBits {
        FactorBits {
            order: lu.order.clone(),
            step_of: lu.step_of.clone(),
            pivot_row_of: lu.pivot_row_of.clone(),
            vdiag: lu.vdiag.iter().map(|v| v.to_bits()).collect(),
            vcols: lu.vcols.iter().map(|l| bits(l)).collect(),
            vrows: lu.vrows.iter().map(|l| bits(l)).collect(),
            f_file: lu
                .f_file
                .iter()
                .map(|e| (e.pivot_row, bits(&e.entries)))
                .collect(),
            h_file: lu
                .h_file
                .iter()
                .map(|e| (e.row, bits(&e.entries)))
                .collect(),
            counters: (
                lu.valid,
                lu.base_fill,
                lu.v_fill,
                lu.h_fill,
                lu.updates_since,
            ),
        }
    }

    fn vec_bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Refactorizes `lu` to `cols`, and a copy of it under the rebuild
    /// search in fresh working storage, and asserts the same verdict,
    /// bit-identical factors, and bit-identical FTRAN (with spike) and
    /// BTRAN of random right-hand sides. `lu` keeps whatever working
    /// storage its earlier factorizations left. Returns whether the basis
    /// factorized.
    fn assert_searches_agree(lu: &mut LuFactors, cols: &[Vec<(usize, f64)>], seed: u64) -> bool {
        let m = cols.len();
        let mut reference = lu.clone();
        let got = factorize_cols(lu, cols);
        let want = reference.factorize_with(
            &mut Active::default(),
            m,
            |p, buf| buf.extend_from_slice(&cols[p]),
            rebuild_markowitz_pivot,
        );
        assert_eq!(got, want, "verdict, seed {seed:#x}, m = {m}");
        assert_eq!(
            factor_bits(lu),
            factor_bits(&reference),
            "factor state, seed {seed:#x}, m = {m}"
        );
        if got.is_err() {
            return false;
        }
        let mut s = seed;
        for _ in 0..4 {
            let rhs: Vec<f64> = (0..m)
                .map(|_| match splitmix(&mut s) % 4 {
                    0 => 0.0,
                    k => (splitmix(&mut s) % 2001) as f64 / 1000.0 - 1.0 + k as f64,
                })
                .collect();
            let (mut x, mut y) = (rhs.clone(), rhs.clone());
            let (mut sx, mut sy) = (Vec::new(), Vec::new());
            lu.ftran(&mut x, Some(&mut sx));
            reference.ftran(&mut y, Some(&mut sy));
            assert_eq!(vec_bits(&x), vec_bits(&y), "ftran, seed {seed:#x}");
            assert_eq!(vec_bits(&sx), vec_bits(&sy), "spike, seed {seed:#x}");
            let (mut x, mut y) = (rhs.clone(), rhs);
            lu.btran(&mut x);
            reference.btran(&mut y);
            assert_eq!(vec_bits(&x), vec_bits(&y), "btran, seed {seed:#x}");
        }
        true
    }

    /// Magnitudes on the edges of the pivot tests, for a column whose
    /// largest entry is 1: the threshold `PIVOT_THRESHOLD · max` and the
    /// absolute floor `ABS_PIVOT_TOL`, each exactly and one ulp either
    /// side.
    fn edge_values() -> [f64; 9] {
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        [
            1.0,
            0.5,
            PIVOT_THRESHOLD,
            ulp_down(PIVOT_THRESHOLD),
            ulp_up(PIVOT_THRESHOLD),
            ABS_PIVOT_TOL,
            ulp_down(ABS_PIVOT_TOL),
            ulp_up(ABS_PIVOT_TOL),
            0.3,
        ]
    }

    /// A simplex-basis-shaped matrix: logical unit columns on shuffled
    /// rows, `dense` of them replaced by structural columns of 2–8
    /// entries drawn from [`edge_values`] (signs random), each keeping
    /// its slot's row so most draws stay nonsingular.
    fn basis_cols(m: usize, dense: usize, seed: u64) -> Vec<Vec<(usize, f64)>> {
        let mut s = seed;
        let mut rows: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            let j = (splitmix(&mut s) % (i as u64 + 1)) as usize;
            rows.swap(i, j);
        }
        let mut cols: Vec<Vec<(usize, f64)>> = rows.iter().map(|&r| vec![(r, 1.0)]).collect();
        let edges = edge_values();
        for _ in 0..dense {
            let p = (splitmix(&mut s) % m as u64) as usize;
            let mut col = vec![(rows[p], edges[(splitmix(&mut s) % 3) as usize])];
            let len = 2 + (splitmix(&mut s) % 7) as usize;
            for _ in 1..len.min(m) {
                let r = (splitmix(&mut s) % m as u64) as usize;
                if col.iter().any(|&(row, _)| row == r) {
                    continue;
                }
                let v = edges[(splitmix(&mut s) % edges.len() as u64) as usize];
                col.push((r, if splitmix(&mut s) & 1 == 0 { v } else { -v }));
            }
            cols[p] = col;
        }
        cols
    }

    #[test]
    fn incremental_search_matches_rebuild_on_random_matrices() {
        // One `LuFactors` throughout, so every factorization starts from
        // the working storage of a different, often larger, matrix.
        let mut lu = LuFactors::new();
        let mut factorized = 0;
        for (i, m) in [1usize, 2, 3, 5, 8, 13, 31, 63, 64, 65, 100, 129, 200]
            .into_iter()
            .enumerate()
        {
            for (j, extra) in [m, 3 * m, 6 * m].into_iter().enumerate() {
                let seed = 0x0DD5_EED0 + 16 * i as u64 + j as u64;
                factorized += usize::from(assert_searches_agree(
                    &mut lu,
                    &random_cols(m, extra, seed),
                    seed,
                ));
            }
        }
        assert_eq!(factorized, 39, "every random_cols matrix is nonsingular");
    }

    #[test]
    fn incremental_search_matches_rebuild_on_basis_shaped_matrices() {
        let mut lu = LuFactors::new();
        let (mut runs, mut factorized) = (0, 0);
        for m in [4usize, 16, 50, 64, 97, 150, 200] {
            for dense in [1, m / 8, m / 3, m] {
                for rep in 0..3u64 {
                    let seed = 0xBA515 ^ ((m as u64) << 16) ^ ((dense as u64) << 4) ^ rep;
                    runs += 1;
                    factorized += usize::from(assert_searches_agree(
                        &mut lu,
                        &basis_cols(m, dense, seed),
                        seed,
                    ));
                }
            }
        }
        // Tiny and sub-threshold entries make some draws singular; both
        // verdicts are compared, but most draws must factorize.
        assert!(
            2 * factorized > runs,
            "only {factorized} of {runs} basis-shaped draws factorized"
        );
    }

    #[test]
    fn incremental_search_matches_rebuild_on_singular_matrices() {
        // Singular verdicts leave the working storage half-eliminated;
        // the next case must not notice.
        let mut lu = LuFactors::new();
        let tiny = f64::from_bits(ABS_PIVOT_TOL.to_bits() - 1);
        let mut cases: Vec<Vec<Vec<(usize, f64)>>> = vec![
            // Duplicate columns.
            vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]],
            // An empty column.
            vec![vec![(0, 1.0), (1, 1.0)], vec![]],
            // A column of entries below the absolute pivot floor.
            vec![vec![(0, 1.0)], vec![(0, tiny), (1, tiny)]],
            // A row no column touches.
            vec![vec![(0, 1.0)], vec![(0, 2.0), (2, 1.0)], vec![(2, 3.0)]],
            // A column that is the sum of two others.
            vec![
                vec![(0, 1.0), (1, 2.0)],
                vec![(1, 1.0), (2, -1.0)],
                vec![(0, 1.0), (1, 3.0), (2, -1.0)],
            ],
        ];
        for seed in 0..12u64 {
            let m = 5 + 9 * seed as usize;
            let mut cols = random_cols(m, 3 * m, 0x51A6 ^ seed);
            let (a, b) = (seed as usize % m, (seed as usize * 7 + 3) % m);
            if a != b {
                cols[a] = cols[b].clone();
                cases.push(cols);
            }
        }
        for (i, cols) in cases.iter().enumerate() {
            assert!(
                !assert_searches_agree(&mut lu, cols, i as u64),
                "case {i} is singular"
            );
            let ok = random_cols(cols.len(), 2 * cols.len(), i as u64);
            assert!(assert_searches_agree(&mut lu, &ok, i as u64));
        }
    }

    #[test]
    fn incremental_search_matches_rebuild_after_forrest_tomlin_chains() {
        // The solver refactorizes a basis its Forrest–Tomlin updates
        // have already changed, from an `LuFactors` holding an `H` file:
        // walk update chains and compare both searches every few steps.
        for (m, seed) in [(7usize, 0xF7u64), (40, 0x40F7), (120, 0x120F7)] {
            let mut cols = basis_cols(m, m / 4, seed);
            let mut lu = LuFactors::new();
            if factorize_cols(&mut lu, &cols).is_err() {
                cols = random_cols(m, 2 * m, seed);
                factorize_cols(&mut lu, &cols).unwrap();
            }
            let mut s = seed;
            let (mut compared, mut singular) = (0, 0);
            for step in 0..3 * m {
                let p = (splitmix(&mut s) % m as u64) as usize;
                // Dominant on the row position p is pivoted on, so most
                // replacements keep the basis nonsingular.
                let mut newcol = vec![(lu.pivot_row_of[p], 3.0 + (step % 3) as f64)];
                for _ in 0..1 + step % 3 {
                    let r = (splitmix(&mut s) % m as u64) as usize;
                    if !newcol.iter().any(|&(row, _)| row == r) {
                        newcol.push((r, 1.0 - (step % 5) as f64 / 2.0));
                    }
                }
                let mut dense = vec![0.0; m];
                for &(row, v) in &newcol {
                    dense[row] += v;
                }
                let mut spike = Vec::new();
                lu.ftran(&mut dense, Some(&mut spike));
                let old = std::mem::replace(&mut cols[p], newcol);
                if lu.replace_column(p, &spike).is_err() || step % 5 == 4 {
                    compared += 1;
                    if !assert_searches_agree(&mut lu, &cols, s) {
                        // Both searches found the update singular: undo it.
                        singular += 1;
                        cols[p] = old;
                        factorize_cols(&mut lu, &cols).unwrap();
                    }
                }
            }
            assert!(
                2 * singular < compared,
                "m = {m}: {singular} of {compared} singular"
            );
            assert!(compared >= 3 * m / 5, "m = {m}: {compared} comparisons");
        }
    }
}
