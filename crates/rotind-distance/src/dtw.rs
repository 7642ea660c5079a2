//! Dynamic Time Warping with a Sakoe-Chiba band (Section 4.3).
//!
//! DTW aligns locally distorted but globally similar series — e.g. the
//! brow ridge and jaw of two gorilla species mapping to slightly different
//! positions in their centroid-distance profiles (Figure 11). The warping
//! path is constrained to stay within `R` cells of the matrix diagonal
//! (the Sakoe-Chiba band, Figure 12), which both regularises the alignment
//! and reduces the cost from `O(n²)` to `O(nR)`.
//!
//! Three variants are provided:
//!
//! * [`dtw`] — banded DP over two rolling rows, exact;
//! * [`dtw_early_abandon`] — the iterative form the paper advocates
//!   (footnote 2: a recursive implementation can never abandon, the
//!   iterative one can abandon after as few as `R` steps): if every cell
//!   of a DP row already exceeds `r²`, the final distance must exceed `r`.
//!   It is the leaf of every DTW scan, so on finite series it runs
//!   band-major: rows of `2R + 1` cells indexed by offset from the
//!   diagonal, with no per-cell bounds checks, branches on position or
//!   NaN handling, and the rows whose band is full computed four at a
//!   time, each one offset behind the row above, so four independent
//!   `min → add` chains share each column. [`dtw_early_abandon_finite`]
//!   is the same kernel for callers that have already tested both series
//!   finite (the H-Merge walk, once per candidate).
//!   [`dtw_early_abandon_seq`] is the cell-by-cell loop it replaced, kept
//!   as its identity reference, and every checked call with a NaN or ±∞
//!   sample runs that loop;
//! * [`dtw_path`] — full-matrix variant that also recovers the optimal
//!   warping path, for diagnostics and the alignment figures.
//!
//! Cell costs are squared differences and the returned distance is the
//! square root of the accumulated cost, commensurate with Euclidean
//! distance (indeed `R = 0` forces the diagonal path and reproduces it
//! exactly). One step is charged per DP cell of every row up to and
//! including the abandoning row, whatever cells a kernel computes past
//! it. A NaN or ±∞ sample makes the distance non-finite (+∞ or NaN)
//! rather than failing an assertion; both early-abandoning variants
//! return the same value bits, `None`/`Some` and steps on every input.

use rotind_ts::StepCounter;
use std::cell::RefCell;

thread_local! {
    /// Rolling DP rows, reused across calls: the early-abandoning DTW is
    /// invoked once per rotation per database item, and per-call
    /// allocation dominated wall time on the big sweeps. The band-major
    /// kernel uses `2R + 2` cells of each; a four-row strip keeps its
    /// inner rows in locals and writes only its last row.
    static DTW_ROWS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Parameters for banded DTW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtwParams {
    /// Sakoe-Chiba band half-width `R`: the warping path may deviate at
    /// most `R` cells from the diagonal. `0` forces the diagonal
    /// (Euclidean) path; `n - 1` or more is an unconstrained warp.
    pub band: usize,
}

impl DtwParams {
    /// Band of exactly `band` cells.
    pub const fn new(band: usize) -> Self {
        DtwParams { band }
    }

    /// Band expressed as a fraction of the series length (e.g. `0.05` for
    /// the common "5% warping window"), rounded to the nearest cell.
    pub fn from_fraction(n: usize, fraction: f64) -> Self {
        let band = (n as f64 * fraction).round().max(0.0) as usize;
        DtwParams { band }
    }
}

impl Default for DtwParams {
    /// The paper's evaluation mostly learns `R ∈ {1, 2, 3}` (Table 8) and
    /// uses `R = 5` for the efficiency studies (Figure 20); `5` is a
    /// sensible default for shape matching.
    fn default() -> Self {
        DtwParams { band: 5 }
    }
}

#[inline]
fn cell_cost(a: f64, b: f64) -> f64 {
    let d = a - b;
    d * d
}

/// Banded DTW distance between equal-length series.
///
/// ```
/// use rotind_distance::dtw::{dtw, DtwParams};
/// use rotind_ts::StepCounter;
/// // A peak shifted by one sample: Euclidean is large, DTW absorbs it.
/// let q = [0.0, 0.0, 10.0, 0.0, 0.0, 0.0];
/// let c = [0.0, 0.0, 0.0, 10.0, 0.0, 0.0];
/// let d = dtw(&q, &c, DtwParams::new(1), &mut StepCounter::new());
/// assert!(d < 1e-9);
/// ```
///
/// # Panics
///
/// Panics when the series differ in length or are empty.
// lint: panic-exempt(no row minimum exceeds an infinite radius, so early abandon never returns None)
pub fn dtw(q: &[f64], c: &[f64], params: DtwParams, counter: &mut StepCounter) -> f64 {
    dtw_early_abandon(q, c, params, f64::INFINITY, counter)
        // Invariant: no row minimum, +∞ included, exceeds r² = ∞, so the
        // call never abandons, whatever the samples.
        // rotind-lint: allow(no-panic)
        .expect("DTW with infinite radius cannot abandon")
}

/// Early-abandoning banded DTW.
///
/// Returns `None` as soon as an entire DP row exceeds `r²` — every warping
/// path must pass through each row, so the true distance necessarily
/// exceeds `r`. `r = f64::INFINITY` computes the exact distance. A
/// non-finite sample yields a non-finite distance (or `None`, once a row
/// crosses a finite `r`).
///
/// One branch-free pass over both series decides the kernel. A NaN or ±∞
/// sample sends the call to the reference loop of
/// [`dtw_early_abandon_seq`], which handles them cell by cell. Finite
/// series run the DP band-major: each row keeps only its `2R + 1` band
/// cells, with cell `(i, j)` at offset `d = j − (i − R)`, so the vertical
/// predecessor `(i − 1, j)` sits at `d + 1` of the previous row, the
/// diagonal one `(i − 1, j − 1)` at `d`, and the horizontal one is carried
/// in a local. One +∞ sentinel past the band is the vertical predecessor of
/// the band's last offset. Each cell is `min(left, min(up, diag)) + cost`
/// with a plain compare-min. Rows whose band is full (`R ≤ i < n − R`)
/// run four at a time as a strip (see `strip`), the others one at a
/// time. Values, `None`/`Some` and step counts are bit-identical to the
/// reference loop:
///
/// * with finite samples `qᵢ − cⱼ` is finite or ±∞ (overflow), so every
///   cost lies in `[+0, +∞]` and is never NaN;
/// * so every cell lies in `[+0, +∞]`: `x·x ≥ +0` and `+0 + +0 = +0`, so
///   −0 never arises, the NaN-dropping `f64::min` of the reference loop
///   and a compare-min pick the same value, and `+∞ + cost = +∞` is what
///   the reference loop's finiteness select produces;
/// * so the order in which cells are evaluated cannot change a value, and
///   a strip tests its rows in order after computing them, returning at
///   the first that crosses `r` and charging the cells of the rows up to
///   and including it, as the row loop would have.
///
/// # Panics
///
/// Panics when the series differ in length or are empty.
pub fn dtw_early_abandon(
    q: &[f64],
    c: &[f64],
    params: DtwParams,
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    let finite = !(has_non_finite(q) | has_non_finite(c));
    early_abandon(q, c, params, r, finite, counter)
}

/// [`dtw_early_abandon`] for a caller that has already established that
/// every sample of both series is finite, so the call runs the band-major
/// kernel without its per-call finiteness pass. The H-Merge walk tests
/// its candidate once and compares it with rotation rows, which
/// `RotationMatrix` construction keeps finite. A NaN or ±∞ sample breaks
/// the contract (debug builds assert it) and makes the result
/// unspecified; it cannot make the call read or write out of bounds.
///
/// # Panics
///
/// Panics when the series differ in length or are empty.
pub fn dtw_early_abandon_finite(
    q: &[f64],
    c: &[f64],
    params: DtwParams,
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    debug_assert!(
        !(has_non_finite(q) | has_non_finite(c)),
        "dtw_early_abandon_finite: non-finite sample"
    );
    early_abandon(q, c, params, r, true, counter)
}

/// The body of [`dtw_early_abandon`] and [`dtw_early_abandon_finite`]:
/// the reference loop when `finite` is false, the band-major DP otherwise.
// lint: panic-exempt(documented preconditions: the snapshot validates query length and non-emptiness at admission; every slice lies inside the rows' 2R + 2 cells and the series by the band arithmetic)
fn early_abandon(
    q: &[f64],
    c: &[f64],
    params: DtwParams,
    r: f64,
    finite: bool,
    counter: &mut StepCounter,
) -> Option<f64> {
    let n = q.len();
    assert_eq!(n, c.len(), "dtw: length mismatch");
    assert!(n > 0, "dtw: empty series");
    let band = params.band.min(n - 1);
    if !finite {
        return cell_by_cell(q, c, band, r, counter);
    }
    let width = 2 * band + 1;
    let r2 = r * r;

    DTW_ROWS.with(|rows| {
        let (prev, cur) = &mut *rows.borrow_mut();
        // Virtual row −1: 0 at offset R, the diagonal predecessor of
        // (0, 0), and +∞ everywhere else, sentinel included.
        prev.clear();
        prev.resize(band, f64::INFINITY);
        prev.push(0.0);
        prev.resize(width + 1, f64::INFINITY);
        // Every band cell of `cur` is written before it is read; only
        // its sentinel needs a value.
        cur.resize(width, f64::INFINITY);
        cur.push(f64::INFINITY);

        let mut i = 0;
        while i < n {
            if let Some(mins) = strip(prev, cur, q, c, i, band) {
                // The row loop stops at the first row that crosses `r`:
                // charge the cells of the rows up to and including it,
                // and none of the strip's rows below it.
                for (k, &row_min) in mins.iter().enumerate() {
                    if abandons(row_min, r2, r) {
                        counter.add(((k + 1) * width) as u64);
                        return None;
                    }
                }
                counter.add((4 * width) as u64);
                i += 4;
            } else {
                // rotind-lint: allow(no-index)
                let qi = q[i];
                let lo = i.saturating_sub(band);
                let hi = (i + band).min(n - 1);
                let (first, last) = (lo + band - i, hi + band - i);
                // Offsets left of column 0 (the first R rows only) hold
                // +∞: the next row reads its first diagonal predecessor
                // there.
                let (outside, row) = cur.split_at_mut(first);
                outside.fill(f64::INFINITY);
                // rotind-lint: allow(no-index)
                let row = &mut row[..=last - first];
                // rotind-lint: allow(no-index)
                let (diag, up) = (&prev[first..=last], &prev[first + 1..=last + 1]);
                let mut left = f64::INFINITY;
                let mut row_min = f64::INFINITY;
                // rotind-lint: allow(no-index)
                for (((cell, &d), &u), &cj) in row.iter_mut().zip(diag).zip(up).zip(&c[lo..=hi]) {
                    // The previous-row pair stays off the carried chain.
                    let v = lesser(left, lesser(u, d)) + cell_cost(qi, cj);
                    *cell = v;
                    left = v;
                    row_min = lesser(v, row_min);
                }
                counter.add((hi - lo + 1) as u64);
                if abandons(row_min, r2, r) {
                    return None;
                }
                i += 1;
            }
            std::mem::swap(prev, cur);
        }
        // The corner (n − 1, n − 1) sits at offset R of the last row.
        Some(finish(q, c, prev.get(band).copied()))
    })
}

/// Whether a DP row whose cheapest cell costs `row_min` proves the
/// distance above `r`. The boundary is settled in reported-distance
/// space (the returned value is a square root): `fl(r·r)` may round below
/// the cost of a path whose distance equals `r` exactly, so a row
/// crossing `r²` only abandons when `√row_min > r` too. The sqrt is paid
/// once, on the abandon path.
#[inline]
fn abandons(row_min: f64, r2: f64, r: f64) -> bool {
    row_min > r2 && row_min.sqrt() > r
}

/// Rows `i .. i + 4` of the band-major DP as one strip, when all four are
/// full (`R ≤ i` and `i + 3 < n − R`) and `R ≥ 1`; `None` otherwise,
/// before touching a cell. Reads row `i − 1` from `prev` (sentinel
/// included), writes row `i + 3` into `cur` and returns the four rows'
/// minima, which the caller tests in order.
///
/// Row `i + k` runs `k` offsets behind row `i`, so at step `t` all four
/// rows read the same column `i − R + t`, and row `i + k + 1` finds its
/// vertical predecessor in the value row `i + k` has just computed and
/// its diagonal one in the value before it, which is also row `i + k`'s
/// own horizontal predecessor. The rows in between live in locals. Steps
/// `0 ..= 2` start rows `i`, `i + 1` and `i + 2` (prologue), steps
/// `3 ..= 2R` run four independent `min → add` chains (steady state), and
/// steps `2R + 1 ..= 2R + 3` finish rows `i + 1`, `i + 2` and `i + 3`
/// (epilogue). A +∞ operand (a horizontal predecessor left of the band, a
/// vertical one past it) is dropped, as `lesser(+∞, x) = x` on
/// `[+0, +∞]`.
#[inline(always)]
fn strip(
    prev: &[f64],
    cur: &mut [f64],
    q: &[f64],
    c: &[f64],
    i: usize,
    band: usize,
) -> Option<[f64; 4]> {
    let width = 2 * band + 1;
    // Columns i − R ..= i + R + 3: three for the prologue, the steady
    // state's, three for the epilogue.
    let cols = c.get(i.checked_sub(band)?..i + band + 4)?;
    let (&[c0, c1, c2], cols) = cols.split_first_chunk()?;
    let (cols, &[e0, e1, e2]) = cols.split_last_chunk()?;
    let &[q0, q1, q2, q3] = q.get(i..)?.first_chunk()?;
    let &[p0, p1, p2, p3] = prev.first_chunk()?;
    let (diag, up) = (prev.get(3..width)?, prev.get(4..=width)?);
    let (out, [o0, o1, o2]) = cur.get_mut(..width)?.split_last_chunk_mut()?;

    // Prologue: row i + k starts at step k with no horizontal predecessor.
    let mut v0 = lesser(p1, p0) + cell_cost(q0, c0);
    let mut m0 = v0;
    let a = v0;
    v0 = lesser(lesser(p2, p1), a) + cell_cost(q0, c1);
    m0 = lesser(m0, v0);
    let mut v1 = lesser(a, v0) + cell_cost(q1, c1);
    let mut m1 = v1;
    let (a, b) = (v0, v1);
    v0 = lesser(lesser(p3, p2), a) + cell_cost(q0, c2);
    m0 = lesser(m0, v0);
    v1 = lesser(lesser(a, v0), b) + cell_cost(q1, c2);
    m1 = lesser(m1, v1);
    let mut v2 = lesser(b, v1) + cell_cost(q2, c2);
    let mut m2 = v2;
    let mut v3 = f64::INFINITY;
    let mut m3 = f64::INFINITY;

    // Steady state: row i at offset t reads prev[t] and prev[t + 1], row
    // i + 3 writes offset t − 3. Each row's own previous value (`a`, `b`,
    // `e`, `v3`) is its carried chain and the next row's diagonal.
    for (((cell, &d), &u), &cj) in out.iter_mut().zip(diag).zip(up).zip(cols) {
        let (a, b, e) = (v0, v1, v2);
        v0 = lesser(lesser(u, d), a) + cell_cost(q0, cj);
        v1 = lesser(lesser(a, v0), b) + cell_cost(q1, cj);
        v2 = lesser(lesser(b, v1), e) + cell_cost(q2, cj);
        v3 = lesser(lesser(e, v2), v3) + cell_cost(q3, cj);
        *cell = v3;
        m0 = lesser(m0, v0);
        m1 = lesser(m1, v1);
        m2 = lesser(m2, v2);
        m3 = lesser(m3, v3);
    }

    // Epilogue: row i has ended, so the row below each finishing row
    // reads +∞ above its last offset.
    let (b, e) = (v1, v2);
    v1 = lesser(v0, b) + cell_cost(q1, e0);
    v2 = lesser(lesser(b, v1), e) + cell_cost(q2, e0);
    v3 = lesser(lesser(e, v2), v3) + cell_cost(q3, e0);
    *o0 = v3;
    m1 = lesser(m1, v1);
    m2 = lesser(m2, v2);
    m3 = lesser(m3, v3);
    let e = v2;
    v2 = lesser(v1, e) + cell_cost(q2, e1);
    v3 = lesser(lesser(e, v2), v3) + cell_cost(q3, e1);
    *o1 = v3;
    m2 = lesser(m2, v2);
    m3 = lesser(m3, v3);
    v3 = lesser(v2, v3) + cell_cost(q3, e2);
    *o2 = v3;
    Some([m0, m1, m2, lesser(m3, v3)])
}

/// Whether any sample is NaN or ±∞. A fold rather than a short-circuiting
/// `any`, so the pass vectorizes: it runs once per leaf call.
fn has_non_finite(xs: &[f64]) -> bool {
    xs.iter().fold(false, |bad, x| bad | !x.is_finite())
}

/// The smaller of two non-NaN values, as one compare: unlike `f64::min`
/// it carries no NaN handling, which the finite band-major DP never needs.
#[inline]
fn lesser(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// The cell-by-cell early-abandoning DTW that [`dtw_early_abandon`]
/// replaced, kept as the reference its band-major kernel is
/// identity-tested and benched against. Rows span all `n` columns, and
/// each cell tests which of its predecessors lie inside the band.
/// [`dtw_early_abandon`] also returns this loop's result on every series
/// with a NaN or ±∞ sample.
///
/// # Panics
///
/// Panics when the series differ in length or are empty.
pub fn dtw_early_abandon_seq(
    q: &[f64],
    c: &[f64],
    params: DtwParams,
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    let n = q.len();
    assert_eq!(n, c.len(), "dtw: length mismatch");
    assert!(n > 0, "dtw: empty series");
    cell_by_cell(q, c, params.band.min(n - 1), r, counter)
}

/// The body of [`dtw_early_abandon_seq`], for equal-length non-empty
/// series and a band already capped at `n − 1`. Every predecessor read
/// goes through `get`, and a NaN-dropping `f64::min` and a finiteness
/// select keep NaN and ±∞ samples from poisoning other cells.
fn cell_by_cell(
    q: &[f64],
    c: &[f64],
    band: usize,
    r: f64,
    counter: &mut StepCounter,
) -> Option<f64> {
    let n = q.len();
    let r2 = r * r;

    // Rolling rows indexed by j. Stale cells from two rows ago are never
    // read — every `prev` access is guarded to the previous row's band,
    // and the horizontal predecessor is carried in a local — so the rows
    // need no per-row clearing.
    DTW_ROWS.with(|rows| {
        let (prev, cur) = &mut *rows.borrow_mut();
        prev.clear();
        prev.resize(n, f64::INFINITY);
        cur.clear();
        cur.resize(n, f64::INFINITY);

        for (i, &qi) in q.iter().enumerate() {
            let lo = i.saturating_sub(band);
            let hi = (i + band).min(n - 1);
            let mut row_min = f64::INFINITY;
            // Horizontal predecessor (i, j-1), carried locally: at
            // `j == lo` it sits outside the band (or off the matrix) and
            // is +∞.
            let mut left = f64::INFINITY;
            let cells = cur.iter_mut().enumerate().take(hi + 1).skip(lo);
            for ((j, cell), &cj) in cells.zip(c.iter().skip(lo)) {
                let best_prev = if i == 0 && j == 0 {
                    0.0
                } else {
                    let mut b = left;
                    if i > 0 {
                        // vertical predecessor (i-1, j)
                        if j <= (i - 1) + band {
                            b = b.min(prev.get(j).copied().unwrap_or(f64::INFINITY));
                        }
                        // diagonal predecessor (i-1, j-1)
                        if j > 0 && j > (i - 1).saturating_sub(band) && j - 1 <= (i - 1) + band {
                            b = b.min(prev.get(j - 1).copied().unwrap_or(f64::INFINITY));
                        }
                    }
                    b
                };
                counter.tick();
                let v = if best_prev.is_finite() {
                    best_prev + cell_cost(qi, cj)
                } else {
                    f64::INFINITY
                };
                *cell = v;
                left = v;
                if v < row_min {
                    row_min = v;
                }
            }
            if row_min > r2 && row_min.sqrt() > r {
                return None;
            }
            std::mem::swap(prev, cur);
        }
        Some(finish(q, c, prev.last().copied()))
    })
}

/// The distance of a completed DP from its corner cost. The cost is
/// never NaN when both series are finite; it is +∞ when every path's
/// cost overflows, a squared difference or the sum (Some(d) with d > r is
/// possible: the row-min test is necessary, not sufficient, at the
/// corner, so callers compare the returned value, as in Table 2 of the
/// paper).
fn finish(q: &[f64], c: &[f64], corner: Option<f64>) -> f64 {
    let total = corner.unwrap_or(f64::INFINITY);
    debug_assert!(
        !total.is_nan() || has_non_finite(q) || has_non_finite(c),
        "dtw: finite series gave a NaN cost"
    );
    total.sqrt()
}

/// A warping path: matrix cells `(i, j)` from `(0, 0)` to `(n-1, n-1)`.
pub type WarpingPath = Vec<(usize, usize)>;

/// Full-matrix banded DTW with optimal-path recovery.
///
/// Costs `O(n²)` memory; intended for diagnostics, figures and tests, not
/// for the search hot path.
pub fn dtw_path(q: &[f64], c: &[f64], params: DtwParams) -> (f64, WarpingPath) {
    let n = q.len();
    assert_eq!(n, c.len(), "dtw_path: length mismatch");
    assert!(n > 0, "dtw_path: empty series");
    let band = params.band.min(n - 1);
    let inf = f64::INFINITY;
    let mut dp = vec![inf; n * n];
    // Bounds-checked cell read; out-of-matrix reads yield +∞ (they are
    // already excluded by the `i > 0`/`j > 0` guards below).
    let cell = |dp: &[f64], i: usize, j: usize| dp.get(i * n + j).copied().unwrap_or(inf);

    for (i, &qi) in q.iter().enumerate() {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(n - 1);
        for (j, &cj) in c.iter().enumerate().take(hi + 1).skip(lo) {
            let best_prev = if i == 0 && j == 0 {
                0.0
            } else {
                let mut b = inf;
                if i > 0 {
                    b = b.min(cell(&dp, i - 1, j));
                    if j > 0 {
                        b = b.min(cell(&dp, i - 1, j - 1));
                    }
                }
                if j > 0 {
                    b = b.min(cell(&dp, i, j - 1));
                }
                b
            };
            if best_prev.is_finite() {
                if let Some(slot) = dp.get_mut(i * n + j) {
                    *slot = best_prev + cell_cost(qi, cj);
                }
            }
        }
    }

    // Backtrack from the corner, preferring the diagonal on ties.
    let mut path = vec![(n - 1, n - 1)];
    let (mut i, mut j) = (n - 1, n - 1);
    while i > 0 || j > 0 {
        let diag = if i > 0 && j > 0 {
            cell(&dp, i - 1, j - 1)
        } else {
            inf
        };
        let up = if i > 0 { cell(&dp, i - 1, j) } else { inf };
        let left = if j > 0 { cell(&dp, i, j - 1) } else { inf };
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
        path.push((i, j));
    }
    path.reverse();
    (cell(&dp, n - 1, n - 1).sqrt(), path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean::euclidean;

    fn steps() -> StepCounter {
        StepCounter::new()
    }

    #[test]
    fn identical_series_zero() {
        let q = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw(&q, &q, DtwParams::new(2), &mut steps()), 0.0);
    }

    #[test]
    fn band_zero_equals_euclidean() {
        let q = [1.0, 5.0, 2.0, 8.0];
        let c = [2.0, 3.0, 4.0, 5.0];
        let d = dtw(&q, &c, DtwParams::new(0), &mut steps());
        assert!((d - euclidean(&q, &c)).abs() < 1e-12);
    }

    #[test]
    fn warping_aligns_shifted_peak() {
        // A peak shifted by one sample: ED is large, DTW(band>=1) small.
        let q = [0.0, 0.0, 10.0, 0.0, 0.0, 0.0];
        let c = [0.0, 0.0, 0.0, 10.0, 0.0, 0.0];
        let ed = euclidean(&q, &c);
        let d1 = dtw(&q, &c, DtwParams::new(1), &mut steps());
        assert!(d1 < ed * 0.1, "dtw {d1} should be far below ed {ed}");
    }

    #[test]
    fn monotone_in_band() {
        let q: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
        let c: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4 + 0.7).sin()).collect();
        let mut last = f64::INFINITY;
        for band in 0..8 {
            let d = dtw(&q, &c, DtwParams::new(band), &mut steps());
            assert!(d <= last + 1e-12, "band {band}: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn dtw_never_exceeds_euclidean() {
        let q: Vec<f64> = (0..40).map(|i| ((i * 13 % 17) as f64) * 0.3).collect();
        let c: Vec<f64> = (0..40).map(|i| ((i * 7 % 11) as f64) * 0.4).collect();
        for band in [0, 1, 3, 10, 39] {
            let d = dtw(&q, &c, DtwParams::new(band), &mut steps());
            assert!(d <= euclidean(&q, &c) + 1e-12);
        }
    }

    #[test]
    fn early_abandon_matches_exact_when_not_abandoned() {
        let q: Vec<f64> = (0..20).map(|i| (i as f64 * 0.3).cos()).collect();
        let c: Vec<f64> = (0..20).map(|i| (i as f64 * 0.31).cos()).collect();
        let p = DtwParams::new(3);
        let exact = dtw(&q, &c, p, &mut steps());
        let got = dtw_early_abandon(&q, &c, p, exact + 0.1, &mut steps()).unwrap();
        assert!((exact - got).abs() < 1e-12);
    }

    #[test]
    fn early_abandon_triggers_and_saves_steps() {
        let q = vec![100.0; 64];
        let c = vec![0.0; 64];
        let p = DtwParams::new(5);
        let mut full = steps();
        dtw(&q, &c, p, &mut full);
        let mut ab = steps();
        assert!(dtw_early_abandon(&q, &c, p, 1.0, &mut ab).is_none());
        assert!(
            ab.steps() <= (p.band as u64 + 1),
            "abandons within the first row: {} steps",
            ab.steps()
        );
        assert!(ab.steps() < full.steps());
    }

    #[test]
    fn early_abandon_is_admissible() {
        // Whenever None is returned, the true distance must exceed r.
        let q: Vec<f64> = (0..24).map(|i| ((i * 5 % 13) as f64) * 0.5).collect();
        let c: Vec<f64> = (0..24).map(|i| ((i * 11 % 7) as f64) * 0.6).collect();
        let p = DtwParams::new(2);
        let exact = dtw(&q, &c, p, &mut steps());
        for r in [0.1, 0.5 * exact, 0.99 * exact, exact, 1.5 * exact] {
            match dtw_early_abandon(&q, &c, p, r, &mut steps()) {
                None => assert!(exact > r, "abandoned although exact {exact} <= r {r}"),
                Some(d) => assert!((d - exact).abs() < 1e-12),
            }
        }
    }

    #[test]
    fn step_count_is_band_limited() {
        let n = 50;
        let q = vec![1.0; n];
        let c = vec![1.0; n];
        let band = 3;
        let mut s = steps();
        dtw(&q, &c, DtwParams::new(band), &mut s);
        let upper = (n * (2 * band + 1)) as u64;
        assert!(s.steps() <= upper, "{} > {}", s.steps(), upper);
        assert!(s.steps() >= n as u64);
    }

    #[test]
    fn path_endpoints_and_monotonicity() {
        let q: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5).sin()).collect();
        let c: Vec<f64> = (0..16).map(|i| (i as f64 * 0.5 + 1.0).sin()).collect();
        let (d, path) = dtw_path(&q, &c, DtwParams::new(4));
        assert_eq!(*path.first().unwrap(), (0, 0));
        assert_eq!(*path.last().unwrap(), (15, 15));
        for w in path.windows(2) {
            let (i0, j0) = w[0];
            let (i1, j1) = w[1];
            assert!(i1 >= i0 && j1 >= j0 && i1 - i0 <= 1 && j1 - j0 <= 1);
            assert!((i1, j1) != (i0, j0));
        }
        let dp = dtw(&q, &c, DtwParams::new(4), &mut steps());
        assert!(
            (d - dp).abs() < 1e-12,
            "path variant agrees with rolling-row"
        );
        // Path length bound from the paper: n <= T < 2n - 1.
        assert!(path.len() >= 16 && path.len() <= 31);
    }

    #[test]
    fn path_cost_matches_distance() {
        let q = [0.0, 1.0, 2.0, 1.0, 0.0];
        let c = [0.0, 0.0, 2.0, 2.0, 0.0];
        let (d, path) = dtw_path(&q, &c, DtwParams::new(4));
        let cost: f64 = path.iter().map(|&(i, j)| cell_cost(q[i], c[j])).sum();
        assert!((cost.sqrt() - d).abs() < 1e-12);
    }

    #[test]
    fn from_fraction() {
        assert_eq!(DtwParams::from_fraction(100, 0.05).band, 5);
        assert_eq!(DtwParams::from_fraction(251, 0.0).band, 0);
        assert_eq!(DtwParams::from_fraction(10, 0.14).band, 1);
    }

    #[test]
    fn band_larger_than_series_is_unconstrained() {
        let q = [0.0, 3.0, 1.0];
        let c = [3.0, 0.0, 1.0];
        let a = dtw(&q, &c, DtwParams::new(2), &mut steps());
        let b = dtw(&q, &c, DtwParams::new(100), &mut steps());
        assert_eq!(a, b);
    }

    #[test]
    fn overflowing_finite_series_give_infinity() {
        // (1e300 − (−1e300))² overflows, so every path costs +∞: finite
        // series, a +∞ distance, and no debug-build panic.
        let q = [1e300; 6];
        let c = [-1e300; 6];
        for band in [0, 2] {
            let d = dtw(&q, &c, DtwParams::new(band), &mut steps());
            assert_eq!(d, f64::INFINITY);
            let seq =
                dtw_early_abandon_seq(&q, &c, DtwParams::new(band), f64::INFINITY, &mut steps());
            assert_eq!(seq, Some(f64::INFINITY));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        dtw(&[1.0], &[1.0, 2.0], DtwParams::new(1), &mut steps());
    }
}
