//! Section 5.4 — reduction from positive (max,+,M)-convolution to batched
//! MaxRS in `R^1`.
//!
//! This is the technically interesting step of Figure 6's chain.  For
//! sequences `A, B` of length `n` the reduction builds `4n` weighted points on
//! the line (Figure 7): every `A_i` becomes a point of weight `A_i` at
//! coordinate `i` with a *guard* of weight `−A_i` at `i − 0.5`, and every
//! `B_j` becomes a point of weight `B_j` at `2n−1−j` with a guard of weight
//! `−B_j` at `2n−1−j+0.5`.  For a target index `k` the query interval length
//! is `L = 2n−1−k`; Lemma 5.1 shows the batched MaxRS answer for that length
//! equals `max_{i+j=k}(A_i + B_j)` exactly.
//!
//! **Reproduction erratum.**  As literally stated in the paper, an interval of
//! length `2n−1−k` whose left endpoint sits on `A_a` with `a > k` stretches
//! past *every* B guard, so all B contributions cancel and the oracle can
//! report the bare value `A_a` — which may exceed `C_k` (symmetrically for a
//! lone `B_b` with `b > k`).  The proof of Lemma 5.1 (case 3) dismisses these
//! placements as "zero or a single element" without arguing they are
//! dominated, and in general they are not.  We repair the construction with
//! two *wall* points of very negative weight at `−0.5` and `2n−0.5`
//! (co-located with the outermost guards): any placement that overshoots the
//! guarded range on either side now picks up the wall penalty, every interval
//! of the intended form `[i, 2n−1−j]` avoids both walls, and the rest of the
//! paper's case analysis goes through verbatim.  The walls are the only
//! departure from the published construction.

use mrs_batched::{BatchedMaxRS1D, LinePoint};

/// A fully materialized batched MaxRS instance produced by the reduction,
/// exposed so experiments and examples can inspect the construction of
/// Figure 7.
#[derive(Clone, Debug)]
pub struct BatchedMaxRSInstance {
    /// The `4n` weighted points (value points and guard points).
    pub points: Vec<LinePoint>,
    /// One query interval length per target index, `L_s = 2n − 1 − k_s`.
    pub lengths: Vec<f64>,
    /// The target indices, in the same order as `lengths`.
    pub targets: Vec<usize>,
}

/// Builds the batched MaxRS instance of Section 5.4 for non-negative
/// sequences `a`, `b` and target indices `indices`.
///
/// # Panics
/// Panics if the sequences differ in length, are empty, contain negative
/// entries, or any target index is out of range.
pub fn build_batched_instance(a: &[f64], b: &[f64], indices: &[usize]) -> BatchedMaxRSInstance {
    assert_eq!(a.len(), b.len(), "sequences must have equal length");
    assert!(!a.is_empty(), "sequences must be non-empty");
    assert!(
        a.iter().chain(b.iter()).all(|&x| x >= 0.0),
        "the positive (max,+,M) reduction requires non-negative sequences"
    );
    let n = a.len();
    let x_offset = (2 * n - 1) as f64;
    let mut points = Vec::with_capacity(4 * n + 2);
    for (i, &ai) in a.iter().enumerate() {
        points.push(LinePoint::new(i as f64, ai));
        points.push(LinePoint::new(i as f64 - 0.5, -ai));
    }
    for (j, &bj) in b.iter().enumerate() {
        points.push(LinePoint::new(x_offset - j as f64, bj));
        points.push(LinePoint::new(x_offset - j as f64 + 0.5, -bj));
    }
    // Wall points (see the module-level erratum note): heavier than the total
    // positive weight, co-located with the outermost guards, they make every
    // placement that overshoots the guarded range strictly worse than the
    // intended `[i, 2n−1−j]` placements.
    let wall = 1.0 + a.iter().sum::<f64>() + b.iter().sum::<f64>();
    points.push(LinePoint::new(-0.5, -wall));
    points.push(LinePoint::new(x_offset + 0.5, -wall));
    let mut lengths = Vec::with_capacity(indices.len());
    for &k in indices {
        assert!(k < n, "target index {k} out of range for sequences of length {n}");
        lengths.push(x_offset - k as f64);
    }
    BatchedMaxRSInstance { points, lengths, targets: indices.to_vec() }
}

/// Solves the positive (max,+,M)-convolution by building the point set of
/// Section 5.4 and querying the batched MaxRS solver once per target index.
pub fn positive_max_plus_indexed_via_batched_maxrs(
    a: &[f64],
    b: &[f64],
    indices: &[usize],
) -> Vec<f64> {
    let instance = build_batched_instance(a, b, indices);
    let solver = BatchedMaxRS1D::new(&instance.points);
    solver.solve(&instance.lengths).into_iter().map(|p| p.value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolution::max_plus_convolution_indexed;
    use rand::prelude::*;

    #[test]
    fn instance_has_the_figure_7_layout() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 6.0];
        let inst = build_batched_instance(&a, &b, &[0, 2]);
        assert_eq!(inst.points.len(), 14, "4n value/guard points plus the two wall points");
        // A_0 sits at 0 with its guard at -0.5; B_0 sits at 2n-1 = 5 with its
        // guard at 5.5.
        assert!(inst.points.contains(&LinePoint::new(0.0, 1.0)));
        assert!(inst.points.contains(&LinePoint::new(-0.5, -1.0)));
        assert!(inst.points.contains(&LinePoint::new(5.0, 4.0)));
        assert!(inst.points.contains(&LinePoint::new(5.5, -4.0)));
        // Lengths are 2n-1-k.
        assert_eq!(inst.lengths, vec![5.0, 3.0]);
    }

    #[test]
    fn hand_computed_small_case() {
        let a = vec![2.0, 0.0, 7.0];
        let b = vec![1.0, 5.0, 3.0];
        let indices = vec![0, 1, 2];
        let via_maxrs = positive_max_plus_indexed_via_batched_maxrs(&a, &b, &indices);
        // C_0 = 3, C_1 = max(2+5, 0+1) = 7, C_2 = max(2+3, 0+5, 7+1) = 8.
        assert_eq!(via_maxrs, vec![3.0, 7.0, 8.0]);
    }

    #[test]
    fn singleton_sequences() {
        let via_maxrs = positive_max_plus_indexed_via_batched_maxrs(&[4.0], &[9.0], &[0]);
        assert_eq!(via_maxrs, vec![13.0]);
    }

    #[test]
    fn matches_direct_solver_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..30 {
            let n = rng.gen_range(1..40);
            let a: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..20.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..20.0)).collect();
            let m = rng.gen_range(1..=n);
            let mut indices: Vec<usize> = (0..n).collect();
            indices.shuffle(&mut rng);
            indices.truncate(m);
            let via_maxrs = positive_max_plus_indexed_via_batched_maxrs(&a, &b, &indices);
            let direct = max_plus_convolution_indexed(&a, &b, &indices);
            for ((x, y), &k) in via_maxrs.iter().zip(&direct).zip(&indices) {
                assert!((x - y).abs() < 1e-9, "target {k}: MaxRS {x} vs direct {y}");
            }
        }
    }

    #[test]
    fn integer_valued_sequences_stay_exact() {
        // Integer weights exercise exact cancellation of the guard points.
        let a: Vec<f64> = (0..16).map(|i| ((i * 7) % 13) as f64).collect();
        let b: Vec<f64> = (0..16).map(|i| ((i * 5 + 3) % 11) as f64).collect();
        let indices: Vec<usize> = (0..16).collect();
        let via_maxrs = positive_max_plus_indexed_via_batched_maxrs(&a, &b, &indices);
        let direct = max_plus_convolution_indexed(&a, &b, &indices);
        assert_eq!(via_maxrs, direct);
    }

    #[test]
    #[should_panic(expected = "non-negative sequences")]
    fn rejects_negative_inputs() {
        build_batched_instance(&[1.0, -1.0], &[0.0, 0.0], &[0]);
    }
}
