//! Technique 2 — output-sensitivity and color sampling (Section 4 of the
//! paper).
//!
//! The technique targets the colored disk MaxRS problem in the plane and works
//! in two phases.  The first phase is an exact algorithm whose cost scales
//! with the answer: per-color disk unions reduce the colored problem to an
//! uncolored depth problem over the regions `U_1, …, U_m` ([`union_exact`],
//! Lemma 4.2), and a shifted unit grid with the corner-discarding rule of
//! Lemma 4.3 localizes the computation so that at most `4·opt` colors survive
//! per cell ([`output_sensitive`], Theorem 4.6).  The second phase speeds the
//! exact algorithm up by random sampling on *colors*
//! ([`color_sampling`], Theorem 1.6), giving a `(1 − ε)`-approximation in
//! expected `O(ε^{-2} n log n)` time.

pub mod color_sampling;
pub mod output_sensitive;
pub mod union_exact;

pub use color_sampling::{
    approx_colored_disk_sampling, approx_colored_disk_sampling_with_details, ColorSamplingBranch,
    ColorSamplingResult,
};
pub use output_sensitive::{
    output_sensitive_colored_disk, output_sensitive_colored_disk_chunked,
    output_sensitive_colored_disk_with_stats, OutputSensitiveStats,
};
pub use union_exact::{
    exact_colored_disk_by_union, max_colored_depth_union, max_colored_depth_union_with,
    DepthResult, UnionScratch,
};
