//! Exact MaxRS baselines.
//!
//! These are the exact algorithms the paper builds on, compares against, or
//! reduces to:
//!
//! * [`interval1d`] — exact interval MaxRS on the line (`O(n log n)`), the
//!   per-length oracle of the batched problem of Section 5;
//! * [`rect2d`] — exact rectangle MaxRS in the plane (`O(n log n)`,
//!   \[IA83\]/\[NB95\]);
//! * [`disk2d`] — exact disk MaxRS in the plane (`O(n² log n)`, \[CL86\]);
//! * [`colored_disk2d`] — the straightforward exact algorithm for colored disk
//!   MaxRS by candidate enumeration;
//! * [`colored_rect2d`] — exact colored rectangle MaxRS (the \[ZGH+22\] setting
//!   the paper cites as prior work);
//! * [`brute`] — brute-force depth oracles and `opt` lower bounds in arbitrary
//!   small dimension, used by the test-suite to validate the randomized
//!   techniques.

pub mod brute;
pub mod colored_disk2d;
pub mod colored_rect2d;
pub mod disk2d;
pub mod interval1d;
pub mod rect2d;

pub use colored_disk2d::exact_colored_disk;
pub use colored_rect2d::{exact_colored_rect, exact_colored_rect_chunked, ColoredRectPlacement};
pub use disk2d::max_disk_placement;
pub use interval1d::{max_interval_placement, IntervalPlacement, LinePoint, SortedLine};
pub use rect2d::{max_rect_placement, RectPlacement};
