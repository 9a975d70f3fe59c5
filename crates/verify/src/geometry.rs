//! Structural verification of the parallel GEMM column partition.
//!
//! `qgemm::parallel` splits the output's `n` columns across threads and hands
//! each thread a `split_at_mut` slice of C — safe only if the spans are
//! contiguous, pairwise disjoint, tile-aligned at interior boundaries and
//! jointly cover `[0, n)`. [`check_spans`] proves those four properties for a
//! concrete span list, and [`check_partition`] applies it to the partition
//! the runtime actually computes, for arbitrary thread counts and shapes.

use crate::report::Violation;
use lowbit_qgemm::{partition_columns, ColumnSpan, NB};

/// Verifies that `spans` is a disjoint, covering, tile-aligned partition of
/// `n` output columns.
///
/// Empty spans (`cols == 0`) are legal — `partition_columns` emits them for
/// threads beyond the tile count — but only when **well-formed**: parked
/// exactly at the partition cursor, so they own no columns and leave no gap.
pub fn check_spans(spans: &[ColumnSpan], n: usize) -> Result<(), Violation> {
    let mut expected_col = 0usize;
    for (thread, span) in spans.iter().enumerate() {
        match span.col0.cmp(&expected_col) {
            std::cmp::Ordering::Greater => {
                return Err(Violation::GeometryGap {
                    thread,
                    expected_col,
                    got_col: span.col0,
                })
            }
            std::cmp::Ordering::Less => {
                return Err(Violation::GeometryOverlap {
                    thread,
                    expected_col,
                    got_col: span.col0,
                })
            }
            std::cmp::Ordering::Equal => {}
        }
        if span.cols == 0 {
            // A well-formed empty span sits at the cursor (checked above),
            // owns nothing, and is exempt from the tile-alignment rule: the
            // cursor of a final partial tile is not NB-aligned.
            continue;
        }
        // Interior boundaries must sit on a column-tile edge so every micro-
        // kernel tile is owned by exactly one thread.
        if span.col0 % NB != 0 {
            return Err(Violation::GeometryMisaligned { thread, col: span.col0 });
        }
        expected_col = span.end();
    }
    if expected_col != n {
        return Err(Violation::GeometryCoverage { end: expected_col, n });
    }
    Ok(())
}

/// Verifies the partition `qgemm::parallel` would use for an `n`-column
/// output on `threads` threads.
pub fn check_partition(n: usize, threads: usize) -> Result<(), Violation> {
    check_spans(&partition_columns(n, threads).collect::<Vec<_>>(), n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_partitions_verify_over_a_shape_sweep() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 16, 17, 63, 64, 65, 127, 128, 999, 1000] {
            for threads in [1, 2, 3, 4, 5, 8, 13, 16, 64, 99] {
                check_partition(n, threads)
                    .unwrap_or_else(|v| panic!("n={n} threads={threads}: {v}"));
            }
        }
    }

    #[test]
    fn wellformed_empty_spans_verify_and_malformed_ones_are_caught() {
        // Trailing empty spans at the cursor: the degenerate threads > tiles
        // partition shape. Accepted even when n is not tile-aligned.
        let trailing = [
            ColumnSpan { col0: 0, cols: 3 },
            ColumnSpan { col0: 3, cols: 0 },
            ColumnSpan { col0: 3, cols: 0 },
        ];
        check_spans(&trailing, 3).expect("trailing empty spans are covered");

        // n == 0: every span is empty at the origin.
        let all_empty = [ColumnSpan { col0: 0, cols: 0 }; 4];
        check_spans(&all_empty, 0).expect("empty output verifies");

        // An empty span ahead of the cursor leaves a gap claim.
        let ahead = [ColumnSpan { col0: 0, cols: 3 }, ColumnSpan { col0: 5, cols: 0 }];
        assert!(matches!(
            check_spans(&ahead, 3),
            Err(Violation::GeometryGap { thread: 1, .. })
        ));

        // An empty span behind the cursor is a malformed (overlapping) claim.
        let behind = [ColumnSpan { col0: 0, cols: 8 }, ColumnSpan { col0: 4, cols: 0 }];
        assert!(matches!(
            check_spans(&behind, 8),
            Err(Violation::GeometryOverlap { thread: 1, .. })
        ));

        // Empty spans cannot paper over missing coverage.
        let short = [ColumnSpan { col0: 0, cols: 4 }, ColumnSpan { col0: 4, cols: 0 }];
        assert!(matches!(
            check_spans(&short, 12),
            Err(Violation::GeometryCoverage { end: 4, n: 12 })
        ));
    }

    #[test]
    fn overlap_gap_misalignment_and_short_coverage_are_caught() {
        let overlap = [
            ColumnSpan { col0: 0, cols: 8 },
            ColumnSpan { col0: 4, cols: 8 },
        ];
        assert!(matches!(
            check_spans(&overlap, 12),
            Err(Violation::GeometryOverlap { thread: 1, .. })
        ));

        let gap = [
            ColumnSpan { col0: 0, cols: 4 },
            ColumnSpan { col0: 8, cols: 4 },
        ];
        assert!(matches!(
            check_spans(&gap, 12),
            Err(Violation::GeometryGap { thread: 1, .. })
        ));

        let misaligned = [
            ColumnSpan { col0: 0, cols: 6 },
            ColumnSpan { col0: 6, cols: 6 },
        ];
        assert!(matches!(
            check_spans(&misaligned, 12),
            Err(Violation::GeometryMisaligned { thread: 1, col: 6 })
        ));

        let short = [ColumnSpan { col0: 0, cols: 8 }];
        assert!(matches!(
            check_spans(&short, 12),
            Err(Violation::GeometryCoverage { end: 8, n: 12 })
        ));
    }
}
