//! Mode (most-frequent-value) extraction over waiting-time sequences.
//!
//! The "appro-regular" rule of SPES checks whether the first `n` modes of a
//! WT sequence cover at least 90% of the sequence, and both "appro-regular"
//! and "dense" functions use the top modes as predictive values. The
//! "possible" assignment uses every WT value that occurs more than once.

/// A value together with its occurrence count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeEntry {
    /// The observed value.
    pub value: u32,
    /// How many times it occurred.
    pub count: usize,
}

/// Full frequency table of `xs`, sorted by descending count and then by
/// ascending value so that ties break deterministically.
///
/// Sorts a copy of `xs`, then reads it with [`mode_table_sorted`].
#[must_use]
pub fn mode_table(xs: &[u32]) -> Vec<ModeEntry> {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable();
    mode_table_sorted(&sorted)
}

/// [`mode_table`] of an already ascending slice: counts its runs, with no
/// copy or sort of the values and no hashing; only the table itself is
/// sorted, by a key that is a total order on the distinct values.
#[must_use]
pub fn mode_table_sorted(sorted: &[u32]) -> Vec<ModeEntry> {
    debug_assert!(
        sorted.is_sorted(),
        "mode_table_sorted needs ascending input"
    );
    let mut table: Vec<ModeEntry> = Vec::new();
    let mut rest = sorted;
    while let Some(&value) = rest.first() {
        // The run of `value` is the prefix of `rest` equal to it: gallop
        // over it in doubling steps, then binary-search the last step, so
        // a run costs O(log length) comparisons and a singleton one.
        let (mut known, mut step) = (1, 1);
        while known + step <= rest.len() && rest[known + step - 1] == value {
            known += step;
            step *= 2;
        }
        let upper = (known + step - 1).min(rest.len());
        let count = known + rest[known..upper].partition_point(|&x| x == value);
        table.push(ModeEntry { value, count });
        rest = &rest[count..];
    }
    table.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.value.cmp(&b.value)));
    table
}

/// The first `n` modes of `xs` (fewer if `xs` has fewer distinct values).
#[must_use]
pub fn top_modes(xs: &[u32], n: usize) -> Vec<ModeEntry> {
    let mut table = mode_table(xs);
    table.truncate(n);
    table
}

/// Number of observations covered by the first `n` modes.
///
/// The appro-regular rule is `mode_coverage(wts, n) >= 0.9 * wts.len()`.
#[must_use]
pub fn mode_coverage(xs: &[u32], n: usize) -> usize {
    top_modes(xs, n).iter().map(|m| m.count).sum()
}

/// Values occurring strictly more than once, in descending-frequency order.
///
/// These are the predictive values of "possible" functions (Section IV-B,
/// D3): infrequently invoked, but with at least one duplicated WT.
#[must_use]
pub fn repeated_values(xs: &[u32]) -> Vec<u32> {
    mode_table(xs)
        .into_iter()
        .filter(|m| m.count > 1)
        .map(|m| m.value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_table_empty() {
        assert!(mode_table(&[]).is_empty());
    }

    #[test]
    fn mode_table_orders_by_count_then_value() {
        let t = mode_table(&[3, 1, 3, 2, 2, 3]);
        assert_eq!(t[0], ModeEntry { value: 3, count: 3 });
        assert_eq!(t[1], ModeEntry { value: 2, count: 2 });
        assert_eq!(t[2], ModeEntry { value: 1, count: 1 });
    }

    #[test]
    fn mode_table_tie_breaks_ascending_value() {
        let t = mode_table(&[5, 4, 5, 4]);
        assert_eq!(t[0].value, 4);
        assert_eq!(t[1].value, 5);
    }

    #[test]
    fn sorted_table_equals_the_table_of_a_shuffled_copy() {
        let sorted = [1, 2, 2, 3, 3, 3, 9];
        assert_eq!(
            mode_table_sorted(&sorted),
            mode_table(&[3, 9, 2, 3, 1, 3, 2])
        );
        assert!(mode_table_sorted(&[]).is_empty());
    }

    #[test]
    fn top_modes_truncates() {
        let t = top_modes(&[1, 1, 2, 2, 3], 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].value, 1);
        assert_eq!(t[1].value, 2);
    }

    #[test]
    fn top_modes_fewer_distinct_than_n() {
        assert_eq!(top_modes(&[9, 9, 9], 5).len(), 1);
    }

    #[test]
    fn coverage_appro_regular_example() {
        // IoT-hub style: invoked every 3-5 minutes; 3 and 4 dominate.
        let wts = [3, 4, 3, 4, 3, 4, 3, 4, 3, 17];
        assert_eq!(mode_coverage(&wts, 2), 9);
        assert!(mode_coverage(&wts, 2) as f64 >= 0.9 * wts.len() as f64);
    }

    #[test]
    fn coverage_with_n_zero_is_zero() {
        assert_eq!(mode_coverage(&[1, 2, 3], 0), 0);
    }

    #[test]
    fn repeated_values_filters_singletons() {
        assert_eq!(repeated_values(&[7, 7, 3, 9, 3, 1]), vec![3, 7]);
    }

    #[test]
    fn repeated_values_none() {
        assert!(repeated_values(&[1, 2, 3]).is_empty());
    }
}
