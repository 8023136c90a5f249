//! The bounded window of online waiting times that SPES's adaptive
//! strategies (S2/S3, [`crate::adaptive`]) read.

/// Maximum online WTs buffered per function for adaptive adjusting.
pub const WT_WINDOW_CAPACITY: usize = 64;

/// The [`WT_WINDOW_CAPACITY`] most recent online WTs of one function, in
/// arrival order, together with a sorted mirror of the same values.
///
/// S2/S3 read medians, percentiles, mode tables and in-range counts,
/// which depend only on the window's multiset, so they read the mirror
/// instead of sorting a copy per call. A push keeps the mirror sorted
/// with two binary searches, one to take the evicted value out and one
/// to put the new value in, each followed by a move of at most 64
/// values. The arrival order is kept for the regular rule's mean and
/// standard deviation, whose floating-point sums depend on summation
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WtWindow {
    arrival: Vec<u32>,
    sorted: Vec<u32>,
}

impl WtWindow {
    /// An empty window.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `wt`, evicting the oldest WT once the window is full.
    pub fn push(&mut self, wt: u32) {
        if self.arrival.len() == WT_WINDOW_CAPACITY {
            let oldest = self.arrival.remove(0);
            if let Ok(i) = self.sorted.binary_search(&oldest) {
                self.sorted.remove(i);
            }
        }
        self.arrival.push(wt);
        let at = self.sorted.partition_point(|&x| x <= wt);
        self.sorted.insert(at, wt);
    }

    /// Empties the window, keeping its allocations.
    pub fn clear(&mut self) {
        self.arrival.clear();
        self.sorted.clear();
    }

    /// Number of buffered WTs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// Whether the window holds no WT.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }

    /// The buffered WTs, oldest first.
    #[must_use]
    pub fn arrival(&self) -> &[u32] {
        &self.arrival
    }

    /// The buffered WTs in ascending order.
    #[must_use]
    pub fn sorted(&self) -> &[u32] {
        &self.sorted
    }
}

impl FromIterator<u32> for WtWindow {
    /// Pushes every WT in order, so only the last
    /// [`WT_WINDOW_CAPACITY`] remain.
    fn from_iter<I: IntoIterator<Item = u32>>(wts: I) -> Self {
        let mut window = Self::new();
        for wt in wts {
            window.push(wt);
        }
        window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_most_recent_wts_and_their_sorted_mirror() {
        let window: WtWindow = (0..100u32).rev().collect();
        assert_eq!(window.len(), WT_WINDOW_CAPACITY);
        let newest: Vec<u32> = (0..64u32).rev().collect();
        assert_eq!(window.arrival(), newest.as_slice());
        let ascending: Vec<u32> = (0..64u32).collect();
        assert_eq!(window.sorted(), ascending.as_slice());
    }

    #[test]
    fn evicts_one_copy_of_a_duplicated_value() {
        let mut window: WtWindow = std::iter::repeat_n(7, WT_WINDOW_CAPACITY).collect();
        window.push(3);
        assert_eq!(window.sorted()[0], 3);
        assert_eq!(window.sorted()[1..].iter().filter(|&&x| x == 7).count(), 63);
        window.clear();
        assert!(window.is_empty() && window.sorted().is_empty());
    }
}
