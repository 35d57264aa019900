//! Fixed-capacity per-frequency-domain storage.
//!
//! Real SoCs expose a handful of cpufreq policies (one per cluster:
//! LITTLE, big, sometimes a prime core). The multi-domain control plane
//! indexes everything — utilization samples, thermal caps, governor
//! decisions — by domain, and those vectors travel through the 100 ms
//! hot loop of every simulated device. [`PerDomain`] keeps them inline
//! (no heap allocation per step) and `Copy`, bounded by
//! [`MAX_FREQ_DOMAINS`].

/// The most frequency domains any device may declare (re-exported from
/// the device catalog, the source of domain counts): up to four CPU
/// clusters (LITTLE + big + prime covers every shipping phone, four
/// leaves headroom) plus one GPU domain plus one display domain.
pub use usta_device::MAX_FREQ_DOMAINS;

/// What kind of hardware a frequency domain scales.
///
/// The control plane treats a device as a flat list of frequency
/// domains; the kind tells governors and the power-budget arbiter how
/// to handle each one — factory CPU heuristics apply only to
/// [`DomainKind::CpuCluster`] domains, while GPU and display domains
/// follow demand under the arbiter's caps. Arbiter priority under a
/// shrinking budget: CPU clusters shed headroom first, then the GPU,
/// and the display dims last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DomainKind {
    /// A set of CPU cores sharing one clock (a cpufreq policy).
    #[default]
    CpuCluster,
    /// The GPU on its own OPP table.
    Gpu,
    /// The display backlight: "frequency" levels are brightness
    /// permille on the device's ladder.
    Display,
}

impl DomainKind {
    /// Short lower-case label (`cpu`/`gpu`/`display`) for reports.
    pub fn label(self) -> &'static str {
        match self {
            DomainKind::CpuCluster => "cpu",
            DomainKind::Gpu => "gpu",
            DomainKind::Display => "display",
        }
    }
}

/// A fixed-capacity, `Copy` vector with one slot per frequency domain.
///
/// ```
/// use usta_soc::PerDomain;
///
/// let mut levels: PerDomain<usize> = PerDomain::new();
/// levels.push(11);
/// levels.push(7);
/// assert_eq!(levels.as_slice(), &[11, 7]);
/// assert_eq!(levels[1], 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PerDomain<T> {
    len: u8,
    items: [T; MAX_FREQ_DOMAINS],
}

impl<T: Copy + Default> PerDomain<T> {
    /// An empty vector.
    pub fn new() -> PerDomain<T> {
        PerDomain {
            len: 0,
            items: [T::default(); MAX_FREQ_DOMAINS],
        }
    }

    /// A vector of `n` copies of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_FREQ_DOMAINS`.
    pub fn splat(n: usize, value: T) -> PerDomain<T> {
        assert!(n <= MAX_FREQ_DOMAINS, "at most {MAX_FREQ_DOMAINS} domains");
        let mut v = PerDomain::new();
        for _ in 0..n {
            v.push(value);
        }
        v
    }

    /// Builds from a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice holds more than [`MAX_FREQ_DOMAINS`] items.
    pub fn from_slice(items: &[T]) -> PerDomain<T> {
        let mut v = PerDomain::new();
        for &item in items {
            v.push(item);
        }
        v
    }

    /// Builds `n` entries from an index function.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_FREQ_DOMAINS`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> T) -> PerDomain<T> {
        assert!(n <= MAX_FREQ_DOMAINS, "at most {MAX_FREQ_DOMAINS} domains");
        let mut v = PerDomain::new();
        for d in 0..n {
            v.push(f(d));
        }
        v
    }

    /// Rewrites the vector in place to what [`PerDomain::from_fn`]
    /// would build.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_FREQ_DOMAINS`.
    pub fn refill(&mut self, n: usize, mut f: impl FnMut(usize) -> T) {
        assert!(n <= MAX_FREQ_DOMAINS, "at most {MAX_FREQ_DOMAINS} domains");
        for (d, item) in self.items[..n].iter_mut().enumerate() {
            *item = f(d);
        }
        for item in self.items.iter_mut().take(self.len as usize).skip(n) {
            *item = T::default();
        }
        self.len = n as u8;
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics when the vector already holds [`MAX_FREQ_DOMAINS`] items.
    pub fn push(&mut self, value: T) {
        assert!(
            (self.len as usize) < MAX_FREQ_DOMAINS,
            "at most {MAX_FREQ_DOMAINS} domains"
        );
        self.items[self.len as usize] = value;
        self.len += 1;
    }
}

impl<T> PerDomain<T> {
    /// Number of domains held.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no domain has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items[..self.len as usize]
    }

    /// The entries as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.items[..self.len as usize]
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default> Default for PerDomain<T> {
    fn default() -> PerDomain<T> {
        PerDomain::new()
    }
}

impl<T> std::ops::Index<usize> for PerDomain<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.as_slice()[index]
    }
}

impl<T> std::ops::IndexMut<usize> for PerDomain<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.as_mut_slice()[index]
    }
}

impl<'a, T> IntoIterator for &'a PerDomain<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default> FromIterator<T> for PerDomain<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> PerDomain<T> {
        let mut v = PerDomain::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_index() {
        let mut v: PerDomain<f64> = PerDomain::new();
        assert!(v.is_empty());
        v.push(1.5);
        v.push(2.5);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 1.5);
        assert_eq!(v.as_slice(), &[1.5, 2.5]);
        v[1] = 3.0;
        assert_eq!(v[1], 3.0);
    }

    #[test]
    fn refill_equals_a_fresh_from_fn() {
        let mut v = PerDomain::from_fn(5, |d| d * 10);
        v.refill(2, |d| d + 1);
        assert_eq!(v, PerDomain::from_fn(2, |d| d + 1));
        v.refill(4, |d| d * 3);
        assert_eq!(v, PerDomain::from_fn(4, |d| d * 3));
    }

    #[test]
    fn splat_from_slice_from_fn_agree() {
        assert_eq!(
            PerDomain::splat(3, 7usize),
            PerDomain::from_slice(&[7, 7, 7])
        );
        assert_eq!(
            PerDomain::from_fn(3, |d| d * 2),
            PerDomain::from_slice(&[0, 2, 4])
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn overflow_panics() {
        let mut v: PerDomain<u8> = PerDomain::new();
        for i in 0..=MAX_FREQ_DOMAINS {
            v.push(i as u8);
        }
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let mut a: PerDomain<u8> = PerDomain::new();
        a.push(1);
        a.push(2);
        a.push(3);
        // Shrink by rebuilding: leftover slot contents must not matter.
        let b = PerDomain::from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn iteration() {
        let v = PerDomain::from_slice(&[10usize, 20]);
        let collected: Vec<usize> = v.iter().copied().collect();
        assert_eq!(collected, vec![10, 20]);
        let collected2: Vec<usize> = (&v).into_iter().copied().collect();
        assert_eq!(collected, collected2);
        let round: PerDomain<usize> = collected.into_iter().collect();
        assert_eq!(round, v);
    }
}
