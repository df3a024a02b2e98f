//! Collection strategies (`prop::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Generates `Vec`s whose length is drawn from `len` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.in_range(self.len.start, self.len.end);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn length_in_range() {
        let s = vec(Just(1u8), 3..7);
        let mut rng = TestRng::new(11);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x == 1));
        }
    }
}
