//! Shape and stride arithmetic shared by the tensor ops.

/// A tensor shape: the extent of each axis, outermost first.
pub type Shape = Vec<usize>;

/// Row-major strides for `shape`: `strides[i]` is the linear-index step for
/// advancing one position along axis `i`.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    strides
}

/// Total number of elements of `shape` (1 for a scalar / empty shape).
#[inline]
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn numel_matches_product() {
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[7, 0]), 0);
    }
}
