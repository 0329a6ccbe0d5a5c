//! Producer traits, mirroring `rayon::prelude`.

use crate::{par_from, Par};

/// `.par_iter()` on shared slices (and through deref, `Vec`).
pub trait IntoParallelRefIterator<'a> {
    type Item: Send + 'a;
    fn par_iter(&'a self) -> Par<Self::Item, impl Fn(Self::Item) -> Self::Item + Sync>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> Par<&'a T, impl Fn(&'a T) -> &'a T + Sync> {
        par_from(self.iter().collect())
    }
}

/// `.into_par_iter()` on owning producers.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> Par<Self::Item, impl Fn(Self::Item) -> Self::Item + Sync>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> Par<T, impl Fn(T) -> T + Sync> {
        par_from(self)
    }
}

/// `.par_chunks_mut()` on mutable slices.
pub trait ParallelSliceMut<'a, T: Send + 'a> {
    fn par_chunks_mut(
        &'a mut self,
        chunk_size: usize,
    ) -> Par<&'a mut [T], impl Fn(&'a mut [T]) -> &'a mut [T] + Sync>;
}

impl<'a, T: Send + 'a> ParallelSliceMut<'a, T> for [T] {
    fn par_chunks_mut(
        &'a mut self,
        chunk_size: usize,
    ) -> Par<&'a mut [T], impl Fn(&'a mut [T]) -> &'a mut [T] + Sync> {
        assert!(chunk_size > 0, "chunk size must be non-zero");
        par_from(self.chunks_mut(chunk_size).collect())
    }
}
