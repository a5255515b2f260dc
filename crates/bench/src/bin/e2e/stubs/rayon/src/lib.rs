//! Offline stand-in for `rayon`: the parallel-iterator entry points
//! return the corresponding sequential iterators, so results are the
//! same and every kernel runs on its caller's thread.

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator,
    };
}

pub trait IntoParallelIterator: IntoIterator + Sized {
    fn into_par_iter(self) -> Self::IntoIter {
        self.into_iter()
    }
}

impl<I: IntoIterator> IntoParallelIterator for I {}

pub trait IntoParallelRefIterator<'a> {
    type Iter: Iterator;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, C: ?Sized + 'a> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
{
    type Iter = <&'a C as IntoIterator>::IntoIter;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_iter()
    }
}

pub trait IntoParallelRefMutIterator<'a> {
    type Iter: Iterator;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, C: ?Sized + 'a> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoIterator,
{
    type Iter = <&'a mut C as IntoIterator>::IntoIter;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_iter()
    }
}

/// The adaptors rayon has and `Iterator` lacks.
pub trait ParallelIterator: Iterator + Sized {
    fn flat_map_iter<U, F>(self, f: F) -> std::iter::FlatMap<Self, U, F>
    where
        U: IntoIterator,
        F: FnMut(Self::Item) -> U,
    {
        self.flat_map(f)
    }
}

impl<I: Iterator> ParallelIterator for I {}
