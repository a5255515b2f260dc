//! Offline stand-in for `crossbeam`: only `thread::scope`, which the
//! runtime uses to run members on borrowed data, built on
//! `std::thread::scope`.

pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    type Panic = Box<dyn Any + Send + 'static>;

    /// Spawner handed to the scope body and to every spawned closure.
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Panic> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle { inner: inner.spawn(move || f(&Scope { inner })) }
        }
    }

    /// Runs `f` with a spawner whose threads may borrow from the caller
    /// and are all joined before this returns. A panic in an unjoined
    /// thread comes back as `Err`, as the published crate reports it.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Panic>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| std::thread::scope(|s| f(&Scope { inner: s }))))
    }
}
