//! Offline stand-in for `serde`: marker traits and no-op derives, so the
//! workspace's `#[derive(Serialize, Deserialize)]` types compile. Nothing
//! can actually be serialized through it; the service's wire format has
//! its own codec (`svc::json`).

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}

pub trait Deserialize<'de>: Sized {}

pub mod de {
    pub trait DeserializeOwned: for<'de> crate::Deserialize<'de> {}
    impl<T: for<'de> crate::Deserialize<'de>> DeserializeOwned for T {}
}
