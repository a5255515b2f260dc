//! Offline stand-in for `serde_json`: every call reports that the codec
//! is unavailable. The benchmark never reaches one.

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("serde_json is an offline stand-in here and cannot encode or decode")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: serde::Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: serde::Serialize + ?Sized>(_value: &T) -> Result<String> {
    Err(Error)
}

pub fn from_str<'a, T: serde::Deserialize<'a>>(_text: &'a str) -> Result<T> {
    Err(Error)
}
