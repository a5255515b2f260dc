//! Offline stand-in for `serde_derive`: emits empty impls of the marker
//! traits in the stand-in `serde`, and accepts `#[serde(...)]` attributes
//! without reading them.

use proc_macro::{TokenStream, TokenTree};

/// The name of the struct or enum a derive input declares. The
/// workspace derives only on types without generic parameters.
fn type_name(input: TokenStream) -> String {
    let mut tokens = input.into_iter();
    while let Some(token) = tokens.next() {
        if let TokenTree::Ident(ident) = &token {
            let word = ident.to_string();
            if word == "struct" || word == "enum" {
                let name = match tokens.next() {
                    Some(TokenTree::Ident(name)) => name.to_string(),
                    other => panic!("expected a type name, found {other:?}"),
                };
                if let Some(TokenTree::Punct(p)) = tokens.next() {
                    assert!(p.as_char() != '<', "generic type {name}: not supported by the stand-in");
                }
                return name;
            }
        }
    }
    panic!("derive input is neither a struct nor an enum")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl ::serde::Serialize for {name} {{}}").parse().expect("valid impl")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl<'de> ::serde::Deserialize<'de> for {name} {{}}").parse().expect("valid impl")
}
