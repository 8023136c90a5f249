//! Offline shim for `serde_derive`.
//!
//! Hand-rolled derives built directly on `proc_macro` (the sandbox has no
//! syn/quote). Supported input shapes — the ones the SPES workspace
//! actually declares:
//!
//! - non-generic structs with named fields,
//! - non-generic tuple structs (newtypes collapse to the inner value),
//! - non-generic enums with unit and tuple variants (externally tagged).
//!
//! Anything fancier (generics, struct variants, serde attributes) is
//! rejected with a compile error rather than silently mis-serialized.

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::panic, clippy::unreachable)]
#![warn(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` (the shim's JSON-value flavour).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, true)
}

/// Derives `serde::Deserialize` (rebuilding the type from the shim's
/// JSON value model, mirroring what `Serialize` emits).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, false)
}

#[expect(clippy::expect_used, reason = "the generators emit valid Rust")]
fn expand(input: TokenStream, serialize: bool) -> TokenStream {
    let parsed = match parse_item(input) {
        Ok(p) => p,
        Err(msg) => return compile_error(&msg),
    };
    let code = if serialize {
        gen_serialize(&parsed)
    } else {
        gen_deserialize(&parsed)
    };
    code.parse().expect("derive shim generated invalid Rust")
}

#[expect(clippy::unwrap_used, reason = "a quoted string literal parses")]
fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

enum Shape {
    /// Named-field struct: field identifiers in declaration order.
    Struct(Vec<String>),
    /// Tuple struct: number of fields.
    TupleStruct(usize),
    /// Enum: `(variant name, tuple arity)`; arity 0 is a unit variant.
    Enum(Vec<(String, usize)>),
}

struct Item {
    name: String,
    shape: Shape,
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut tokens = input.into_iter().peekable();

    // Skip outer attributes (`#[...]`) and visibility.
    let kind = loop {
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = tokens.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        tokens.next(); // pub(crate) etc.
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    break s;
                }
                return Err(format!("serde shim: unexpected item keyword `{s}`"));
            }
            other => return Err(format!("serde shim: unexpected token {other:?}")),
        }
    };

    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("serde shim: expected item name, got {other:?}")),
    };

    match tokens.next() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => Err(format!(
            "serde shim: generic type `{name}` is not supported"
        )),
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let shape = if kind == "struct" {
                Shape::Struct(parse_named_fields(g.stream())?)
            } else {
                Shape::Enum(parse_variants(g.stream())?)
            };
            Ok(Item { name, shape })
        }
        Some(TokenTree::Group(g))
            if g.delimiter() == Delimiter::Parenthesis && kind == "struct" =>
        {
            Ok(Item {
                name,
                shape: Shape::TupleStruct(count_top_level_fields(g.stream())),
            })
        }
        other => Err(format!(
            "serde shim: unsupported {kind} body for `{name}`: {other:?}"
        )),
    }
}

/// Extracts field names from the token stream of a named-field struct body.
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        // Skip field attributes and visibility.
        let field = loop {
            match tokens.next() {
                None => return Ok(fields),
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = tokens.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            tokens.next();
                        }
                    }
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                other => return Err(format!("serde shim: unexpected field token {other:?}")),
            }
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => {
                return Err(format!(
                    "serde shim: expected `:` after field `{field}`, got {other:?}"
                ))
            }
        }
        fields.push(field);
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        for tok in tokens.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
        }
    }
}

/// Counts comma-separated fields of a tuple-struct / tuple-variant body.
fn count_top_level_fields(body: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut fields = 0usize;
    let mut saw_token = false;
    for tok in body {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                fields += 1;
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    fields + usize::from(saw_token)
}

/// Extracts `(name, tuple arity)` for each enum variant.
fn parse_variants(body: TokenStream) -> Result<Vec<(String, usize)>, String> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        let name = loop {
            match tokens.next() {
                None => return Ok(variants),
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    tokens.next();
                }
                Some(TokenTree::Ident(id)) => break id.to_string(),
                other => return Err(format!("serde shim: unexpected variant token {other:?}")),
            }
        };
        let mut arity = 0usize;
        if let Some(TokenTree::Group(g)) = tokens.peek() {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    arity = count_top_level_fields(g.stream());
                    tokens.next();
                }
                Delimiter::Brace => {
                    return Err(format!(
                        "serde shim: struct variant `{name}` is not supported"
                    ))
                }
                _ => {}
            }
        }
        variants.push((name, arity));
        // Skip an optional discriminant and the trailing comma.
        for tok in tokens.by_ref() {
            if matches!(&tok, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
    }
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from({f:?}), \
                         ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
        Shape::TupleStruct(0) => format!("::serde::Value::String(String::from({name:?}))"),
        Shape::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Shape::TupleStruct(n) => {
            let entries: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", entries.join(", "))
        }
        Shape::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|(v, arity)| match arity {
                    0 => format!(
                        "{name}::{v} => \
                         ::serde::Value::String(::std::string::String::from({v:?}))"
                    ),
                    1 => format!(
                        "{name}::{v}(f0) => ::serde::Value::Object(vec![\
                         (::std::string::String::from({v:?}), \
                          ::serde::Serialize::to_value(f0))])"
                    ),
                    n => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let vals: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        format!(
                            "{name}::{v}({}) => ::serde::Value::Object(vec![\
                             (::std::string::String::from({v:?}), \
                              ::serde::Value::Array(vec![{}]))])",
                            binds.join(", "),
                            vals.join(", ")
                        )
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         \x20   fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         ::serde::field(value, {f:?}, {name:?})?)?"
                    )
                })
                .collect();
            format!(
                "::std::result::Result::Ok(Self {{ {} }})",
                entries.join(", ")
            )
        }
        Shape::TupleStruct(0) => format!(
            "match value {{\n\
             \x20   ::serde::Value::String(s) if s == {name:?} => \
             ::std::result::Result::Ok(Self()),\n\
             \x20   other => ::std::result::Result::Err(\
             ::serde::DeError::expected(\"unit string\", {name:?}, other)),\n\
             }}"
        ),
        Shape::TupleStruct(1) => {
            "::std::result::Result::Ok(Self(::serde::Deserialize::from_value(value)?))".to_owned()
        }
        Shape::TupleStruct(n) => {
            let fields: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "match value.as_array() {{\n\
                 \x20   ::std::option::Option::Some(items) if items.len() == {n} => \
                 ::std::result::Result::Ok(Self({fields})),\n\
                 \x20   _ => ::std::result::Result::Err(::serde::DeError::expected(\
                 \"a {n}-element array\", {name:?}, value)),\n\
                 }}",
                fields = fields.join(", ")
            )
        }
        Shape::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|(_, arity)| *arity == 0)
                .map(|(v, _)| format!("{v:?} => return ::std::result::Result::Ok(Self::{v}),"))
                .collect();
            let tagged_arms: Vec<String> = variants
                .iter()
                .filter(|(_, arity)| *arity > 0)
                .map(|(v, arity)| match arity {
                    1 => format!(
                        "{v:?} => return ::std::result::Result::Ok(\
                         Self::{v}(::serde::Deserialize::from_value(inner)?)),"
                    ),
                    n => {
                        let fields: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                            .collect();
                        format!(
                            "{v:?} => {{\n\
                             \x20   if let ::std::option::Option::Some(items) = inner.as_array() {{\n\
                             \x20       if items.len() == {n} {{\n\
                             \x20           return ::std::result::Result::Ok(Self::{v}({fields}));\n\
                             \x20       }}\n\
                             \x20   }}\n\
                             \x20   return ::std::result::Result::Err(::serde::DeError::expected(\
                             \"a {n}-element array\", {name:?}, inner));\n\
                             }}",
                            fields = fields.join(", ")
                        )
                    }
                })
                .collect();
            format!(
                "if let ::serde::Value::String(s) = value {{\n\
                 \x20   #[allow(clippy::match_single_binding)]\n\
                 \x20   match s.as_str() {{ {unit_arms} _ => {{}} }}\n\
                 }}\n\
                 if let ::serde::Value::Object(entries) = value {{\n\
                 \x20   if entries.len() == 1 {{\n\
                 \x20       let (tag, inner) = &entries[0];\n\
                 \x20       let _ = inner;\n\
                 \x20       #[allow(clippy::match_single_binding)]\n\
                 \x20       match tag.as_str() {{ {tagged_arms} _ => {{}} }}\n\
                 \x20   }}\n\
                 }}\n\
                 ::std::result::Result::Err(::serde::DeError::expected(\
                 \"a variant\", {name:?}, value))",
                unit_arms = unit_arms.join(" "),
                tagged_arms = tagged_arms.join(" "),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         \x20   fn from_value(value: &::serde::Value) \
         -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
}
