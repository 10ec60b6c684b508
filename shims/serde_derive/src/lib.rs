//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! Implemented directly on `proc_macro::TokenStream` (no syn/quote — the
//! build environment has no crates.io access). The supported grammar covers
//! everything this workspace derives:
//!
//! - named, tuple, and unit structs;
//! - enums with unit, newtype, tuple, and struct variants;
//! - generic parameters with inline bounds and `where` clauses (each type
//!   parameter additionally gets a `Serialize`/`Deserialize` bound);
//! - the `#[serde(skip)]` field attribute (field omitted on serialize,
//!   `Default::default()` on deserialize);
//! - the `#[serde(default)]` field attribute (a missing entry deserializes
//!   to `Default::default()` instead of erroring, for optional manifest
//!   entries).
//!
//! Serialized form matches serde's externally-tagged defaults: named
//! structs become maps, newtype structs unwrap to their inner value, tuple
//! structs become arrays, unit variants become strings, and data-carrying
//! variants become single-entry maps keyed by the variant name.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    skip: bool,
    /// `#[serde(default)]`: a missing map entry deserializes to
    /// `Default::default()`; without it a missing entry is an error, like
    /// serde without the attribute.
    default: bool,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Kind {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Raw generic parameter list, e.g. `S: Clone` (without the `<>`).
    generics: String,
    /// Bare parameter names, e.g. `["S"]`.
    params: Vec<String>,
    /// Raw `where` clause predicates (without the `where` keyword).
    where_clause: String,
    kind: Kind,
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip attributes and visibility.
    let keyword = loop {
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => i += 2,
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            TokenTree::Ident(id) => {
                let kw = id.to_string();
                if kw == "struct" || kw == "enum" {
                    i += 1;
                    break kw;
                }
                panic!("derive: unexpected token `{kw}`");
            }
            other => panic!("derive: unexpected token `{other}`"),
        }
    };

    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("derive: expected type name, found `{other}`"),
    };
    i += 1;

    // Generic parameter list.
    let mut generics = String::new();
    let mut params = Vec::new();
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        i += 1;
        let mut depth = 1usize;
        let mut expecting_param = true;
        while depth > 0 {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => expecting_param = true,
                TokenTree::Ident(id) if expecting_param => {
                    params.push(id.to_string());
                    expecting_param = false;
                }
                _ => {}
            }
            generics.push_str(&tokens[i].to_string());
            generics.push(' ');
            i += 1;
        }
    }

    // Optional where clause (runs until the body group or `;`).
    let mut where_clause = String::new();
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "where") {
        i += 1;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                t => {
                    where_clause.push_str(&t.to_string());
                    where_clause.push(' ');
                    i += 1;
                }
            }
        }
        let trimmed = where_clause.trim().trim_end_matches(',').to_string();
        where_clause = trimmed;
    }

    let kind = if keyword == "struct" {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Struct(Shape::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Struct(Shape::Tuple(count_tuple_fields(g.stream())))
            }
            _ => Kind::Struct(Shape::Unit),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("derive: expected enum body, found `{other:?}`"),
        }
    };

    Input {
        name,
        generics: generics.trim().trim_end_matches(',').to_string(),
        params,
        where_clause,
        kind,
    }
}

/// The field-level `#[serde(...)]` attributes this shim understands.
#[derive(Default)]
struct FieldAttrs {
    skip: bool,
    /// See [`Field::default`].
    default: bool,
}

/// Consumes attributes at `*i`, returning the recognized `#[serde(...)]`
/// field attributes.
fn eat_attrs(tokens: &[TokenTree], i: &mut usize) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    for piece in args.stream().to_string().split(',') {
                        match piece.trim() {
                            "skip" => attrs.skip = true,
                            "default" => attrs.default = true,
                            other => panic!("derive: unsupported serde attribute `{other}`"),
                        }
                    }
                }
            }
        }
        *i += 2;
    }
    attrs
}

fn eat_visibility(tokens: &[TokenTree], i: &mut usize) {
    if matches!(tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(*i) {
            if g.delimiter() == Delimiter::Parenthesis {
                *i += 1;
            }
        }
    }
}

/// Skips a type (or any token run) up to a top-level `,`, tracking `<>` depth.
fn skip_past_comma(tokens: &[TokenTree], i: &mut usize) {
    let mut angle = 0usize;
    while *i < tokens.len() {
        match &tokens[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' && angle > 0 => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = eat_attrs(&tokens, &mut i);
        eat_visibility(&tokens, &mut i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive: expected field name, found `{other}`"),
        };
        i += 1; // name
        i += 1; // ':'
        skip_past_comma(&tokens, &mut i);
        fields.push(Field {
            name,
            skip: attrs.skip,
            default: attrs.default,
        });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        eat_attrs(&tokens, &mut i);
        eat_visibility(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        skip_past_comma(&tokens, &mut i);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        eat_attrs(&tokens, &mut i);
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("derive: expected variant name, found `{other}`"),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Shape::Named(parse_named_fields(g.stream()))
            }
            _ => Shape::Unit,
        };
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

impl Input {
    /// `impl<G> Trait for Name<P> where ...` header pieces.
    fn impl_header(&self, trait_bound: &str) -> (String, String, String) {
        let generics = if self.generics.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.generics)
        };
        let ty_params = if self.params.is_empty() {
            String::new()
        } else {
            format!("<{}>", self.params.join(", "))
        };
        let mut predicates: Vec<String> = Vec::new();
        if !self.where_clause.is_empty() {
            predicates.push(self.where_clause.clone());
        }
        for p in &self.params {
            predicates.push(format!("{p}: {trait_bound}"));
        }
        let where_clause = if predicates.is_empty() {
            String::new()
        } else {
            format!("where {}", predicates.join(", "))
        };
        (generics, ty_params, where_clause)
    }
}

fn gen_serialize(input: &Input) -> String {
    let (generics, ty_params, where_clause) = input.impl_header("serde::Serialize");
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Shape::Named(fields)) => {
            let mut pushes = String::new();
            for f in fields.iter().filter(|f| !f.skip) {
                pushes.push_str(&format!(
                    "entries.push((\"{n}\".to_string(), serde::Serialize::to_value(&self.{n})));\n",
                    n = f.name
                ));
            }
            format!(
                "let mut entries: Vec<(String, serde::Value)> = Vec::new();\n{pushes}serde::Value::Map(entries)"
            )
        }
        Kind::Struct(Shape::Tuple(1)) => "serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|k| format!("serde::Serialize::to_value(&self.{k})"))
                .collect();
            format!("serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Kind::Struct(Shape::Unit) => "serde::Value::Null".to_string(),
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => arms.push_str(&format!(
                        "{name}::{vn} => serde::Value::Str(\"{vn}\".to_string()),\n"
                    )),
                    Shape::Tuple(1) => arms.push_str(&format!(
                        "{name}::{vn}(f0) => serde::Value::Map(vec![(\"{vn}\".to_string(), serde::Serialize::to_value(f0))]),\n"
                    )),
                    Shape::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => serde::Value::Map(vec![(\"{vn}\".to_string(), serde::Value::Seq(vec![{items}]))]),\n",
                            binds = binds.join(", "),
                            items = items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        let mut pushes = String::new();
                        for f in fields.iter().filter(|f| !f.skip) {
                            pushes.push_str(&format!(
                                "inner.push((\"{n}\".to_string(), serde::Serialize::to_value({n})));\n",
                                n = f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{\n\
                             let mut inner: Vec<(String, serde::Value)> = Vec::new();\n\
                             {pushes}\
                             serde::Value::Map(vec![(\"{vn}\".to_string(), serde::Value::Map(inner))])\n\
                             }},\n",
                            binds = binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{generics} serde::Serialize for {name}{ty_params} {where_clause} {{\n\
         fn to_value(&self) -> serde::Value {{\n{body}\n}}\n}}\n"
    )
}

fn gen_deserialize(input: &Input) -> String {
    let (generics, ty_params, where_clause) = input.impl_header("serde::Deserialize");
    let name = &input.name;
    let named_ctor = |fields: &[Field], path: &str, map_expr: &str| -> String {
        let mut inits = String::new();
        for f in fields {
            if f.skip {
                inits.push_str(&format!(
                    "{n}: ::std::default::Default::default(),\n",
                    n = f.name
                ));
            } else if f.default {
                inits.push_str(&format!(
                    "{n}: serde::field_or_default({map_expr}, \"{n}\")?,\n",
                    n = f.name
                ));
            } else {
                inits.push_str(&format!(
                    "{n}: serde::field({map_expr}, \"{n}\", \"{path}\")?,\n",
                    n = f.name
                ));
            }
        }
        format!("{path} {{\n{inits}}}")
    };
    let body = match &input.kind {
        Kind::Struct(Shape::Named(fields)) => {
            let ctor = named_ctor(fields, name, "entries");
            format!(
                "let entries = v.as_map().ok_or_else(|| serde::Error::expected(\"map\", \"{name}\"))?;\n\
                 Ok({ctor})"
            )
        }
        Kind::Struct(Shape::Tuple(1)) => {
            format!("Ok({name}(serde::Deserialize::from_value(v)?))")
        }
        Kind::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|k| format!("serde::Deserialize::from_value(&s[{k}])?"))
                .collect();
            format!(
                "let s = v.as_seq().ok_or_else(|| serde::Error::expected(\"array\", \"{name}\"))?;\n\
                 if s.len() != {n} {{\n\
                 return Err(serde::Error::new(format!(\"{name}: expected {n} elements, got {{}}\", s.len())));\n\
                 }}\n\
                 Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Kind::Struct(Shape::Unit) => format!("Ok({name})"),
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                    }
                    Shape::Tuple(1) => {
                        data_arms.push_str(&format!(
                            "\"{vn}\" => Ok({name}::{vn}(serde::Deserialize::from_value(inner)?)),\n"
                        ));
                    }
                    Shape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|k| format!("serde::Deserialize::from_value(&s[{k}])?"))
                            .collect();
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let s = inner.as_seq().ok_or_else(|| serde::Error::expected(\"array\", \"{name}::{vn}\"))?;\n\
                             if s.len() != {n} {{\n\
                             return Err(serde::Error::new(format!(\"{name}::{vn}: expected {n} elements, got {{}}\", s.len())));\n\
                             }}\n\
                             Ok({name}::{vn}({items}))\n\
                             }},\n",
                            items = items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        let ctor = named_ctor(fields, &format!("{name}::{vn}"), "entries");
                        data_arms.push_str(&format!(
                            "\"{vn}\" => {{\n\
                             let entries = inner.as_map().ok_or_else(|| serde::Error::expected(\"map\", \"{name}::{vn}\"))?;\n\
                             Ok({ctor})\n\
                             }},\n"
                        ));
                    }
                }
            }
            format!(
                "match v {{\n\
                 serde::Value::Str(tag) => match tag.as_str() {{\n\
                 {unit_arms}\
                 other => Err(serde::Error::new(format!(\"unknown {name} variant {{other:?}}\"))),\n\
                 }},\n\
                 serde::Value::Map(m) if m.len() == 1 => {{\n\
                 let (tag, inner) = &m[0];\n\
                 let _ = inner;\n\
                 match tag.as_str() {{\n\
                 {data_arms}\
                 other => Err(serde::Error::new(format!(\"unknown {name} variant {{other:?}}\"))),\n\
                 }}\n\
                 }},\n\
                 _ => Err(serde::Error::expected(\"string or single-entry map\", \"{name}\")),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl{generics} serde::Deserialize for {name}{ty_params} {where_clause} {{\n\
         fn from_value(v: &serde::Value) -> ::std::result::Result<Self, serde::Error> {{\n{body}\n}}\n}}\n"
    )
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("derived Serialize impl parses")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("derived Deserialize impl parses")
}
