//! Derive macros for the offline `serde` shim.
//!
//! Supports exactly the shapes this workspace serializes: structs with named
//! fields, newtype (single-field tuple) structs, and enums whose variants are
//! fieldless, tuple or struct-like.  Types may take lifetime parameters (a
//! borrowed view that only serializes); type and const parameters are not
//! supported.  The input is parsed directly from the token stream (no `syn`),
//! which is enough because the supported grammar is tiny; unsupported shapes
//! fail the build with an explicit message rather than silently
//! mis-serializing.
//!
//! `Serialize` generates both encoders — the `Value`-tree `serialize` and
//! the direct `write_json` — from the same field list, so they cannot
//! disagree on names or order.
//!
//! Enum representation follows serde's external tagging: unit variants
//! serialize as the variant-name string, data variants as a single-key object
//! `{"Variant": payload}` where the payload is the inner value for newtype
//! variants, an array for wider tuple variants and an object for struct
//! variants.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// `struct Name { a: A, b: B }` — serialized as an object.
    Named { name: String, fields: Vec<String> },
    /// `struct Name(Inner);` — serialized transparently as the inner value.
    Newtype { name: String },
    /// `struct Name;` — serialized as `null`.
    Unit { name: String },
    /// `enum Name { A, B(X), C { y: Y } }` — externally tagged.
    Enum {
        name: String,
        variants: Vec<VariantDef>,
    },
}

/// One enum variant with its payload shape.
struct VariantDef {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    /// `A` — serialized as the string `"A"`.
    Unit,
    /// `B(X, Y)` — serialized as `{"B": payload}` (inner value when arity 1,
    /// array otherwise).
    Tuple(usize),
    /// `C { y: Y }` — serialized as `{"C": {"y": ...}}`.
    Struct(Vec<String>),
}

/// A parsed type: its shape plus its lifetime parameter list (`<'a>`, or
/// empty), repeated verbatim after `impl` and after the type name.
struct Input {
    generics: String,
    shape: Shape,
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes (`#[...]`, including expanded doc comments).
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(_)) if p.as_char() == '#' => i += 2,
            _ => break,
        }
    }
    // Skip visibility (`pub`, `pub(crate)`, ...).
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis) {
            i += 1;
        }
    }

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, found `{other}`"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found `{other}`"),
    };
    i += 1;
    let mut generics = String::new();
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        // Lifetimes only: `'a` lexes as a `'` punct joined to an identifier.
        loop {
            match &tokens[i] {
                TokenTree::Punct(p) if matches!(p.as_char(), '<' | '\'' | ',') => {
                    generics.push(p.as_char());
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    generics.push('>');
                    i += 1;
                    break;
                }
                TokenTree::Ident(id) if generics.ends_with('\'') => {
                    generics.push_str(&id.to_string());
                }
                _ => panic!(
                    "serde shim derive: only lifetime parameters are supported (type `{name}`)"
                ),
            }
            i += 1;
        }
    }
    let shape = match tokens.get(i) {
        Some(TokenTree::Punct(p)) if p.as_char() == ';' && kind == "struct" => Shape::Unit { name },
        None if kind == "struct" => Shape::Unit { name },
        Some(TokenTree::Group(body)) => match (kind.as_str(), body.delimiter()) {
            ("struct", Delimiter::Brace) => Shape::Named {
                fields: parse_named_fields(body.stream(), &name),
                name,
            },
            ("struct", Delimiter::Parenthesis) => {
                let arity = tuple_arity(body.stream());
                if arity != 1 {
                    panic!(
                        "serde shim derive: tuple struct `{name}` has {arity} fields; \
                         only single-field newtypes are supported"
                    );
                }
                Shape::Newtype { name }
            }
            ("enum", Delimiter::Brace) => Shape::Enum {
                variants: parse_variants(body.stream(), &name),
                name,
            },
            _ => panic!("serde shim derive: unsupported shape for `{name}`"),
        },
        other => panic!(
            "serde shim derive: expected type body for `{name}`, found `{:?}`",
            other.map(ToString::to_string)
        ),
    };
    Input { generics, shape }
}

/// Collects field names from a named-struct body, skipping attributes,
/// visibility and type tokens (commas inside `<...>` or delimiter groups do
/// not split fields).
fn parse_named_fields(stream: TokenStream, type_name: &str) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip field attributes.
        while i + 1 < tokens.len() {
            match (&tokens[i], &tokens[i + 1]) {
                (TokenTree::Punct(p), TokenTree::Group(_)) if p.as_char() == '#' => i += 2,
                _ => break,
            }
        }
        if i >= tokens.len() {
            break;
        }
        // Skip visibility.
        if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let field = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => {
                panic!("serde shim derive: expected field name in `{type_name}`, found `{other}`")
            }
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => panic!(
                "serde shim derive: expected `:` after `{type_name}.{field}`, found `{other}`"
            ),
        }
        fields.push(field);
        // Skip the type up to the next top-level comma.
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

fn tuple_arity(stream: TokenStream) -> usize {
    let mut arity = 0;
    let mut saw_token = false;
    let mut angle_depth = 0i32;
    for token in stream {
        match &token {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                arity += 1;
                saw_token = false;
                continue;
            }
            _ => {}
        }
        saw_token = true;
    }
    if saw_token {
        arity += 1;
    }
    arity
}

fn parse_variants(stream: TokenStream, type_name: &str) -> Vec<VariantDef> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while i + 1 < tokens.len() {
            match (&tokens[i], &tokens[i + 1]) {
                (TokenTree::Punct(p), TokenTree::Group(_)) if p.as_char() == '#' => i += 2,
                _ => break,
            }
        }
        if i >= tokens.len() {
            break;
        }
        let variant = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => {
                panic!("serde shim derive: expected variant name in `{type_name}`, found `{other}`")
            }
        };
        i += 1;
        let kind = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                let arity = tuple_arity(g.stream());
                if arity == 0 {
                    panic!(
                        "serde shim derive: enum `{type_name}` variant `{variant}` has an \
                         empty tuple payload; write it as a unit variant instead"
                    );
                }
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream(), type_name))
            }
            _ => VariantKind::Unit,
        };
        if i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
                other => {
                    panic!("serde shim derive: unexpected token `{other}` in enum `{type_name}`")
                }
            }
        }
        variants.push(VariantDef {
            name: variant,
            kind,
        });
    }
    variants
}

/// Statements appending `{"a":…,"b":…}` to `__out`, one direct
/// `write_json` call per field.  `access` maps a field name to the
/// expression holding it (`self.a` in a struct, the binding `a` in a variant
/// arm).  Field names are identifiers, so they need no JSON escaping.
fn write_object_stmts(fields: &[String], access: impl Fn(&str) -> String) -> String {
    if fields.is_empty() {
        return "__out.push_str(\"{}\");\n".to_string();
    }
    let mut stmts = String::new();
    for (i, field) in fields.iter().enumerate() {
        let lead = if i == 0 { '{' } else { ',' };
        stmts.push_str(&format!(
            "__out.push_str(\"{lead}\\\"{field}\\\":\");\n\
             ::serde::Serialize::write_json({expr}, __out)?;\n",
            expr = access(field),
        ));
    }
    stmts.push_str("__out.push('}');\n");
    stmts
}

/// Derives `serde::Serialize` (shim) for supported shapes.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input { generics, shape } = parse_input(input);
    // (type name, body of `serialize`, body of `write_json`)
    let (name, tree, direct) = match shape {
        Shape::Named { name, fields } => {
            let mut pushes = String::new();
            for field in &fields {
                pushes.push_str(&format!(
                    "__fields.push((::std::string::String::from(\"{field}\"), \
                     ::serde::Serialize::serialize(&self.{field})));\n"
                ));
            }
            let tree = format!(
                "let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                     ::std::vec::Vec::with_capacity({len});\n\
                 {pushes}\
                 ::serde::Value::Object(__fields)\n",
                len = fields.len(),
            );
            let direct = write_object_stmts(&fields, |f| format!("&self.{f}"));
            (name, tree, direct)
        }
        Shape::Newtype { name } => (
            name,
            "::serde::Serialize::serialize(&self.0)\n".to_string(),
            "::serde::Serialize::write_json(&self.0, __out)?;\n".to_string(),
        ),
        Shape::Unit { name } => (
            name,
            "::serde::Value::Null\n".to_string(),
            "__out.push_str(\"null\");\n".to_string(),
        ),
        Shape::Enum { name, variants } => {
            let tree_arms: String = variants
                .iter()
                .map(|v| serialize_variant_arm(&name, v))
                .collect();
            let direct_arms: String = variants
                .iter()
                .map(|v| write_variant_arm(&name, v))
                .collect();
            (
                name,
                format!("match self {{\n{tree_arms}}}\n"),
                format!("match self {{\n{direct_arms}}}\n"),
            )
        }
    };
    let body = format!(
        "impl{generics} ::serde::Serialize for {name}{generics} {{\n\
             fn serialize(&self) -> ::serde::Value {{\n{tree}}}\n\
             fn write_json(&self, __out: &mut ::std::string::String) -> \
                 ::std::result::Result<(), ::serde::Error> {{\n\
                 {direct}\
                 ::std::result::Result::Ok(())\n\
             }}\n\
         }}"
    );
    body.parse()
        .expect("serde shim derive: generated Serialize impl must parse")
}

/// One `match self` arm of the generated `serialize` for an enum.
fn serialize_variant_arm(name: &str, variant: &VariantDef) -> String {
    let v = &variant.name;
    let tag = format!("::std::string::String::from(\"{v}\")");
    match &variant.kind {
        VariantKind::Unit => {
            format!("{name}::{v} => ::serde::Value::Str({tag}),\n")
        }
        VariantKind::Tuple(1) => format!(
            "{name}::{v}(__f0) => ::serde::Value::Object(::std::vec::Vec::from([\
             ({tag}, ::serde::Serialize::serialize(__f0))])),\n"
        ),
        VariantKind::Tuple(arity) => {
            let bindings: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
            let items: Vec<String> = bindings
                .iter()
                .map(|b| format!("::serde::Serialize::serialize({b})"))
                .collect();
            format!(
                "{name}::{v}({binds}) => ::serde::Value::Object(::std::vec::Vec::from([\
                 ({tag}, ::serde::Value::Array(::std::vec::Vec::from([{items}])))])),\n",
                binds = bindings.join(", "),
                items = items.join(", "),
            )
        }
        VariantKind::Struct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::serialize({f}))"
                    )
                })
                .collect();
            format!(
                "{name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec::Vec::from([\
                 ({tag}, ::serde::Value::Object(::std::vec::Vec::from([{entries}])))])),\n",
                binds = fields.join(", "),
                entries = entries.join(", "),
            )
        }
    }
}

/// One `match self` arm of the generated `write_json` for an enum: the same
/// external tagging as [`serialize_variant_arm`], appended to `__out`.
fn write_variant_arm(name: &str, variant: &VariantDef) -> String {
    let v = &variant.name;
    match &variant.kind {
        VariantKind::Unit => {
            format!("{name}::{v} => __out.push_str(\"\\\"{v}\\\"\"),\n")
        }
        VariantKind::Tuple(arity) => {
            let bindings: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
            // A newtype variant's payload is the bare inner value; a wider
            // tuple's is an array.
            let (open, close) = if *arity == 1 { ("", "") } else { ("[", "]") };
            let items: Vec<String> = bindings
                .iter()
                .map(|b| format!("::serde::Serialize::write_json({b}, __out)?;\n"))
                .collect();
            format!(
                "{name}::{v}({binds}) => {{\n\
                     __out.push_str(\"{{\\\"{v}\\\":{open}\");\n\
                     {items}\
                     __out.push_str(\"{close}}}\");\n\
                 }}\n",
                binds = bindings.join(", "),
                items = items.join("__out.push(',');\n"),
            )
        }
        VariantKind::Struct(fields) => format!(
            "{name}::{v} {{ {binds} }} => {{\n\
                 __out.push_str(\"{{\\\"{v}\\\":\");\n\
                 {object}\
                 __out.push('}}');\n\
             }}\n",
            binds = fields.join(", "),
            object = write_object_stmts(fields, str::to_string),
        ),
    }
}

/// Derives `serde::Deserialize` (shim) for supported shapes.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input { generics, shape } = parse_input(input);
    if !generics.is_empty() {
        panic!("serde shim derive: Deserialize does not support lifetime parameters");
    }
    let body = match shape {
        Shape::Named { name, fields } => {
            let mut inits = String::new();
            for field in &fields {
                inits.push_str(&format!(
                    "{field}: ::serde::Deserialize::deserialize(\
                     ::serde::get_field(__fields, \"{field}\")?)?,\n"
                ));
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(__value: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::Error> {{\n\
                         let __fields = __value.as_object().ok_or_else(|| \
                             ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                         ::std::result::Result::Ok({name} {{\n{inits}}})\n\
                     }}\n\
                 }}"
            )
        }
        Shape::Newtype { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__value: &::serde::Value) -> \
                     ::std::result::Result<Self, ::serde::Error> {{\n\
                     ::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__value)?))\n\
                 }}\n\
             }}"
        ),
        Shape::Unit { name } => format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(_value: &::serde::Value) -> \
                     ::std::result::Result<Self, ::serde::Error> {{\n\
                     ::std::result::Result::Ok({name})\n\
                 }}\n\
             }}"
        ),
        Shape::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|v| matches!(v.kind, VariantKind::Unit))
                .map(|v| {
                    format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),\n",
                        v = v.name
                    )
                })
                .collect();
            let data_arms: String = variants
                .iter()
                .filter(|v| !matches!(v.kind, VariantKind::Unit))
                .map(|v| deserialize_variant_arm(&name, v))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn deserialize(__value: &::serde::Value) -> \
                         ::std::result::Result<Self, ::serde::Error> {{\n\
                         if let ::std::option::Option::Some(__variant) = __value.as_str() {{\n\
                             return match __variant {{\n{unit_arms}\
                                 other => ::std::result::Result::Err(::serde::Error::custom(\
                                     format!(\"invalid {name} variant string `{{other}}`\"))),\n\
                             }};\n\
                         }}\n\
                         let __fields = __value.as_object().ok_or_else(|| \
                             ::serde::Error::custom(\
                                 \"expected variant string or single-key object for {name}\"))?;\n\
                         if __fields.len() != 1 {{\n\
                             return ::std::result::Result::Err(::serde::Error::custom(\
                                 \"expected single-key object for {name}\"));\n\
                         }}\n\
                         let (__tag, __payload) = &__fields[0];\n\
                         match __tag.as_str() {{\n{data_arms}\
                             other => ::std::result::Result::Err(::serde::Error::custom(\
                                 format!(\"unknown {name} variant `{{other}}`\"))),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    body.parse()
        .expect("serde shim derive: generated Deserialize impl must parse")
}

/// One tagged-payload `match` arm of the generated `Deserialize` impl for an
/// enum's data-carrying variant.
fn deserialize_variant_arm(name: &str, variant: &VariantDef) -> String {
    let v = &variant.name;
    match &variant.kind {
        VariantKind::Unit => unreachable!("unit variants are handled by the string branch"),
        VariantKind::Tuple(1) => format!(
            "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
             ::serde::Deserialize::deserialize(__payload)?)),\n"
        ),
        VariantKind::Tuple(arity) => {
            let items: Vec<String> = (0..*arity)
                .map(|i| format!("::serde::Deserialize::deserialize(&__items[{i}])?"))
                .collect();
            format!(
                "\"{v}\" => {{\n\
                     let __items = __payload.as_array().ok_or_else(|| \
                         ::serde::Error::custom(\"expected array payload for {name}::{v}\"))?;\n\
                     if __items.len() != {arity} {{\n\
                         return ::std::result::Result::Err(::serde::Error::custom(\
                             \"wrong tuple arity for {name}::{v}\"));\n\
                     }}\n\
                     ::std::result::Result::Ok({name}::{v}({items}))\n\
                 }}\n",
                items = items.join(", "),
            )
        }
        VariantKind::Struct(fields) => {
            let inits: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::deserialize(\
                         ::serde::get_field(__inner, \"{f}\")?)?,\n"
                    )
                })
                .collect();
            format!(
                "\"{v}\" => {{\n\
                     let __inner = __payload.as_object().ok_or_else(|| \
                         ::serde::Error::custom(\"expected object payload for {name}::{v}\"))?;\n\
                     ::std::result::Result::Ok({name}::{v} {{\n{inits}}})\n\
                 }}\n"
            )
        }
    }
}
