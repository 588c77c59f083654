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
//! Each derive generates both of its trait's paths from the same field list,
//! so they cannot disagree on names, order or optionality:
//!
//! * `Serialize`: `serialize` (builds a `Value` tree) and `write_json`
//!   (appends JSON text directly).
//! * `Deserialize`: `deserialize` (reads a `Value` tree) and `from_json`
//!   (reads straight off the parser).  A struct's `from_json` matches each
//!   key against the field names in place (a key is borrowed from the input
//!   unless it holds an escape), fills one `Option` slot per field, keeps the
//!   first occurrence of a repeated key as the tree's lookup does, and
//!   validates and skips unknown keys; a missing field's error names it.
//!   Input of the wrong shape (an array where the object belongs) is handed
//!   to the tree reader, so both paths fail on it with the same words.
//!
//! One field attribute is understood, spelled as in real serde:
//! `#[serde(default, skip_serializing_if = "path")]` on a named struct's
//! field.  `default` fills an absent field with `Default::default()`;
//! `skip_serializing_if` leaves the field out of the output when
//! `path(&field)` is true.  Together on an `Option` field
//! (`skip_serializing_if = "Option::is_none"`) they make the field optional
//! on the wire in both directions.
//!
//! Enum representation follows serde's external tagging: unit variants
//! serialize as the variant-name string, data variants as a single-key object
//! `{"Variant": payload}` where the payload is the inner value for newtype
//! variants, an array for wider tuple variants and an object for struct
//! variants.  Decoding accepts exactly that: a unit variant only as its
//! string, any other only as a single-key object.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// `struct Name { a: A, b: B }` — serialized as an object.
    Named { name: String, fields: Vec<Field> },
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
    Struct(Vec<Field>),
}

/// A named field and its `#[serde(...)]` options.
struct Field {
    name: String,
    /// `default`: an absent field reads as `Default::default()`.
    default: bool,
    /// `skip_serializing_if = "path"`: the field is left out when
    /// `path(&field)` is true.
    skip_if: Option<String>,
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

/// Collects the fields of a named-struct body with their `#[serde(...)]`
/// options, skipping other attributes, visibility and type tokens (commas
/// inside `<...>` or delimiter groups do not split fields).
fn parse_named_fields(stream: TokenStream, type_name: &str) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut default = false;
        let mut skip_if = None;
        while i + 1 < tokens.len() {
            match (&tokens[i], &tokens[i + 1]) {
                (TokenTree::Punct(p), TokenTree::Group(g)) if p.as_char() == '#' => {
                    parse_field_attribute(g.stream(), type_name, &mut default, &mut skip_if);
                    i += 2;
                }
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
        fields.push(Field {
            name: field,
            default,
            skip_if,
        });
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

/// Reads one field attribute: `serde(...)` sets the options it names, any
/// other attribute (doc comments included) is ignored.
fn parse_field_attribute(
    stream: TokenStream,
    type_name: &str,
    default: &mut bool,
    skip_if: &mut Option<String>,
) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let options = match tokens.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(g)] if id.to_string() == "serde" => g.stream(),
        _ => return,
    };
    let options: Vec<TokenTree> = options.into_iter().collect();
    for option in options.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        match option {
            [] => {}
            [TokenTree::Ident(id)] if id.to_string() == "default" => *default = true,
            [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(path)]
                if id.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
            {
                let path = path.to_string();
                let Some(path) = path.strip_prefix('"').and_then(|p| p.strip_suffix('"')) else {
                    panic!(
                        "serde shim derive: `skip_serializing_if` in `{type_name}` takes a string"
                    );
                };
                *skip_if = Some(path.to_string());
            }
            other => panic!(
                "serde shim derive: unsupported serde attribute `{}` in `{type_name}`; \
                 only `default` and `skip_serializing_if = \"path\"` are understood",
                other
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        }
    }
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
                let fields = parse_named_fields(g.stream(), type_name);
                if fields.iter().any(|f| f.default || f.skip_if.is_some()) {
                    panic!(
                        "serde shim derive: serde field attributes are supported on struct \
                         fields only, not on `{type_name}::{variant}`"
                    );
                }
                VariantKind::Struct(fields)
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
/// `write_json` call per field.  `access` maps a field name to an expression
/// borrowing it (`&self.a` in a struct, the binding `a` in a variant arm).
/// Field names are identifiers, so they need no JSON escaping.
fn write_object_stmts(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let Some(first) = fields.first() else {
        return "__out.push_str(\"{}\");\n".to_string();
    };
    let mut stmts = String::new();
    // The object's `{` goes out with the first key, unless that field may be
    // left out.
    let mut lead = if first.skip_if.is_some() {
        stmts.push_str("__out.push('{');\n");
        ""
    } else {
        "{"
    };
    // Whether a field before this one is always written, so this one is
    // never first.
    let mut after_written = false;
    for (i, field) in fields.iter().enumerate() {
        let name = &field.name;
        let expr = access(name);
        let mut write = String::new();
        if i > 0 && !after_written {
            // Only skippable fields came before.  No JSON value ends in `{`,
            // so the buffer still ends in the object's `{` exactly when none
            // of them was written.
            write.push_str("if !__out.ends_with('{') { __out.push(','); }\n");
        }
        write.push_str(&format!(
            "__out.push_str(\"{lead}\\\"{name}\\\":\");\n\
             ::serde::Serialize::write_json({expr}, __out)?;\n"
        ));
        match &field.skip_if {
            Some(path) => stmts.push_str(&format!("if !{path}({expr}) {{\n{write}}}\n")),
            None => {
                stmts.push_str(&write);
                after_written = true;
            }
        }
        lead = if after_written { "," } else { "" };
    }
    stmts.push_str("__out.push('}');\n");
    stmts
}

/// Derives `serde::Serialize` (shim) for supported shapes.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input { generics, shape } = parse_input(input);
    // (type name, body of `serialize`, body of `write_json`)
    let (name, tree, direct) = match shape {
        Shape::Named { name, fields } => {
            let mut pushes = String::new();
            for Field { name, skip_if, .. } in &fields {
                let push = format!(
                    "__fields.push((::std::string::String::from(\"{name}\"), \
                     ::serde::Serialize::serialize(&self.{name})));\n"
                );
                match skip_if {
                    Some(path) => {
                        pushes.push_str(&format!("if !{path}(&self.{name}) {{ {push} }}\n"))
                    }
                    None => pushes.push_str(&push),
                }
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
                .map(|Field { name: f, .. }| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                         ::serde::Serialize::serialize({f}))"
                    )
                })
                .collect();
            format!(
                "{name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec::Vec::from([\
                 ({tag}, ::serde::Value::Object(::std::vec::Vec::from([{entries}])))])),\n",
                binds = field_names(fields),
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
            binds = field_names(fields),
            object = write_object_stmts(fields, str::to_string),
        ),
    }
}

/// `a, b, c` — a variant's fields as a binding pattern.
fn field_names(fields: &[Field]) -> String {
    fields
        .iter()
        .map(|f| f.name.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Derives `serde::Deserialize` (shim) for supported shapes: the tree reader
/// `deserialize` and the direct reader `from_json`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input { generics, shape } = parse_input(input);
    if !generics.is_empty() {
        panic!("serde shim derive: Deserialize does not support lifetime parameters");
    }
    // (type name, body of `deserialize`, body of `from_json`)
    let (name, tree, direct) = match shape {
        Shape::Named { name, fields } => {
            let tree = format!(
                "let __fields = __value.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\"expected object for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})\n",
                inits = tree_field_inits(&fields, "__fields"),
            );
            // Any other shape fails exactly as the tree reader fails on it.
            let direct = format!(
                "if __de.peek() != ::std::option::Option::Some(b'{{') {{\n\
                     return ::serde::from_tree(__de);\n\
                 }}\n\
                 ::std::result::Result::Ok({})\n",
                direct_object(&name, &fields),
            );
            (name, tree, direct)
        }
        Shape::Newtype { name } => (
            name.clone(),
            format!(
                "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__value)?))\n"
            ),
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_json(__de)?))\n"),
        ),
        Shape::Unit { name } => (
            name.clone(),
            format!("let _ = __value;\n::std::result::Result::Ok({name})\n"),
            // The tree reader accepts any value; the direct one still checks
            // that it is well-formed JSON.
            format!("__de.skip_value()?;\n::std::result::Result::Ok({name})\n"),
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
            let unit_match = format!(
                "match &*__variant {{\n{unit_arms}\
                     other => ::std::result::Result::Err(::serde::Error::custom(\
                         format!(\"invalid {name} variant string `{{other}}`\"))),\n\
                 }}\n"
            );
            let data = |arm: fn(&str, &VariantDef) -> String| -> String {
                let arms: String = variants
                    .iter()
                    .filter(|v| !matches!(v.kind, VariantKind::Unit))
                    .map(|v| arm(&name, v))
                    .collect();
                format!(
                    "match &*__tag {{\n{arms}\
                         other => ::std::result::Result::Err(::serde::Error::custom(\
                             format!(\"unknown {name} variant `{{other}}`\"))),\n\
                     }}"
                )
            };
            let single_key =
                format!("::serde::Error::custom(\"expected single-key object for {name}\")");
            let tree = format!(
                "if let ::std::option::Option::Some(__variant) = __value.as_str() {{\n\
                     return {unit_match};\n\
                 }}\n\
                 let __fields = __value.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\
                         \"expected variant string or single-key object for {name}\"))?;\n\
                 if __fields.len() != 1 {{\n\
                     return ::std::result::Result::Err({single_key});\n\
                 }}\n\
                 let (__tag, __payload) = &__fields[0];\n\
                 let __tag = __tag.as_str();\n\
                 {matched}\n",
                matched = data(tree_variant_arm),
            );
            let direct = format!(
                "match __de.peek() {{\n\
                     ::std::option::Option::Some(b'\"') => {{\n\
                         let __variant = __de.parse_str()?;\n\
                         {unit_match}\
                     }}\n\
                     ::std::option::Option::Some(b'{{') => {{\n\
                         let mut __read = ::std::option::Option::None;\n\
                         __de.parse_object(|__de, __tag| {{\n\
                             if __read.is_some() {{\n\
                                 return ::std::result::Result::Err({single_key});\n\
                             }}\n\
                             __read = ::std::option::Option::Some({matched}?);\n\
                             ::std::result::Result::Ok(())\n\
                         }})?;\n\
                         __read.ok_or_else(|| {single_key})\n\
                     }}\n\
                     _ => ::serde::from_tree(__de),\n\
                 }}\n",
                matched = data(direct_variant_arm),
            );
            (name, tree, direct)
        }
    };
    let body = format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__value: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::Error> {{\n{tree}}}\n\
             fn from_json(__de: &mut ::serde::Deserializer<'_>) -> \
                 ::std::result::Result<Self, ::serde::Error> {{\n{direct}}}\n\
         }}"
    );
    body.parse()
        .expect("serde shim derive: generated Deserialize impl must parse")
}

/// `a: …,` initializers reading each field out of the object entries bound
/// to `fields` (the tree path).
fn tree_field_inits(fields: &[Field], entries: &str) -> String {
    fields
        .iter()
        .map(|Field { name, default, .. }| {
            if *default {
                format!(
                    "{name}: match ::serde::find_field({entries}, \"{name}\") {{\n\
                         ::std::option::Option::Some(__v) => ::serde::Deserialize::deserialize(__v)?,\n\
                         ::std::option::Option::None => ::std::default::Default::default(),\n\
                     }},\n"
                )
            } else {
                format!(
                    "{name}: ::serde::Deserialize::deserialize(\
                     ::serde::get_field({entries}, \"{name}\")?)?,\n"
                )
            }
        })
        .collect()
}

/// An expression that reads an object off `__de` (positioned at its `{`)
/// into `ctor { … }` (the direct path): one `Option` slot per field, filled
/// by the first occurrence of its key; later occurrences and unknown keys
/// are validated and skipped.  A missing field returns its error from the
/// enclosing function or closure.
fn direct_object(ctor: &str, fields: &[Field]) -> String {
    let slots: String = fields
        .iter()
        .map(|f| format!("let mut __slot_{} = ::std::option::Option::None;\n", f.name))
        .collect();
    let arms: String = fields
        .iter()
        .map(|Field { name, .. }| {
            format!(
                "\"{name}\" if __slot_{name}.is_none() => {{\n\
                     __slot_{name} = ::std::option::Option::Some(\
                         ::serde::Deserialize::from_json(__de)?);\n\
                 }}\n"
            )
        })
        .collect();
    let inits: String = fields
        .iter()
        .map(|Field { name, default, .. }| {
            if *default {
                format!("{name}: __slot_{name}.unwrap_or_default(),\n")
            } else {
                format!(
                    "{name}: match __slot_{name} {{\n\
                         ::std::option::Option::Some(__v) => __v,\n\
                         ::std::option::Option::None => return ::std::result::Result::Err(\
                             ::serde::missing_field(\"{name}\")),\n\
                     }},\n"
                )
            }
        })
        .collect();
    format!(
        "{{\n{slots}\
             __de.parse_object(|__de, __key| {{\n\
                 match &*__key {{\n{arms}\
                     _ => __de.skip_value()?,\n\
                 }}\n\
                 ::std::result::Result::Ok(())\n\
             }})?;\n\
             {ctor} {{\n{inits}}}\n\
         }}"
    )
}

/// One tagged-payload `match` arm reading a data-carrying variant out of
/// `__payload` (the tree path).
fn tree_variant_arm(name: &str, variant: &VariantDef) -> String {
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
        VariantKind::Struct(fields) => format!(
            "\"{v}\" => {{\n\
                 let __inner = __payload.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\"expected object payload for {name}::{v}\"))?;\n\
                 ::std::result::Result::Ok({name}::{v} {{\n{inits}}})\n\
             }}\n",
            inits = tree_field_inits(fields, "__inner"),
        ),
    }
}

/// One tagged-payload `match` arm reading a data-carrying variant's payload
/// off `__de` (the direct path), with the tree path's checks and messages.
fn direct_variant_arm(name: &str, variant: &VariantDef) -> String {
    let v = &variant.name;
    match &variant.kind {
        VariantKind::Unit => unreachable!("unit variants are handled by the string branch"),
        VariantKind::Tuple(1) => format!(
            "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
             ::serde::Deserialize::from_json(__de)?)),\n"
        ),
        VariantKind::Tuple(arity) => {
            let wrong_arity = format!(
                "::std::result::Result::Err(::serde::Error::custom(\
                     \"wrong tuple arity for {name}::{v}\"))"
            );
            let slots: String = (0..*arity)
                .map(|i| format!("let mut __slot_{i} = ::std::option::Option::None;\n"))
                .collect();
            let arms: String = (0..*arity)
                .map(|i| {
                    format!(
                        "{i} => __slot_{i} = ::std::option::Option::Some(\
                             ::serde::Deserialize::from_json(__de)?),\n"
                    )
                })
                .collect();
            let items: Vec<String> = (0..*arity)
                .map(|i| {
                    format!(
                        "match __slot_{i} {{ ::std::option::Option::Some(__v) => __v, \
                         ::std::option::Option::None => return {wrong_arity} }}"
                    )
                })
                .collect();
            format!(
                "\"{v}\" => {{\n\
                     if __de.peek() != ::std::option::Option::Some(b'[') {{\n\
                         return ::std::result::Result::Err(::serde::Error::custom(\
                             \"expected array payload for {name}::{v}\"));\n\
                     }}\n\
                     {slots}\
                     let mut __index = 0usize;\n\
                     __de.parse_array(|__de| {{\n\
                         match __index {{\n{arms}\
                             _ => return {wrong_arity},\n\
                         }}\n\
                         __index += 1;\n\
                         ::std::result::Result::Ok(())\n\
                     }})?;\n\
                     ::std::result::Result::Ok({name}::{v}({items}))\n\
                 }}\n",
                items = items.join(", "),
            )
        }
        VariantKind::Struct(fields) => format!(
            "\"{v}\" => {{\n\
                 if __de.peek() != ::std::option::Option::Some(b'{{') {{\n\
                     return ::std::result::Result::Err(::serde::Error::custom(\
                         \"expected object payload for {name}::{v}\"));\n\
                 }}\n\
                 ::std::result::Result::Ok({object})\n\
             }}\n",
            object = direct_object(&format!("{name}::{v}"), fields),
        ),
    }
}
