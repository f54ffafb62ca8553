//! # waran-wat — a WAT-subset text assembler for tests
//!
//! Plugins reach the host as Wasm binaries; this crate turns hand-written
//! text into such a binary so tests can state a module inline. It is a
//! dev-dependency only: no deployment crate links a text parser, and
//! `waran_wasm::load_module` stays the one front door for untrusted bytes.
//!
//! Supports the flat (non-folded) instruction syntax and the module fields
//! WA-RAN plugins need: function imports, memories (with inline exports),
//! tables + element segments, globals, data segments, start functions and
//! `$name` identifiers for functions, locals, globals and labels. Folded
//! expressions, inline `(type …)` declarations and `call_indirect` type
//! annotations are not supported — use [`waran_wasm::builder`] for those.
//!
//! ```
//! let bytes = waran_wat::assemble(r#"
//!   (module
//!     (memory (export "memory") 1)
//!     (func $sum (export "sum") (param $n i32) (result i32)
//!       (local $acc i32)
//!       block $exit
//!         loop $top
//!           local.get $n
//!           i32.eqz
//!           br_if $exit
//!           local.get $acc
//!           local.get $n
//!           i32.add
//!           local.set $acc
//!           local.get $n
//!           i32.const 1
//!           i32.sub
//!           local.set $n
//!           br $top
//!         end
//!       end
//!       local.get $acc))
//! "#).unwrap();
//! let module = waran_wasm::load_module(&bytes).unwrap();
//! assert!(module.exported_func("sum").is_some());
//! ```

use std::collections::HashMap;

use waran_wasm::builder::ModuleBuilder;
use waran_wasm::instr::Instr;
use waran_wasm::module::ConstExpr;
use waran_wasm::types::{BlockType, Mutability, ValType};

/// Assembly error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for WatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for WatError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, WatError> {
    Err(WatError {
        line,
        msg: msg.into(),
    })
}

// ---------------------------------------------------------------------
// Tokenizer + S-expression parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Atom(String, usize),
    Str(Vec<u8>, usize),
    List(Vec<Node>, usize),
}

impl Node {
    fn line(&self) -> usize {
        match self {
            Node::Atom(_, l) | Node::Str(_, l) | Node::List(_, l) => *l,
        }
    }

    fn as_atom(&self) -> Option<&str> {
        match self {
            Node::Atom(s, _) => Some(s),
            _ => None,
        }
    }
}

fn tokenize(src: &str) -> Result<Vec<Node>, WatError> {
    let mut stack: Vec<(Vec<Node>, usize)> = vec![(Vec::new(), 1)];
    let mut chars = src.char_indices().peekable();
    let mut line = 1usize;

    while let Some((_, c)) = chars.next() {
        match c {
            '\n' => line += 1,
            c if c.is_whitespace() => {}
            ';' => {
                // Line comment: ";;" to end of line.
                if chars.peek().map(|(_, c)| *c) == Some(';') {
                    for (_, c) in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    return err(line, "stray ';'");
                }
            }
            '(' => {
                // Block comment "(;" … ";)"
                if chars.peek().map(|(_, c)| *c) == Some(';') {
                    chars.next();
                    let mut depth = 1;
                    let mut prev = ' ';
                    for (_, c) in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                        }
                        if prev == '(' && c == ';' {
                            depth += 1;
                        }
                        if prev == ';' && c == ')' {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        prev = c;
                    }
                    if depth != 0 {
                        return err(line, "unterminated block comment");
                    }
                } else {
                    stack.push((Vec::new(), line));
                }
            }
            ')' => {
                let (items, open_line) = stack.pop().ok_or(WatError {
                    line,
                    msg: "unbalanced ')'".into(),
                })?;
                if stack.is_empty() {
                    return err(line, "unbalanced ')'");
                }
                stack
                    .last_mut()
                    .expect("checked")
                    .0
                    .push(Node::List(items, open_line));
            }
            '"' => {
                let mut bytes = Vec::new();
                loop {
                    let Some((_, c)) = chars.next() else {
                        return err(line, "unterminated string");
                    };
                    match c {
                        '"' => break,
                        '\\' => {
                            let Some((_, esc)) = chars.next() else {
                                return err(line, "unterminated escape");
                            };
                            match esc {
                                'n' => bytes.push(b'\n'),
                                't' => bytes.push(b'\t'),
                                'r' => bytes.push(b'\r'),
                                '\\' => bytes.push(b'\\'),
                                '"' => bytes.push(b'"'),
                                '0'..='9' | 'a'..='f' | 'A'..='F' => {
                                    let hi = esc.to_digit(16).expect("hex digit");
                                    let Some((_, lo_c)) = chars.next() else {
                                        return err(line, "truncated hex escape");
                                    };
                                    let Some(lo) = lo_c.to_digit(16) else {
                                        return err(line, "bad hex escape");
                                    };
                                    bytes.push((hi * 16 + lo) as u8);
                                }
                                other => return err(line, format!("bad escape '\\{other}'")),
                            }
                        }
                        '\n' => return err(line, "newline in string"),
                        c => {
                            let mut buf = [0u8; 4];
                            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                    }
                }
                stack
                    .last_mut()
                    .expect("non-empty")
                    .0
                    .push(Node::Str(bytes, line));
            }
            c => {
                let mut atom = String::new();
                atom.push(c);
                while let Some((_, nc)) = chars.peek() {
                    if nc.is_whitespace() || *nc == '(' || *nc == ')' || *nc == '"' {
                        break;
                    }
                    atom.push(*nc);
                    chars.next();
                }
                stack
                    .last_mut()
                    .expect("non-empty")
                    .0
                    .push(Node::Atom(atom, line));
            }
        }
    }

    if stack.len() != 1 {
        return err(line, "unbalanced '('");
    }
    Ok(stack.pop().expect("root").0)
}

// ---------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------

/// Assemble WAT source text into a binary `.wasm` module.
pub fn assemble(src: &str) -> Result<Vec<u8>, WatError> {
    let roots = tokenize(src)?;
    let module_node = match roots.as_slice() {
        [Node::List(items, line)] => match items.first().and_then(Node::as_atom) {
            Some("module") => (&items[1..], *line),
            _ => return err(*line, "expected (module …)"),
        },
        _ => return err(1, "expected a single (module …) form"),
    };
    Assembler::default().run(module_node.0)
}

#[derive(Default)]
struct Assembler {
    func_names: HashMap<String, u32>,
    global_names: HashMap<String, u32>,
    n_funcs: u32,
}

struct FuncDecl<'a> {
    name: Option<String>,
    exports: Vec<String>,
    params: Vec<(Option<String>, ValType)>,
    results: Vec<ValType>,
    locals: Vec<(Option<String>, ValType)>,
    body: Vec<&'a Node>,
    line: usize,
}

impl Assembler {
    fn run(mut self, fields: &[Node]) -> Result<Vec<u8>, WatError> {
        let mut mb = ModuleBuilder::new();
        let mut funcs: Vec<FuncDecl<'_>> = Vec::new();
        let mut deferred_exports: Vec<(String, String, usize)> = Vec::new(); // (name, $func, line)
        let mut elems: Vec<(i32, Vec<Node>, usize)> = Vec::new();
        let mut start: Option<(String, usize)> = None;

        // Pass 1: declare everything, assign indices; imports must be
        // processed before defined functions per the binary format.
        for field in fields {
            let Node::List(items, line) = field else {
                return err(field.line(), "expected a (…) module field");
            };
            let head = items.first().and_then(Node::as_atom).unwrap_or("");
            if head == "import" {
                let [_, Node::Str(module, _), Node::Str(name, _), Node::List(desc, dline)] =
                    items.as_slice()
                else {
                    return err(*line, "import: expected (import \"m\" \"n\" (func …))");
                };
                let module = String::from_utf8(module.clone()).map_err(|_| WatError {
                    line: *line,
                    msg: "bad utf8".into(),
                })?;
                let name = String::from_utf8(name.clone()).map_err(|_| WatError {
                    line: *line,
                    msg: "bad utf8".into(),
                })?;
                if desc.first().and_then(Node::as_atom) != Some("func") {
                    return err(*dline, "only function imports are supported");
                }
                let mut fname = None;
                let mut params = Vec::new();
                let mut results = Vec::new();
                for part in &desc[1..] {
                    match part {
                        Node::Atom(a, _) if a.starts_with('$') => fname = Some(a.clone()),
                        Node::List(sig, sline) => {
                            parse_sig_part(sig, *sline, &mut params, &mut results)?
                        }
                        other => return err(other.line(), "bad import descriptor"),
                    }
                }
                let tys: Vec<ValType> = params.iter().map(|(_, t)| *t).collect();
                let sig = mb.func_type(&tys, &results);
                let idx = mb.import_func(&module, &name, sig).map_err(|e| WatError {
                    line: *line,
                    msg: e.to_string(),
                })?;
                if let Some(fname) = fname {
                    self.func_names.insert(fname, idx);
                }
                self.n_funcs += 1;
            }
        }

        for field in fields {
            let Node::List(items, line) = field else {
                return err(field.line(), "expected a (…) module field");
            };
            let head = items.first().and_then(Node::as_atom).unwrap_or("");
            match head {
                "import" => {} // handled above
                "func" => {
                    let decl = self.parse_func_decl(items, *line)?;
                    let idx = self.n_funcs;
                    self.n_funcs += 1;
                    if let Some(name) = &decl.name {
                        self.func_names.insert(name.clone(), idx);
                    }
                    funcs.push(decl);
                }
                "memory" => {
                    let mut rest = &items[1..];
                    // Optional inline export.
                    if let Some(Node::List(exp, eline)) = rest.first() {
                        if exp.first().and_then(Node::as_atom) == Some("export") {
                            let Some(Node::Str(name, _)) = exp.get(1) else {
                                return err(*eline, "export: expected a name string");
                            };
                            mb.export_memory(&String::from_utf8_lossy(name));
                            rest = &rest[1..];
                        }
                    }
                    let min = parse_u32_node(rest.first(), *line)?;
                    let max = match rest.get(1) {
                        Some(node) => Some(parse_u32_node(Some(node), *line)?),
                        None => None,
                    };
                    mb.memory(min, max);
                }
                "table" => {
                    let min = parse_u32_node(items.get(1), *line)?;
                    let (max, fr_idx) = match items.get(2).and_then(Node::as_atom) {
                        Some("funcref") => (None, 2),
                        _ => (Some(parse_u32_node(items.get(2), *line)?), 3),
                    };
                    if items.get(fr_idx).and_then(Node::as_atom) != Some("funcref") {
                        return err(*line, "table: expected 'funcref'");
                    }
                    mb.table(min, max);
                }
                "global" => {
                    let mut idx = 1;
                    let mut gname = None;
                    if let Some(a) = items.get(idx).and_then(Node::as_atom) {
                        if a.starts_with('$') {
                            gname = Some(a.to_string());
                            idx += 1;
                        }
                    }
                    let (ty, mutability) = match items.get(idx) {
                        Some(Node::Atom(a, _)) => (
                            parse_valtype(a).ok_or_else(|| WatError {
                                line: *line,
                                msg: format!("bad type {a}"),
                            })?,
                            Mutability::Const,
                        ),
                        Some(Node::List(l, lline)) => {
                            if l.first().and_then(Node::as_atom) != Some("mut") {
                                return err(*lline, "global: expected (mut t)");
                            }
                            let a = l.get(1).and_then(Node::as_atom).unwrap_or("");
                            (
                                parse_valtype(a).ok_or_else(|| WatError {
                                    line: *lline,
                                    msg: format!("bad type {a}"),
                                })?,
                                Mutability::Var,
                            )
                        }
                        _ => return err(*line, "global: missing type"),
                    };
                    idx += 1;
                    let Some(Node::List(init, iline)) = items.get(idx) else {
                        return err(*line, "global: missing initializer");
                    };
                    let init = parse_const_expr(init, *iline)?;
                    if init.ty() != ty {
                        return err(*iline, "global initializer type mismatch");
                    }
                    let g = mb.global(ty, mutability, init);
                    if let Some(gname) = gname {
                        self.global_names.insert(gname, g);
                    }
                }
                "export" => {
                    let [_, Node::Str(name, _), Node::List(desc, dline)] = items.as_slice() else {
                        return err(*line, "export: expected (export \"n\" (func $f))");
                    };
                    let name = String::from_utf8_lossy(name).into_owned();
                    match desc.first().and_then(Node::as_atom) {
                        Some("func") => {
                            let target = desc.get(1).and_then(Node::as_atom).unwrap_or("");
                            deferred_exports.push((name, target.to_string(), *dline));
                        }
                        Some("memory") => mb.export_memory(&name),
                        Some("global") => {
                            let target = desc.get(1).and_then(Node::as_atom).unwrap_or("");
                            let idx = self.resolve_global(target, *dline)?;
                            mb.export_global(&name, idx);
                        }
                        _ => return err(*dline, "unsupported export kind"),
                    }
                }
                "start" => {
                    let target = items.get(1).and_then(Node::as_atom).unwrap_or("");
                    start = Some((target.to_string(), *line));
                }
                "elem" => {
                    let Some(Node::List(off, oline)) = items.get(1) else {
                        return err(*line, "elem: expected offset expr");
                    };
                    let ConstExpr::I32(offset) = parse_const_expr(off, *oline)? else {
                        return err(*oline, "elem offset must be i32.const");
                    };
                    elems.push((offset, items[2..].to_vec(), *line));
                }
                "data" => {
                    let Some(Node::List(off, oline)) = items.get(1) else {
                        return err(*line, "data: expected offset expr");
                    };
                    let ConstExpr::I32(offset) = parse_const_expr(off, *oline)? else {
                        return err(*oline, "data offset must be i32.const");
                    };
                    let mut bytes = Vec::new();
                    for part in &items[2..] {
                        match part {
                            Node::Str(b, _) => bytes.extend_from_slice(b),
                            other => return err(other.line(), "data: expected string"),
                        }
                    }
                    mb.data(offset, &bytes);
                }
                other => return err(*line, format!("unknown module field '{other}'")),
            }
        }

        // Pass 2: compile function bodies.
        for decl in &funcs {
            let param_tys: Vec<ValType> = decl.params.iter().map(|(_, t)| *t).collect();
            let sig = mb.func_type(&param_tys, &decl.results);
            let idx = mb.begin_func(sig);
            // Local name table: params then locals.
            let mut local_names: HashMap<String, u32> = HashMap::new();
            for (i, (name, _)) in decl.params.iter().enumerate() {
                if let Some(n) = name {
                    local_names.insert(n.clone(), i as u32);
                }
            }
            for (name, ty) in &decl.locals {
                let li = mb.local(*ty);
                if let Some(n) = name {
                    local_names.insert(n.clone(), li);
                }
            }
            self.compile_body(&mut mb, decl, &local_names)?;
            mb.end_func().map_err(|e| WatError {
                line: decl.line,
                msg: e.to_string(),
            })?;
            for export in &decl.exports {
                mb.export_func(export, idx);
            }
        }

        // Deferred exports / start / elems (now that all names are known).
        for (name, target, line) in deferred_exports {
            let idx = self.resolve_func(&target, line)?;
            mb.export_func(&name, idx);
        }
        if let Some((target, line)) = start {
            let idx = self.resolve_func(&target, line)?;
            mb.start(idx);
        }
        for (offset, nodes, line) in elems {
            let mut func_indices = Vec::new();
            for node in &nodes {
                let target = node.as_atom().unwrap_or("");
                func_indices.push(self.resolve_func(target, line)?);
            }
            mb.elem(offset, &func_indices);
        }

        mb.finish_bytes().map_err(|e| WatError {
            line: 1,
            msg: e.to_string(),
        })
    }

    fn resolve_func(&self, target: &str, line: usize) -> Result<u32, WatError> {
        if let Some(stripped) = target.strip_prefix('$') {
            let _ = stripped;
            self.func_names
                .get(target)
                .copied()
                .ok_or_else(|| WatError {
                    line,
                    msg: format!("unknown function {target}"),
                })
        } else {
            target.parse().map_err(|_| WatError {
                line,
                msg: format!("bad function index {target}"),
            })
        }
    }

    fn resolve_global(&self, target: &str, line: usize) -> Result<u32, WatError> {
        if target.starts_with('$') {
            self.global_names
                .get(target)
                .copied()
                .ok_or_else(|| WatError {
                    line,
                    msg: format!("unknown global {target}"),
                })
        } else {
            target.parse().map_err(|_| WatError {
                line,
                msg: format!("bad global index {target}"),
            })
        }
    }

    fn parse_func_decl<'a>(
        &self,
        items: &'a [Node],
        line: usize,
    ) -> Result<FuncDecl<'a>, WatError> {
        let mut decl = FuncDecl {
            name: None,
            exports: Vec::new(),
            params: Vec::new(),
            results: Vec::new(),
            locals: Vec::new(),
            body: Vec::new(),
            line,
        };
        let mut rest = &items[1..];
        if let Some(a) = rest.first().and_then(Node::as_atom) {
            if a.starts_with('$') {
                decl.name = Some(a.to_string());
                rest = &rest[1..];
            }
        }
        // Header lists: export/param/result/local, in order; the first
        // non-header node starts the body.
        let mut i = 0;
        while i < rest.len() {
            match &rest[i] {
                Node::List(l, lline) => match l.first().and_then(Node::as_atom) {
                    Some("export") => {
                        let Some(Node::Str(name, _)) = l.get(1) else {
                            return err(*lline, "export: expected name string");
                        };
                        decl.exports
                            .push(String::from_utf8_lossy(name).into_owned());
                    }
                    Some("param") => {
                        parse_named_valtypes(&l[1..], *lline, &mut decl.params)?;
                    }
                    Some("result") => {
                        for part in &l[1..] {
                            let a = part.as_atom().unwrap_or("");
                            decl.results.push(parse_valtype(a).ok_or_else(|| WatError {
                                line: *lline,
                                msg: format!("bad result type {a}"),
                            })?);
                        }
                    }
                    Some("local") => {
                        parse_named_valtypes(&l[1..], *lline, &mut decl.locals)?;
                    }
                    _ => break,
                },
                _ => break,
            }
            i += 1;
        }
        decl.body = rest[i..].iter().collect();
        Ok(decl)
    }

    fn compile_body(
        &self,
        mb: &mut ModuleBuilder,
        decl: &FuncDecl<'_>,
        local_names: &HashMap<String, u32>,
    ) -> Result<(), WatError> {
        // Label stack: innermost last.
        let mut labels: Vec<Option<String>> = Vec::new();
        let mut nodes = decl.body.iter().peekable();

        let resolve_local = |target: &str, line: usize| -> Result<u32, WatError> {
            if target.starts_with('$') {
                local_names.get(target).copied().ok_or_else(|| WatError {
                    line,
                    msg: format!("unknown local {target}"),
                })
            } else {
                target.parse().map_err(|_| WatError {
                    line,
                    msg: format!("bad local index {target}"),
                })
            }
        };

        while let Some(node) = nodes.next() {
            let Node::Atom(op, line) = node else {
                return err(node.line(), "folded expressions are not supported");
            };
            let line = *line;

            // Immediate helpers.
            macro_rules! next_atom {
                () => {{
                    match nodes.peek() {
                        Some(Node::Atom(a, _)) => {
                            let a = a.clone();
                            nodes.next();
                            Some(a)
                        }
                        _ => None,
                    }
                }};
            }

            let resolve_label = |labels: &[Option<String>], t: &str| -> Result<u32, WatError> {
                if t.starts_with('$') {
                    for (depth, l) in labels.iter().rev().enumerate() {
                        if l.as_deref() == Some(t) {
                            return Ok(depth as u32);
                        }
                    }
                    err(line, format!("unknown label {t}"))
                } else {
                    t.parse().map_err(|_| WatError {
                        line,
                        msg: format!("bad label {t}"),
                    })
                }
            };

            match op.as_str() {
                "block" | "loop" | "if" => {
                    let mut label = None;
                    if let Some(Node::Atom(a, _)) = nodes.peek() {
                        if a.starts_with('$') {
                            label = Some(a.clone());
                            nodes.next();
                        }
                    }
                    let mut bt = BlockType::Empty;
                    if let Some(Node::List(l, lline)) = nodes.peek() {
                        if l.first().and_then(Node::as_atom) == Some("result") {
                            let a = l.get(1).and_then(Node::as_atom).unwrap_or("");
                            bt = BlockType::Value(parse_valtype(a).ok_or_else(|| WatError {
                                line: *lline,
                                msg: format!("bad result type {a}"),
                            })?);
                            nodes.next();
                        }
                    }
                    labels.push(label);
                    match op.as_str() {
                        "block" => mb.code().block(bt),
                        "loop" => mb.code().loop_(bt),
                        _ => mb.code().if_(bt),
                    };
                }
                "else" => {
                    mb.code().else_();
                }
                "end" => {
                    if labels.pop().is_none() {
                        return err(line, "'end' with no open block");
                    }
                    mb.code().end();
                }
                "br" | "br_if" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: "br: missing label".into(),
                    })?;
                    let depth = resolve_label(&labels, &t)?;
                    if op == "br" {
                        mb.code().br(depth);
                    } else {
                        mb.code().br_if(depth);
                    }
                }
                "br_table" => {
                    let mut targets = Vec::new();
                    while let Some(Node::Atom(a, _)) = nodes.peek() {
                        if is_instr_name(a) {
                            break;
                        }
                        let a = a.clone();
                        nodes.next();
                        targets.push(resolve_label(&labels, &a)?);
                    }
                    let default = targets.pop().ok_or_else(|| WatError {
                        line,
                        msg: "br_table: missing targets".into(),
                    })?;
                    mb.code().br_table(&targets, default);
                }
                "call" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: "call: missing target".into(),
                    })?;
                    let idx = self.resolve_func(&t, line)?;
                    mb.code().call(idx);
                }
                "local.get" | "local.set" | "local.tee" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: format!("{op}: missing index"),
                    })?;
                    let idx = resolve_local(&t, line)?;
                    match op.as_str() {
                        "local.get" => mb.code().local_get(idx),
                        "local.set" => mb.code().local_set(idx),
                        _ => mb.code().local_tee(idx),
                    };
                }
                "global.get" | "global.set" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: format!("{op}: missing index"),
                    })?;
                    let idx = self.resolve_global(&t, line)?;
                    if op == "global.get" {
                        mb.code().global_get(idx);
                    } else {
                        mb.code().global_set(idx);
                    }
                }
                "i32.const" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: "missing constant".into(),
                    })?;
                    mb.code().i32_const(parse_i32(&t, line)?);
                }
                "i64.const" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: "missing constant".into(),
                    })?;
                    mb.code().i64_const(parse_i64(&t, line)?);
                }
                "f32.const" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: "missing constant".into(),
                    })?;
                    mb.code().f32_const(t.parse::<f32>().map_err(|_| WatError {
                        line,
                        msg: format!("bad f32 {t}"),
                    })?);
                }
                "f64.const" => {
                    let t = next_atom!().ok_or_else(|| WatError {
                        line,
                        msg: "missing constant".into(),
                    })?;
                    mb.code().f64_const(t.parse::<f64>().map_err(|_| WatError {
                        line,
                        msg: format!("bad f64 {t}"),
                    })?);
                }
                _ => {
                    if let Some(instr) = simple_instr(op) {
                        mb.code().raw(instr);
                    } else if let Some(mut instr) = Instr::named(&op.replace('.', "_")) {
                        // Memory accesses take optional offset=N align=N.
                        if let Instr::Load(_, memarg) | Instr::Store(_, memarg) = &mut instr {
                            while let Some(Node::Atom(a, _)) = nodes.peek() {
                                if let Some(v) = a.strip_prefix("offset=") {
                                    memarg.offset = parse_u32(v, line)?;
                                    nodes.next();
                                } else if let Some(v) = a.strip_prefix("align=") {
                                    let align = parse_u32(v, line)?;
                                    memarg.align = align.trailing_zeros();
                                    nodes.next();
                                } else {
                                    break;
                                }
                            }
                        }
                        mb.code().raw(instr);
                    } else {
                        return err(line, format!("unknown instruction '{op}'"));
                    }
                }
            }
        }

        if !labels.is_empty() {
            return err(decl.line, "unclosed block in function body");
        }
        Ok(())
    }
}

fn parse_sig_part(
    sig: &[Node],
    line: usize,
    params: &mut Vec<(Option<String>, ValType)>,
    results: &mut Vec<ValType>,
) -> Result<(), WatError> {
    match sig.first().and_then(Node::as_atom) {
        Some("param") => parse_named_valtypes(&sig[1..], line, params),
        Some("result") => {
            for part in &sig[1..] {
                let a = part.as_atom().unwrap_or("");
                results.push(parse_valtype(a).ok_or_else(|| WatError {
                    line,
                    msg: format!("bad type {a}"),
                })?);
            }
            Ok(())
        }
        _ => err(line, "expected (param …) or (result …)"),
    }
}

fn parse_named_valtypes(
    nodes: &[Node],
    line: usize,
    out: &mut Vec<(Option<String>, ValType)>,
) -> Result<(), WatError> {
    let mut pending_name: Option<String> = None;
    for node in nodes {
        let a = node.as_atom().unwrap_or("");
        if a.starts_with('$') {
            if pending_name.is_some() {
                return err(line, "two names in a row");
            }
            pending_name = Some(a.to_string());
        } else {
            let ty = parse_valtype(a).ok_or_else(|| WatError {
                line,
                msg: format!("bad type {a}"),
            })?;
            out.push((pending_name.take(), ty));
        }
    }
    if pending_name.is_some() {
        return err(line, "name without type");
    }
    Ok(())
}

fn parse_valtype(s: &str) -> Option<ValType> {
    match s {
        "i32" => Some(ValType::I32),
        "i64" => Some(ValType::I64),
        "f32" => Some(ValType::F32),
        "f64" => Some(ValType::F64),
        _ => None,
    }
}

fn parse_const_expr(nodes: &[Node], line: usize) -> Result<ConstExpr, WatError> {
    let op = nodes.first().and_then(Node::as_atom).unwrap_or("");
    let arg = nodes.get(1).and_then(Node::as_atom).unwrap_or("");
    match op {
        "i32.const" => Ok(ConstExpr::I32(parse_i32(arg, line)?)),
        "i64.const" => Ok(ConstExpr::I64(parse_i64(arg, line)?)),
        "f32.const" => Ok(ConstExpr::F32(arg.parse().map_err(|_| WatError {
            line,
            msg: format!("bad f32 {arg}"),
        })?)),
        "f64.const" => Ok(ConstExpr::F64(arg.parse().map_err(|_| WatError {
            line,
            msg: format!("bad f64 {arg}"),
        })?)),
        _ => err(line, "expected a (t.const …) expression"),
    }
}

fn parse_u32(s: &str, line: usize) -> Result<u32, WatError> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u32::from_str_radix(&hex.replace('_', ""), 16)
    } else {
        s.replace('_', "").parse()
    };
    parsed.map_err(|_| WatError {
        line,
        msg: format!("bad integer {s}"),
    })
}

fn parse_u32_node(node: Option<&Node>, line: usize) -> Result<u32, WatError> {
    let a = node.and_then(Node::as_atom).ok_or_else(|| WatError {
        line,
        msg: "expected an integer".into(),
    })?;
    parse_u32(a, line)
}

fn parse_i32(s: &str, line: usize) -> Result<i32, WatError> {
    let s2 = s.replace('_', "");
    let parsed = if let Some(hex) = s2.strip_prefix("0x") {
        u32::from_str_radix(hex, 16).map(|v| v as i32)
    } else if let Some(hex) = s2.strip_prefix("-0x") {
        u32::from_str_radix(hex, 16).map(|v| (v as i32).wrapping_neg())
    } else {
        s2.parse()
    };
    parsed.map_err(|_| WatError {
        line,
        msg: format!("bad i32 {s}"),
    })
}

fn parse_i64(s: &str, line: usize) -> Result<i64, WatError> {
    let s2 = s.replace('_', "");
    let parsed = if let Some(hex) = s2.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).map(|v| v as i64)
    } else if let Some(hex) = s2.strip_prefix("-0x") {
        u64::from_str_radix(hex, 16).map(|v| (v as i64).wrapping_neg())
    } else {
        s2.parse()
    };
    parsed.map_err(|_| WatError {
        line,
        msg: format!("bad i64 {s}"),
    })
}

fn is_instr_name(s: &str) -> bool {
    !s.starts_with('$')
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && !s.chars().all(|c| c.is_ascii_digit())
}

fn simple_instr(op: &str) -> Option<Instr> {
    use Instr::*;
    Some(match op {
        "unreachable" => Unreachable,
        "nop" => Nop,
        "return" => Return,
        "drop" => Drop,
        "select" => Select,
        "memory.size" => MemorySize,
        "memory.grow" => MemoryGrow,
        "memory.copy" => MemoryCopy,
        "memory.fill" => MemoryFill,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_minimal_module() {
        let bytes = assemble("(module)").unwrap();
        let m = waran_wasm::decode::decode_module(&bytes).unwrap();
        assert!(m.funcs.is_empty());
    }

    #[test]
    fn assembles_add_with_names() {
        let bytes = assemble(
            r#"(module
                 (func $add (export "add") (param $a i32) (param $b i32) (result i32)
                   local.get $a
                   local.get $b
                   i32.add))"#,
        )
        .unwrap();
        let m = waran_wasm::load_module(&bytes).unwrap();
        assert!(m.exported_func("add").is_some());
    }

    #[test]
    fn labels_resolve_by_name_and_depth() {
        let bytes = assemble(
            r#"(module
                 (func (export "f") (param i32) (result i32)
                   block $out (result i32)
                     i32.const 1
                     local.get 0
                     br_if $out
                     drop
                     i32.const 2
                     br 0
                   end))"#,
        )
        .unwrap();
        waran_wasm::load_module(&bytes).unwrap();
    }

    #[test]
    fn imports_and_globals() {
        let bytes = assemble(
            r#"(module
                 (import "env" "log" (func $log (param i32)))
                 (global $count (mut i32) (i32.const 0))
                 (func (export "tick")
                   global.get $count
                   i32.const 1
                   i32.add
                   global.set $count
                   global.get $count
                   call $log))"#,
        )
        .unwrap();
        let m = waran_wasm::load_module(&bytes).unwrap();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.globals.len(), 1);
    }

    #[test]
    fn memory_data_and_offsets() {
        let bytes = assemble(
            r#"(module
                 (memory (export "memory") 1 4)
                 (data (i32.const 16) "hi\00")
                 (func (export "peek") (result i32)
                   i32.const 0
                   i32.load offset=16))"#,
        )
        .unwrap();
        let m = waran_wasm::load_module(&bytes).unwrap();
        assert_eq!(m.data[0].bytes, b"hi\0");
    }

    #[test]
    fn comments_are_skipped() {
        let bytes = assemble(
            r#"(module
                 ;; a line comment
                 (; a block
                    comment ;)
                 (func (export "f") (result i32)
                   i32.const 7))"#,
        )
        .unwrap();
        waran_wasm::load_module(&bytes).unwrap();
    }

    #[test]
    fn table_and_elem() {
        let bytes = assemble(
            r#"(module
                 (table 2 funcref)
                 (func $a (result i32) i32.const 1)
                 (func $b (result i32) i32.const 2)
                 (elem (i32.const 0) $a $b))"#,
        )
        .unwrap();
        let m = waran_wasm::load_module(&bytes).unwrap();
        assert_eq!(m.elems[0].funcs, vec![0, 1]);
    }

    #[test]
    fn error_reports_line() {
        let e = assemble("(module\n  (func (export \"f\")\n    bogus.instr))").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_unbalanced_parens() {
        assert!(assemble("(module").is_err());
        assert!(assemble("(module))").is_err());
    }

    #[test]
    fn hex_and_underscore_literals() {
        let bytes = assemble(
            r#"(module
                 (func (export "f") (result i64)
                   i64.const 0xff_ff))"#,
        )
        .unwrap();
        waran_wasm::load_module(&bytes).unwrap();
    }

    #[test]
    fn start_function() {
        let bytes = assemble(
            r#"(module
                 (global $g (mut i32) (i32.const 0))
                 (func $init global.get $g i32.const 1 i32.add global.set $g)
                 (start $init))"#,
        )
        .unwrap();
        let m = waran_wasm::load_module(&bytes).unwrap();
        assert_eq!(m.start, Some(0));
    }
}
