//! `analyze` reads Wasm binaries only. A file holding WAT text is not
//! assembled: it fails to load, and the tool names the file and exits
//! nonzero.

use std::path::Path;
use std::process::Command;

#[test]
fn wat_text_fails_to_load() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyze_input.wat");
    std::fs::write(&path, "(module (func (export \"f\")))\n").expect("temp file written");
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .arg(&path)
        .output()
        .expect("analyze runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "analyze accepted WAT text: {stderr}");
    let named = format!("{}: load failed", path.display());
    assert!(stderr.contains(&named), "stderr lacks `{named}`: {stderr}");
}
