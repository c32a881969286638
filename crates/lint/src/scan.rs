//! Source model: comment/string masking and test-region tracking.
//!
//! The rules in [`crate::rules`] operate on a *masked* view of each source
//! file — comments and string/char-literal contents blanked to spaces — so
//! that `.unwrap()` inside a doc example or an error message never
//! triggers a diagnostic. The raw text is kept alongside for the one thing
//! that legitimately lives in comments: `bf-lint: allow(...)` directives.
//!
//! The text helpers at the end (keyword search, the one bracket-depth
//! counter and what is built on it) are shared by every pass.

/// One source line in raw, masked, and comments-only form.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line exactly as written (comments and strings intact).
    pub raw: String,
    /// The line with comment and string/char contents replaced by spaces;
    /// string delimiters are kept so token shapes survive.
    pub code: String,
    /// The inverse view: only comment text survives, everything else is
    /// blanked. Directives are parsed from here, so the directive syntax
    /// appearing in a string literal never registers.
    pub comment: String,
    /// Whether the line sits inside a `#[cfg(test)]` region (or the whole
    /// file is a test/bench target).
    pub in_test: bool,
    /// `{` count in the masked view — precomputed once so every rule and
    /// both whole-program passes share one brace profile instead of
    /// re-counting per rule.
    pub opens: u32,
    /// `}` count in the masked view.
    pub closes: u32,
}

impl Line {
    /// Net brace depth change contributed by this line.
    pub fn brace_delta(&self) -> i64 {
        i64::from(self.opens) - i64::from(self.closes)
    }
}

/// A parsed source file ready for rule evaluation.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, used in diagnostics.
    pub path: String,
    /// Lines, 0-indexed internally; diagnostics report 1-indexed.
    pub lines: Vec<Line>,
}

/// Lexer state carried across characters while masking.
enum State {
    Code,
    LineComment,
    BlockComment { depth: u32 },
    Str,
    RawStr { hashes: u32 },
}

/// Dual masked views of a source text: `code` blanks comments and
/// string/char contents; `comments` blanks everything *except* comment
/// text. Both keep newlines so line splits stay aligned.
struct Masked {
    code: String,
    comments: String,
}

fn mask(text: &str) -> Masked {
    let bytes = text.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut com = Vec::with_capacity(bytes.len());
    // Emits one byte to the code view and its blank to the comment view.
    let mut state = State::Code;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => match b {
                b'/' if bytes.get(i + 1) == Some(&b'/') => {
                    state = State::LineComment;
                    code.push(b' ');
                    com.push(b' ');
                }
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    state = State::BlockComment { depth: 1 };
                    code.push(b' ');
                    com.push(b' ');
                }
                b'"' => {
                    // Keep the delimiter; blank the contents.
                    state = State::Str;
                    code.push(b'"');
                    com.push(b' ');
                }
                b'r' | b'b' if is_raw_string_start(bytes, i) => {
                    let (hashes, consumed) = raw_string_open(bytes, i);
                    state = State::RawStr { hashes };
                    for _ in 0..consumed {
                        code.push(b' ');
                        com.push(b' ');
                    }
                    i += consumed;
                    continue;
                }
                b'\'' => {
                    if let Some(len) = char_literal_len(bytes, i) {
                        // Blank the literal but keep its quotes.
                        code.push(b'\'');
                        com.push(b' ');
                        for _ in 1..len - 1 {
                            code.push(b' ');
                            com.push(b' ');
                        }
                        code.push(b'\'');
                        com.push(b' ');
                        i += len;
                        state = State::Code;
                        continue;
                    }
                    // A lifetime: ordinary code.
                    code.push(b'\'');
                    com.push(b' ');
                }
                _ => {
                    code.push(b);
                    com.push(if b == b'\n' { b'\n' } else { b' ' });
                }
            },
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    code.push(b'\n');
                    com.push(b'\n');
                } else {
                    code.push(b' ');
                    com.push(b);
                }
            }
            State::BlockComment { depth } => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment { depth: depth + 1 };
                    for _ in 0..2 {
                        code.push(b' ');
                        com.push(b' ');
                    }
                    i += 2;
                    continue;
                }
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth > 1 {
                        State::BlockComment { depth: depth - 1 }
                    } else {
                        State::Code
                    };
                    for _ in 0..2 {
                        code.push(b' ');
                        com.push(b' ');
                    }
                    i += 2;
                    continue;
                }
                code.push(if b == b'\n' { b'\n' } else { b' ' });
                com.push(b);
            }
            State::Str => match b {
                b'\\' => {
                    code.push(b' ');
                    com.push(b' ');
                    if bytes.get(i + 1).is_some() {
                        code.push(b' ');
                        com.push(b' ');
                        i += 2;
                        continue;
                    }
                }
                b'"' => {
                    state = State::Code;
                    code.push(b'"');
                    com.push(b' ');
                }
                b'\n' => {
                    code.push(b'\n');
                    com.push(b'\n');
                }
                _ => {
                    code.push(b' ');
                    com.push(b' ');
                }
            },
            State::RawStr { hashes } => {
                if b == b'"' && raw_string_closes(bytes, i, hashes) {
                    for _ in 0..=hashes {
                        code.push(b' ');
                        com.push(b' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                    continue;
                }
                code.push(if b == b'\n' { b'\n' } else { b' ' });
                com.push(if b == b'\n' { b'\n' } else { b' ' });
            }
        }
        i += 1;
    }
    Masked {
        code: String::from_utf8_lossy(&code).into_owned(),
        comments: String::from_utf8_lossy(&com).into_owned(),
    }
}

/// Whether `r"`, `r#"`, `br"`, or `b"` starts at `i` (and is not part of an
/// identifier like `for` or `b2`).
fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    match bytes.get(j) {
        Some(b'"') => bytes[i] == b'b', // plain b"..."
        Some(b'r') => {
            let mut k = j + 1;
            while bytes.get(k) == Some(&b'#') {
                k += 1;
            }
            bytes.get(k) == Some(&b'"')
        }
        _ => false,
    }
}

/// Returns `(hash_count, bytes_consumed_by_opener)` for a raw/byte string
/// whose opener starts at `i`.
fn raw_string_open(bytes: &[u8], i: usize) -> (u32, usize) {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
    }
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    // j now points at the opening quote.
    (hashes, j + 1 - i)
}

/// Whether the `"` at `i` closes a raw string opened with `hashes` hashes.
fn raw_string_closes(bytes: &[u8], i: usize, hashes: u32) -> bool {
    for k in 0..hashes as usize {
        if bytes.get(i + 1 + k) != Some(&b'#') {
            return false;
        }
    }
    true
}

/// If a char literal starts at the `'` at `i`, returns its total byte
/// length (quotes included); `None` means the quote begins a lifetime.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i + 1)? {
        b'\\' => {
            // Escape: scan to the closing quote (bounded — escapes are
            // short, but \u{...} can run a few bytes).
            let mut j = i + 2;
            while j < bytes.len() && j - i < 12 {
                if bytes[j] == b'\'' {
                    return Some(j + 1 - i);
                }
                j += 1;
            }
            None
        }
        b'\'' => None, // `''` is not a char literal
        _ => {
            // Multi-byte UTF-8 scalar or ASCII char followed by a quote.
            let mut j = i + 2;
            while j < bytes.len() && j - i < 6 && (bytes[j] & 0xC0) == 0x80 {
                j += 1; // skip UTF-8 continuation bytes
            }
            (bytes.get(j) == Some(&b'\'')).then(|| j + 1 - i)
        }
    }
}

/// Splits `text` into [`Line`]s with masking and `#[cfg(test)]`-region
/// tracking. `whole_file_is_test` marks integration-test and bench targets.
pub fn parse(path: &str, text: &str, whole_file_is_test: bool) -> SourceFile {
    let masked = mask(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let masked_lines: Vec<&str> = masked.code.lines().collect();
    let comment_lines: Vec<&str> = masked.comments.lines().collect();

    let mut lines = Vec::with_capacity(raw_lines.len());
    let mut depth: i64 = 0;
    // (depth at which the test region's block opened)
    let mut test_region: Option<i64> = None;
    // A `#[cfg(test)]` attribute seen, waiting for its item's block.
    let mut pending_attr = false;

    for (idx, raw) in raw_lines.iter().enumerate() {
        let code = masked_lines.get(idx).copied().unwrap_or("");
        if test_region.is_none() && (code.contains("cfg(test") || code.contains("cfg(all(test")) {
            pending_attr = true;
        }

        let opens = code.bytes().filter(|&b| b == b'{').count() as i64;
        let closes = code.bytes().filter(|&b| b == b'}').count() as i64;

        // The attribute's item opens its block: the region spans until the
        // depth returns to the pre-block level.
        if pending_attr && opens > 0 {
            test_region = Some(depth);
            pending_attr = false;
        } else if pending_attr && code.contains(';') {
            // `#[cfg(test)] use ...;` — a blockless item; nothing to track.
            pending_attr = false;
        }

        let in_test = whole_file_is_test || test_region.is_some();
        lines.push(Line {
            raw: (*raw).to_string(),
            code: code.to_string(),
            comment: comment_lines.get(idx).copied().unwrap_or("").to_string(),
            in_test,
            opens: opens as u32,
            closes: closes as u32,
        });

        depth += opens - closes;
        if let Some(open_depth) = test_region {
            if depth <= open_depth {
                test_region = None;
            }
        }
    }

    SourceFile {
        path: path.to_string(),
        lines,
    }
}

// ---------------------------------------------------------------------------
// Text helpers over the masked view, shared by every pass
// ---------------------------------------------------------------------------

/// Byte offsets of every occurrence of `needle` in `haystack`.
pub(crate) fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// Occurrences of `word` bounded by non-identifier characters.
pub(crate) fn find_keyword(text: &str, word: &str) -> Vec<usize> {
    find_all(text, word)
        .into_iter()
        .filter(|&pos| {
            let before_ok = pos == 0
                || !text[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = text[pos + word.len()..].chars().next();
            let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
            before_ok && after_ok
        })
        .collect()
}

/// The identifier immediately preceding byte offset `pos` (e.g. the
/// receiver of a `.lock()` call).
pub(crate) fn ident_before(code: &str, pos: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut start = pos;
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    (start < pos).then(|| &code[start..pos])
}

/// Every byte of `text` with the bracket depth *after* it, counting the
/// `opens`/`closes` delimiters (`->` never closes an angle bracket). The
/// one bracket counter behind [`closing`] and every top-level scan.
pub(crate) fn depths<'a>(
    text: &'a str,
    opens: &'a [u8],
    closes: &'a [u8],
) -> impl Iterator<Item = (usize, u8, i64)> + 'a {
    let bytes = text.as_bytes();
    let mut depth = 0i64;
    bytes.iter().enumerate().map(move |(i, &b)| {
        if opens.contains(&b) {
            depth += 1;
        } else if closes.contains(&b) && !(b == b'>' && i > 0 && bytes[i - 1] == b'-') {
            depth -= 1;
        }
        (i, b, depth)
    })
}

/// Byte offset of the delimiter closing the one at `open`.
pub(crate) fn closing(text: &str, open: usize, opens: &[u8], closes: &[u8]) -> Option<usize> {
    depths(&text[open..], opens, closes)
        .find(|&(_, b, d)| d == 0 && closes.contains(&b))
        .map(|(i, _, _)| open + i)
}

/// Splits `text` on top-level commas (ignoring nesting in `()`, `[]`,
/// `<>`; `->` does not close an angle bracket).
pub(crate) fn split_top_level(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, b, d) in depths(text, b"([<", b")]>") {
        if b == b',' && d == 0 {
            out.push(&text[start..i]);
            start = i + 1;
        }
    }
    out.push(&text[start..]);
    out
}

/// The text inside the `(`/`[` at byte `open` of line `lineno` (1-based),
/// balanced across at most `max_lines` lines (each followed by a space);
/// everything collected when it does not close in time.
pub(crate) fn delimited(lines: &[Line], lineno: usize, open: usize, max_lines: usize) -> String {
    let mut text = String::new();
    for line in lines.iter().skip(lineno - 1).take(max_lines) {
        text.push_str(&line.code);
        text.push(' ');
        if let Some(close) = closing(&text, open, b"([", b")]") {
            return text[open + 1..close].to_string();
        }
    }
    text.get(open + 1..).unwrap_or("").to_string()
}

/// Offsets of the `[` of every indexing or slicing site on a code line:
/// `ident[..]`, `)[..]` or `][..]`, outside attribute lines.
pub(crate) fn index_sites(code: &str) -> Vec<usize> {
    if code.trim_start().starts_with('#') {
        return Vec::new();
    }
    let bytes = code.as_bytes();
    (1..bytes.len())
        .filter(|&i| {
            let prev = bytes[i - 1];
            bytes[i] == b'['
                && (prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']')
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_comments_and_strings() {
        let f = parse("x.rs", "let a = \"x.unwrap()\"; // .unwrap()\n", false);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].raw.contains("// .unwrap()"));
    }

    #[test]
    fn masks_nested_block_comments() {
        let f = parse("x.rs", "/* a /* b */ .unwrap() */ let x = 1;\n", false);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("let x = 1;"));
    }

    #[test]
    fn masks_raw_strings_and_char_literals() {
        let src = "let s = r#\".unwrap()\"#; let c = '\\n'; let l: &'static str = \"\";\n";
        let f = parse("x.rs", src, false);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("&'static str"));
    }

    #[test]
    fn tracks_cfg_test_regions() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let f = parse("x.rs", src, false);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn blockless_cfg_test_item_does_not_open_a_region() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n";
        let f = parse("x.rs", src, false);
        assert!(!f.lines[2].in_test);
    }
}
