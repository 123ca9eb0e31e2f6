// tidy-allow: unordered-iter
// tidy-allow: wall-clock -- a lint that moved to clippy.toml
// tidy-allow: tile-bounds -- nothing on this line needs it

pub fn noop() {}
