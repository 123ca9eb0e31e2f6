// expect: unsafe_code
pub fn read(p: *const u32) -> u32 {
    // SAFETY: fixture — the caller promises `p` is valid and aligned.
    unsafe { *p }
}
