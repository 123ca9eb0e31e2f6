// expect: unsafe_code
// A crate with no `unsafe` gains some: the workspace table denies it.
pub fn id(x: u32) -> u32 {
    // SAFETY: `x` is a live, aligned local.
    unsafe { std::ptr::read(&x) }
}
