pub fn id(x: u32) -> u32 {
    x
}
