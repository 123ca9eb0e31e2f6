pub struct World;

impl World {
    pub fn run_fallible(&self) -> Result<(), String> {
        let _ = tile_for(2);
        Ok(())
    }
}

fn tile_for(threads: usize) -> [usize; 2] {
    let cache: Vec<[usize; 2]> = vec![[8, 8]];
    *cache.get(threads).unwrap()
}
