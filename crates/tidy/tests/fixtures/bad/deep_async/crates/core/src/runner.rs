pub struct World;

impl World {
    pub fn run_fallible(&self) -> Result<(), String> {
        poll_ranks();
        Ok(())
    }
}

fn poll_ranks() {
    block_on(rank_body());
}

async fn rank_body() {
    let dt = cycle().await;
    let _ = dt;
}

async fn cycle() -> u64 {
    let faces: Vec<u64> = vec![1];
    async { exchange(&faces).await }.await
}

async fn exchange(faces: &[u64]) -> u64 {
    *faces.first().unwrap()
}
