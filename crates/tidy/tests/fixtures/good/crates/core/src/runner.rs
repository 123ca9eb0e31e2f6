pub struct World;

impl World {
    pub fn run_fallible(&self) -> Result<u64, String> {
        stepped();
        step_ranks().ok_or_else(|| "empty rank list".to_string())
    }
}

fn stepped() {
    block_on(rank_body());
}

async fn rank_body() {
    let faces: Vec<u64> = vec![1];
    let _ = async { exchange(&faces).await }.await;
}

async fn exchange(faces: &[u64]) -> Option<u64> {
    faces.first().copied()
}

fn step_ranks() -> Option<u64> {
    let v: Vec<u64> = vec![1];
    v.first().copied()
}
