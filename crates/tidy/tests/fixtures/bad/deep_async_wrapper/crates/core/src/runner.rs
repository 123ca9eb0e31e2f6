pub fn run_with_fraction(n: usize) -> Result<Vec<u64>, String> {
    run_segment(n)
}

fn run_segment(n: usize) -> Result<Vec<u64>, String> {
    let ranks = vec![0u64; n];
    World::run_fallible(n, rank_task(|comm| rank_body(&ranks, comm)))
}

fn rank_task<F: Future>(body: impl Fn(usize) -> F + Sync) -> impl Fn(usize) -> Task<F> + Sync {
    move |comm| Task {
        body: Box::pin(body(comm)),
    }
}

async fn rank_body(ranks: &[u64], comm: usize) -> Result<u64, String> {
    let first = set_up(ranks, comm).await;
    Ok(first)
}

async fn set_up(ranks: &[u64], comm: usize) -> u64 {
    *ranks.get(comm).unwrap()
}
