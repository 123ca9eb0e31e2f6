pub enum Counter {
    FaultsInjected,
    KernelLaunches,
    BalanceResplits,
}

impl Counter {
    pub fn label(&self) -> &'static str {
        match self {
            Counter::FaultsInjected => "fault_injected",
            Counter::KernelLaunches => "kernel_launches",
            Counter::BalanceResplits => "balance_resplits",
        }
    }
}

pub fn rank_span(_cat: u32, _name: &str, _t0: u64, _t1: u64) {}

pub fn spans() {
    rank_span(0, "fault_inject", 0, 1);
    rank_span(0, "serve_request", 0, 1);
    rank_span(0, "serving", 0, 1);
    rank_span(0, "balance_resplit", 0, 1);
    rank_span(0, "balancing", 0, 1);
}
