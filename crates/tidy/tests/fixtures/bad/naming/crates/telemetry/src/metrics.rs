pub enum Counter {
    FaultsInjected,
    KernelLaunches,
    BalanceResplits,
}

impl Counter {
    pub fn label(&self) -> &'static str {
        match self {
            Counter::FaultsInjected => "faults",
            Counter::KernelLaunches => "KernelLaunches",
            Counter::BalanceResplits => "resplits",
        }
    }
}

pub fn rank_span(_cat: u32, _name: &str, _t0: u64, _t1: u64) {}

pub fn spans() {
    rank_span(0, "BadSpan", 0, 1);
    rank_span(0, "faultinject", 0, 1);
    rank_span(0, "servehit", 0, 1);
    rank_span(0, "balancestep", 0, 1);
}
