//! Execution modes (paper Figures 1–4 and §2).

/// The four ways to use a heterogeneous node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Figure 1: an MPI rank on every core, GPUs idle.
    CpuOnly,
    /// Figure 2: one MPI rank per GPU; remaining cores idle.
    Default,
    /// Figure 3: `per_gpu` MPI ranks drive each GPU through MPS.
    Mps { per_gpu: usize },
    /// Figure 4: one rank drives each GPU; the remaining cores run
    /// CPU-worker ranks on thin weighted slabs. `cpu_fraction` is the
    /// starting work share for the CPU workers (None = FLOPS-based
    /// initial guess, §6.2).
    Heterogeneous { cpu_fraction: Option<f64> },
}

impl ExecMode {
    /// The paper's MPS configuration: 4 ranks per GPU.
    pub fn mps4() -> Self {
        ExecMode::Mps { per_gpu: 4 }
    }

    /// Heterogeneous with the balancer's initial guess.
    pub fn hetero() -> Self {
        ExecMode::Heterogeneous { cpu_fraction: None }
    }

    /// Figure-legend label.
    pub fn label(&self) -> String {
        match self {
            ExecMode::CpuOnly => "CpuOnly".to_string(),
            ExecMode::Default => "Default (1 MPI/GPU)".to_string(),
            ExecMode::Mps { per_gpu } => format!("MPS ({per_gpu} MPI/GPU)"),
            ExecMode::Heterogeneous { .. } => "Hetero (4 MPI/GPU)".to_string(),
        }
    }

    /// Short machine-readable key for CSV.
    pub fn key(&self) -> String {
        match self {
            ExecMode::CpuOnly => "cpuonly".to_string(),
            ExecMode::Default => "default".to_string(),
            ExecMode::Mps { per_gpu } => format!("mps{per_gpu}"),
            ExecMode::Heterogeneous { .. } => "hetero".to_string(),
        }
    }

    /// Parse a mode name: the inverse of [`ExecMode::key`] on the four
    /// paper modes, plus `mps` for [`ExecMode::mps4`].
    pub fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "cpuonly" => Some(ExecMode::CpuOnly),
            "default" => Some(ExecMode::Default),
            "mps" | "mps4" => Some(ExecMode::mps4()),
            "hetero" => Some(ExecMode::hetero()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(ExecMode::Default.label(), "Default (1 MPI/GPU)");
        assert_eq!(ExecMode::mps4().label(), "MPS (4 MPI/GPU)");
        assert_eq!(ExecMode::hetero().label(), "Hetero (4 MPI/GPU)");
    }

    #[test]
    fn keys_are_distinct() {
        let keys = [
            ExecMode::CpuOnly.key(),
            ExecMode::Default.key(),
            ExecMode::mps4().key(),
            ExecMode::Mps { per_gpu: 2 }.key(),
            ExecMode::hetero().key(),
        ];
        let mut sorted = keys.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
    }
}
