//! Error type for the GPU simulator.

use std::fmt;

use hsim_time::Overflow;

/// Everything that can go wrong in the simulated driver stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// A handle referred to a stream that does not exist.
    InvalidStream,
    /// The MPS server rejected a client (e.g. over its client limit).
    MpsRejected { reason: &'static str },
    /// A kernel launch failed and the retry budget was exhausted.
    LaunchFailed { reason: &'static str },
    /// A kernel's sums no longer fit their integers.
    Overflow(Overflow),
    /// Launches were still queued on a device when its last client
    /// left: no sync resolved them, so they never ran.
    Stranded { device: usize, launches: usize },
}

impl From<Overflow> for GpuError {
    fn from(e: Overflow) -> Self {
        GpuError::Overflow(e)
    }
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::InvalidStream => write!(f, "invalid stream handle"),
            GpuError::MpsRejected { reason } => write!(f, "MPS rejected client: {reason}"),
            GpuError::LaunchFailed { reason } => write!(f, "kernel launch failed: {reason}"),
            GpuError::Overflow(e) => e.fmt(f),
            GpuError::Stranded { device, launches } => write!(
                f,
                "device {device}: {launches} launch(es) queued after the last sync never ran"
            ),
        }
    }
}

impl std::error::Error for GpuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(GpuError::MpsRejected {
            reason: "client limit reached"
        }
        .to_string()
        .contains("MPS"));
        assert!(GpuError::LaunchFailed {
            reason: "injected fault"
        }
        .to_string()
        .contains("injected fault"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GpuError::InvalidStream, GpuError::InvalidStream);
        assert_ne!(
            GpuError::MpsRejected { reason: "a" },
            GpuError::MpsRejected { reason: "b" }
        );
    }
}
