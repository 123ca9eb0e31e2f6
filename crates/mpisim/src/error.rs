//! Error type for the in-process MPI runtime.

use std::fmt;

use hsim_time::task::Waiting;

/// Communication errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Destination or source rank outside `0..size`.
    RankOutOfRange { rank: usize, size: usize },
    /// The peer's thread has exited while a receive was pending.
    Disconnected { peer: usize },
    /// A typed receive got a payload of a different type.
    TypeMismatch { tag: u32 },
    /// Self-send without a buffered message (unsupported pattern).
    SelfMessage,
    /// A collective's internal tree/ring protocol broke its own
    /// invariant (e.g. a broadcast hop found no value to forward).
    /// Surfacing this as an error keeps collectives panic-free on the
    /// fallible rank paths.
    CollectiveProtocol { what: &'static str },
    /// The stepped driver resumed every live rank and none could move:
    /// each is parked on something no peer will ever provide (a
    /// mis-tagged receive, a device client that synced twice in one
    /// epoch). `waiting` lists each live rank with what it waits for.
    Deadlock { waiting: Vec<(usize, Waiting)> },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::RankOutOfRange { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            MpiError::Disconnected { peer } => write!(f, "peer rank {peer} disconnected"),
            MpiError::TypeMismatch { tag } => {
                write!(f, "receive type does not match sent payload (tag {tag})")
            }
            MpiError::SelfMessage => write!(f, "blocking self-send is a deadlock"),
            MpiError::CollectiveProtocol { what } => {
                write!(f, "collective protocol invariant broken: {what}")
            }
            MpiError::Deadlock { waiting } => {
                write!(f, "deadlock")?;
                for (i, (rank, what)) in waiting.iter().enumerate() {
                    let sep = if i == 0 { ':' } else { ';' };
                    write!(f, "{sep} rank {rank} waits for {what}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = MpiError::RankOutOfRange { rank: 9, size: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        assert!(MpiError::Disconnected { peer: 3 }.to_string().contains('3'));
    }
}
