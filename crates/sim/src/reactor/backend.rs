//! The name of the live engine's one I/O path.
//!
//! The live engine (`mutcon_live::server`) drives readiness with the
//! level-triggered [`Poller`](super::Poller) directly: each reactor owns
//! one, issues an `epoll_ctl` when a socket is registered or its interest
//! changes, and makes the data calls (`accept4`, `read`, `write`,
//! `writev`) on the sockets themselves. [`BackendKind`] only names that
//! path for the benchmark's `--backend` flag and report line.

/// The reactor's I/O path. One variant: the name stays only because
/// `benchmark/` (read-only here) still takes a `--backend` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Level-triggered epoll.
    Epoll,
}

impl BackendKind {
    /// Stable lowercase name; kept for the benchmark's report line.
    pub fn label(self) -> &'static str {
        "epoll"
    }

    /// `Some` for `epoll`, `None` for anything else; kept for the
    /// benchmark's `--backend` flag.
    pub fn parse(s: &str) -> Option<BackendKind> {
        s.trim()
            .eq_ignore_ascii_case("epoll")
            .then_some(BackendKind::Epoll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kind_parse_accepts_only_epoll() {
        assert_eq!(BackendKind::parse("epoll"), Some(BackendKind::Epoll));
        assert_eq!(BackendKind::parse(" EPOLL "), Some(BackendKind::Epoll));
        assert_eq!(BackendKind::parse("io_uring"), None);
        assert_eq!(BackendKind::parse("kqueue"), None);
        assert_eq!(BackendKind::Epoll.label(), "epoll");
    }
}
