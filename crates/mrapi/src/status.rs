//! MRAPI status codes and the crate error type.
//!
//! The C API reports every outcome through an `mrapi_status_t` out-parameter
//! (see the paper's Listing 2, where `MRAPI_SUCCESS` /
//! `MRAPI_ERR_NODE_NOTINIT` are checked explicitly).  Rust callers get a
//! `Result`, but the status vocabulary is preserved so code and tests can
//! speak the spec's language.

/// The MRAPI status vocabulary (the subset this implementation can emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MrapiStatus {
    /// Operation completed.
    Success,
    /// Calling node was never initialized (`MRAPI_ERR_NODE_NOTINIT`).
    ErrNodeNotInit,
    /// Node id already initialized in this domain (`MRAPI_ERR_NODE_INITFAILED`).
    ErrNodeInitFailed,
    /// Node id finalized or unknown (`MRAPI_ERR_NODE_INVALID`).
    ErrNodeInvalid,
    /// Domain id out of range or unknown (`MRAPI_ERR_DOMAIN_INVALID`).
    ErrDomainInvalid,
    /// Invalid function parameter (`MRAPI_ERR_PARAMETER`).
    ErrParameter,
    /// Shared-memory key already exists (`MRAPI_ERR_SHM_EXISTS`).
    ErrShmExists,
    /// Shared-memory key not found (`MRAPI_ERR_SHM_INVALID`).
    ErrShmInvalid,
    /// Attach refused or detach unbalanced (`MRAPI_ERR_SHM_ATTCH`).
    ErrShmAttach,
    /// Remote-memory id conflict (`MRAPI_ERR_RMEM_EXISTS`).
    ErrRmemExists,
    /// Remote-memory id not found or wrong access (`MRAPI_ERR_RMEM_INVALID`).
    ErrRmemInvalid,
    /// Read/write would fall outside the remote buffer (`MRAPI_ERR_RMEM_BLOCKED`).
    ErrRmemBounds,
    /// Mutex key already exists (`MRAPI_ERR_MUTEX_EXISTS`).
    ErrMutexExists,
    /// Mutex id not found or deleted (`MRAPI_ERR_MUTEX_INVALID`).
    ErrMutexInvalid,
    /// Lock key did not match the held lock (`MRAPI_ERR_MUTEX_KEY`).
    ErrMutexKey,
    /// Caller does not hold the lock (`MRAPI_ERR_MUTEX_NOTLOCKED`).
    ErrMutexNotLocked,
    /// Recursive lock attempted on a non-recursive mutex
    /// (`MRAPI_ERR_MUTEX_LOCKED`).
    ErrMutexAlreadyLocked,
    /// A timed wait expired (`MRAPI_TIMEOUT`).
    Timeout,
    /// Resource tree filter matched nothing (`MRAPI_ERR_RSRC_INVALID_TYPE`).
    ErrResourceInvalid,
    /// Out of simulated platform memory (`MRAPI_ERR_MEM_LIMIT`).
    ErrMemLimit,
}

impl MrapiStatus {
    /// Spec-style identifier (`"MRAPI_SUCCESS"`, `"MRAPI_ERR_NODE_NOTINIT"`...).
    pub fn spec_name(self) -> &'static str {
        match self {
            MrapiStatus::Success => "MRAPI_SUCCESS",
            MrapiStatus::ErrNodeNotInit => "MRAPI_ERR_NODE_NOTINIT",
            MrapiStatus::ErrNodeInitFailed => "MRAPI_ERR_NODE_INITFAILED",
            MrapiStatus::ErrNodeInvalid => "MRAPI_ERR_NODE_INVALID",
            MrapiStatus::ErrDomainInvalid => "MRAPI_ERR_DOMAIN_INVALID",
            MrapiStatus::ErrParameter => "MRAPI_ERR_PARAMETER",
            MrapiStatus::ErrShmExists => "MRAPI_ERR_SHM_EXISTS",
            MrapiStatus::ErrShmInvalid => "MRAPI_ERR_SHM_INVALID",
            MrapiStatus::ErrShmAttach => "MRAPI_ERR_SHM_ATTCH",
            MrapiStatus::ErrRmemExists => "MRAPI_ERR_RMEM_EXISTS",
            MrapiStatus::ErrRmemInvalid => "MRAPI_ERR_RMEM_INVALID",
            MrapiStatus::ErrRmemBounds => "MRAPI_ERR_RMEM_BLOCKED",
            MrapiStatus::ErrMutexExists => "MRAPI_ERR_MUTEX_EXISTS",
            MrapiStatus::ErrMutexInvalid => "MRAPI_ERR_MUTEX_INVALID",
            MrapiStatus::ErrMutexKey => "MRAPI_ERR_MUTEX_KEY",
            MrapiStatus::ErrMutexNotLocked => "MRAPI_ERR_MUTEX_NOTLOCKED",
            MrapiStatus::ErrMutexAlreadyLocked => "MRAPI_ERR_MUTEX_LOCKED",
            MrapiStatus::Timeout => "MRAPI_TIMEOUT",
            MrapiStatus::ErrResourceInvalid => "MRAPI_ERR_RSRC_INVALID_TYPE",
            MrapiStatus::ErrMemLimit => "MRAPI_ERR_MEM_LIMIT",
        }
    }

    /// Whether the status denotes success.
    pub fn is_success(self) -> bool {
        self == MrapiStatus::Success
    }
}

/// Error type carrying a non-success status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MrapiError(pub MrapiStatus);

impl std::fmt::Display for MrapiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0.spec_name())
    }
}

impl std::error::Error for MrapiError {}

impl From<MrapiStatus> for MrapiError {
    fn from(s: MrapiStatus) -> Self {
        debug_assert!(!s.is_success(), "success is not an error");
        MrapiError(s)
    }
}

/// Crate-wide result alias.
pub type MrapiResult<T> = Result<T, MrapiError>;

/// Helper: fail with `status` unless `cond` holds.
pub(crate) fn ensure(cond: bool, status: MrapiStatus) -> MrapiResult<()> {
    if cond {
        Ok(())
    } else {
        Err(MrapiError(status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_names_match_listing_2() {
        // The two codes the paper's Listing 2 checks explicitly.
        assert_eq!(MrapiStatus::Success.spec_name(), "MRAPI_SUCCESS");
        assert_eq!(
            MrapiStatus::ErrNodeNotInit.spec_name(),
            "MRAPI_ERR_NODE_NOTINIT"
        );
    }

    #[test]
    fn error_displays_spec_name() {
        let e = MrapiError(MrapiStatus::ErrMutexKey);
        assert_eq!(e.to_string(), "MRAPI_ERR_MUTEX_KEY");
    }

    #[test]
    fn ensure_gates() {
        assert!(ensure(true, MrapiStatus::ErrParameter).is_ok());
        assert_eq!(
            ensure(false, MrapiStatus::ErrParameter).unwrap_err().0,
            MrapiStatus::ErrParameter
        );
    }

    #[test]
    fn success_is_success_only() {
        assert!(MrapiStatus::Success.is_success());
        assert!(!MrapiStatus::Timeout.is_success());
    }
}
