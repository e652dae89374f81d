//! Validated server configuration, replacing the old positional
//! `Server::new(n, edges, policy)` / `ServerOptions` pair.
//!
//! Same idiom as `AfforestConfig::builder()` in `afforest-core`: a
//! plain-data config struct, a chainable builder seeded with the
//! defaults, and a typed [`ServeConfigError`] from `build()` so an
//! invalid quota or deadline combination is a compile-visible error
//! path, not a runtime surprise.

use crate::faults::FaultPlan;
use crate::ingest::BatchPolicy;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Everything configurable about a [`crate::Server`] beyond the graphs
/// it serves. Construct via [`ServeConfig::builder`].
#[derive(Clone, Default)]
pub struct ServeConfig {
    /// When each tenant's writer cuts a batch.
    pub policy: BatchPolicy,
    /// Per-tenant admission bound: pending edges above this shed new
    /// inserts with `Response::Overloaded` (`0` = unbounded).
    pub max_queue_depth: usize,
    /// Process-wide backstop: pending edges summed over every tenant
    /// above this shed new inserts regardless of the per-tenant quota
    /// (`0` = unbounded). Must be at least `max_queue_depth` when both
    /// are bounded — a backstop tighter than one tenant's quota would
    /// make the per-tenant bound unreachable.
    pub max_total_queue_depth: usize,
    /// Most tenants the registry admits (the `default` tenant counts).
    pub max_tenants: usize,
    /// Close a connection idle longer than this (`None` = only when its
    /// slot is needed for a new connection).
    pub read_deadline: Option<Duration>,
    /// Durability root: each tenant logs under `<wal_root>/<tenant>/`
    /// (`None` = no WAL). The `default` tenant also accepts the legacy
    /// pre-tenancy layout with `wal.log` directly in the root.
    pub wal_root: Option<PathBuf>,
    /// Compact a tenant's WAL every this many appended records
    /// (`0` = never compact).
    pub wal_snapshot_every: u64,
    /// Chaos: consulted at every injection site when present.
    pub faults: Option<Arc<FaultPlan>>,
}

/// Default tenant capacity of [`ServeConfig`].
pub const DEFAULT_MAX_TENANTS: usize = 64;

impl ServeConfig {
    /// Starts a validating [`ServeConfigBuilder`] seeded with the
    /// defaults.
    ///
    /// ```
    /// use afforest_serve::ServeConfig;
    /// use std::time::Duration;
    ///
    /// let cfg = ServeConfig::builder()
    ///     .max_queue_depth(1024)
    ///     .read_deadline(Some(Duration::from_secs(30)))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.max_queue_depth, 1024);
    /// assert!(ServeConfig::builder()
    ///     .max_queue_depth(100)
    ///     .max_total_queue_depth(10)
    ///     .build()
    ///     .is_err());
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder::new()
    }
}

/// Validation failure from [`ServeConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeConfigError {
    /// `policy.max_edges` was 0: the size trigger could never fire and
    /// an empty "full" batch would spin the writer.
    ZeroBatchEdges,
    /// `policy.max_delay` was zero: the deadline trigger would fire
    /// continuously, degenerating batching to one epoch per edge.
    ZeroBatchDelay,
    /// `max_tenants` was 0: not even the `default` tenant would fit.
    ZeroMaxTenants,
    /// `read_deadline` was `Some(0)`: every connection would be cut off
    /// on its first poll tick.
    ZeroReadDeadline,
    /// The process-wide backstop is tighter than one tenant's quota, so
    /// the per-tenant bound could never be reached.
    BackstopBelowTenantQuota {
        /// `max_total_queue_depth` as configured.
        total: usize,
        /// `max_queue_depth` as configured.
        per_tenant: usize,
    },
}

impl std::fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeConfigError::ZeroBatchEdges => write!(f, "policy.max_edges must be at least 1"),
            ServeConfigError::ZeroBatchDelay => {
                write!(f, "policy.max_delay must be nonzero")
            }
            ServeConfigError::ZeroMaxTenants => write!(f, "max_tenants must be at least 1"),
            ServeConfigError::ZeroReadDeadline => {
                write!(
                    f,
                    "read_deadline must be nonzero (use None for no deadline)"
                )
            }
            ServeConfigError::BackstopBelowTenantQuota { total, per_tenant } => write!(
                f,
                "max_total_queue_depth ({total}) is below max_queue_depth ({per_tenant}): \
                 the per-tenant quota would be unreachable"
            ),
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// Validating builder for [`ServeConfig`]; start from
/// [`ServeConfig::builder`].
#[derive(Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl Default for ServeConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeConfigBuilder {
    /// A builder seeded with the defaults: default batch policy,
    /// unbounded queues, [`DEFAULT_MAX_TENANTS`] tenants, no deadline,
    /// no WAL, no chaos.
    pub fn new() -> Self {
        Self {
            cfg: ServeConfig {
                max_tenants: DEFAULT_MAX_TENANTS,
                ..ServeConfig::default()
            },
        }
    }

    /// Sets the batch policy every tenant's writer runs.
    pub fn policy(mut self, policy: BatchPolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Sets the per-tenant admission bound (`0` = unbounded).
    pub fn max_queue_depth(mut self, depth: usize) -> Self {
        self.cfg.max_queue_depth = depth;
        self
    }

    /// Sets the process-wide pending-edge backstop (`0` = unbounded).
    pub fn max_total_queue_depth(mut self, depth: usize) -> Self {
        self.cfg.max_total_queue_depth = depth;
        self
    }

    /// Sets the registry's tenant capacity (must be ≥ 1).
    pub fn max_tenants(mut self, n: usize) -> Self {
        self.cfg.max_tenants = n;
        self
    }

    /// Sets the idle-connection deadline.
    pub fn read_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.cfg.read_deadline = deadline;
        self
    }

    /// Enables per-tenant write-ahead logging under `root`.
    pub fn wal_root(mut self, root: Option<PathBuf>) -> Self {
        self.cfg.wal_root = root;
        self
    }

    /// Sets the WAL compaction cadence (`0` = never compact).
    pub fn wal_snapshot_every(mut self, every: u64) -> Self {
        self.cfg.wal_snapshot_every = every;
        self
    }

    /// Attaches a chaos plan.
    pub fn faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServeConfig, ServeConfigError> {
        if self.cfg.policy.max_edges == 0 {
            return Err(ServeConfigError::ZeroBatchEdges);
        }
        if self.cfg.policy.max_delay.is_zero() {
            return Err(ServeConfigError::ZeroBatchDelay);
        }
        if self.cfg.max_tenants == 0 {
            return Err(ServeConfigError::ZeroMaxTenants);
        }
        if self.cfg.read_deadline.is_some_and(|d| d.is_zero()) {
            return Err(ServeConfigError::ZeroReadDeadline);
        }
        let (total, per_tenant) = (self.cfg.max_total_queue_depth, self.cfg.max_queue_depth);
        if total > 0 && per_tenant > 0 && total < per_tenant {
            return Err(ServeConfigError::BackstopBelowTenantQuota { total, per_tenant });
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let cfg = ServeConfig::builder().build().expect("defaults are valid");
        assert_eq!(cfg.max_tenants, DEFAULT_MAX_TENANTS);
        assert_eq!(cfg.max_queue_depth, 0);
        assert!(cfg.wal_root.is_none());
    }

    #[test]
    fn each_invalid_combination_gets_its_typed_error() {
        assert!(matches!(
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_edges: 0,
                    ..BatchPolicy::default()
                })
                .build(),
            Err(ServeConfigError::ZeroBatchEdges)
        ));
        assert!(matches!(
            ServeConfig::builder()
                .policy(BatchPolicy {
                    max_delay: Duration::ZERO,
                    ..BatchPolicy::default()
                })
                .build(),
            Err(ServeConfigError::ZeroBatchDelay)
        ));
        assert!(matches!(
            ServeConfig::builder().max_tenants(0).build(),
            Err(ServeConfigError::ZeroMaxTenants)
        ));
        assert!(matches!(
            ServeConfig::builder()
                .read_deadline(Some(Duration::ZERO))
                .build(),
            Err(ServeConfigError::ZeroReadDeadline)
        ));
        assert!(matches!(
            ServeConfig::builder()
                .max_queue_depth(8)
                .max_total_queue_depth(4)
                .build(),
            Err(ServeConfigError::BackstopBelowTenantQuota {
                total: 4,
                per_tenant: 8
            })
        ));
        // Errors render their cause.
        assert!(ServeConfigError::BackstopBelowTenantQuota {
            total: 4,
            per_tenant: 8
        }
        .to_string()
        .contains("unreachable"));
    }

    #[test]
    fn valid_quota_combinations_build() {
        for (per_tenant, total) in [(0, 0), (8, 0), (0, 8), (8, 8), (8, 64)] {
            assert!(
                ServeConfig::builder()
                    .max_queue_depth(per_tenant)
                    .max_total_queue_depth(total)
                    .build()
                    .is_ok(),
                "({per_tenant}, {total})"
            );
        }
    }
}
