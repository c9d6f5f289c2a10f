//! Scenario construction: the one typed, validated, `Result`-returning
//! way to build either testbed.
//!
//! [`ScenarioBuilder::ethernet`] and [`ScenarioBuilder::infiniband`]
//! return scenario builders with one chainable setter per field of
//! [`EthConfig`] / [`IbConfig`]; a configuration assembled as plain
//! data enters through [`EthScenario::from_config`] /
//! [`IbScenario::from_config`]. `build()` runs cross-field validation
//! (ring geometry vs rNPF budgets, backup capacity vs tenant quotas,
//! host memory vs instance allocations, arbiter pool sizing) and
//! returns a typed [`ScenarioError`] instead of panicking deep inside a
//! substrate.
//!
//! ```
//! use testbed::builder::ScenarioBuilder;
//! use testbed::eth::RxMode;
//! use simcore::{ByteSize, SimTime};
//!
//! let mut bed = ScenarioBuilder::ethernet()
//!     .mode(RxMode::Backup)
//!     .instances(2)
//!     .conns_per_instance(2)
//!     .host_memory(ByteSize::mib(256))
//!     .working_set_keys(200)
//!     .build()
//!     .expect("valid scenario");
//! bed.run_until(SimTime::from_millis(100));
//! assert!(bed.total_ops() > 0);
//! ```

use memsim::manager::{MemError, TierConfig};
use memsim::swap::DiskConfig;
use netsim::profile::{FabricProfile, RdmaTransport, TransportConfig};
use npf_core::npf::NpfConfig;
use npf_core::{ArbiterPolicy, BackendKind};
use simcore::chaos::ChaosConfig;
use simcore::units::ByteSize;
use workloads::memcached::MemcachedConfig;
use workloads::storage::{CHUNK_SIZE, TOTAL_CHUNKS};

use crate::eth::{EthConfig, EthTestbed, RxMode};
use crate::ib::{IbCluster, IbConfig};
use crate::storage_bed::QUEUE_DEPTH;

/// Why a scenario failed validation (or construction).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The Ethernet testbed needs at least one memcached instance.
    NoInstances,
    /// Closed-loop clients need at least one connection per instance.
    NoConnections,
    /// Receive rings need at least one entry.
    EmptyRing,
    /// The per-ring rNPF budget cannot track a full ring.
    BitmapTooSmall {
        /// The configured budget.
        bm_size: u64,
        /// The ring it must cover.
        ring_entries: u64,
    },
    /// Backup mode needs a non-empty backup ring.
    NoBackupCapacity,
    /// A backup quota is meaningless outside [`RxMode::Backup`].
    QuotaWithoutBackup,
    /// A zero quota would drop every faulting packet.
    ZeroQuota,
    /// A per-tenant quota larger than the whole backup ring.
    QuotaExceedsBackup {
        /// The configured per-tenant quota.
        quota: u64,
        /// The backup ring capacity.
        capacity: u64,
    },
    /// Guaranteed-resident allocations exceed host memory.
    InsufficientMemory {
        /// Bytes the scenario must keep resident.
        required: ByteSize,
        /// Physical memory configured.
        available: ByteSize,
    },
    /// The Zipf tenant-popularity exponent must be finite and >= 0.
    InvalidSkew {
        /// The offending exponent (stringified so the error stays `Eq`).
        skew: String,
    },
    /// A cross-channel arbiter with an empty fault-slot pool.
    ArbiterWithoutSlots,
    /// A cross-channel arbiter policy that arbitrates firmware fault
    /// slots, requested under a backend with no firmware NPF path.
    ArbiterNeedsFirmware {
        /// The requested policy.
        policy: ArbiterPolicy,
        /// The backend that cannot honour it.
        backend: BackendKind,
    },
    /// The firmware-bypass fast resume under a backend with no
    /// firmware to bypass.
    BypassNeedsFirmware {
        /// The backend that cannot honour it.
        backend: BackendKind,
    },
    /// A tenant weight for an instance the scenario does not create.
    UnknownTenant {
        /// The weighted instance.
        instance: u32,
        /// Instances the scenario creates.
        instances: u32,
    },
    /// The client's 16-bit port space cannot host this many
    /// connections (locals start at 20000) or server listeners
    /// (11211 + instance).
    PortSpaceExhausted {
        /// Total client connections requested.
        connections: u32,
        /// Instances requested.
        instances: u32,
    },
    /// The InfiniBand cluster needs at least one node.
    NoNodes,
    /// PFC emulates a lossless fabric; combining it with random loss
    /// contradicts itself (IRN's lossy regimes must disarm PFC).
    PfcNeedsLossless {
        /// The configured loss probability.
        loss: String,
    },
    /// The selective-repeat transport caps in-flight data at the BDP;
    /// a zero cap would never send anything.
    BdpCapZero,
    /// A loss probability outside `[0, 1)`.
    LossOutOfRange {
        /// The offending probability (stringified so the error stays
        /// `Eq`).
        loss: String,
    },
    /// A storage read block that is empty or larger than the target's
    /// per-transaction chunk.
    BlockSizeOutOfRange {
        /// The configured block size in bytes.
        block_size: u64,
    },
    /// A storage run with no initiator session.
    NoSessions,
    /// More storage reads in flight than the target's chunk pool holds.
    PoolExhausted {
        /// The configured initiator sessions.
        sessions: u32,
    },
    /// Construction failed in the memory subsystem (e.g. pinning under
    /// [`RxMode::Pin`] with insufficient host memory — Table 5's "N/A").
    Mem(MemError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoInstances => write!(f, "scenario creates zero instances"),
            ScenarioError::NoConnections => write!(f, "zero connections per instance"),
            ScenarioError::EmptyRing => write!(f, "receive ring has zero entries"),
            ScenarioError::BitmapTooSmall {
                bm_size,
                ring_entries,
            } => write!(
                f,
                "rNPF budget bm_size={bm_size} cannot cover a {ring_entries}-entry ring"
            ),
            ScenarioError::NoBackupCapacity => {
                write!(f, "backup mode with a zero-capacity backup ring")
            }
            ScenarioError::QuotaWithoutBackup => {
                write!(f, "backup quota set but the fault policy is not Backup")
            }
            ScenarioError::ZeroQuota => write!(f, "per-tenant backup quota of zero"),
            ScenarioError::QuotaExceedsBackup { quota, capacity } => write!(
                f,
                "per-tenant quota {quota} exceeds backup capacity {capacity}"
            ),
            ScenarioError::InsufficientMemory {
                required,
                available,
            } => write!(
                f,
                "resident allocations need {required} but the host has {available}"
            ),
            ScenarioError::InvalidSkew { skew } => {
                write!(
                    f,
                    "tenant skew {skew} is not a finite non-negative exponent"
                )
            }
            ScenarioError::ArbiterWithoutSlots => {
                write!(f, "cross-channel arbiter enabled with zero fault slots")
            }
            ScenarioError::ArbiterNeedsFirmware { policy, backend } => write!(
                f,
                "arbiter policy {policy:?} arbitrates firmware fault slots but the backend is {}",
                backend.as_str()
            ),
            ScenarioError::BypassNeedsFirmware { backend } => write!(
                f,
                "firmware-bypass resume requested but the backend is {}",
                backend.as_str()
            ),
            ScenarioError::UnknownTenant {
                instance,
                instances,
            } => write!(
                f,
                "tenant weight for instance {instance} but only {instances} instances exist"
            ),
            ScenarioError::PortSpaceExhausted {
                connections,
                instances,
            } => write!(
                f,
                "{connections} connections across {instances} instances exhaust the port space"
            ),
            ScenarioError::NoNodes => write!(f, "cluster has zero nodes"),
            ScenarioError::PfcNeedsLossless { loss } => write!(
                f,
                "PFC armed on a lossy fabric (loss={loss}); disarm PFC for lossy regimes"
            ),
            ScenarioError::BdpCapZero => {
                write!(f, "selective-repeat transport with a zero BDP cap")
            }
            ScenarioError::LossOutOfRange { loss } => {
                write!(f, "loss probability {loss} is outside [0, 1)")
            }
            ScenarioError::BlockSizeOutOfRange { block_size } => write!(
                f,
                "storage block of {block_size} bytes is not within one {CHUNK_SIZE}-byte chunk"
            ),
            ScenarioError::NoSessions => write!(f, "storage run with zero sessions"),
            ScenarioError::PoolExhausted { sessions } => write!(
                f,
                "{sessions} sessions at depth {QUEUE_DEPTH} need more than the {TOTAL_CHUNKS} pool chunks"
            ),
            ScenarioError::Mem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for ScenarioError {
    fn from(e: MemError) -> Self {
        ScenarioError::Mem(e)
    }
}

/// Cross-field validation of an Ethernet configuration.
pub(crate) fn validate_eth(cfg: &EthConfig) -> Result<(), ScenarioError> {
    if cfg.instances == 0 {
        return Err(ScenarioError::NoInstances);
    }
    if cfg.conns_per_instance == 0 {
        return Err(ScenarioError::NoConnections);
    }
    if cfg.ring_entries == 0 {
        return Err(ScenarioError::EmptyRing);
    }
    if cfg.bm_size < cfg.ring_entries {
        return Err(ScenarioError::BitmapTooSmall {
            bm_size: cfg.bm_size,
            ring_entries: cfg.ring_entries,
        });
    }
    if cfg.mode == RxMode::Backup && cfg.backup_capacity == 0 {
        return Err(ScenarioError::NoBackupCapacity);
    }
    if let Some(quota) = cfg.backup_quota {
        if cfg.mode != RxMode::Backup {
            return Err(ScenarioError::QuotaWithoutBackup);
        }
        if quota == 0 {
            return Err(ScenarioError::ZeroQuota);
        }
        if quota > cfg.backup_capacity {
            return Err(ScenarioError::QuotaExceedsBackup {
                quota,
                capacity: cfg.backup_capacity,
            });
        }
    }
    if let Some(skew) = cfg.tenant_skew {
        if !skew.is_finite() || skew < 0.0 {
            return Err(ScenarioError::InvalidSkew {
                skew: skew.to_string(),
            });
        }
    }
    validate_profile(&cfg.profile)?;
    validate_npf(&cfg.npf)?;
    // Port-space geometry: server listeners live at 11211 + instance,
    // client locals at 20000 + connection; both must stay within u16
    // and must not collide.
    let connections = cfg.instances.saturating_mul(cfg.conns_per_instance);
    if 11211 + cfg.instances > 20000 || 20000 + connections > u32::from(u16::MAX) {
        return Err(ScenarioError::PortSpaceExhausted {
            connections,
            instances: cfg.instances,
        });
    }
    // Guaranteed-resident bytes: every ring's page-per-slot buffer
    // array, plus — under static pinning — every instance's item slab.
    let ring_bytes = u64::from(cfg.instances) * cfg.ring_entries * memsim::PAGE_SIZE;
    let required = if cfg.mode == RxMode::Pin {
        ring_bytes + u64::from(cfg.instances) * cfg.memcached.max_bytes.bytes()
    } else {
        ring_bytes
    };
    if required > cfg.host_memory.bytes() {
        return Err(ScenarioError::InsufficientMemory {
            required: ByteSize::bytes_exact(required),
            available: cfg.host_memory,
        });
    }
    Ok(())
}

/// Cross-field validation of an InfiniBand configuration.
pub(crate) fn validate_ib(cfg: &IbConfig) -> Result<(), ScenarioError> {
    if cfg.nodes == 0 {
        return Err(ScenarioError::NoNodes);
    }
    if cfg.node_memory == ByteSize::ZERO {
        return Err(ScenarioError::InsufficientMemory {
            required: ByteSize::bytes_exact(memsim::PAGE_SIZE),
            available: ByteSize::ZERO,
        });
    }
    validate_profile(&cfg.profile)?;
    if cfg.rc.transport == RdmaTransport::SelectiveRepeat && cfg.rc.bdp_packets == 0 {
        return Err(ScenarioError::BdpCapZero);
    }
    validate_npf(&cfg.npf)
}

/// Whole-config validation of a fabric profile.
pub(crate) fn validate_profile(profile: &FabricProfile) -> Result<(), ScenarioError> {
    if !profile.loss.is_finite() || profile.loss < 0.0 || profile.loss >= 1.0 {
        return Err(ScenarioError::LossOutOfRange {
            loss: profile.loss.to_string(),
        });
    }
    if profile.pfc && profile.loss > 0.0 {
        return Err(ScenarioError::PfcNeedsLossless {
            loss: profile.loss.to_string(),
        });
    }
    Ok(())
}

fn validate_npf(cfg: &NpfConfig) -> Result<(), ScenarioError> {
    if cfg.arbiter != ArbiterPolicy::ChannelOnly && cfg.total_fault_slots == 0 {
        return Err(ScenarioError::ArbiterWithoutSlots);
    }
    // Cross-channel arbitration and the bypass resume are firmware NIC
    // features; the driver-level backends have neither a shared fault
    // slot pool nor a firmware to bypass.
    let backend = cfg.backend;
    if backend != BackendKind::Firmware {
        if cfg.arbiter != ArbiterPolicy::ChannelOnly {
            return Err(ScenarioError::ArbiterNeedsFirmware {
                policy: cfg.arbiter,
                backend,
            });
        }
        if cfg.firmware_bypass {
            return Err(ScenarioError::BypassNeedsFirmware { backend });
        }
    }
    Ok(())
}

/// Entry point: picks the testbed family.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScenarioBuilder;

impl ScenarioBuilder {
    /// Starts an Ethernet (memcached-over-NPF) scenario at the
    /// defaults of [`EthConfig`].
    #[must_use]
    pub fn ethernet() -> EthScenario {
        EthScenario {
            config: EthConfig::default(),
            weights: Vec::new(),
        }
    }

    /// Starts an InfiniBand cluster scenario at the defaults of
    /// [`IbConfig`].
    #[must_use]
    pub fn infiniband() -> IbScenario {
        IbScenario {
            config: IbConfig::default(),
        }
    }
}

/// A validated-on-build Ethernet scenario.
#[derive(Debug, Clone)]
pub struct EthScenario {
    config: EthConfig,
    /// Arbiter weights applied after construction: `(instance, weight)`.
    weights: Vec<(u32, u32)>,
}

impl EthScenario {
    /// Seeds the scenario from an existing configuration.
    #[must_use]
    pub fn from_config(config: EthConfig) -> Self {
        EthScenario {
            config,
            weights: Vec::new(),
        }
    }

    /// The configuration as currently set.
    #[must_use]
    pub fn config(&self) -> &EthConfig {
        &self.config
    }

    /// Sets the receive-fault policy.
    #[must_use]
    pub fn mode(mut self, mode: RxMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Sets the number of memcached instances (IOusers / tenants).
    #[must_use]
    pub fn instances(mut self, instances: u32) -> Self {
        self.config.instances = instances;
        self
    }

    /// Sets the closed-loop connections per instance.
    #[must_use]
    pub fn conns_per_instance(mut self, conns: u32) -> Self {
        self.config.conns_per_instance = conns;
        self
    }

    /// Sets the RX ring entries per IOchannel.
    #[must_use]
    pub fn ring_entries(mut self, entries: u64) -> Self {
        self.config.ring_entries = entries;
        self
    }

    /// Sets the per-ring rNPF budget.
    #[must_use]
    pub fn bm_size(mut self, bm_size: u64) -> Self {
        self.config.bm_size = bm_size;
        self
    }

    /// Sets the backup ring capacity.
    #[must_use]
    pub fn backup_capacity(mut self, capacity: u64) -> Self {
        self.config.backup_capacity = capacity;
        self
    }

    /// Partitions the backup ring with a per-tenant quota.
    #[must_use]
    pub fn backup_quota(mut self, quota: u64) -> Self {
        self.config.backup_quota = Some(quota);
        self
    }

    /// Sets the server's physical memory.
    #[must_use]
    pub fn host_memory(mut self, memory: ByteSize) -> Self {
        self.config.host_memory = memory;
        self
    }

    /// Sets the secondary-storage model.
    #[must_use]
    pub fn disk(mut self, disk: DiskConfig) -> Self {
        self.config.disk = disk;
        self
    }

    /// Sets the per-instance memcached configuration.
    #[must_use]
    pub fn memcached(mut self, memcached: MemcachedConfig) -> Self {
        self.config.memcached = memcached;
        self
    }

    /// Sets the working-set size in keys.
    #[must_use]
    pub fn working_set_keys(mut self, keys: u64) -> Self {
        self.config.working_set_keys = keys;
        self
    }

    /// Caps all instances with a shared cgroup limit.
    #[must_use]
    pub fn cgroup_limit(mut self, limit: ByteSize) -> Self {
        self.config.cgroup_limit = Some(limit);
        self
    }

    /// Pre-populates each instance's cache with its working set.
    #[must_use]
    pub fn preload(mut self, preload: bool) -> Self {
        self.config.preload = preload;
        self
    }

    /// Sets §3's pre-faulting window (0 disables).
    #[must_use]
    pub fn prefault_window(mut self, window: u64) -> Self {
        self.config.prefault_window = window;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the fabric profile (loss regime, ECN marking). The
    /// Ethernet edge is a point-to-point link, so the PFC switch
    /// thresholds have nothing to arm; loss and ECN apply as on IB.
    #[must_use]
    pub fn profile(mut self, profile: FabricProfile) -> Self {
        self.config.profile = profile;
        self
    }

    /// Sets the fault-injection configuration.
    #[must_use]
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Sets the NPF engine configuration (cost model, concurrency
    /// limits, cross-channel fault arbiter).
    #[must_use]
    pub fn npf(mut self, npf: NpfConfig) -> Self {
        self.config.npf = npf;
        self
    }

    /// Adds an NVM backing tier in front of the swap disk.
    #[must_use]
    pub fn tier(mut self, tier: TierConfig) -> Self {
        self.config.tier = Some(tier);
        self
    }

    /// Skews tenant popularity with a Zipf exponent.
    #[must_use]
    pub fn tenant_skew(mut self, skew: f64) -> Self {
        self.config.tenant_skew = Some(skew);
        self
    }

    /// Gives `instance` the arbiter weight `weight` (applied after
    /// construction; meaningful under
    /// [`ArbiterPolicy::WeightedFair`]).
    #[must_use]
    pub fn tenant_weight(mut self, instance: u32, weight: u32) -> Self {
        self.weights.push((instance, weight));
        self
    }

    /// Validates the scenario without building it.
    ///
    /// # Errors
    ///
    /// Returns the first cross-field constraint the configuration
    /// violates.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        validate_eth(&self.config)?;
        for &(instance, _) in &self.weights {
            if instance >= self.config.instances {
                return Err(ScenarioError::UnknownTenant {
                    instance,
                    instances: self.config.instances,
                });
            }
        }
        Ok(())
    }

    /// Validates and builds the testbed.
    ///
    /// # Errors
    ///
    /// Returns a validation error, or [`ScenarioError::Mem`] when
    /// construction fails in the memory subsystem (pinning under
    /// [`RxMode::Pin`]).
    pub fn build(self) -> Result<EthTestbed, ScenarioError> {
        self.validate()?;
        let mut bed = EthTestbed::build(self.config)?;
        for (instance, weight) in self.weights {
            bed.set_tenant_weight(instance, weight);
        }
        Ok(bed)
    }
}

/// A validated-on-build InfiniBand cluster scenario.
#[derive(Debug, Clone, Copy)]
pub struct IbScenario {
    config: IbConfig,
}

impl IbScenario {
    /// Seeds the scenario from an existing configuration.
    #[must_use]
    pub fn from_config(config: IbConfig) -> Self {
        IbScenario { config }
    }

    /// The configuration as currently set.
    #[must_use]
    pub fn config(&self) -> &IbConfig {
        &self.config
    }

    /// Sets the node count.
    #[must_use]
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Sets the per-node physical memory.
    #[must_use]
    pub fn node_memory(mut self, memory: ByteSize) -> Self {
        self.config.node_memory = memory;
        self
    }

    /// Sets the RC transport tuning.
    #[must_use]
    pub fn rc(mut self, rc: rdmasim::types::RcConfig) -> Self {
        self.config.rc = rc;
        self
    }

    /// Sets the NPF engine configuration.
    #[must_use]
    pub fn npf(mut self, npf: NpfConfig) -> Self {
        self.config.npf = npf;
        self
    }

    /// Sets the secondary-storage model.
    #[must_use]
    pub fn disk(mut self, disk: DiskConfig) -> Self {
        self.config.disk = disk;
        self
    }

    /// Adds an NVM backing tier in front of the swap disk on every
    /// node.
    #[must_use]
    pub fn tier(mut self, tier: TierConfig) -> Self {
        self.config.tier = Some(tier);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the fault-injection configuration.
    #[must_use]
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.config.chaos = chaos;
        self
    }

    /// Sets the fabric profile (loss regime, PFC, ECN).
    #[must_use]
    pub fn profile(mut self, profile: FabricProfile) -> Self {
        self.config.profile = profile;
        self
    }

    /// Sets the RC transport discipline (go-back-N or IRN-style
    /// selective repeat) and its BDP cap. Equivalent to editing those
    /// two fields of [`IbConfig::rc`]; last writer wins.
    #[must_use]
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.config.rc.transport = transport.transport;
        self.config.rc.bdp_packets = transport.bdp_packets;
        self
    }

    /// Validates the scenario without building it.
    ///
    /// # Errors
    ///
    /// Returns the first cross-field constraint the configuration
    /// violates.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        validate_ib(&self.config)
    }

    /// Validates and builds the cluster.
    ///
    /// # Errors
    ///
    /// Returns the validation error — notably
    /// [`ScenarioError::NoNodes`] for an empty cluster, which
    /// previously panicked inside the fabric.
    pub fn build(self) -> Result<IbCluster, ScenarioError> {
        self.validate()?;
        Ok(IbCluster::build(self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::chaos::ChaosProfile;

    #[test]
    fn zero_nodes_is_a_typed_error_not_a_panic() {
        let err = ScenarioBuilder::infiniband().nodes(0).build().err();
        assert_eq!(err, Some(ScenarioError::NoNodes));
    }

    #[test]
    fn transport_validation_matrix() {
        // PFC + loss contradict each other.
        assert_eq!(
            ScenarioBuilder::infiniband()
                .profile(FabricProfile::lossless_pfc().with_loss(0.01))
                .validate()
                .err(),
            Some(ScenarioError::PfcNeedsLossless {
                loss: "0.01".to_string()
            })
        );
        // Selective repeat with a zero BDP cap would never send.
        let mut zero_cap =
            TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat);
        zero_cap.bdp_packets = 0;
        assert_eq!(
            ScenarioBuilder::infiniband()
                .transport(zero_cap)
                .validate()
                .err(),
            Some(ScenarioError::BdpCapZero)
        );
        // Loss probabilities outside [0, 1) are rejected.
        assert_eq!(
            ScenarioBuilder::infiniband()
                .profile(FabricProfile::default().with_loss(1.5))
                .validate()
                .err(),
            Some(ScenarioError::LossOutOfRange {
                loss: "1.5".to_string()
            })
        );
        // The sensible combinations pass.
        assert!(ScenarioBuilder::infiniband()
            .chaos(ChaosConfig::profile(ChaosProfile::All, 1))
            .validate()
            .is_ok());
        assert!(ScenarioBuilder::infiniband()
            .profile(FabricProfile::lossless_pfc())
            .validate()
            .is_ok());
        assert!(ScenarioBuilder::infiniband()
            .profile(FabricProfile::lossy(0.01))
            .transport(TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat))
            .validate()
            .is_ok());
    }

    #[test]
    fn eth_validation_matrix() {
        let base = || {
            ScenarioBuilder::ethernet()
                .instances(1)
                .conns_per_instance(2)
                .host_memory(ByteSize::mib(256))
                .working_set_keys(100)
        };
        assert_eq!(
            base().instances(0).validate().err(),
            Some(ScenarioError::NoInstances)
        );
        assert_eq!(
            base().conns_per_instance(0).validate().err(),
            Some(ScenarioError::NoConnections)
        );
        assert_eq!(
            base().ring_entries(0).validate().err(),
            Some(ScenarioError::EmptyRing)
        );
        assert_eq!(
            base().ring_entries(256).bm_size(64).validate().err(),
            Some(ScenarioError::BitmapTooSmall {
                bm_size: 64,
                ring_entries: 256
            })
        );
        assert_eq!(
            base().backup_capacity(0).validate().err(),
            Some(ScenarioError::NoBackupCapacity)
        );
        assert_eq!(
            base().mode(RxMode::Drop).backup_quota(8).validate().err(),
            Some(ScenarioError::QuotaWithoutBackup)
        );
        assert_eq!(
            base().backup_quota(0).validate().err(),
            Some(ScenarioError::ZeroQuota)
        );
        assert_eq!(
            base().backup_capacity(64).backup_quota(65).validate().err(),
            Some(ScenarioError::QuotaExceedsBackup {
                quota: 65,
                capacity: 64
            })
        );
        assert!(matches!(
            base().tenant_skew(f64::NAN).validate().err(),
            Some(ScenarioError::InvalidSkew { .. })
        ));
        assert_eq!(
            base()
                .npf(
                    NpfConfig::default()
                        .with_arbiter(ArbiterPolicy::RoundRobin)
                        .with_total_fault_slots(0)
                )
                .validate()
                .err(),
            Some(ScenarioError::ArbiterWithoutSlots)
        );
        assert_eq!(
            base().tenant_weight(3, 2).validate().err(),
            Some(ScenarioError::UnknownTenant {
                instance: 3,
                instances: 1
            })
        );
        assert!(base().validate().is_ok());
    }

    #[test]
    fn backend_validation_matrix() {
        let base = || {
            ScenarioBuilder::ethernet()
                .instances(1)
                .conns_per_instance(2)
                .host_memory(ByteSize::mib(256))
                .working_set_keys(100)
        };
        // Firmware-only knobs are rejected under the driver-level
        // backends...
        assert_eq!(
            base()
                .npf(
                    NpfConfig::default()
                        .with_backend(BackendKind::SoftEmu)
                        .with_arbiter(ArbiterPolicy::RoundRobin)
                        .with_total_fault_slots(8)
                )
                .validate()
                .err(),
            Some(ScenarioError::ArbiterNeedsFirmware {
                policy: ArbiterPolicy::RoundRobin,
                backend: BackendKind::SoftEmu,
            })
        );
        assert_eq!(
            base()
                .npf(
                    NpfConfig::default()
                        .with_backend(BackendKind::Pinned)
                        .with_arbiter(ArbiterPolicy::WeightedFair)
                        .with_total_fault_slots(8)
                )
                .validate()
                .err(),
            Some(ScenarioError::ArbiterNeedsFirmware {
                policy: ArbiterPolicy::WeightedFair,
                backend: BackendKind::Pinned,
            })
        );
        assert_eq!(
            base()
                .npf(
                    NpfConfig::default()
                        .with_backend(BackendKind::SoftEmu)
                        .with_firmware_bypass(true)
                )
                .validate()
                .err(),
            Some(ScenarioError::BypassNeedsFirmware {
                backend: BackendKind::SoftEmu,
            })
        );
        // ...while the same knobs stay legal under firmware, and the
        // well-formed non-firmware configurations pass.
        assert!(base()
            .npf(
                NpfConfig::default()
                    .with_arbiter(ArbiterPolicy::RoundRobin)
                    .with_total_fault_slots(8)
                    .with_firmware_bypass(true)
            )
            .validate()
            .is_ok());
        assert!(base()
            .npf(NpfConfig::default().with_backend(BackendKind::SoftEmu))
            .validate()
            .is_ok());
        assert!(base()
            .npf(NpfConfig::default().with_backend(BackendKind::Pinned))
            .validate()
            .is_ok());
        // The same checks guard the InfiniBand path.
        assert_eq!(
            ScenarioBuilder::infiniband()
                .npf(
                    NpfConfig::default()
                        .with_backend(BackendKind::SoftEmu)
                        .with_firmware_bypass(true)
                )
                .validate()
                .err(),
            Some(ScenarioError::BypassNeedsFirmware {
                backend: BackendKind::SoftEmu,
            })
        );
    }

    #[test]
    fn pinned_allocations_exceeding_memory_fail_validation() {
        let err = ScenarioBuilder::ethernet()
            .mode(RxMode::Pin)
            .instances(8)
            .host_memory(ByteSize::mib(64))
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::mib(64),
                ..MemcachedConfig::default()
            })
            .validate()
            .err();
        assert!(matches!(
            err,
            Some(ScenarioError::InsufficientMemory { .. })
        ));
        // The identical overcommit is exactly what NPFs make legal.
        assert!(ScenarioBuilder::ethernet()
            .mode(RxMode::Backup)
            .instances(8)
            .host_memory(ByteSize::mib(64))
            .memcached(MemcachedConfig {
                max_bytes: ByteSize::mib(64),
                ..MemcachedConfig::default()
            })
            .validate()
            .is_ok());
    }

    #[test]
    fn from_config_equals_the_same_fields_set_through_the_setters() {
        let cache = MemcachedConfig {
            max_bytes: ByteSize::mib(16),
            ..MemcachedConfig::default()
        };
        let mut config = EthConfig {
            instances: 2,
            conns_per_instance: 2,
            host_memory: ByteSize::mib(256),
            memcached: cache,
            working_set_keys: 200,
            ..EthConfig::default()
        };
        // Inert residue field: 0 used to panic in the IOTLB constructor
        // instead of building; now it must change nothing, on either bed.
        config.npf.iotlb_entries = 0;
        let mut a = EthScenario::from_config(config).build().expect("config");
        let mut b = ScenarioBuilder::ethernet()
            .instances(2)
            .conns_per_instance(2)
            .host_memory(ByteSize::mib(256))
            .memcached(cache)
            .working_set_keys(200)
            .build()
            .expect("setters");
        a.run_until(simcore::SimTime::from_millis(100));
        b.run_until(simcore::SimTime::from_millis(100));
        assert_eq!(a.total_ops(), b.total_ops());
        assert_eq!(a.queue_stats(), b.queue_stats());
        assert!(a.total_ops() > 0);

        let mut config = IbConfig {
            nodes: 2,
            node_memory: ByteSize::mib(64),
            seed: 9,
            ..IbConfig::default()
        };
        config.npf.iotlb_entries = 0;
        config.rc.transport = RdmaTransport::SelectiveRepeat;
        config.rc.bdp_packets = TransportConfig::default()
            .with_transport(RdmaTransport::SelectiveRepeat)
            .bdp_packets;
        let run = |mut c: IbCluster| {
            let (qa, qb) = c.connect(0, 1);
            let src = c.alloc_buffers(0, ByteSize::mib(1));
            let dst = c.alloc_buffers(1, ByteSize::mib(1));
            c.post_recv(1, qb, 7, dst, 1 << 20);
            let len = 256 * 1024;
            c.post_send(0, qa, 8, rdmasim::types::SendOp::Send { local: src, len });
            let events = c.run_until_quiescent(1_000_000);
            (events, c.now(), c.drain_completions(1).len())
        };
        let a = run(IbScenario::from_config(config).build().expect("config"));
        let b = run(ScenarioBuilder::infiniband()
            .nodes(2)
            .node_memory(ByteSize::mib(64))
            .seed(9)
            .transport(TransportConfig::default().with_transport(RdmaTransport::SelectiveRepeat))
            .build()
            .expect("setters"));
        assert_eq!(a, b);
        assert_eq!(a.2, 1, "the message arrived");
    }
}
