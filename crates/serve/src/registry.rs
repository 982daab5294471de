//! The multi-model registry: many `.eie` artifacts behind one serving
//! front-end, resident on demand, evicted cold.
//!
//! The deployment story compression pays for (SNIPPETS.md's "1M daily
//! inferences") is *many* compressed models sharing a box, not one.
//! The registry is that layer:
//!
//! * **Registration is cheap** — a name→artifact mapping; nothing loads
//!   until the first request routes to it.
//! * **Residency is a [`ModelServer`]** — first [`acquire`] of a name
//!   reads and validates the artifact, builds the model's execution
//!   plans (under a plan-walking backend) and frees its encoded layers,
//!   starts its worker pool and bounded queue, and caches the `Arc`.
//!   All of that happens on the acquiring thread before [`acquire`]
//!   returns: the model it hands out is resident in full and in one
//!   copy — the plans every worker walks, or the encoded layers under a
//!   backend that streams them — and the model's memory is allocated —
//!   and, on eviction, freed — by the long-lived thread that routes
//!   requests, not by a worker thread that dies with the model.
//! * **Eviction is LRU by artifact bytes** — the charge is the length
//!   of the stored image as read (the container admits no slack, so it
//!   equals `CompiledModel::artifact_bytes`), not what a server holds:
//!   AlexNet FC6–8 at 64 PEs charges its 18.2 MB csc-nibble artifact
//!   while a native server keeps its 12.0 MB of plans. When loading a
//!   model would push the resident total past the byte budget, the
//!   registry shuts down least-recently-used resident models first. A
//!   model with requests in flight (an outstanding [`acquire`] lease —
//!   detected by its `Arc` strong count) is **pinned**: it is never
//!   evicted, and in-flight requests are never severed. The budget is therefore a
//!   bound on *cold* residency: a burst that pins everything may
//!   temporarily exceed it, and the model being admitted always is.
//!
//! [`acquire`]: ModelRegistry::acquire

use std::borrow::Cow;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use eie_core::{CompiledModel, ModelArtifactError};

use crate::fault::FaultPlan;
use crate::server::{ModelServer, ServerConfig, ServerStats};

/// Where a registered model's artifact bytes come from.
#[derive(Debug, Clone)]
enum ModelSource {
    /// A `.eie` file on disk, re-read on every (re)load.
    File(PathBuf),
    /// An in-memory `.eie` image (a model registered directly); lets
    /// tests and embedded callers exercise eviction + re-load without a
    /// filesystem.
    Bytes(Arc<[u8]>),
}

impl ModelSource {
    /// The artifact image: read afresh for a file, borrowed otherwise.
    fn image(&self) -> std::io::Result<Cow<'_, [u8]>> {
        match self {
            ModelSource::File(path) => std::fs::read(path).map(Cow::Owned),
            ModelSource::Bytes(bytes) => Ok(Cow::Borrowed(bytes)),
        }
    }
}

/// One registered model.
#[derive(Debug)]
struct Entry {
    name: String,
    source: ModelSource,
    resident: Option<Resident>,
    /// Tick of the most recent acquire — the LRU key.
    last_used: u64,
}

/// A resident model: its live server and the artifact bytes it charges
/// against the budget.
#[derive(Debug)]
struct Resident {
    server: Arc<ModelServer>,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Counters {
    loads: u64,
    evictions: u64,
    hits: u64,
}

#[derive(Debug)]
struct Inner {
    entries: Vec<Entry>,
    tick: u64,
    counters: Counters,
    /// Final statistics of evicted servers, folded in as they retire so
    /// lifetime tallies survive residency churn.
    retired: ServerStats,
}

/// Why a registry operation failed.
#[derive(Debug)]
pub enum RegistryError {
    /// No model is registered under the requested name.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// A name was registered twice.
    DuplicateName {
        /// The already-taken name.
        name: String,
    },
    /// The model is registered but its artifact failed to load or
    /// validate.
    Load {
        /// The model whose artifact is bad.
        name: String,
        /// The underlying artifact error.
        source: ModelArtifactError,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownModel { name } => {
                write!(f, "no model registered as {name:?}")
            }
            RegistryError::DuplicateName { name } => {
                write!(f, "model {name:?} is already registered")
            }
            RegistryError::Load { name, source } => {
                write!(f, "model {name:?} failed to load: {source}")
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Load { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A point-in-time view of registry occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryStats {
    /// Models the registry knows about.
    pub registered: usize,
    /// Models currently resident (server running).
    pub resident: usize,
    /// Artifact bytes of the resident models.
    pub resident_bytes: usize,
    /// The residency budget ([`usize::MAX`] = unbounded).
    pub budget_bytes: usize,
    /// Artifact loads since startup (cold starts and re-loads after
    /// eviction both count).
    pub loads: u64,
    /// Models evicted since startup.
    pub evictions: u64,
    /// Acquires answered from residency (no load).
    pub hits: u64,
}

impl fmt::Display for RegistryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} models resident ({} bytes",
            self.resident, self.registered, self.resident_bytes
        )?;
        if self.budget_bytes != usize::MAX {
            write!(f, " of {} budget", self.budget_bytes)?;
        }
        write!(
            f,
            "), {} loads / {} evictions / {} hits",
            self.loads, self.evictions, self.hits
        )
    }
}

/// A registry of named models sharing one serving policy and one
/// residency budget. The module docs above cover the eviction and
/// pinning semantics.
///
/// # Example
///
/// ```
/// use eie_core::nn::zoo::random_sparse;
/// use eie_core::{CompiledModel, EieConfig};
/// use eie_serve::{ModelRegistry, ServerConfig};
///
/// let w = random_sparse(32, 24, 0.2, 1);
/// let model = CompiledModel::compile_layer(EieConfig::default().with_num_pes(4), &w);
/// let registry = ModelRegistry::new(ServerConfig::default());
/// registry.register_model("toy", &model).unwrap();
///
/// let server = registry.acquire("toy").unwrap();
/// let result = server.submit(&vec![0.5; 24]).unwrap().wait().unwrap();
/// assert_eq!(result.outputs.len(), 32);
/// assert_eq!(registry.stats().resident, 1);
/// ```
#[derive(Debug)]
pub struct ModelRegistry {
    server_config: ServerConfig,
    budget_bytes: usize,
    /// Deterministic fault schedule every loaded server runs under
    /// (tests and the `EIE_FAULTS` CLI gate); `None` in production.
    fault_plan: Option<Arc<FaultPlan>>,
    inner: Mutex<Inner>,
}

impl ModelRegistry {
    /// Creates an empty registry with an unbounded residency budget.
    /// Every model loaded through it serves under `server_config`.
    pub fn new(server_config: ServerConfig) -> Self {
        Self {
            server_config,
            budget_bytes: usize::MAX,
            fault_plan: None,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: 0,
                counters: Counters::default(),
                retired: ServerStats::default(),
            }),
        }
    }

    /// Bounds resident artifact bytes (LRU eviction pressure point).
    ///
    /// # Panics
    ///
    /// Panics if `budget_bytes == 0`.
    pub fn with_budget_bytes(mut self, budget_bytes: usize) -> Self {
        assert!(budget_bytes > 0, "budget must be non-zero");
        self.budget_bytes = budget_bytes;
        self
    }

    /// Installs a deterministic [`FaultPlan`]: every model loaded from
    /// here on dispatches under its schedule, and the network front-end
    /// injects its connection faults. Inert by construction in
    /// production — nothing installs a plan outside tests and the
    /// `EIE_FAULTS` CLI gate.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// The serving policy each resident model runs under.
    pub fn server_config(&self) -> &ServerConfig {
        &self.server_config
    }

    /// Registers a `.eie` file under `name` without loading it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateName`] if the name is taken. The file
    /// is not read here: a missing or corrupt artifact surfaces as
    /// [`RegistryError::Load`] on first acquire.
    pub fn register_file(
        &self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
    ) -> Result<(), RegistryError> {
        self.register(name.into(), ModelSource::File(path.into()))
    }

    /// Registers an in-memory model under `name`, storing its serialized
    /// `.eie` image so eviction and re-load behave exactly as for a
    /// file-backed model.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateName`] if the name is taken.
    pub fn register_model(
        &self,
        name: impl Into<String>,
        model: &CompiledModel,
    ) -> Result<(), RegistryError> {
        self.register(name.into(), ModelSource::Bytes(model.to_bytes().into()))
    }

    fn register(&self, name: String, source: ModelSource) -> Result<(), RegistryError> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if inner.entries.iter().any(|e| e.name == name) {
            return Err(RegistryError::DuplicateName { name });
        }
        inner.entries.push(Entry {
            name,
            source,
            resident: None,
            last_used: 0,
        });
        Ok(())
    }

    /// Registered model names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("registry poisoned")
            .entries
            .iter()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Resolves `name` to its live server, loading the artifact (and
    /// evicting LRU cold models past the byte budget) if it is not
    /// resident. The returned `Arc` is a **lease**: while any clone is
    /// held, the model is pinned and cannot be evicted.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for an unregistered name,
    /// [`RegistryError::Load`] when the artifact cannot be read or
    /// validated.
    pub fn acquire(&self, name: &str) -> Result<Arc<ModelServer>, RegistryError> {
        // Servers evicted below are shut down *after* the lock releases:
        // the shutdown joins the model's workers, and that drain must
        // not stall unrelated acquires.
        let mut evicted: Vec<Arc<ModelServer>> = Vec::new();
        let mut guard = self.inner.lock().expect("registry poisoned");
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;

        let idx = inner
            .entries
            .iter()
            .position(|e| e.name == name)
            .ok_or_else(|| RegistryError::UnknownModel {
                name: name.to_owned(),
            })?;
        if let Some(resident) = &inner.entries[idx].resident {
            let server = Arc::clone(&resident.server);
            inner.entries[idx].last_used = tick;
            inner.counters.hits += 1;
            return Ok(server);
        }

        // Cold: load and validate the artifact, straight into the form
        // the servers' backend walks (`CompiledModel::load_served`: a
        // plan-walking backend gets its plans decoded from the layer
        // images, no encoded layer built). Loading under the lock
        // serializes cold starts — deliberate, so two requests racing to
        // the same cold model cannot double-load it. The residency
        // charge is the length of the image just read and checksummed:
        // the container admits no slack, so that is the model's
        // `artifact_bytes()` without re-encoding a layer to measure it.
        let config = self.server_config.resolved();
        let (model, bytes) = inner.entries[idx]
            .source
            .image()
            .map_err(ModelArtifactError::from)
            .and_then(|image| {
                let model = CompiledModel::load_served(&image, config.backend)?;
                Ok((model, image.len()))
            })
            .map_err(|source| RegistryError::Load {
                name: name.to_owned(),
                source,
            })?;

        // Make room: evict unpinned residents — degraded servers first
        // (they shed everything anyway, so their residency buys
        // nothing), then least recently used — until the newcomer fits
        // (or nothing evictable is left — pinned models are never
        // severed, so the budget is soft under a burst that pins
        // everything).
        loop {
            let resident_bytes: usize = inner
                .entries
                .iter()
                .filter_map(|e| e.resident.as_ref())
                .map(|r| r.bytes)
                .sum();
            if resident_bytes.saturating_add(bytes) <= self.budget_bytes {
                break;
            }
            let Some(victim) = inner
                .entries
                .iter_mut()
                .filter(|e| {
                    e.resident
                        .as_ref()
                        .is_some_and(|r| Arc::strong_count(&r.server) == 1)
                })
                .min_by_key(|e| {
                    let degraded = e.resident.as_ref().is_some_and(|r| r.server.is_degraded());
                    (!degraded, e.last_used)
                })
            else {
                break;
            };
            let resident = victim.resident.take().expect("victim is resident");
            evicted.push(resident.server);
            inner.counters.evictions += 1;
        }

        // The model was decoded on this thread before a worker spawns:
        // the lease handed out below is to a model that is resident in
        // full, not one that will decode its layers inside the first
        // request.
        let server = Arc::new(ModelServer::serve(model, config, self.fault_plan.clone()));
        inner.entries[idx].resident = Some(Resident {
            server: Arc::clone(&server),
            bytes,
        });
        inner.entries[idx].last_used = tick;
        inner.counters.loads += 1;
        drop(guard);

        if !evicted.is_empty() {
            // Eviction only ever picks servers whose last lease is the
            // registry's own Arc, so the unwrap-and-drain is a real
            // graceful shutdown. Its final tallies are folded into
            // `retired` so lifetime statistics survive residency churn.
            let mut retired = ServerStats::default();
            for victim in evicted {
                match Arc::try_unwrap(victim) {
                    Ok(victim) => retired.merge(&victim.shutdown()),
                    // A racer cloned the Arc between selection and here —
                    // impossible today (selection requires strong_count
                    // == 1 under the lock), kept non-fatal regardless.
                    Err(victim) => retired.merge(&victim.stats_snapshot()),
                }
            }
            self.inner
                .lock()
                .expect("registry poisoned")
                .retired
                .merge(&retired);
        }
        Ok(server)
    }

    /// True when `name` is resident right now (primarily for tests and
    /// occupancy reporting; residency can change the moment the lock
    /// releases).
    pub fn is_resident(&self, name: &str) -> bool {
        self.inner
            .lock()
            .expect("registry poisoned")
            .entries
            .iter()
            .any(|e| e.name == name && e.resident.is_some())
    }

    /// Occupancy and lifetime counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().expect("registry poisoned");
        RegistryStats {
            registered: inner.entries.len(),
            resident: inner
                .entries
                .iter()
                .filter(|e| e.resident.is_some())
                .count(),
            resident_bytes: inner
                .entries
                .iter()
                .filter_map(|e| e.resident.as_ref())
                .map(|r| r.bytes)
                .sum(),
            budget_bytes: self.budget_bytes,
            loads: inner.counters.loads,
            evictions: inner.counters.evictions,
            hits: inner.counters.hits,
        }
    }

    /// Live serving statistics — evicted models' final tallies plus a
    /// snapshot of every resident model — and the summed queue depth:
    /// the payload of a STATS response.
    pub fn serving_snapshot(&self) -> (ServerStats, usize) {
        let (mut stats, servers): (ServerStats, Vec<Arc<ModelServer>>) = {
            let inner = self.inner.lock().expect("registry poisoned");
            (
                inner.retired.clone(),
                inner
                    .entries
                    .iter()
                    .filter_map(|e| e.resident.as_ref())
                    .map(|r| Arc::clone(&r.server))
                    .collect(),
            )
        };
        // Snapshots are taken outside the registry lock so a slow stats
        // read cannot stall routing.
        let mut queued = 0;
        for server in &servers {
            stats.merge(&server.stats_snapshot());
            queued += server.pending();
        }
        (stats, queued)
    }

    /// Drains every resident model (graceful: queued requests are
    /// answered) and returns the merged lifetime statistics — evicted
    /// models included. Models stay registered; a later acquire
    /// re-loads them, and the lifetime tallies start over.
    pub fn drain(&self) -> ServerStats {
        let mut dropped: Vec<Arc<ModelServer>> = Vec::new();
        let mut stats;
        {
            let mut inner = self.inner.lock().expect("registry poisoned");
            stats = std::mem::take(&mut inner.retired);
            for entry in &mut inner.entries {
                if let Some(resident) = entry.resident.take() {
                    dropped.push(resident.server);
                }
            }
        }
        for server in dropped {
            match Arc::try_unwrap(server) {
                // No outstanding lease: a real graceful shutdown, whose
                // returned tallies include the drained tail.
                Ok(server) => stats.merge(&server.shutdown()),
                // Leased elsewhere: the leaseholder keeps the model
                // alive until it drops its Arc (Drop then closes and
                // joins). Take the best snapshot available now.
                Err(server) => stats.merge(&server.stats_snapshot()),
            }
        }
        stats
    }
}

impl Drop for ModelRegistry {
    /// Dropping the registry drains every resident model so worker
    /// pools never leak (same guarantee as [`ModelServer`]'s own Drop).
    fn drop(&mut self) {
        let _ = self.drain();
    }
}
