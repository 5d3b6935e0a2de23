//! The dataset catalog: named, resident point sets with catalog-owned
//! shared indexes.
//!
//! A one-shot `maxrs` invocation re-reads its CSV and rebuilds every index
//! per process; the catalog is what makes the service fast instead.  Each
//! dataset wraps the loaded points/sites in a
//! [`VersionedDataset`] whose resident index lives as long as the dataset
//! does, so every structure (sorted event list, Fenwick tree, per-radius
//! hash grids) is built at most once per generation — the amortization the
//! paper's batched setting (Theorem 1.3) argues for, extended from one
//! batch to the whole serving process.
//!
//! Datasets come in two ambient dimensions: **planar** (`x,y[,weight
//! [,color]]` CSV, the 2-D solvers) and **line** (`x[,weight]` CSV, the 1-D
//! solvers — most importantly the index-shared Theorem 1.3 batched interval
//! solver, which answers every warm query straight off the resident sorted
//! event list).
//!
//! Every (re)load takes a fresh **epoch** from a catalog-global counter,
//! and every resident dataset is **versioned and mutable**
//! ([`mrs_core::engine::VersionedDataset`]): `POST
//! /datasets/{name}/insert|delete` bodies append to the dataset's delta
//! log, bumping a per-dataset version without touching the epoch.  The
//! answer cache keys on *(epoch, version)*: a reload invalidates wholesale
//! (new epoch), a mutation invalidates **fine-grained** (new version, same
//! epoch) — cached answers for other datasets and other versions stay
//! untouched, and index structures are derived incrementally instead of
//! rebuilt (see the engine's `versioned` module).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use mrs_core::engine::{MutationReport, VersionedDataset};
use mrs_core::input::{self, LoadError};

/// A resident dataset in ambient dimension `D`: a versioned, mutable point
/// set whose index structures are owned by the catalog and derived
/// incrementally across versions.
pub struct DatasetCore<const D: usize> {
    name: String,
    epoch: u64,
    versioned: VersionedDataset<D>,
    requests: AtomicU64,
}

impl<const D: usize> DatasetCore<D> {
    /// The catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The load epoch (unique per catalog load, monotone over time).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The versioned dataset (and through it, the current view, its live
    /// sets and its index).
    pub fn versioned(&self) -> &VersionedDataset<D> {
        &self.versioned
    }

    /// Number of live weighted points at the current version.
    pub fn point_count(&self) -> usize {
        self.versioned.view().point_count()
    }

    /// Number of live colored sites at the current version.
    pub fn site_count(&self) -> usize {
        self.versioned.view().site_count()
    }

    /// Queries answered against this dataset so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Counts `n` more answered queries.
    pub fn count_requests(&self, n: u64) {
        self.requests.fetch_add(n, Ordering::Relaxed);
    }
}

/// A resident dataset of either supported ambient dimension.
pub enum Dataset {
    /// A planar (`D = 2`) dataset: weighted points and optional colored
    /// sites.
    Planar(DatasetCore<2>),
    /// A line (`D = 1`) dataset: weighted points on the number line.
    Line(DatasetCore<1>),
}

impl Dataset {
    /// The catalog name.
    pub fn name(&self) -> &str {
        match self {
            Dataset::Planar(core) => core.name(),
            Dataset::Line(core) => core.name(),
        }
    }

    /// The ambient dimension (1 or 2).
    pub fn dim(&self) -> usize {
        match self {
            Dataset::Planar(_) => 2,
            Dataset::Line(_) => 1,
        }
    }

    /// The load epoch.
    pub fn epoch(&self) -> u64 {
        match self {
            Dataset::Planar(core) => core.epoch(),
            Dataset::Line(core) => core.epoch(),
        }
    }

    /// Number of weighted points.
    pub fn point_count(&self) -> usize {
        match self {
            Dataset::Planar(core) => core.point_count(),
            Dataset::Line(core) => core.point_count(),
        }
    }

    /// Number of colored sites.
    pub fn site_count(&self) -> usize {
        match self {
            Dataset::Planar(core) => core.site_count(),
            Dataset::Line(core) => core.site_count(),
        }
    }

    /// Queries answered against this dataset so far.
    pub fn requests(&self) -> u64 {
        match self {
            Dataset::Planar(core) => core.requests(),
            Dataset::Line(core) => core.requests(),
        }
    }

    /// Index structures built so far across every generation and version
    /// (see [`mrs_core::engine::VersionedDataset::builds`]).
    pub fn index_builds(&self) -> usize {
        match self {
            Dataset::Planar(core) => core.versioned().builds(),
            Dataset::Line(core) => core.versioned().builds(),
        }
    }

    /// Total time spent building index structures.
    pub fn index_build_time(&self) -> Duration {
        match self {
            Dataset::Planar(core) => core.versioned().build_time(),
            Dataset::Line(core) => core.versioned().build_time(),
        }
    }

    /// The current dataset version (bumped by every mutation, monotone).
    pub fn version(&self) -> u64 {
        match self {
            Dataset::Planar(core) => core.versioned().version(),
            Dataset::Line(core) => core.versioned().version(),
        }
    }

    /// Tombstones plus live delta inserts at the current version (0 right
    /// after a load or a compaction).
    pub fn delta_size(&self) -> usize {
        match self {
            Dataset::Planar(core) => core.versioned().view().delta_size(),
            Dataset::Line(core) => core.versioned().view().delta_size(),
        }
    }

    /// Compactions performed since the dataset was loaded.
    pub fn compactions(&self) -> usize {
        match self {
            Dataset::Planar(core) => core.versioned().compactions(),
            Dataset::Line(core) => core.versioned().compactions(),
        }
    }

    /// Total wall-clock time spent materializing compacted generations.
    pub fn compaction_time(&self) -> Duration {
        match self {
            Dataset::Planar(core) => core.versioned().compaction_time(),
            Dataset::Line(core) => core.versioned().compaction_time(),
        }
    }

    /// Applies an **insert** mutation body: the dataset's own CSV record
    /// shape, one insert per record (`x,y[,weight[,color]]` for planar
    /// datasets, `x[,weight]` for 1-D ones).  One call is one version bump.
    pub fn insert_csv(&self, csv: &str) -> Result<MutationReport, CatalogError> {
        match self {
            Dataset::Planar(core) => {
                let mutations = input::parse_planar_inserts_csv(csv)?;
                if mutations.is_empty() {
                    return Err(CatalogError::EmptyMutation);
                }
                Ok(core.versioned().apply(&mutations))
            }
            Dataset::Line(core) => {
                let mutations = input::parse_line_inserts_csv(csv)?;
                if mutations.is_empty() {
                    return Err(CatalogError::EmptyMutation);
                }
                Ok(core.versioned().apply(&mutations))
            }
        }
    }

    /// Applies a **delete** mutation body: one coordinate record per line
    /// (`x,y` for planar datasets, `x` for 1-D ones); each deletes the
    /// first live point (and first live site) at exactly those
    /// coordinates.  One call is one version bump.
    pub fn delete_csv(&self, csv: &str) -> Result<MutationReport, CatalogError> {
        match self {
            Dataset::Planar(core) => {
                let mutations = input::parse_planar_deletes_csv(csv)?;
                if mutations.is_empty() {
                    return Err(CatalogError::EmptyMutation);
                }
                Ok(core.versioned().apply(&mutations))
            }
            Dataset::Line(core) => {
                let mutations = input::parse_line_deletes_csv(csv)?;
                if mutations.is_empty() {
                    return Err(CatalogError::EmptyMutation);
                }
                Ok(core.versioned().apply(&mutations))
            }
        }
    }

    /// The planar core, if this is a planar dataset.
    pub fn as_planar(&self) -> Option<&DatasetCore<2>> {
        match self {
            Dataset::Planar(core) => Some(core),
            Dataset::Line(_) => None,
        }
    }

    /// The line core, if this is a line dataset.
    pub fn as_line(&self) -> Option<&DatasetCore<1>> {
        match self {
            Dataset::Line(core) => Some(core),
            Dataset::Planar(_) => None,
        }
    }
}

/// Why a dataset could not be registered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogError {
    /// The dataset name contains characters outside `[A-Za-z0-9._-]` (it
    /// appears in URL paths) or is empty.
    BadName {
        /// The offending name.
        name: String,
    },
    /// The CSV text did not parse.
    Load(LoadError),
    /// The CSV parsed but held no points at all.
    Empty,
    /// A mutation body parsed but held no records.
    EmptyMutation,
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::BadName { name } => {
                write!(f, "invalid dataset name `{name}` (use [A-Za-z0-9._-]+)")
            }
            CatalogError::Load(e) => write!(f, "{e}"),
            CatalogError::Empty => write!(f, "dataset holds no points"),
            CatalogError::EmptyMutation => write!(f, "mutation body holds no records"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<LoadError> for CatalogError {
    fn from(e: LoadError) -> Self {
        CatalogError::Load(e)
    }
}

/// `true` for names safe to appear in `/datasets/{name}` URLs.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b))
}

/// The catalog: named datasets behind one `RwLock`d map (reads vastly
/// outnumber loads) and the global epoch counter.
pub struct Catalog {
    datasets: RwLock<BTreeMap<String, Arc<Dataset>>>,
    next_epoch: AtomicU64,
}

impl Default for Catalog {
    fn default() -> Self {
        Self::new()
    }
}

impl Catalog {
    /// An empty catalog.  Epochs start at 1 so `0` can mean "no epoch".
    pub fn new() -> Self {
        Self { datasets: RwLock::new(BTreeMap::new()), next_epoch: AtomicU64::new(1) }
    }

    fn insert(&self, name: &str, dataset: Dataset) -> Arc<Dataset> {
        let dataset = Arc::new(dataset);
        self.datasets
            .write()
            .expect("catalog lock poisoned")
            .insert(name.to_string(), Arc::clone(&dataset));
        dataset
    }

    fn next_epoch(&self) -> u64 {
        self.next_epoch.fetch_add(1, Ordering::Relaxed)
    }

    /// Loads (or replaces) the named planar dataset from batch CSV text
    /// (`x,y[,weight[,color]]` records — see
    /// [`mrs_core::input::parse_point_set_csv`]).  Replacement bumps the
    /// epoch; in-flight requests against the old `Arc`s finish safely on
    /// the old contents.
    pub fn load_planar_csv(&self, name: &str, csv: &str) -> Result<Arc<Dataset>, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadName { name: name.to_string() });
        }
        let set = input::parse_point_set_csv(csv)?;
        if set.points.is_empty() {
            return Err(CatalogError::Empty);
        }
        Ok(self.insert(
            name,
            Dataset::Planar(DatasetCore {
                name: name.to_string(),
                epoch: self.next_epoch(),
                versioned: VersionedDataset::new(set.points, set.sites),
                requests: AtomicU64::new(0),
            }),
        ))
    }

    /// Loads (or replaces) the named line dataset from 1-D CSV text
    /// (`x[,weight]` records — see [`mrs_core::input::parse_line_csv`]).
    pub fn load_line_csv(&self, name: &str, csv: &str) -> Result<Arc<Dataset>, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadName { name: name.to_string() });
        }
        let points = input::parse_line_csv(csv)?;
        if points.is_empty() {
            return Err(CatalogError::Empty);
        }
        Ok(self.insert(
            name,
            Dataset::Line(DatasetCore {
                name: name.to_string(),
                epoch: self.next_epoch(),
                versioned: VersionedDataset::new(points, Vec::new()),
                requests: AtomicU64::new(0),
            }),
        ))
    }

    /// The named dataset, if loaded.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets.read().expect("catalog lock poisoned").get(name).cloned()
    }

    /// Every resident dataset, in name order.
    pub fn datasets(&self) -> Vec<Arc<Dataset>> {
        self.datasets.read().expect("catalog lock poisoned").values().cloned().collect()
    }

    /// Number of resident datasets.
    pub fn len(&self) -> usize {
        self.datasets.read().expect("catalog lock poisoned").len()
    }

    /// `true` when nothing is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::input::LoadErrorKind;

    #[test]
    fn load_get_and_replace_bump_epochs() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        let first = catalog.load_planar_csv("demo", "0,0\n1,1,2.5\n2,2,1,7\n").unwrap();
        assert_eq!(first.name(), "demo");
        assert_eq!(first.dim(), 2);
        assert_eq!(first.point_count(), 3);
        assert_eq!(first.site_count(), 1);
        assert_eq!(first.requests(), 0);
        let fetched = catalog.get("demo").unwrap();
        assert_eq!(fetched.epoch(), first.epoch());
        assert!(catalog.get("nope").is_none());

        let second = catalog.load_planar_csv("demo", "5,5\n").unwrap();
        assert!(second.epoch() > first.epoch(), "reload must bump the epoch");
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.get("demo").unwrap().point_count(), 1);
        // The replaced dataset's Arcs stay valid for in-flight requests.
        assert_eq!(first.point_count(), 3);
    }

    #[test]
    fn line_datasets_live_alongside_planar_ones() {
        let catalog = Catalog::new();
        let line = catalog.load_line_csv("ticks", "0\n1,2\n5.5\n").unwrap();
        assert_eq!(line.dim(), 1);
        assert_eq!(line.point_count(), 3);
        assert_eq!(line.site_count(), 0);
        assert!(line.as_line().is_some());
        assert!(line.as_planar().is_none());
        let planar = catalog.load_planar_csv("map", "0,0\n").unwrap();
        assert!(planar.as_planar().is_some());
        assert_eq!(catalog.len(), 2);
        // A line dataset can be replaced by a planar one under the same name.
        let swapped = catalog.load_planar_csv("ticks", "1,1\n").unwrap();
        assert_eq!(swapped.dim(), 2);
        assert!(swapped.epoch() > line.epoch());
        assert!(catalog.load_line_csv("bad", "1,2,3\n").is_err());
    }

    #[test]
    fn mutation_bodies_update_points_and_sites() {
        let catalog = Catalog::new();
        let csv: String = "0,0,1,0\n1,1,2\n".to_string()
            + &(2..20).map(|i| format!("{i},{i}\n")).collect::<String>();
        let dataset = catalog.load_planar_csv("d", &csv).unwrap();
        assert_eq!(dataset.version(), 1);
        assert_eq!(dataset.delta_size(), 0);
        let report = dataset.insert_csv("50,50,3,5\n51,51\n").unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(report.outcome.inserted, 2);
        assert_eq!(dataset.point_count(), 22);
        assert_eq!(dataset.site_count(), 2);
        assert!(dataset.delta_size() > 0, "small deltas stay resident, not compacted");
        let report = dataset.delete_csv("0,0\n99,99\n").unwrap();
        assert_eq!(report.version, 3);
        assert_eq!(report.outcome.deleted, 1);
        assert_eq!(report.outcome.missed, 1);
        assert_eq!(dataset.point_count(), 21);
        assert_eq!(dataset.site_count(), 1, "the site at (0,0) died with its point");
        // Bad and empty bodies are typed errors, not version bumps.
        assert!(matches!(dataset.insert_csv("zap\n"), Err(CatalogError::Load(_))));
        assert!(matches!(dataset.insert_csv("# nothing\n"), Err(CatalogError::EmptyMutation)));
        assert!(matches!(dataset.delete_csv("1,2,3\n"), Err(CatalogError::Load(_))));
        assert_eq!(dataset.version(), 3);

        // 1-D datasets mutate through their own record shape.
        let line = catalog.load_line_csv("ticks", "0\n1,2\n").unwrap();
        let report = line.insert_csv("5,4\n").unwrap();
        assert_eq!(report.outcome.inserted, 1);
        assert_eq!(line.point_count(), 3);
        assert_eq!(line.delete_csv("0\n").unwrap().outcome.deleted, 1);
        assert!(matches!(line.delete_csv("1,2\n"), Err(CatalogError::Load(_))));
        let rendered = CatalogError::EmptyMutation.to_string();
        assert!(rendered.contains("no records"), "{rendered}");
    }

    #[test]
    fn rejects_bad_names_and_bad_csv() {
        let catalog = Catalog::new();
        for bad in ["", "a b", "über", "x/y", &"n".repeat(129)] {
            assert!(
                matches!(catalog.load_planar_csv(bad, "0,0\n"), Err(CatalogError::BadName { .. })),
                "{bad:?}"
            );
        }
        assert!(valid_name("taxi_2024.v1-final"));
        assert!(matches!(
            catalog.load_planar_csv("d", "not,a,number,set,at,all\n"),
            Err(CatalogError::Load(_))
        ));
        assert!(matches!(
            catalog.load_planar_csv("d", "# only comments\n"),
            Err(CatalogError::Empty)
        ));
        assert!(matches!(catalog.load_line_csv("d", "\n"), Err(CatalogError::Empty)));
        let rendered =
            CatalogError::Load(LoadError { line: 3, kind: LoadErrorKind::NegativeWeight })
                .to_string();
        assert!(rendered.contains("line 3"), "{rendered}");
    }
}
