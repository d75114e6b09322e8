//! A coherent point-in-time view of everything the observability core
//! knows, and the **one list of sections** it is made of.
//!
//! A section is declared once: its record type carries the field list
//! ([`record!`](crate::record): JSON writer and parser), and that type's
//! [`SectionData`] impl carries what else the section means — how to tell it
//! is empty, its structural validation, and the synthetic metrics it folds
//! into the Prometheus exposition. The [`sections!`] list below names each
//! section once; the [`Snapshot`] struct and its JSON codec, [`Section`] (the
//! key of the one runtime switch, [`crate::Obs::set_enabled`], and of the
//! overhead gate's rows), [`Snapshot::metrics_only`], [`Snapshot::validate`]
//! and [`Snapshot::is_populated`] are all derived from it.

use std::fmt::Debug;

use crate::account::AccountingSnapshot;
use crate::audit::BalanceDecision;
use crate::events::Event;
use crate::heat::HeatEntry;
use crate::lock::LockClassSnapshot;
use crate::registry::{HistogramSnapshot, MetricId, ScalarSnapshot};
use crate::staleness::StalenessSnapshot;

/// What a snapshot section declares beyond its record fields.
pub trait SectionData {
    /// Whether the section carries no data (a tool mode that exists to show
    /// a section fails on an empty one).
    fn is_empty(&self) -> bool;

    /// Structural validation: the invariants the section's producer
    /// guarantees and its consumers rely on.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }

    /// Fold the section's headline numbers into the metric lists as
    /// synthetic series — the part of it the Prometheus text exposition can
    /// represent. Most sections have none.
    fn fold(
        &self,
        _counters: &mut Vec<ScalarSnapshot<u64>>,
        _gauges: &mut Vec<ScalarSnapshot<i64>>,
    ) {
    }
}

/// One row of a list-shaped section; `Vec<Row>` is the [`SectionData`].
pub trait Row {
    /// Check this row, and its order against the row before it.
    fn check(&self, prev: Option<&Self>) -> Result<(), String>;

    /// This row's share of [`SectionData::fold`].
    fn fold(
        &self,
        _counters: &mut Vec<ScalarSnapshot<u64>>,
        _gauges: &mut Vec<ScalarSnapshot<i64>>,
    ) {
    }
}

impl<T: Row> SectionData for Vec<T> {
    fn is_empty(&self) -> bool {
        Vec::is_empty(self)
    }

    fn validate(&self) -> Result<(), String> {
        let mut prev = None;
        for row in self {
            row.check(prev)?;
            prev = Some(row);
        }
        Ok(())
    }

    fn fold(
        &self,
        counters: &mut Vec<ScalarSnapshot<u64>>,
        gauges: &mut Vec<ScalarSnapshot<i64>>,
    ) {
        for row in self {
            row.fold(counters, gauges);
        }
    }
}

/// The ordering half of most [`Row::check`]s: `cur` must sort strictly
/// after the previous row's key.
pub(crate) fn ascending<K: PartialOrd + Debug>(
    prev: Option<K>,
    cur: K,
    what: &str,
) -> Result<(), String> {
    match prev {
        Some(p) if p >= cur => Err(format!("{what} {cur:?} does not follow {p:?}")),
        _ => Ok(()),
    }
}

macro_rules! sections {
    ($( $(#[$doc:meta])* $Var:ident $field:ident : $ty:ty $(= $layout:ident)? ),* $(,)?) => {
        crate::record! {
            /// One full observability snapshot. `PartialEq` + the exporter
            /// parsers in [`crate::export`] give exact round-trip tests.
            #[derive(Clone, Debug, Default, PartialEq)]
            pub struct Snapshot {
                /// Wall-clock capture time, µs since the Unix epoch.
                captured_unix_us: u64,
                /// Monotonic cluster uptime at capture, µs since the obs core was built.
                uptime_us: u64,
                $( $(#[$doc])* $field: $ty $(= $layout)?, )*
            }
        }

        /// One exported thing, by name: the key of [`crate::Obs::set_enabled`]
        /// and of the overhead gate's rows.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Section {
            $( $(#[$doc])* $Var, )*
            /// Sampled causal traces. Exported on their own (Perfetto), so not
            /// a snapshot member.
            Traces,
        }

        impl Section {
            /// Every section, in snapshot order.
            pub const ALL: &'static [Section] = &[$(Section::$Var,)* Section::Traces];

            /// The section's name: its key in the JSON snapshot.
            pub fn name(self) -> &'static str {
                match self {
                    $( Section::$Var => stringify!($field), )*
                    Section::Traces => "traces",
                }
            }
        }

        impl Snapshot {
            /// Whether `section` carries data in this snapshot.
            pub fn is_populated(&self, section: Section) -> bool {
                match section {
                    $( Section::$Var => !SectionData::is_empty(&self.$field), )*
                    Section::Traces => false,
                }
            }

            /// Run every section's structural validation; the error names the
            /// section. `volap-stat` exits non-zero on `Err`.
            pub fn validate(&self) -> Result<(), String> {
                $( SectionData::validate(&self.$field)
                    .map_err(|e| format!("{}: {e}", stringify!($field)))?; )*
                Ok(())
            }

            fn fold_sections(
                &self,
                counters: &mut Vec<ScalarSnapshot<u64>>,
                gauges: &mut Vec<ScalarSnapshot<i64>>,
            ) {
                $( SectionData::fold(&self.$field, counters, gauges); )*
            }
        }
    };
}

sections! {
    /// All counters, sorted by id.
    Counters counters: Vec<ScalarSnapshot<u64>> = rows,
    /// All gauges, sorted by id.
    Gauges gauges: Vec<ScalarSnapshot<i64>> = rows,
    /// All histograms, sorted by id (cumulative finite buckets).
    Histograms histograms: Vec<HistogramSnapshot> = rows,
    /// Recent events in global sequence order.
    Events events: Vec<Event> = rows,
    /// Per-shard heat, ordered by shard id.
    Heat heat: Vec<HeatEntry> = rows,
    /// Recent load-balance decisions in global sequence order.
    Audit audit: Vec<BalanceDecision> = rows,
    /// Per-class lock contention summaries, ordered by rank then name (the
    /// full wait/hold distributions are in `histograms` as
    /// `volap_lock_{wait,hold}_seconds{class=..}`).
    Locks locks: Vec<LockClassSnapshot> = rows,
    /// Measured image-staleness samples.
    Staleness staleness: StalenessSnapshot,
    /// Per-principal workload accounting: exact totals plus the
    /// per-dimension top-K tables.
    Accounting accounting: AccountingSnapshot,
}

impl Snapshot {
    /// This snapshot reduced to what the Prometheus text exposition can
    /// represent: counters, gauges and histograms, with every other section
    /// stripped and its [`SectionData::fold`] series *folded in* — capture
    /// time and uptime (`volap_captured_unix_microseconds`,
    /// `volap_uptime_microseconds`) and the exact per-principal accounting
    /// totals —
    /// so the exposition still carries the headline telemetry. Folding is
    /// idempotent: re-folding an already-folded snapshot (the exporter
    /// round-trip) changes nothing.
    pub fn metrics_only(&self) -> Snapshot {
        let mut out = Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
            ..Snapshot::default()
        };
        if !out.gauges.iter().any(|g| g.id.name == "volap_captured_unix_microseconds") {
            for (name, value) in [
                ("volap_captured_unix_microseconds", self.captured_unix_us),
                ("volap_uptime_microseconds", self.uptime_us),
            ] {
                out.gauges.push(ScalarSnapshot { id: MetricId::plain(name), value: value as i64 });
            }
            self.fold_sections(&mut out.counters, &mut out.gauges);
            out.counters.sort_by(|a, b| a.id.cmp(&b.id));
            out.gauges.sort_by(|a, b| a.id.cmp(&b.id));
        }
        out
    }

    /// Sum of all counters with this name, across labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.id.name == name).map(|c| c.value).sum()
    }

    /// Sum of all gauges with this name, across labels.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().filter(|g| g.id.name == name).map(|g| g.value).sum()
    }

    /// The first histogram with this name (unlabeled histograms are unique).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.id.name == name)
    }

    /// Events of one kind.
    pub fn events_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The lock-class summary with this name.
    pub fn lock_class(&self, name: &str) -> Option<&LockClassSnapshot> {
        self.locks.iter().find(|l| l.class == name)
    }
}
