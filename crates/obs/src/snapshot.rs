//! A coherent point-in-time view of everything the observability core
//! knows, and the **one list of sections** it is made of.
//!
//! A section is declared once: its record type carries the field list
//! ([`record!`](crate::record): the JSON writer), and that type's
//! [`SectionData`] impl carries what else the section means — how to tell it
//! is empty, and its structural validation. The `sections!` list below names
//! each section once; the [`Snapshot`] struct and its JSON writer,
//! [`Section`], [`Snapshot::validate`] and [`Snapshot::is_populated`] are
//! all derived from it.

use std::fmt::Debug;

use crate::audit::BalanceDecision;
use crate::events::Event;
use crate::registry::{HistogramSnapshot, ScalarSnapshot};
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
}

/// One row of a list-shaped section; `Vec<Row>` is the [`SectionData`].
pub trait Row {
    /// Check this row, and its order against the row before it.
    fn check(&self, prev: Option<&Self>) -> Result<(), String>;
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
            /// One full observability snapshot, rendered by [`crate::export`].
            #[derive(Clone, Debug, Default, PartialEq)]
            pub struct Snapshot {
                /// Wall-clock capture time, µs since the Unix epoch.
                captured_unix_us: u64,
                /// Monotonic cluster uptime at capture, µs since the obs core was built.
                uptime_us: u64,
                $( $(#[$doc])* $field: $ty $(= $layout)?, )*
            }
        }

        /// One exported thing, by name.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Section {
            $( $(#[$doc])* $Var, )*
        }

        impl Section {
            /// Every section, in snapshot order.
            pub const ALL: &'static [Section] = &[$(Section::$Var,)*];

            /// The section's name: its key in the JSON snapshot.
            pub fn name(self) -> &'static str {
                match self {
                    $( Section::$Var => stringify!($field), )*
                }
            }
        }

        impl Snapshot {
            /// Whether `section` carries data in this snapshot.
            pub fn is_populated(&self, section: Section) -> bool {
                match section {
                    $( Section::$Var => !SectionData::is_empty(&self.$field), )*
                }
            }

            /// Run every section's structural validation; the error names the
            /// section. `volap-stat` exits non-zero on `Err`.
            pub fn validate(&self) -> Result<(), String> {
                $( SectionData::validate(&self.$field)
                    .map_err(|e| format!("{}: {e}", stringify!($field)))?; )*
                Ok(())
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
    /// Recent load-balance decisions in global sequence order.
    Audit audit: Vec<BalanceDecision> = rows,
    /// Measured image-staleness samples.
    Staleness staleness: StalenessSnapshot,
}

impl Snapshot {
    /// Sum of all counters with this name, across labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.id.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Sum of all gauges with this name, across labels.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .filter(|g| g.id.name == name)
            .map(|g| g.value)
            .sum()
    }

    /// The first histogram with this name (unlabeled histograms are unique).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.id.name == name)
    }

    /// Events of one kind.
    pub fn events_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}
