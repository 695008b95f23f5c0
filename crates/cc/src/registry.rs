//! Typed congestion-control selection: the [`CcKind`] enum, its
//! [`FromStr`] parser, and the name → factory registry that replaces the
//! old stringly `match cc.as_str()` construction (unknown names used to
//! panic deep inside the harness; now they surface as a typed
//! [`UnknownCc`] error at parse time).
//!
//! The registry is the single source of truth for which controllers
//! exist, what they are called (including aliases), and how to build
//! them; `CcKind::from_str` and [`CcKind::make`] both resolve through it.

use std::fmt;
use std::str::FromStr;

use crate::cc::CongestionControl;

/// The congestion controllers the paper evaluates, as a typed selector.
///
/// Parse one from a paper name with [`FromStr`] (`"reno"`, `"cubic"`,
/// `"prague"`, `"bbr"`, `"bbr2"`/`"bbrv2"`); build the boxed controller
/// with [`CcKind::make`].
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcKind {
    /// TCP Reno (RFC 5681 AIMD, classic ECN).
    Reno,
    /// CUBIC (RFC 9438, classic ECN).
    Cubic,
    /// TCP Prague (DCTCP-style scalable response, ECT(1), AccECN).
    Prague,
    /// TCP Prague with classic-ECN / bleaching fallback armed: detects
    /// RFC 3168 single-queue marking or mid-path ECT bleaching and
    /// permanently switches to Reno-friendly dynamics.
    PragueFallback,
    /// BBRv1 (model-based, ECN-oblivious).
    Bbr,
    /// BBRv2 (adds the DCTCP/L4S-like CE response, ECT(1)).
    Bbr2,
    /// NADA (RFC 8698): the IETF rmcat interactive-media controller —
    /// aggregate delay + mark signal, gradual PI update, accelerated
    /// ramp-up; rate-paced, ECT(1).
    Nada,
    /// The NADA dynamics with a slice of the rate reserved for
    /// sliding-window FEC repair packets: the controller backing the
    /// loss-*repairing* media endpoint (`TransportSpec::FecMedia`).
    FecMedia,
}

/// One registry row: a kind, its canonical name, accepted aliases, and
/// the boxed-controller factory (`mss` is payload bytes per segment).
pub struct CcEntry {
    /// The typed selector this row resolves to.
    pub kind: CcKind,
    /// Canonical paper name.
    pub name: &'static str,
    /// Additional accepted spellings.
    pub aliases: &'static [&'static str],
    /// Build the controller.
    pub factory: fn(usize) -> Box<dyn CongestionControl>,
}

/// The full controller registry, in canonical order.
pub const REGISTRY: &[CcEntry] = &[
    CcEntry {
        kind: CcKind::Reno,
        name: "reno",
        aliases: &[],
        factory: |mss| Box::new(crate::reno::Reno::new(mss)),
    },
    CcEntry {
        kind: CcKind::Cubic,
        name: "cubic",
        aliases: &[],
        factory: |mss| Box::new(crate::cubic::Cubic::new(mss)),
    },
    CcEntry {
        kind: CcKind::Prague,
        name: "prague",
        aliases: &[],
        factory: |mss| Box::new(crate::prague::Prague::new(mss)),
    },
    CcEntry {
        kind: CcKind::PragueFallback,
        name: "prague-fallback",
        aliases: &["prague_fallback"],
        factory: |mss| Box::new(crate::prague::Prague::with_fallback(mss)),
    },
    CcEntry {
        kind: CcKind::Bbr,
        name: "bbr",
        aliases: &[],
        factory: |mss| Box::new(crate::bbr::Bbr::new(mss)),
    },
    CcEntry {
        kind: CcKind::Bbr2,
        name: "bbr2",
        aliases: &["bbrv2"],
        factory: |mss| Box::new(crate::bbr2::Bbr2::new(mss)),
    },
    CcEntry {
        kind: CcKind::Nada,
        name: "nada",
        aliases: &[],
        factory: |mss| Box::new(crate::nada::NadaCc::new(mss)),
    },
    CcEntry {
        kind: CcKind::FecMedia,
        name: "fec-media",
        aliases: &["fec_media"],
        factory: |mss| Box::new(crate::nada::NadaCc::new_fec_media(mss)),
    },
];

/// Error for a congestion-control name the registry does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCc {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownCc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown congestion control {:?} (known: {})",
            self.name,
            CcKind::names().join(", ")
        )
    }
}

impl std::error::Error for UnknownCc {}

impl CcKind {
    /// Every registered kind, in canonical order.
    pub fn all() -> impl Iterator<Item = CcKind> {
        REGISTRY.iter().map(|e| e.kind)
    }

    /// Canonical names, in canonical order.
    pub fn names() -> Vec<&'static str> {
        REGISTRY.iter().map(|e| e.name).collect()
    }

    fn entry(self) -> &'static CcEntry {
        REGISTRY
            .iter()
            .find(|e| e.kind == self)
            .expect("every CcKind variant has a registry row")
    }

    /// Canonical paper name.
    pub fn name(self) -> &'static str {
        self.entry().name
    }

    /// Build the boxed controller. `mss` is payload bytes per segment.
    pub fn make(self, mss: usize) -> Box<dyn CongestionControl> {
        (self.entry().factory)(mss)
    }
}

impl fmt::Display for CcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CcKind {
    type Err = UnknownCc;

    fn from_str(s: &str) -> Result<CcKind, UnknownCc> {
        REGISTRY
            .iter()
            .find(|e| e.name == s || e.aliases.contains(&s))
            .map(|e| e.kind)
            .ok_or_else(|| UnknownCc {
                name: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_name_round_trips() {
        for kind in CcKind::all() {
            assert_eq!(kind.name().parse::<CcKind>().unwrap(), kind);
        }
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!("bbrv2".parse::<CcKind>().unwrap(), CcKind::Bbr2);
        assert_eq!("fec_media".parse::<CcKind>().unwrap(), CcKind::FecMedia);
        assert_eq!("nada".parse::<CcKind>().unwrap(), CcKind::Nada);
    }

    #[test]
    fn unknown_name_is_a_typed_error_not_a_panic() {
        let err = "vegas".parse::<CcKind>().unwrap_err();
        assert_eq!(err.name, "vegas");
        let msg = err.to_string();
        assert!(msg.contains("vegas") && msg.contains("cubic"), "{msg}");
    }

    #[test]
    fn factories_build_working_controllers() {
        for kind in CcKind::all() {
            let cc = kind.make(1400);
            assert!(cc.cwnd() > 0, "{kind}: initial window");
        }
    }
}
