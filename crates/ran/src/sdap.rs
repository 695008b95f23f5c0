//! SDAP: QoS-flow-to-DRB mapping.
//!
//! The SDAP layer in the CU-UP maps each downlink packet, by its QoS Flow
//! Identifier, to a data radio bearer (paper §2). L4Span keeps a copy of
//! this mapping for its own five-tuple → (UE, DRB) table; here is the
//! authoritative one.

use crate::ids::{DrbId, Qfi};
use crate::table::IdTable;

/// SDAP mapping state for one UE.
#[derive(Debug, Clone)]
pub struct SdapEntity {
    map: IdTable<Qfi, DrbId>,
    default_drb: DrbId,
}

impl SdapEntity {
    /// Create with a default DRB for unmapped QFIs.
    pub fn new(default_drb: DrbId) -> SdapEntity {
        SdapEntity {
            map: IdTable::new(),
            default_drb,
        }
    }

    /// Install or replace a QFI→DRB rule.
    pub fn map_qfi(&mut self, qfi: Qfi, drb: DrbId) {
        self.map.insert(qfi, drb);
    }

    /// Resolve the DRB for a QFI (falling back to the default DRB, as a
    /// gNB does for the default QoS flow).
    pub fn drb_for(&self, qfi: Qfi) -> DrbId {
        self.map.get(qfi).copied().unwrap_or(self.default_drb)
    }

    /// The configured default DRB.
    pub fn default_drb(&self) -> DrbId {
        self.default_drb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_and_default() {
        let mut s = SdapEntity::new(DrbId(0));
        s.map_qfi(Qfi(5), DrbId(1));
        assert_eq!(s.drb_for(Qfi(5)), DrbId(1));
        assert_eq!(s.drb_for(Qfi(9)), DrbId(0));
        assert_eq!(s.default_drb(), DrbId(0));
        s.map_qfi(Qfi(5), DrbId(2));
        assert_eq!(s.drb_for(Qfi(5)), DrbId(2), "rules are replaceable");
    }
}
