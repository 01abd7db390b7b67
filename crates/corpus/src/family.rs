//! Exploit-kit families and their CVE inventory (paper Fig. 2).

use serde::Serialize;
use std::fmt;

/// The four exploit-kit families the paper focuses on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum KitFamily {
    /// Sweet Orange exploit kit.
    SweetOrange,
    /// Angler exploit kit.
    Angler,
    /// RIG exploit kit.
    Rig,
    /// Nuclear exploit kit.
    Nuclear,
}

impl KitFamily {
    /// All families, in the paper's Fig. 2 order.
    pub const ALL: [KitFamily; 4] = [
        KitFamily::SweetOrange,
        KitFamily::Angler,
        KitFamily::Rig,
        KitFamily::Nuclear,
    ];

    /// Human-readable name as used in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KitFamily::SweetOrange => "Sweet Orange",
            KitFamily::Angler => "Angler",
            KitFamily::Rig => "RIG",
            KitFamily::Nuclear => "Nuclear",
        }
    }

    /// Short identifier used in signature names (`NEK.sig1`, `ANG.sig2`, ...
    /// in the paper's Fig. 12).
    #[must_use]
    pub fn short_code(self) -> &'static str {
        match self {
            KitFamily::SweetOrange => "SWO",
            KitFamily::Angler => "ANG",
            KitFamily::Rig => "RIG",
            KitFamily::Nuclear => "NEK",
        }
    }

    /// Stable one-byte wire code: the family's index in [`KitFamily::ALL`].
    /// Snapshots and the scan protocol both carry it, so the order is a
    /// format.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            KitFamily::SweetOrange => 0,
            KitFamily::Angler => 1,
            KitFamily::Rig => 2,
            KitFamily::Nuclear => 3,
        }
    }

    /// Inverse of [`KitFamily::code`]; unknown codes are `None`.
    #[must_use]
    pub fn from_code(code: u8) -> Option<KitFamily> {
        KitFamily::ALL.get(usize::from(code)).copied()
    }

    /// Whether the kit performs an anti-virus presence check before
    /// exploiting (Fig. 2, "AV check" column; as of September 2014).
    #[must_use]
    pub fn has_av_check(self) -> bool {
        !matches!(self, KitFamily::SweetOrange)
    }

    /// The CVE inventory of the kit as of September 2014 (paper Fig. 2).
    #[must_use]
    pub fn cve_inventory(self) -> Vec<Cve> {
        use Component::*;
        match self {
            KitFamily::SweetOrange => vec![
                Cve::new("CVE-2014-0515", Flash),
                Cve::new("CVE-UNKNOWN-JAVA", Java),
                Cve::new("CVE-2013-2551", InternetExplorer),
                Cve::new("CVE-2014-0322", InternetExplorer),
            ],
            KitFamily::Angler => vec![
                Cve::new("CVE-2014-0507", Flash),
                Cve::new("CVE-2014-0515", Flash),
                Cve::new("CVE-2013-0074", Silverlight),
                Cve::new("CVE-2013-0422", Java),
                Cve::new("CVE-2013-2551", InternetExplorer),
            ],
            KitFamily::Rig => vec![
                Cve::new("CVE-2014-0497", Flash),
                Cve::new("CVE-2013-0074", Silverlight),
                Cve::new("CVE-UNKNOWN-JAVA", Java),
                Cve::new("CVE-2013-2551", InternetExplorer),
            ],
            KitFamily::Nuclear => vec![
                Cve::new("CVE-2013-5331", Flash),
                Cve::new("CVE-2014-0497", Flash),
                Cve::new("CVE-2013-2423", Java),
                Cve::new("CVE-2013-2460", Java),
                Cve::new("CVE-2010-0188", AdobeReader),
                Cve::new("CVE-2013-2551", InternetExplorer),
            ],
        }
    }
}

impl fmt::Display for KitFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The browser or plug-in component a CVE targets (columns of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Component {
    /// Adobe Flash Player.
    Flash,
    /// Microsoft Silverlight.
    Silverlight,
    /// Oracle Java plug-in.
    Java,
    /// Adobe Reader.
    AdobeReader,
    /// Internet Explorer itself.
    InternetExplorer,
}

impl Component {
    /// All components, in the paper's column order.
    pub const ALL: [Component; 5] = [
        Component::Flash,
        Component::Silverlight,
        Component::Java,
        Component::AdobeReader,
        Component::InternetExplorer,
    ];

    /// Column header name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Component::Flash => "Flash",
            Component::Silverlight => "Silverlight",
            Component::Java => "Java",
            Component::AdobeReader => "Adobe Reader",
            Component::InternetExplorer => "Internet Explorer",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One exploited vulnerability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Cve {
    /// The CVE identifier (or `CVE-UNKNOWN-*` where the paper could not
    /// determine it).
    pub id: &'static str,
    /// The component the exploit targets.
    pub component: Component,
}

impl Cve {
    /// Create a CVE entry.
    #[must_use]
    pub const fn new(id: &'static str, component: Component) -> Self {
        Cve { id, component }
    }

    /// An identifier usable inside generated JavaScript function names
    /// (`cve_2013_2551`).
    #[must_use]
    pub fn slug(&self) -> String {
        self.id.to_ascii_lowercase().replace('-', "_")
    }
}

impl fmt::Display for Cve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id, self.component)
    }
}

/// Render the CVE-per-kit table of the paper's Fig. 2 as text.
#[must_use]
pub fn cve_table() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<24} {:<14} {:<24} {:<14} {:<20} {}\n",
        "EK", "Flash", "Silverlight", "Java", "Adobe Reader", "Internet Explorer", "AV check"
    ));
    for family in KitFamily::ALL {
        let mut cols: Vec<String> = Vec::new();
        for component in Component::ALL {
            let cves: Vec<&str> = family
                .cve_inventory()
                .iter()
                .filter(|c| c.component == component)
                .map(|c| c.id)
                .collect();
            cols.push(if cves.is_empty() {
                "-".to_string()
            } else {
                cves.join(", ")
            });
        }
        out.push_str(&format!(
            "{:<14} {:<24} {:<14} {:<24} {:<14} {:<20} {}\n",
            family.name(),
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            cols[4],
            if family.has_av_check() { "Yes" } else { "No" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_an_ie_exploit() {
        // Fig. 2: all four kits carry CVE-2013-2551.
        for family in KitFamily::ALL {
            assert!(
                family
                    .cve_inventory()
                    .iter()
                    .any(|c| c.id == "CVE-2013-2551"),
                "{family} should carry CVE-2013-2551"
            );
        }
    }

    #[test]
    fn nuclear_carries_the_2010_reader_cve() {
        assert!(KitFamily::Nuclear
            .cve_inventory()
            .iter()
            .any(|c| c.id == "CVE-2010-0188" && c.component == Component::AdobeReader));
    }

    #[test]
    fn av_check_column_matches_paper() {
        assert!(!KitFamily::SweetOrange.has_av_check());
        assert!(KitFamily::Angler.has_av_check());
        assert!(KitFamily::Rig.has_av_check());
        assert!(KitFamily::Nuclear.has_av_check());
    }

    #[test]
    fn inventory_sizes_are_plausible() {
        // The paper notes 5–7 CVEs per kit is typical; our Fig. 2 snapshot
        // has 4–6.
        for family in KitFamily::ALL {
            let n = family.cve_inventory().len();
            assert!((4..=7).contains(&n), "{family}: {n} CVEs");
        }
    }

    #[test]
    fn slug_is_identifier_safe() {
        let cve = Cve::new("CVE-2013-2551", Component::InternetExplorer);
        assert_eq!(cve.slug(), "cve_2013_2551");
    }

    #[test]
    fn table_mentions_every_family_and_av_column() {
        let table = cve_table();
        for family in KitFamily::ALL {
            assert!(table.contains(family.name()));
        }
        assert!(table.contains("AV check"));
        assert!(table.contains("CVE-2010-0188"));
    }

    #[test]
    fn short_codes_are_unique() {
        let codes: std::collections::HashSet<_> =
            KitFamily::ALL.iter().map(|f| f.short_code()).collect();
        assert_eq!(codes.len(), KitFamily::ALL.len());
    }

    #[test]
    fn display_impls() {
        assert_eq!(KitFamily::Nuclear.to_string(), "Nuclear");
        assert_eq!(Component::InternetExplorer.to_string(), "Internet Explorer");
        assert!(Cve::new("CVE-2014-0515", Component::Flash)
            .to_string()
            .contains("Flash"));
    }

    #[test]
    fn families_are_orderable_and_hashable() {
        let mut set = std::collections::BTreeSet::new();
        set.extend(KitFamily::ALL);
        assert_eq!(set.len(), 4);
    }
}
