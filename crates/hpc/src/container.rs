//! Container image registry with beamtime version freezing.
//!
//! The paper deploys services in Docker/Podman containers "tagged with
//! version numbers", freezing versions during experiments and updating
//! only in maintenance windows. This module models exactly that policy so
//! the orchestrator can enforce it (and tests can prove a mid-beamtime
//! deploy is refused).

use als_simcore::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A reference to a specific image version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ImageRef {
    pub name: String,
    pub version: String,
}

impl ImageRef {
    pub fn new(name: &str, version: &str) -> Self {
        ImageRef {
            name: name.to_string(),
            version: version.to_string(),
        }
    }
}

impl std::fmt::Display for ImageRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name, self.version)
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No such image/version.
    NotFound(String),
    /// Deployment refused because versions are frozen for beamtime.
    Frozen,
    /// Version already published (tags are immutable).
    TagExists(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound(r) => write!(f, "image not found: {r}"),
            RegistryError::Frozen => write!(f, "deployments are frozen during beamtime"),
            RegistryError::TagExists(r) => write!(f, "tag already exists: {r}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The CI/CD image registry + active deployment per service.
#[derive(Debug, Default)]
pub struct ContainerRegistry {
    /// All published tags per image name (immutable once pushed).
    published: BTreeMap<String, Vec<String>>,
    /// Version each service currently runs.
    deployed: BTreeMap<String, String>,
    /// Beamtime freeze flag.
    frozen: bool,
}

impl ContainerRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a new version (what the GitHub Actions pipeline does).
    pub fn publish(&mut self, image: &ImageRef) -> Result<(), RegistryError> {
        let tags = self.published.entry(image.name.clone()).or_default();
        if tags.contains(&image.version) {
            return Err(RegistryError::TagExists(image.to_string()));
        }
        tags.push(image.version.clone());
        Ok(())
    }

    /// Deploy a published version as the running one. Refused while frozen.
    pub fn deploy(&mut self, image: &ImageRef) -> Result<(), RegistryError> {
        if self.frozen {
            return Err(RegistryError::Frozen);
        }
        let known = self
            .published
            .get(&image.name)
            .is_some_and(|tags| tags.contains(&image.version));
        if !known {
            return Err(RegistryError::NotFound(image.to_string()));
        }
        self.deployed
            .insert(image.name.clone(), image.version.clone());
        Ok(())
    }

    /// The version a service currently runs.
    pub fn running_version(&self, name: &str) -> Option<&str> {
        self.deployed.get(name).map(|s| s.as_str())
    }

    /// Enter the beamtime freeze window.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Leave the freeze window (scheduled maintenance).
    pub fn unfreeze(&mut self) {
        self.frozen = false;
    }

    /// Cold-start latency of a container on an HPC node (image pull +
    /// podman-hpc setup); warm starts are near-free thanks to the squashed
    /// image cache.
    pub fn startup_cost(warm: bool) -> SimDuration {
        if warm {
            SimDuration::from_millis(500)
        } else {
            SimDuration::from_secs(25)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_deploy() {
        let mut reg = ContainerRegistry::new();
        let img = ImageRef::new("splash-flows", "1.4.2");
        reg.publish(&img).unwrap();
        reg.deploy(&img).unwrap();
        assert_eq!(reg.running_version("splash-flows"), Some("1.4.2"));
    }

    #[test]
    fn cannot_deploy_unpublished() {
        let mut reg = ContainerRegistry::new();
        let img = ImageRef::new("splash-flows", "9.9.9");
        assert!(matches!(reg.deploy(&img), Err(RegistryError::NotFound(_))));
    }

    #[test]
    fn tags_are_immutable() {
        let mut reg = ContainerRegistry::new();
        let img = ImageRef::new("recon", "2.0.0");
        reg.publish(&img).unwrap();
        assert!(matches!(
            reg.publish(&img),
            Err(RegistryError::TagExists(_))
        ));
    }

    #[test]
    fn freeze_blocks_deploys_but_not_publishes() {
        let mut reg = ContainerRegistry::new();
        let v1 = ImageRef::new("recon", "1.0.0");
        let v2 = ImageRef::new("recon", "1.1.0");
        reg.publish(&v1).unwrap();
        reg.deploy(&v1).unwrap();
        reg.freeze();
        // CI can still publish new versions...
        reg.publish(&v2).unwrap();
        // ...but beamtime deployments are refused
        assert_eq!(reg.deploy(&v2), Err(RegistryError::Frozen));
        assert_eq!(reg.running_version("recon"), Some("1.0.0"));
        // maintenance window reopens deploys
        reg.unfreeze();
        reg.deploy(&v2).unwrap();
        assert_eq!(reg.running_version("recon"), Some("1.1.0"));
    }

    #[test]
    fn warm_start_is_much_cheaper() {
        assert!(
            ContainerRegistry::startup_cost(false).as_secs_f64()
                > 10.0 * ContainerRegistry::startup_cost(true).as_secs_f64()
        );
    }
}
