//! The versioned policy registry: an on-disk artifact store with a
//! manifest, integrity verification, and an append-only promotion log.
//!
//! Layout under the registry root:
//!
//! ```text
//! root/
//!   manifest.json        # versions, parents, checksums, promoted head
//!   promotions.log       # append-only JSON lines, one per promotion
//!   policies/v{N}.json   # integrity-checked CoordinationPolicy artifacts
//! ```
//!
//! Every artifact is written through
//! [`CoordinationPolicy::save`](dosco_core::CoordinationPolicy::save), so
//! the file itself carries a checksummed header; the manifest records the
//! same payload length and FNV-1a 64 checksum *independently*. A load
//! verifies both and cross-checks them against each other — a registry
//! whose manifest and artifacts disagree (partial restore, manual edit)
//! fails loudly with the expected vs. actual values, never by silently
//! serving different weights than the manifest promises.

use dosco_core::policy::fnv1a64;
use dosco_core::CoordinationPolicy;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Format tag of the manifest file.
const REGISTRY_FORMAT: &str = "dosco-registry-v1";
/// Manifest file name under the registry root.
const MANIFEST_FILE: &str = "manifest.json";
/// Promotion log file name under the registry root.
const PROMOTIONS_FILE: &str = "promotions.log";
/// Directory holding the policy artifacts.
const POLICIES_DIR: &str = "policies";

/// One registered policy artifact, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactMeta {
    /// Registry version of this artifact (dense, starting at 0).
    pub version: u64,
    /// The promoted head at the time this artifact was published — the
    /// lineage link for "what was this trained to replace".
    pub parent: Option<u64>,
    /// Training algorithm, copied from the policy's metadata.
    pub algorithm: String,
    /// Environment transitions the policy was trained on, copied from
    /// the policy's metadata (`total_steps`).
    pub created_step: usize,
    /// Byte length of the policy JSON payload.
    pub payload_len: u64,
    /// FNV-1a 64 checksum of the payload, as 16 lowercase hex digits —
    /// recorded independently of the artifact file's own header.
    pub fnv64: String,
}

/// One line of the append-only promotion log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PromotionRecord {
    /// Position in the log (dense, starting at 0).
    pub seq: u64,
    /// The version the head moved *to*.
    pub version: u64,
    /// The head the move replaced.
    pub previous: Option<u64>,
    /// Operator-supplied reason (free-form).
    pub reason: String,
}

/// The manifest file's on-disk shape.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Manifest {
    /// Format tag ([`REGISTRY_FORMAT`]).
    format: String,
    /// The currently promoted version, if any.
    head: Option<u64>,
    /// Every published artifact, ascending by version.
    entries: Vec<ArtifactMeta>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            format: REGISTRY_FORMAT.to_string(),
            head: None,
            entries: Vec::new(),
        }
    }
}

/// A versioned, integrity-checked policy store rooted at a directory.
#[derive(Debug)]
pub struct PolicyRegistry {
    root: PathBuf,
    manifest: Manifest,
    /// Records already in the promotion log (the next record's `seq`).
    promotions: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl PolicyRegistry {
    /// Opens (or initializes) a registry rooted at `root`, creating the
    /// directory layout and an empty manifest when missing.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the filesystem, or
    /// [`io::ErrorKind::InvalidData`] when an existing manifest is
    /// malformed or carries an unknown format tag; messages name the
    /// offending path.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(root.join(POLICIES_DIR)).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("creating registry directory {}: {e}", root.display()),
            )
        })?;
        let manifest_path = root.join(MANIFEST_FILE);
        let manifest = if manifest_path.exists() {
            let text = std::fs::read_to_string(&manifest_path).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("reading registry manifest {}: {e}", manifest_path.display()),
                )
            })?;
            let manifest: Manifest = serde_json::from_str(&text).map_err(|e| {
                invalid(format!(
                    "parsing registry manifest {}: {e}",
                    manifest_path.display()
                ))
            })?;
            if manifest.format != REGISTRY_FORMAT {
                return Err(invalid(format!(
                    "registry manifest {} has format {:?}, expected {REGISTRY_FORMAT:?}",
                    manifest_path.display(),
                    manifest.format
                )));
            }
            manifest
        } else {
            Manifest::default()
        };
        let promotions = {
            let log_path = root.join(PROMOTIONS_FILE);
            if log_path.exists() {
                let text = std::fs::read_to_string(&log_path).map_err(|e| {
                    io::Error::new(
                        e.kind(),
                        format!("reading promotion log {}: {e}", log_path.display()),
                    )
                })?;
                text.lines().filter(|l| !l.trim().is_empty()).count() as u64
            } else {
                0
            }
        };
        let registry = PolicyRegistry {
            root,
            manifest,
            promotions,
        };
        registry.write_manifest()?;
        Ok(registry)
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the artifact file for `version`.
    fn artifact_path(&self, version: u64) -> PathBuf {
        self.root
            .join(POLICIES_DIR)
            .join(format!("v{version}.json"))
    }

    /// Writes the manifest via a temp file + rename, so a crash mid-write
    /// never leaves a truncated manifest behind.
    fn write_manifest(&self) -> io::Result<()> {
        let path = self.root.join(MANIFEST_FILE);
        let tmp = self.root.join(format!("{MANIFEST_FILE}.tmp"));
        let json = serde_json::to_string_pretty(&self.manifest)
            .map_err(|e| invalid(format!("serializing manifest: {e}")))?;
        std::fs::write(&tmp, json).map_err(|e| {
            io::Error::new(e.kind(), format!("writing manifest {}: {e}", tmp.display()))
        })?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("replacing manifest {}: {e}", path.display()),
            )
        })
    }

    /// Appends one record to the promotion log.
    fn append_promotion(
        &mut self,
        version: u64,
        previous: Option<u64>,
        reason: &str,
    ) -> io::Result<()> {
        let record = PromotionRecord {
            seq: self.promotions,
            version,
            previous,
            reason: reason.to_string(),
        };
        let path = self.root.join(PROMOTIONS_FILE);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("opening promotion log {}: {e}", path.display()),
                )
            })?;
        let line = serde_json::to_string(&record)
            .map_err(|e| invalid(format!("serializing promotion record: {e}")))?;
        writeln!(file, "{line}").map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("appending to promotion log {}: {e}", path.display()),
            )
        })?;
        self.promotions += 1;
        Ok(())
    }

    /// Publishes `policy` as the next registry version: writes the
    /// integrity-checked artifact, verifies it loads back, and records it
    /// in the manifest with the current head as its parent. Publishing
    /// does *not* move the head — that is what [`PolicyRegistry::promote`]
    /// is for.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from writing the artifact or manifest; the
    /// artifact is read back and verified before the manifest records it.
    pub fn publish(&mut self, policy: &CoordinationPolicy) -> io::Result<ArtifactMeta> {
        let version = self.manifest.entries.last().map_or(0, |e| e.version + 1);
        let json = policy
            .to_json()
            .map_err(|e| invalid(format!("serializing policy for registry v{version}: {e}")))?;
        let path = self.artifact_path(version);
        policy.save(&path)?;
        // Read-back verification: the artifact on disk must parse and
        // pass its own header checks before the manifest vouches for it.
        CoordinationPolicy::load(&path)?;
        let meta = ArtifactMeta {
            version,
            parent: self.manifest.head,
            algorithm: policy.metadata.algorithm.clone(),
            created_step: policy.metadata.total_steps,
            payload_len: json.len() as u64,
            fnv64: format!("{:016x}", fnv1a64(json.as_bytes())),
        };
        self.manifest.entries.push(meta.clone());
        self.write_manifest()?;
        Ok(meta)
    }

    /// Loads the artifact for `version`, verifying the file's own header
    /// *and* cross-checking the manifest's independently recorded length
    /// and checksum against what the file actually contains.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] for unknown versions;
    /// [`io::ErrorKind::InvalidData`] when the artifact fails its header
    /// checks or disagrees with the manifest — the message names the
    /// path and the expected vs. actual checksum.
    pub fn load(&self, version: u64) -> io::Result<CoordinationPolicy> {
        let meta = self.meta(version).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "version v{version} is not in registry {}",
                    self.root.display()
                ),
            )
        })?;
        let path = self.artifact_path(version);
        let policy = CoordinationPolicy::load(&path)?;
        let json = policy
            .to_json()
            .map_err(|e| invalid(format!("serializing registry v{version}: {e}")))?;
        let actual = format!("{:016x}", fnv1a64(json.as_bytes()));
        if json.len() as u64 != meta.payload_len || actual != meta.fnv64 {
            return Err(invalid(format!(
                "registry artifact {} disagrees with the manifest: manifest records \
                 {} bytes / checksum {}, artifact holds {} bytes / checksum {}",
                path.display(),
                meta.payload_len,
                meta.fnv64,
                json.len(),
                actual
            )));
        }
        Ok(policy)
    }

    /// Loads the currently promoted policy.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] when nothing has been promoted yet;
    /// otherwise see [`PolicyRegistry::load`].
    pub fn load_head(&self) -> io::Result<CoordinationPolicy> {
        let head = self.manifest.head.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("registry {} has no promoted head", self.root.display()),
            )
        })?;
        self.load(head)
    }

    /// Moves the promoted head to `version` and appends a record to the
    /// log.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] for unknown versions,
    /// [`io::ErrorKind::InvalidInput`] when `version` is already the
    /// head, plus I/O errors from persisting the move.
    pub fn promote(&mut self, version: u64, reason: &str) -> io::Result<()> {
        if self.meta(version).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "cannot promote v{version}: not in registry {}",
                    self.root.display()
                ),
            ));
        }
        if self.manifest.head == Some(version) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("v{version} is already the promoted head"),
            ));
        }
        let previous = self.manifest.head;
        self.manifest.head = Some(version);
        self.write_manifest()?;
        self.append_promotion(version, previous, reason)
    }

    /// The currently promoted head's manifest entry, if any.
    pub fn head(&self) -> Option<&ArtifactMeta> {
        self.manifest.head.and_then(|version| self.meta(version))
    }

    /// The manifest entry for `version`, if published.
    pub fn meta(&self, version: u64) -> Option<&ArtifactMeta> {
        self.manifest.entries.iter().find(|e| e.version == version)
    }

    /// Every published version, ascending.
    pub fn versions(&self) -> Vec<u64> {
        self.manifest.entries.iter().map(|e| e.version).collect()
    }

    /// Parses the full promotion log.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for malformed lines (naming the
    /// line number), plus I/O errors from reading the file.
    pub fn promotion_log(&self) -> io::Result<Vec<PromotionRecord>> {
        let path = self.root.join(PROMOTIONS_FILE);
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = std::fs::read_to_string(&path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("reading promotion log {}: {e}", path.display()),
            )
        })?;
        let mut records = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record: PromotionRecord = serde_json::from_str(line).map_err(|e| {
                invalid(format!(
                    "parsing promotion log {} line {}: {e}",
                    path.display(),
                    lineno + 1
                ))
            })?;
            records.push(record);
        }
        Ok(records)
    }

    /// A one-line human-readable description of the registry state.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "registry {} — {} version(s)",
            self.root.display(),
            self.manifest.entries.len()
        );
        match self.manifest.head {
            Some(h) => {
                let _ = write!(s, ", head v{h}");
            }
            None => s.push_str(", nothing promoted"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosco_core::policy::PolicyMetadata;
    use dosco_nn::mlp::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn policy(seed: u64, steps: usize) -> CoordinationPolicy {
        let mut rng = StdRng::seed_from_u64(seed);
        let actor = Mlp::new(&[16, 8, 4], Activation::Tanh, &mut rng);
        CoordinationPolicy::new(
            actor,
            3,
            PolicyMetadata {
                algorithm: format!("test-alg-{seed}"),
                total_steps: steps,
                ..PolicyMetadata::default()
            },
        )
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dosco-registry-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn publish_load_promote_lifecycle() {
        let root = temp_root("lifecycle");
        let mut reg = PolicyRegistry::open(&root).unwrap();
        assert!(reg.head().is_none());
        assert_eq!(reg.versions(), Vec::<u64>::new());

        let m0 = reg.publish(&policy(1, 100)).unwrap();
        let m1 = reg.publish(&policy(2, 200)).unwrap();
        assert_eq!((m0.version, m0.parent), (0, None));
        // v1 was published before anything was promoted.
        assert_eq!((m1.version, m1.parent), (1, None));
        assert_eq!(reg.versions(), vec![0, 1]);
        assert_eq!(m1.algorithm, "test-alg-2");
        assert_eq!(m1.created_step, 200);

        // Loads verify against both the artifact header and the manifest.
        let p0 = reg.load(0).unwrap();
        assert_eq!(p0.metadata.algorithm, "test-alg-1");
        assert_eq!(reg.load(9).unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(reg.load_head().unwrap_err().kind(), io::ErrorKind::NotFound);

        reg.promote(0, "initial deploy").unwrap();
        assert_eq!(reg.head().unwrap().version, 0);
        assert_eq!(reg.load_head().unwrap().metadata.algorithm, "test-alg-1");
        // Lineage: published after a promotion records the head as parent.
        let m2 = reg.publish(&policy(3, 300)).unwrap();
        assert_eq!(m2.parent, Some(0));

        reg.promote(2, "canary passed").unwrap();
        assert_eq!(reg.head().unwrap().version, 2);
        assert_eq!(
            reg.promote(2, "again").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );

        let log = reg.promotion_log().unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].seq, 0);
        assert_eq!((log[0].version, log[0].previous), (0, None));
        assert_eq!((log[1].version, log[1].previous), (2, Some(0)));
        assert_eq!(log[1].reason, "canary passed");

        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_restores_manifest_head_and_log() {
        let root = temp_root("reopen");
        {
            let mut reg = PolicyRegistry::open(&root).unwrap();
            reg.publish(&policy(1, 10)).unwrap();
            reg.publish(&policy(2, 20)).unwrap();
            reg.promote(1, "ship").unwrap();
        }
        let mut reg = PolicyRegistry::open(&root).unwrap();
        assert_eq!(reg.versions(), vec![0, 1]);
        assert_eq!(reg.head().unwrap().version, 1);
        assert_eq!(reg.promotion_log().unwrap().len(), 1);
        // New versions continue the sequence; the log seq continues too.
        let m = reg.publish(&policy(3, 30)).unwrap();
        assert_eq!(m.version, 2);
        reg.promote(2, "next").unwrap();
        let log = reg.promotion_log().unwrap();
        assert_eq!(log.last().unwrap().seq, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn load_detects_manifest_artifact_disagreement() {
        let root = temp_root("disagree");
        let mut reg = PolicyRegistry::open(&root).unwrap();
        reg.publish(&policy(1, 10)).unwrap();
        // Overwrite the artifact with a *valid* save of different weights:
        // the file's own header passes, only the manifest cross-check can
        // catch the swap.
        policy(9, 10).save(reg.artifact_path(0)).unwrap();
        let err = reg.load(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("disagrees with the manifest"), "{msg}");
        assert!(msg.contains(&reg.meta(0).unwrap().fnv64), "{msg}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// `CoordinationPolicy::new` checks shapes only, so an in-process
    /// policy can carry an infinite weight. Its artifact stores it as
    /// `null`, which reads back as NaN: publishing's read-back refuses it,
    /// and the manifest never lists the version.
    #[test]
    fn publish_rejects_a_policy_with_a_non_finite_parameter() {
        let root = temp_root("nonfinite");
        let mut reg = PolicyRegistry::open(&root).unwrap();
        let json = serde_json::to_string(policy(1, 10).actor()).unwrap();
        let first = json.find(r#""data":["#).unwrap() + r#""data":["#.len();
        let end = first + json[first..].find(',').unwrap();
        let actor: Mlp =
            serde_json::from_str(&format!("{}1e39{}", &json[..first], &json[end..])).unwrap();
        assert!(actor.layers()[0].weights().get(0, 0).is_infinite());
        let bad = CoordinationPolicy::new(actor, 3, PolicyMetadata::default());
        let err = reg.publish(&bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("actor layer 0 weight 0 is NaN"),
            "{err}"
        );
        assert_eq!(reg.versions(), Vec::<u64>::new());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_rejects_unknown_manifest_format() {
        let root = temp_root("badformat");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            root.join(MANIFEST_FILE),
            r#"{"format":"dosco-registry-v999","head":null,"entries":[]}"#,
        )
        .unwrap();
        let err = PolicyRegistry::open(&root).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("dosco-registry-v999"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }
}
