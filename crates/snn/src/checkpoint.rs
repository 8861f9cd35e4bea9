//! Saving and loading trained networks.
//!
//! A compact, versioned binary format (little-endian) holding the
//! configuration dimensions, weights, and frozen adaptive thresholds, so
//! the expensive unsupervised training phase can be done once and reused
//! across experiment binaries or shipped alongside the repository.
//!
//! The format deliberately stores only what training produced; the full
//! [`SnnConfig`] is supplied again at load time and validated against the
//! stored dimensions (configs are code, not data).

use crate::config::SnnConfig;
use crate::error::SnnError;
use crate::network::Network;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes identifying a checkpoint stream.
pub const MAGIC: [u8; 4] = *b"SSNN";
/// Current format version.
pub const VERSION: u16 = 1;

/// A trained network's persistent state.
///
/// # Examples
///
/// ```
/// use snn_sim::checkpoint::Checkpoint;
/// use snn_sim::{config::SnnConfig, network::Network, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SnnConfig::builder().n_inputs(8).n_neurons(2).build()?;
/// let net = Network::new(cfg.clone(), &mut seeded_rng(1));
/// let bytes = Checkpoint::of(&net).to_bytes();
/// let restored = Checkpoint::from_bytes(&bytes)?.into_network(cfg)?;
/// assert_eq!(restored.weights(), net.weights());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Input count the weights were trained for.
    pub n_inputs: usize,
    /// Neuron count.
    pub n_neurons: usize,
    /// Trained weights, row-major by input.
    pub weights: Vec<f32>,
    /// Frozen adaptive-threshold components.
    pub thetas: Vec<f32>,
}

impl Checkpoint {
    /// Captures a network's trained state.
    pub fn of(net: &Network) -> Self {
        Self {
            n_inputs: net.cfg().n_inputs,
            n_neurons: net.cfg().n_neurons,
            weights: net.weights().to_vec(),
            thetas: net.thetas().to_vec(),
        }
    }

    /// Reconstructs a network from this checkpoint and a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::ShapeMismatch`] if the configuration's
    /// dimensions disagree with the stored ones.
    pub fn into_network(self, cfg: SnnConfig) -> Result<Network, SnnError> {
        if cfg.n_inputs != self.n_inputs {
            return Err(SnnError::ShapeMismatch {
                expected: self.n_inputs,
                actual: cfg.n_inputs,
                what: "inputs",
            });
        }
        if cfg.n_neurons != self.n_neurons {
            return Err(SnnError::ShapeMismatch {
                expected: self.n_neurons,
                actual: cfg.n_neurons,
                what: "neurons",
            });
        }
        let mut net = Network::from_parts(cfg, self.weights)?;
        net.set_thetas(&self.thetas)?;
        Ok(net)
    }

    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 4 * (self.weights.len() + self.thetas.len()));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.n_inputs as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_neurons as u32).to_le_bytes());
        for w in &self.weights {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for t in &self.thetas {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    /// Parses the binary format.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] on bad magic/version or a
    /// truncated stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnnError> {
        fn bad(reason: &str) -> SnnError {
            SnnError::InvalidConfig {
                field: "checkpoint",
                reason: reason.to_owned(),
            }
        }
        // Fixed header: 4 magic + 2 version + 4 n_inputs + 4 n_neurons.
        if bytes.len() < 14 {
            return Err(bad("truncated header"));
        }
        if bytes[0..4] != MAGIC {
            return Err(bad("bad magic"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(bad(&format!("unsupported version {version}")));
        }
        let n_inputs = u32::from_le_bytes(bytes[6..10].try_into().expect("slice")) as usize;
        let n_neurons = u32::from_le_bytes(bytes[10..14].try_into().expect("slice")) as usize;
        let n_weights = n_inputs
            .checked_mul(n_neurons)
            .ok_or_else(|| bad("dimension overflow"))?;
        // Checked too: 4 · (weights + neurons) can wrap around to the
        // input length.
        let expected = n_weights
            .checked_add(n_neurons)
            .and_then(|n| n.checked_mul(4))
            .and_then(|n| n.checked_add(14))
            .ok_or_else(|| bad("dimension overflow"))?;
        if bytes.len() != expected {
            return Err(bad(&format!(
                "expected {expected} bytes for {n_inputs}x{n_neurons}, got {}",
                bytes.len()
            )));
        }
        let mut offset = 14;
        let mut read_f32s = |count: usize| -> Vec<f32> {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(f32::from_le_bytes(
                    bytes[offset..offset + 4].try_into().expect("slice"),
                ));
                offset += 4;
            }
            v
        };
        let weights = read_f32s(n_weights);
        let thetas = read_f32s(n_neurons);
        Ok(Self {
            n_inputs,
            n_neurons,
            weights,
            thetas,
        })
    }

    /// Writes the checkpoint to a writer (pass `&mut writer` to keep it).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn write_to<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writer.write_all(&self.to_bytes())
    }

    /// Reads a checkpoint from a reader.
    ///
    /// # Errors
    ///
    /// Returns an I/O error or a parse failure wrapped as
    /// `InvalidData`.
    pub fn read_from<R: Read>(mut reader: R) -> std::io::Result<Self> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Saves to a file (creating parent directories).
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        self.write_to(std::fs::File::create(path)?)
    }

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error or parse failure.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Self::read_from(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn trained_net() -> (SnnConfig, Network) {
        let cfg = SnnConfig::builder()
            .n_inputs(12)
            .n_neurons(4)
            .v_thresh(2.0)
            .build()
            .unwrap();
        let mut net = Network::new(cfg.clone(), &mut seeded_rng(1));
        for _ in 0..50 {
            net.step(&[0, 1, 2, 3, 4, 5]);
        }
        (cfg, net)
    }

    #[test]
    fn byte_round_trip_preserves_everything() {
        let (cfg, net) = trained_net();
        let ckpt = Checkpoint::of(&net);
        let restored = Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap();
        assert_eq!(restored, ckpt);
        let net2 = restored.into_network(cfg).unwrap();
        assert_eq!(net2.weights(), net.weights());
        assert_eq!(net2.thetas(), net.thetas());
    }

    #[test]
    fn restored_network_behaves_identically() {
        let (cfg, mut net) = trained_net();
        let ckpt = Checkpoint::of(&net);
        let mut net2 = ckpt.into_network(cfg).unwrap();
        net.set_frozen();
        net2.set_frozen();
        net.reset_transient();
        net2.reset_transient();
        for _ in 0..30 {
            assert_eq!(net.step(&[0, 2, 4]), net2.step(&[0, 2, 4]));
        }
    }

    #[test]
    fn rejects_wrong_dims_at_load() {
        let (_, net) = trained_net();
        let ckpt = Checkpoint::of(&net);
        let other = SnnConfig::builder()
            .n_inputs(12)
            .n_neurons(9)
            .build()
            .unwrap();
        assert!(ckpt.into_network(other).is_err());
    }

    #[test]
    fn rejects_corrupted_streams() {
        let (_, net) = trained_net();
        let mut bytes = Checkpoint::of(&net).to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..10]).is_err(), "truncated");
        bytes[0] = b'X';
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "bad magic");
        let (_, net) = trained_net();
        let mut bytes = Checkpoint::of(&net).to_bytes();
        bytes[4] = 99;
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "bad version");
        let (_, net) = trained_net();
        let mut bytes = Checkpoint::of(&net).to_bytes();
        bytes.pop();
        assert!(Checkpoint::from_bytes(&bytes).is_err(), "short payload");
    }

    #[test]
    fn rejects_header_truncated_inside_the_dimension_words() {
        // Regression: the header is 14 bytes (magic + version + two u32
        // dims); a 12- or 13-byte stream used to slip past the length
        // guard and panic slicing `bytes[10..14]`. Every prefix must be
        // a clean error instead.
        let (_, net) = trained_net();
        let bytes = Checkpoint::of(&net).to_bytes();
        for len in 0..14 {
            assert!(
                Checkpoint::from_bytes(&bytes[..len]).is_err(),
                "{len}-byte prefix must be rejected, not panic"
            );
        }
    }

    #[test]
    fn rejects_dimensions_whose_payload_size_wraps() {
        // Regression: 2^31 − 1 inputs × 2^31 neurons fits `usize`, but
        // 4 · (weights + neurons) wraps to 0, so the 14-byte header alone
        // matched the expected length and the decoder panicked allocating
        // the weights.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0x7FFF_FFFF_u32.to_le_bytes());
        bytes.extend_from_slice(&0x8000_0000_u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(SnnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn file_round_trip() {
        let (_, net) = trained_net();
        let ckpt = Checkpoint::of(&net);
        let path = std::env::temp_dir().join(format!("ssnn_ckpt_{}.bin", std::process::id()));
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        std::fs::remove_file(&path).unwrap();
    }
}
