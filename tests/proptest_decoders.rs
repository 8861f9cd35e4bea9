//! Totality of the file decoders: trained-network checkpoints, IDX
//! dataset files, and campaign job files.
//!
//! `Checkpoint::from_bytes` reads a stored network, `read_idx` reads
//! the MNIST-family files, and `CampaignService::open` and
//! `JobHandle::load_cell` read a job's `job.json` and cell checkpoints,
//! so each must turn *any* input into a value or a typed error and never
//! panic. These properties feed them random bytes, random headers with
//! small claimed sizes, and bit flips and truncations of valid
//! encodings. The binary formats are canonical, so whatever decodes must
//! re-encode to exactly the bytes it came from, and valid encodings
//! round-trip bit for bit.
//!
//! An IDX header states its payload size, and a decoder that trusts it
//! allocates before reading. So every IDX input here claims at most
//! [`MAX_IDX_CLAIM`] bytes and inputs claiming more are skipped; the
//! crafted overflow headers of both formats are unit tests in their
//! modules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use softsnn::data::idx::{read_idx, write_idx};
use softsnn::faults::codec::JsonCodec;
use softsnn::faults::grid::{Aggregate, GridSpec};
use softsnn::faults::service::{CampaignService, ServiceError};
use softsnn::sim::checkpoint::{Checkpoint, MAGIC, VERSION};
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest IDX payload, in bytes, an input may claim.
const MAX_IDX_CLAIM: u128 = 4 << 20;

/// One random corruption of `bytes`: one to three bit flips, or a
/// truncation.
fn mutate(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if rng.gen_bool(0.5) {
        for _ in 0..rng.gen_range(1..4_u32) {
            if out.is_empty() {
                break;
            }
            let i = rng.gen_range(0..out.len());
            out[i] ^= 1 << rng.gen_range(0..8_u32);
        }
    } else {
        out.truncate(rng.gen_range(0..=out.len()));
    }
    out
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// A checkpoint with arbitrary `f32` bit patterns, NaNs included.
fn random_checkpoint(rng: &mut StdRng) -> Checkpoint {
    let n_inputs = rng.gen_range(0..13_usize);
    let n_neurons = rng.gen_range(0..9_usize);
    let mut floats =
        |n: usize| -> Vec<f32> { (0..n).map(|_| f32::from_bits(rng.gen::<u32>())).collect() };
    Checkpoint {
        n_inputs,
        n_neurons,
        weights: floats(n_inputs * n_neurons),
        thetas: floats(n_neurons),
    }
}

/// A checkpoint header: `SSNN`, the format version and the two dims.
fn checkpoint_header(n_inputs: u32, n_neurons: u32) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&n_inputs.to_le_bytes());
    bytes.extend_from_slice(&n_neurons.to_le_bytes());
    bytes
}

/// Decodes `bytes` as a checkpoint; whatever decodes must re-encode to
/// exactly `bytes`. A panic fails the property.
fn decode_checkpoint(bytes: &[u8]) {
    if let Ok(ckpt) = Checkpoint::from_bytes(bytes) {
        assert_eq!(ckpt.to_bytes(), bytes, "a decoded checkpoint re-encodes");
    }
}

/// The payload size an IDX header claims, if `bytes` starts with a whole
/// header the decoder would go on to read data for.
fn idx_claim(bytes: &[u8]) -> Option<u128> {
    let (&[0, 0, 0x08, ndims], rest) = bytes.split_first_chunk::<4>()? else {
        return None;
    };
    let ndims = usize::from(ndims);
    if !(1..=4).contains(&ndims) || rest.len() < 4 * ndims {
        return None;
    }
    Some(
        rest.chunks_exact(4)
            .take(ndims)
            .map(|d| u128::from(u32::from_be_bytes(d.try_into().expect("4 bytes"))))
            .product(),
    )
}

/// Decodes `bytes` as an IDX tensor unless its header claims more than
/// [`MAX_IDX_CLAIM`] bytes (returns whether it ran). Whatever decodes
/// must re-encode to a prefix of `bytes` (the reader stops after the
/// claimed payload). A panic fails the property.
fn decode_idx(bytes: &[u8]) -> bool {
    if idx_claim(bytes).is_some_and(|claim| claim > MAX_IDX_CLAIM) {
        return false;
    }
    if let Ok(tensor) = read_idx(Cursor::new(bytes)) {
        let mut out = Vec::new();
        write_idx(&mut out, &tensor.dims, &tensor.data).expect("a decoded tensor re-encodes");
        assert!(bytes.starts_with(&out), "a decoded tensor re-encodes");
    }
    true
}

/// A valid IDX encoding: 1–4 dims of at most 12, random bytes.
fn random_idx(rng: &mut StdRng) -> (Vec<usize>, Vec<u8>, Vec<u8>) {
    let dims: Vec<usize> = (0..rng.gen_range(1..5_usize))
        .map(|_| rng.gen_range(0..13_usize))
        .collect();
    let data = random_bytes(rng, dims.iter().product());
    let mut bytes = Vec::new();
    write_idx(&mut bytes, &dims, &data).expect("dims match data");
    (dims, data, bytes)
}

/// A fresh campaign root under the system temp dir, one per case.
fn temp_root() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("softsnn_job_files_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A small grid spec: 1–3 techniques and rates, 1–5 trials, seed offsets.
fn random_spec(rng: &mut StdRng) -> GridSpec {
    let techniques = (0..rng.gen_range(1..4_usize))
        .map(|t| format!("technique {t}"))
        .collect();
    let rates = (0..rng.gen_range(1..4_usize))
        .map(|_| rng.gen::<f64>())
        .collect();
    GridSpec::new(
        rng.gen(),
        rng.gen(),
        techniques,
        rates,
        rng.gen_range(1..6_usize),
    )
    .with_offsets(
        rng.gen_range(0..100),
        rng.gen_range(0..100),
        rng.gen_range(0..100),
    )
}

/// A valid cell of `spec`: a random key and a seed-stream prefix of
/// random trial values.
fn random_cell(spec: &GridSpec, rng: &mut StdRng) -> Aggregate {
    let keys = spec.cell_keys();
    let key = keys[rng.gen_range(0..keys.len())];
    let trials = (0..rng.gen_range(1..=spec.trials))
        .map(|_| rng.gen::<f64>())
        .collect();
    let technique = spec.techniques[key.technique_idx].clone();
    Aggregate::from_trials(
        key,
        technique,
        spec.rates[key.rate_idx],
        spec.trials,
        trials,
    )
}

/// The result of reading an existing file must be a value or a
/// [`ServiceError::Format`]: a corrupt file is "will re-run", never an
/// I/O failure that stops a resume.
fn assert_format_or_ok<T>(result: &Result<T, ServiceError>, what: &str) {
    if let Err(e) = result {
        assert!(matches!(e, ServiceError::Format { .. }), "{what}: {e}");
    }
}

/// Opens job `name` under `service`, then loads every cell of the spec
/// it decodes to; any panic fails the property.
fn open_and_load_every_cell(service: &CampaignService, name: &str) {
    let job = service.open(name);
    assert_format_or_ok(&job, "job.json");
    if let Ok(job) = job {
        for key in job.cell_keys() {
            assert_format_or_ok(&job.load_cell(key), "cell");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, bare or behind a valid magic and version, decode to
    /// a checkpoint or an error.
    #[test]
    fn random_bytes_decode_to_a_checkpoint_or_an_error(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        headed in any::<bool>(),
    ) {
        let mut input = if headed { checkpoint_header(0, 0)[..6].to_vec() } else { Vec::new() };
        input.extend_from_slice(&bytes);
        decode_checkpoint(&input);
    }

    /// A valid header over small dims with a payload near the expected
    /// length decodes exactly when the length matches.
    #[test]
    fn headers_with_ragged_payloads_decode_to_a_checkpoint_or_an_error(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n_inputs, n_neurons) = (rng.gen_range(0..9_u32), rng.gen_range(0..9_u32));
        let expected = 4 * (n_inputs * n_neurons + n_neurons) as usize;
        let len = (expected + rng.gen_range(0..9_usize)).saturating_sub(4);
        let mut input = checkpoint_header(n_inputs, n_neurons);
        input.extend(random_bytes(&mut rng, len));
        prop_assert_eq!(Checkpoint::from_bytes(&input).is_ok(), len == expected);
        decode_checkpoint(&input);
    }

    /// Valid checkpoints round-trip bit for bit, and their bit flips and
    /// truncations decode to a checkpoint or an error.
    #[test]
    fn checkpoints_round_trip_and_survive_corruption(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ckpt = random_checkpoint(&mut rng);
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("a valid encoding decodes");
        prop_assert_eq!((back.n_inputs, back.n_neurons), (ckpt.n_inputs, ckpt.n_neurons));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back.weights), bits(&ckpt.weights));
        prop_assert_eq!(bits(&back.thetas), bits(&ckpt.thetas));
        for _ in 0..8 {
            decode_checkpoint(&mutate(&bytes, &mut rng));
        }
    }

    /// Random bytes, bare or behind an IDX magic, decode to a tensor or
    /// an error.
    #[test]
    fn random_bytes_decode_to_an_idx_tensor_or_an_error(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        ndims in 0_u8..6,
    ) {
        let mut input = vec![0, 0, 0x08, ndims];
        input.extend_from_slice(&bytes);
        decode_idx(&bytes);
        decode_idx(&input);
    }

    /// A valid IDX header over small dims with a payload near the claimed
    /// length decodes exactly when the payload is long enough.
    #[test]
    fn idx_headers_with_ragged_payloads_decode_to_a_tensor_or_an_error(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dims, _, mut bytes) = random_idx(&mut rng);
        let claim: usize = dims.iter().product();
        let len = (claim + rng.gen_range(0..9_usize)).saturating_sub(4);
        bytes.truncate(bytes.len() - claim);
        bytes.extend(random_bytes(&mut rng, len));
        prop_assert_eq!(read_idx(Cursor::new(&bytes)).is_ok(), len >= claim);
        prop_assert!(decode_idx(&bytes));
    }

    /// Valid IDX encodings round-trip bit for bit, and their bit flips
    /// and truncations decode to a tensor or an error.
    #[test]
    fn idx_tensors_round_trip_and_survive_corruption(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dims, data, bytes) = random_idx(&mut rng);
        let back = read_idx(Cursor::new(&bytes)).expect("a valid encoding decodes");
        prop_assert_eq!(&back.dims, &dims);
        prop_assert_eq!(&back.data, &data);
        for _ in 0..8 {
            decode_idx(&mutate(&bytes, &mut rng));
        }
    }

    /// Random bytes written as a job's `job.json`, and as a cell
    /// checkpoint of a valid job, open and load to a value or a format
    /// error.
    #[test]
    fn random_job_files_open_and_load_to_a_value_or_an_error(
        job_bytes in prop::collection::vec(any::<u8>(), 0..160),
        cell_bytes in prop::collection::vec(any::<u8>(), 0..160),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = CampaignService::new(temp_root());
        let job = service.submit("valid", random_spec(&mut rng), Some(seed)).expect("submit");
        let key = random_cell(job.spec(), &mut rng).key;
        std::fs::write(job.cell_path(key), &cell_bytes).expect("write cell");
        assert_format_or_ok(&job.load_cell(key), "random cell");
        std::fs::create_dir_all(service.root().join("random")).expect("job dir");
        std::fs::write(service.root().join("random/job.json"), &job_bytes).expect("write job");
        open_and_load_every_cell(&service, "random");
        let _ = std::fs::remove_dir_all(service.root());
    }

    /// A valid cell round-trips through `store_cell` → `load_cell`, and
    /// bit flips and truncations of a valid `job.json` and of the stored
    /// cell open and load to a value or a format error; a cell that still
    /// loads re-stores to a cell that loads back equal.
    #[test]
    fn job_files_round_trip_and_survive_corruption(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = CampaignService::new(temp_root());
        let job = service.submit("valid", random_spec(&mut rng), None).expect("submit");
        let cell = random_cell(job.spec(), &mut rng);
        job.store_cell(&cell).expect("store");
        let back = job.load_cell(cell.key).expect("a stored cell loads").expect("present");
        prop_assert_eq!(back.to_json().render(), cell.to_json().render());

        let job_json = std::fs::read(job.dir().join("job.json")).expect("read job");
        let cell_file = std::fs::read(job.cell_path(cell.key)).expect("read cell");
        for _ in 0..8 {
            std::fs::write(job.cell_path(cell.key), mutate(&cell_file, &mut rng)).expect("write");
            let loaded = job.load_cell(cell.key);
            assert_format_or_ok(&loaded, "corrupted cell");
            if let Ok(Some(loaded)) = loaded {
                job.store_cell(&loaded).expect("re-store");
                let again = job.load_cell(cell.key).expect("re-stored cell loads").expect("present");
                prop_assert_eq!(again.to_json().render(), loaded.to_json().render());
            }
        }
        std::fs::write(job.cell_path(cell.key), &cell_file).expect("restore cell");
        for _ in 0..8 {
            std::fs::write(job.dir().join("job.json"), mutate(&job_json, &mut rng)).expect("write");
            open_and_load_every_cell(&service, "valid");
        }
        let _ = std::fs::remove_dir_all(service.root());
    }
}
