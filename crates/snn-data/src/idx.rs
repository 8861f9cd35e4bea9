//! IDX (`*-ubyte`) file format reader/writer.
//!
//! The real MNIST and Fashion-MNIST datasets ship as IDX files
//! (`train-images-idx3-ubyte`, `train-labels-idx1-ubyte`, …). When those
//! files are placed under a data directory, [`load_pair`] /
//! [`crate::workload::Workload::load_or_generate`] use them instead of the synthetic
//! generators, making the reproduction runnable on the paper's exact
//! workloads.
//!
//! Format (big-endian): magic `[0, 0, dtype, ndims]`, then `ndims` × `u32`
//! dimensions, then the raw data. Only `dtype = 0x08` (unsigned byte) is
//! supported, which is all MNIST-family files use.

use crate::dataset::{DataError, Dataset};
use std::io::{Read, Write};
use std::path::Path;

/// A parsed IDX tensor of unsigned bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdxTensor {
    /// Dimension sizes, outermost first.
    pub dims: Vec<usize>,
    /// Row-major data.
    pub data: Vec<u8>,
}

impl IdxTensor {
    /// Total element count implied by `dims`.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reads an IDX tensor from any reader.
///
/// Generic readers are taken by value; pass `&mut reader` to keep using the
/// reader afterwards.
///
/// # Errors
///
/// Returns [`DataError::ParseIdx`] on a malformed header or truncated data
/// and [`DataError::Io`] on read failures.
pub fn read_idx<R: Read>(mut reader: R) -> Result<IdxTensor, DataError> {
    let mut magic = [0_u8; 4];
    reader.read_exact(&mut magic)?;
    if magic[0] != 0 || magic[1] != 0 {
        return Err(DataError::ParseIdx {
            detail: format!("bad magic prefix {:?}", &magic[..2]),
        });
    }
    if magic[2] != 0x08 {
        return Err(DataError::ParseIdx {
            detail: format!("unsupported dtype 0x{:02x} (only ubyte 0x08)", magic[2]),
        });
    }
    let ndims = magic[3] as usize;
    if ndims == 0 || ndims > 4 {
        return Err(DataError::ParseIdx {
            detail: format!("unsupported ndims {ndims}"),
        });
    }
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        let mut b = [0_u8; 4];
        reader.read_exact(&mut b)?;
        dims.push(u32::from_be_bytes(b) as usize);
    }
    // Checked: a corrupt header must fail cleanly, not overflow the
    // element count (or try to allocate the wrapped-around "size").
    let total = dims
        .iter()
        .try_fold(1_usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| DataError::ParseIdx {
            detail: format!("dimension product overflows usize: {dims:?}"),
        })?;
    // The buffer grows with the bytes actually present, so a header that
    // claims more data than the stream holds fails without allocating
    // its claim first.
    let mut data = Vec::new();
    reader.take(total as u64).read_to_end(&mut data)?;
    if data.len() != total {
        return Err(DataError::ParseIdx {
            detail: format!(
                "truncated data: dims {dims:?} need {total} bytes, got {}",
                data.len()
            ),
        });
    }
    Ok(IdxTensor { dims, data })
}

/// Writes an IDX tensor of unsigned bytes.
///
/// # Errors
///
/// Returns [`DataError::Io`] on write failure or
/// [`DataError::ShapeMismatch`] if `data.len()` disagrees with `dims`.
pub fn write_idx<W: Write>(mut writer: W, dims: &[usize], data: &[u8]) -> Result<(), DataError> {
    let total: usize = dims.iter().product();
    if total != data.len() {
        return Err(DataError::ShapeMismatch {
            detail: format!("dims imply {total} elements, data has {}", data.len()),
        });
    }
    if dims.is_empty() || dims.len() > 4 {
        return Err(DataError::ShapeMismatch {
            detail: format!("ndims {} unsupported", dims.len()),
        });
    }
    writer.write_all(&[0, 0, 0x08, dims.len() as u8])?;
    for &d in dims {
        writer.write_all(&(d as u32).to_be_bytes())?;
    }
    writer.write_all(data)?;
    Ok(())
}

/// Loads an images + labels IDX pair into a [`Dataset`], normalizing pixel
/// bytes to `[0, 1]`.
///
/// # Errors
///
/// Returns an error if either file is missing/malformed, the image tensor
/// is not 3-dimensional, or counts disagree.
pub fn load_pair<P: AsRef<Path>>(
    images_path: P,
    labels_path: P,
    n_classes: usize,
) -> Result<Dataset, DataError> {
    let images = read_idx(std::fs::File::open(images_path)?)?;
    let labels = read_idx(std::fs::File::open(labels_path)?)?;
    if images.dims.len() != 3 {
        return Err(DataError::ParseIdx {
            detail: format!("image tensor must be 3-d, got {}-d", images.dims.len()),
        });
    }
    if labels.dims.len() != 1 {
        return Err(DataError::ParseIdx {
            detail: format!("label tensor must be 1-d, got {}-d", labels.dims.len()),
        });
    }
    let (n, h, w) = (images.dims[0], images.dims[1], images.dims[2]);
    if labels.dims[0] != n {
        return Err(DataError::ShapeMismatch {
            detail: format!("{n} images vs {} labels", labels.dims[0]),
        });
    }
    let pixels = h * w;
    let imgs: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            images.data[i * pixels..(i + 1) * pixels]
                .iter()
                .map(|&b| b as f32 / 255.0)
                .collect()
        })
        .collect();
    let lbls: Vec<usize> = labels.data.iter().map(|&b| b as usize).collect();
    Dataset::new(w, h, n_classes, imgs, lbls)
}

/// Standard MNIST-family file names inside a dataset directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdxFileNames {
    /// Training images file name.
    pub train_images: &'static str,
    /// Training labels file name.
    pub train_labels: &'static str,
    /// Test images file name.
    pub test_images: &'static str,
    /// Test labels file name.
    pub test_labels: &'static str,
}

/// The canonical MNIST/Fashion-MNIST file names.
pub const MNIST_FILES: IdxFileNames = IdxFileNames {
    train_images: "train-images-idx3-ubyte",
    train_labels: "train-labels-idx1-ubyte",
    test_images: "t10k-images-idx3-ubyte",
    test_labels: "t10k-labels-idx1-ubyte",
};

/// Attempts to load a train/test pair from `dir` using the canonical file
/// names. Returns `Ok(None)` (not an error) when the files are absent.
///
/// # Errors
///
/// Returns an error only if files exist but are malformed.
pub fn try_load_dir<P: AsRef<Path>>(
    dir: P,
    n_classes: usize,
) -> Result<Option<(Dataset, Dataset)>, DataError> {
    let dir = dir.as_ref();
    let ti = dir.join(MNIST_FILES.train_images);
    let tl = dir.join(MNIST_FILES.train_labels);
    let vi = dir.join(MNIST_FILES.test_images);
    let vl = dir.join(MNIST_FILES.test_labels);
    if !(ti.exists() && tl.exists() && vi.exists() && vl.exists()) {
        return Ok(None);
    }
    let train = load_pair(&ti, &tl, n_classes)?;
    let test = load_pair(&vi, &vl, n_classes)?;
    Ok(Some((train, test)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_images_bytes() -> Vec<u8> {
        // two 2x2 images
        let mut buf = Vec::new();
        write_idx(&mut buf, &[2, 2, 2], &[0, 64, 128, 255, 10, 20, 30, 40]).unwrap();
        buf
    }

    #[test]
    fn round_trip_write_read() {
        let buf = sample_images_bytes();
        let t = read_idx(Cursor::new(buf)).unwrap();
        assert_eq!(t.dims, vec![2, 2, 2]);
        assert_eq!(t.data[3], 255);
        assert_eq!(t.len(), 8);
    }

    #[test]
    fn rejects_bad_magic() {
        let buf = vec![1, 2, 3, 4, 0, 0, 0, 0];
        assert!(matches!(
            read_idx(Cursor::new(buf)),
            Err(DataError::ParseIdx { .. })
        ));
    }

    #[test]
    fn rejects_unsupported_dtype() {
        let buf = vec![0, 0, 0x0D, 1, 0, 0, 0, 1, 0, 0, 0, 0]; // float dtype
        assert!(read_idx(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_overflowing_dimension_product() {
        // Regression: a corrupt header whose dims multiply past usize
        // used to wrap around silently (allocating the wrapped size)
        // instead of failing. Four maxed u32 dims overflow on every
        // target width we build for.
        let mut buf = vec![0, 0, 0x08, 4];
        for _ in 0..4 {
            buf.extend_from_slice(&u32::MAX.to_be_bytes());
        }
        assert!(matches!(
            read_idx(Cursor::new(buf)),
            Err(DataError::ParseIdx { .. })
        ));
    }

    #[test]
    fn rejects_truncated_data() {
        let mut buf = sample_images_bytes();
        buf.truncate(buf.len() - 2);
        assert!(matches!(
            read_idx(Cursor::new(buf)),
            Err(DataError::ParseIdx { .. })
        ));
    }

    #[test]
    fn rejects_huge_claim_without_allocating_it() {
        // Regression: the buffer used to be sized from the header, so a
        // 12-byte file claiming (2^32 − 1)² bytes panicked with a
        // capacity overflow before the short read was noticed.
        let buf = vec![
            0, 0, 0x08, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        ];
        assert!(matches!(
            read_idx(Cursor::new(buf)),
            Err(DataError::ParseIdx { .. })
        ));
    }

    #[test]
    fn write_rejects_dim_mismatch() {
        let mut buf = Vec::new();
        assert!(write_idx(&mut buf, &[3], &[1, 2]).is_err());
    }

    #[test]
    fn load_pair_normalizes_and_labels() {
        let dir = std::env::temp_dir().join(format!("snn_idx_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let img_path = dir.join("imgs");
        let lbl_path = dir.join("lbls");
        {
            let f = std::fs::File::create(&img_path).unwrap();
            write_idx(f, &[2, 2, 2], &[0, 64, 128, 255, 10, 20, 30, 40]).unwrap();
            let f = std::fs::File::create(&lbl_path).unwrap();
            write_idx(f, &[2], &[3, 7]).unwrap();
        }
        let data = load_pair(&img_path, &lbl_path, 10).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.label(1), 7);
        assert!((data.image(0)[3] - 1.0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn try_load_dir_absent_is_none() {
        let missing = std::env::temp_dir().join("definitely_missing_snn_data_dir");
        assert!(try_load_dir(&missing, 10).unwrap().is_none());
    }
}
