//! The synapse crossbar: an M×N array of weight registers with per-column
//! accumulation (each synapse adds its weight to the running column sum, so
//! each neuron receives a single accumulated input — the routing
//! optimization described in the paper's Sec. 2.1).
//!
//! # Storage layout
//!
//! Weight codes are stored as one flat, row-major `Vec<u8>` rather than a
//! vector of register structs. [`WeightRegister`] is `#[repr(transparent)]`
//! over `u8`, so a register *view* of any cell is a free copy
//! ([`Crossbar::register`]), while the engine's accumulate hot path
//! borrows the whole image as one contiguous byte slice
//! ([`Crossbar::codes_slice`]) and runs it through the accumulate
//! kernel of [`crate::kernels`].

use crate::error::HwError;
use crate::weight_register::WeightRegister;

/// An M×N crossbar of 8-bit weight registers, row-major
/// (`codes[row * cols + col]`). Rows are inputs, columns are neurons.
///
/// # Examples
///
/// ```
/// use snn_hw::crossbar::Crossbar;
///
/// let mut xbar = Crossbar::zeroed(2, 3);
/// xbar.write(0, 1, 40);
/// assert_eq!(xbar.read(0, 1), 40);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    codes: Vec<u8>,
}

impl Crossbar {
    /// Creates a crossbar with all registers zeroed.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            codes: vec![0; rows * cols],
        }
    }

    /// Creates a crossbar from row-major codes.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidNetwork`] if `codes.len() != rows * cols`.
    pub fn from_codes(rows: usize, cols: usize, codes: &[u8]) -> Result<Self, HwError> {
        if codes.len() != rows * cols {
            return Err(HwError::InvalidNetwork {
                detail: format!(
                    "expected {} codes for a {rows}x{cols} crossbar, got {}",
                    rows * cols,
                    codes.len()
                ),
            });
        }
        Ok(Self {
            rows,
            cols,
            codes: codes.to_vec(),
        })
    }

    /// Number of rows (inputs).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (neurons).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of synapses.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the crossbar holds zero synapses.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Reads the register at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn read(&self, row: usize, col: usize) -> u8 {
        assert!(row < self.rows && col < self.cols, "crossbar index");
        self.codes[row * self.cols + col]
    }

    /// A register view of the cell at (`row`, `col`) — a free copy, since
    /// [`WeightRegister`] is transparent over `u8`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn register(&self, row: usize, col: usize) -> WeightRegister {
        WeightRegister::new(self.read(row, col))
    }

    /// Overwrites the register at (`row`, `col`) — clears any persisted
    /// bit-flip fault at that location.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn write(&mut self, row: usize, col: usize, code: u8) {
        assert!(row < self.rows && col < self.cols, "crossbar index");
        self.codes[row * self.cols + col] = code;
    }

    /// Reloads every register from row-major codes (parameter replacement).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidNetwork`] on length mismatch.
    pub fn reload(&mut self, codes: &[u8]) -> Result<(), HwError> {
        if codes.len() != self.codes.len() {
            return Err(HwError::InvalidNetwork {
                detail: format!(
                    "reload expected {} codes, got {}",
                    self.codes.len(),
                    codes.len()
                ),
            });
        }
        self.codes.copy_from_slice(codes);
        Ok(())
    }

    /// Flips one bit of the register at (`row`, `col`) — a soft error.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::IndexOutOfRange`] for bad indices.
    pub fn flip_bit(&mut self, row: usize, col: usize, bit: u8) -> Result<(), HwError> {
        if row >= self.rows {
            return Err(HwError::IndexOutOfRange {
                what: "row",
                index: row,
                bound: self.rows,
            });
        }
        if col >= self.cols {
            return Err(HwError::IndexOutOfRange {
                what: "col",
                index: col,
                bound: self.cols,
            });
        }
        if bit >= 8 {
            return Err(HwError::IndexOutOfRange {
                what: "bit",
                index: bit as usize,
                bound: 8,
            });
        }
        let mut reg = WeightRegister::new(self.codes[row * self.cols + col]);
        reg.flip_bit(bit);
        self.codes[row * self.cols + col] = reg.read();
        Ok(())
    }

    /// Accumulates the (read-path-transformed) weights of `row` into the
    /// per-column sums — the crossbar's column-adder operation for one
    /// spiking input row.
    ///
    /// `read_path` models the circuitry between the register and the
    /// column adder (identity for the baseline engine, bounding logic for
    /// the BnP-enhanced engine).
    ///
    /// This is the *reference* per-element formulation, in `i64`. The
    /// engine's hot path instead accumulates in `i32` from a resolved read
    /// image through [`crate::kernels`] (exact: a full column sums to at
    /// most `rows × 255`), and the engine equivalence proptests pin it
    /// against the reference steps built on this method.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `acc.len() != cols`.
    pub fn accumulate_row(&self, row: usize, read_path: impl Fn(u8) -> u8, acc: &mut [i64]) {
        assert!(row < self.rows, "row index");
        assert_eq!(acc.len(), self.cols, "accumulator width");
        for (a, &c) in acc.iter_mut().zip(self.row_codes(row)) {
            *a += read_path(c) as i64;
        }
    }

    /// The codes of one row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[inline]
    pub fn row_codes(&self, row: usize) -> &[u8] {
        let base = row * self.cols;
        &self.codes[base..base + self.cols]
    }

    /// All codes, row-major, borrowed (the allocation-free accessor).
    pub fn codes_slice(&self) -> &[u8] {
        &self.codes
    }

    /// All codes, row-major, as an owned copy (for analysis and
    /// checkpointing; prefer [`codes_slice`](Self::codes_slice) when a
    /// borrow suffices).
    pub fn codes(&self) -> Vec<u8> {
        self.codes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_codes_checks_len() {
        assert!(Crossbar::from_codes(2, 2, &[1, 2, 3]).is_err());
        assert!(Crossbar::from_codes(2, 2, &[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn accumulate_row_sums_into_columns() {
        let xbar = Crossbar::from_codes(2, 3, &[1, 2, 3, 10, 20, 30]).unwrap();
        let mut acc = vec![0_i64; 3];
        xbar.accumulate_row(0, |c| c, &mut acc);
        xbar.accumulate_row(1, |c| c, &mut acc);
        assert_eq!(acc, vec![11, 22, 33]);
    }

    #[test]
    fn read_path_transforms_reads_without_touching_registers() {
        let xbar = Crossbar::from_codes(1, 2, &[200, 10]).unwrap();
        let mut acc = vec![0_i64; 2];
        // A bounding-style path: clamp anything >= 128 to 0.
        xbar.accumulate_row(0, |c| if c >= 128 { 0 } else { c }, &mut acc);
        assert_eq!(acc, vec![0, 10]);
        assert_eq!(xbar.read(0, 0), 200, "register content unchanged");
    }

    #[test]
    fn flip_bit_validates_indices() {
        let mut xbar = Crossbar::zeroed(2, 2);
        assert!(xbar.flip_bit(5, 0, 0).is_err());
        assert!(xbar.flip_bit(0, 5, 0).is_err());
        assert!(xbar.flip_bit(0, 0, 9).is_err());
        xbar.flip_bit(1, 1, 7).unwrap();
        assert_eq!(xbar.read(1, 1), 128);
    }

    #[test]
    fn reload_clears_faults() {
        let mut xbar = Crossbar::from_codes(1, 2, &[5, 6]).unwrap();
        xbar.flip_bit(0, 0, 7).unwrap();
        assert_eq!(xbar.read(0, 0), 133);
        xbar.reload(&[5, 6]).unwrap();
        assert_eq!(xbar.read(0, 0), 5);
    }

    #[test]
    fn codes_round_trip() {
        let codes = vec![9, 8, 7, 6];
        let xbar = Crossbar::from_codes(2, 2, &codes).unwrap();
        assert_eq!(xbar.codes(), codes);
        assert_eq!(xbar.codes_slice(), codes.as_slice());
    }

    #[test]
    fn register_view_reflects_cell() {
        let mut xbar = Crossbar::from_codes(1, 2, &[3, 4]).unwrap();
        assert_eq!(xbar.register(0, 1).read(), 4);
        xbar.write(0, 1, 9);
        assert_eq!(xbar.register(0, 1).read(), 9);
    }

    #[test]
    fn row_codes_is_the_row_major_slice() {
        let xbar = Crossbar::from_codes(2, 3, &[1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(xbar.row_codes(0), &[1, 2, 3]);
        assert_eq!(xbar.row_codes(1), &[4, 5, 6]);
    }
}
