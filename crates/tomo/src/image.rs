//! Core array types: 2D images, sinograms, and 3D volumes.
//!
//! All storage is `f32` row-major `Vec`s — the precision the paper's
//! reconstructed volumes use (2160×2560×2560 32-bit ≈ 50 GB).

use serde::{Deserialize, Serialize};

/// A 2D image, `height` rows × `width` columns, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    pub width: usize,
    pub height: usize,
    pub data: Vec<f32>,
}

impl Image {
    /// Zero-filled image.
    pub fn zeros(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Build from parts.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), width * height, "image buffer size mismatch");
        Image {
            width,
            height,
            data,
        }
    }

    /// Square zero image.
    pub fn square(n: usize) -> Self {
        Self::zeros(n, n)
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.width + x] = v;
    }

    #[inline]
    pub fn row(&self, y: usize) -> &[f32] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [f32] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// Minimum and maximum pixel values (0,0 for an empty image).
    pub fn min_max(&self) -> (f32, f32) {
        let mut mn = f32::INFINITY;
        let mut mx = f32::NEG_INFINITY;
        for &v in &self.data {
            mn = mn.min(v);
            mx = mx.max(v);
        }
        if self.data.is_empty() {
            (0.0, 0.0)
        } else {
            (mn, mx)
        }
    }

    /// Mean pixel value.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Downsample by integer factor with box averaging.
    pub fn downsample(&self, factor: usize) -> Image {
        assert!(factor >= 1);
        if factor == 1 {
            return self.clone();
        }
        let w = (self.width / factor).max(1);
        let h = (self.height / factor).max(1);
        let mut out = Image::zeros(w, h);
        for oy in 0..h {
            for ox in 0..w {
                let mut acc = 0.0f64;
                let mut cnt = 0u32;
                for dy in 0..factor {
                    for dx in 0..factor {
                        let x = ox * factor + dx;
                        let y = oy * factor + dy;
                        if x < self.width && y < self.height {
                            acc += self.get(x, y) as f64;
                            cnt += 1;
                        }
                    }
                }
                out.set(ox, oy, (acc / cnt.max(1) as f64) as f32);
            }
        }
        out
    }
}

/// A parallel-beam sinogram: `n_angles` rows × `n_det` detector bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sinogram {
    pub n_angles: usize,
    pub n_det: usize,
    pub data: Vec<f32>,
}

impl Sinogram {
    pub fn zeros(n_angles: usize, n_det: usize) -> Self {
        Sinogram {
            n_angles,
            n_det,
            data: vec![0.0; n_angles * n_det],
        }
    }

    pub fn from_vec(n_angles: usize, n_det: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            n_angles * n_det,
            "sinogram buffer size mismatch"
        );
        Sinogram {
            n_angles,
            n_det,
            data,
        }
    }

    #[inline]
    pub fn row(&self, a: usize) -> &[f32] {
        &self.data[a * self.n_det..(a + 1) * self.n_det]
    }

    #[inline]
    pub fn row_mut(&mut self, a: usize) -> &mut [f32] {
        &mut self.data[a * self.n_det..(a + 1) * self.n_det]
    }

    #[inline]
    pub fn get(&self, a: usize, t: usize) -> f32 {
        self.data[a * self.n_det + t]
    }

    #[inline]
    pub fn set(&mut self, a: usize, t: usize, v: f32) {
        self.data[a * self.n_det + t] = v;
    }

    /// Linear interpolation along the detector axis of row `a`; clamps to
    /// the row edges.
    pub fn sample_row(&self, a: usize, t: f64) -> f64 {
        let row = self.row(a);
        if row.is_empty() {
            return 0.0;
        }
        if t <= 0.0 {
            return row[0] as f64;
        }
        let last = (row.len() - 1) as f64;
        if t >= last {
            return row[row.len() - 1] as f64;
        }
        let i = t.floor() as usize;
        let f = t - i as f64;
        row[i] as f64 * (1.0 - f) + row[i + 1] as f64 * f
    }
}

/// A 3D volume: `nz` slices of `ny` rows × `nx` columns, slice-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Volume {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub data: Vec<f32>,
}

impl Volume {
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Volume {
            nx,
            ny,
            nz,
            data: vec![0.0; nx * ny * nz],
        }
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[(z * self.ny + y) * self.nx + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        self.data[(z * self.ny + y) * self.nx + x] = v;
    }

    /// Borrow slice `z` as an [`Image`]-shaped view (copied).
    pub fn slice_xy(&self, z: usize) -> Image {
        let start = z * self.nx * self.ny;
        Image::from_vec(
            self.nx,
            self.ny,
            self.data[start..start + self.nx * self.ny].to_vec(),
        )
    }

    /// Orthogonal slice in the XZ plane at row `y`.
    pub fn slice_xz(&self, y: usize) -> Image {
        let mut img = Image::zeros(self.nx, self.nz);
        for z in 0..self.nz {
            for x in 0..self.nx {
                img.set(x, z, self.get(x, y, z));
            }
        }
        img
    }

    /// Orthogonal slice in the YZ plane at column `x`.
    pub fn slice_yz(&self, x: usize) -> Image {
        let mut img = Image::zeros(self.ny, self.nz);
        for z in 0..self.nz {
            for y in 0..self.ny {
                img.set(y, z, self.get(x, y, z));
            }
        }
        img
    }

    /// Overwrite slice `z` from an image of matching shape.
    pub fn set_slice_xy(&mut self, z: usize, img: &Image) {
        assert_eq!((img.width, img.height), (self.nx, self.ny));
        let start = z * self.nx * self.ny;
        self.data[start..start + self.nx * self.ny].copy_from_slice(&img.data);
    }

    /// Total voxel count.
    pub fn voxels(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Size in bytes at f32 precision.
    pub fn nbytes(&self) -> u64 {
        (self.voxels() * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_indexing_is_row_major() {
        let mut img = Image::zeros(3, 2);
        img.set(2, 1, 7.0);
        assert_eq!(img.data[5], 7.0);
        assert_eq!(img.get(2, 1), 7.0);
        assert_eq!(img.row(1), &[0.0, 0.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_vec_validates_len() {
        Image::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn downsample_box_averages() {
        let img = Image::from_vec(4, 2, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0]);
        let ds = img.downsample(2);
        assert_eq!((ds.width, ds.height), (2, 1));
        assert_eq!(ds.data, vec![5.0, 9.0]);
    }

    #[test]
    fn sinogram_row_sampling_clamps() {
        let s = Sinogram::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.sample_row(0, -1.0), 1.0);
        assert_eq!(s.sample_row(0, 1.5), 2.5);
        assert_eq!(s.sample_row(0, 99.0), 4.0);
    }

    #[test]
    fn volume_orthogonal_slices_agree() {
        let mut v = Volume::zeros(3, 4, 5);
        v.set(1, 2, 3, 42.0);
        assert_eq!(v.slice_xy(3).get(1, 2), 42.0);
        assert_eq!(v.slice_xz(2).get(1, 3), 42.0);
        assert_eq!(v.slice_yz(1).get(2, 3), 42.0);
    }

    #[test]
    fn volume_set_slice_roundtrips() {
        let mut v = Volume::zeros(2, 2, 2);
        let img = Image::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        v.set_slice_xy(1, &img);
        assert_eq!(v.slice_xy(1), img);
        assert_eq!(v.slice_xy(0).data, vec![0.0; 4]);
    }

    #[test]
    fn volume_nbytes_matches_f32() {
        let v = Volume::zeros(10, 10, 10);
        assert_eq!(v.nbytes(), 4000);
    }

    #[test]
    fn image_min_max_mean() {
        let img = Image::from_vec(2, 2, vec![1.0, -2.0, 3.0, 6.0]);
        assert_eq!(img.min_max(), (-2.0, 6.0));
        assert_eq!(img.mean(), 2.0);
    }
}
