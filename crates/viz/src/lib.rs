//! # als-viz
//!
//! The access layer's visualization primitives — what ImageJ and the
//! itk-vtk-viewer web app consume in the paper:
//!
//! * orthogonal three-slice previews of a volume (the <10 s streaming
//!   feedback artifact);
//! * intensity windowing and histograms (how users inspect attenuation);
//! * 8-bit PGM image export so previews can be opened with any viewer.

pub mod render;
pub mod window;

pub use render::{write_pgm, write_preview_pgms};
pub use window::{histogram, Window};

use als_tomo::{Image, Volume};

/// The standard three-slice preview: axial (XY), coronal (XZ), sagittal
/// (YZ) planes through the volume center — what the streaming service
/// ships back to ImageJ at the beamline.
pub fn three_slice_preview(vol: &Volume) -> [Image; 3] {
    [
        vol.slice_xy(vol.nz / 2),
        vol.slice_xz(vol.ny / 2),
        vol.slice_yz(vol.nx / 2),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preview_slices_have_expected_shapes() {
        let vol = Volume::zeros(10, 12, 14);
        let [xy, xz, yz] = three_slice_preview(&vol);
        assert_eq!((xy.width, xy.height), (10, 12));
        assert_eq!((xz.width, xz.height), (10, 14));
        assert_eq!((yz.width, yz.height), (12, 14));
    }

    #[test]
    fn preview_cuts_through_center() {
        let mut vol = Volume::zeros(9, 9, 9);
        vol.set(4, 4, 4, 1.0);
        let [xy, xz, yz] = three_slice_preview(&vol);
        assert_eq!(xy.get(4, 4), 1.0);
        assert_eq!(xz.get(4, 4), 1.0);
        assert_eq!(yz.get(4, 4), 1.0);
    }
}
