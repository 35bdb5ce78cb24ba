//! The pre-`IterPlan` SIRT path: per-call projector plan and row/column
//! sums, the clipped reference forward projector inside the update loop.
//! It is the oracle the slice-interleaved, table-driven solver is gated
//! against — do not optimise it.

use als_tomo::radon::apply_disk_mask;
use als_tomo::{
    FbpConfig, FilterKind, Geometry, Image, IterConfig, ReconPlan, Sinogram, TomoError,
};

/// Simultaneous Iterative Reconstruction Technique, one slice.
///
/// Update: `x ← x + λ · C · Aᵀ · R · (p − A x)` where `R` and `C` normalize
/// by row and column sums of the system matrix (approximated with
/// projections of a unit image).
pub fn sirt_slice(sino: &Sinogram, geom: &Geometry, cfg: &IterConfig) -> Result<Image, TomoError> {
    geom.validate(sino.n_angles, sino.n_det)?;
    let n = geom.n_det;
    // the projector plan: no filtering, extents matching the disk mask
    let plan = ReconPlan::new(
        geom,
        &FbpConfig {
            filter: FilterKind::None,
            mask_disk: cfg.mask_disk,
        },
    )?;

    // Row sums: projection of an all-ones image; column sums: back
    // projection of an all-ones sinogram.
    let mut ones_img = Image::square(n);
    ones_img.data.iter_mut().for_each(|v| *v = 1.0);
    let mut row_sums = Sinogram::zeros(sino.n_angles, sino.n_det);
    plan.forward_into(&ones_img, &mut row_sums);
    let mut ones_sino = Sinogram::zeros(sino.n_angles, sino.n_det);
    ones_sino.data.iter_mut().for_each(|v| *v = 1.0);
    let mut col_sums = Image::square(n);
    let mut bp = plan.make_scratch();
    plan.backproject_acc(&ones_sino, 1.0, &mut bp, &mut col_sums.data);

    let mut x = Image::square(n);
    let mut fwd = Sinogram::zeros(sino.n_angles, sino.n_det);
    let mut resid = Sinogram::zeros(sino.n_angles, sino.n_det);
    let mut update = Image::square(n);

    for _ in 0..cfg.iterations {
        plan.forward_into(&x, &mut fwd);
        for i in 0..resid.data.len() {
            let r = row_sums.data[i].max(1e-6);
            resid.data[i] = (sino.data[i] - fwd.data[i]) / r;
        }
        update.data.iter_mut().for_each(|v| *v = 0.0);
        plan.backproject_acc(&resid, 1.0, &mut bp, &mut update.data);
        for i in 0..x.data.len() {
            let c = col_sums.data[i].max(1e-6);
            x.data[i] += cfg.relaxation as f32 * update.data[i] / c;
        }
        if cfg.nonneg {
            for v in x.data.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        if cfg.mask_disk {
            apply_disk_mask(&mut x);
        }
    }
    Ok(x)
}
