//! Quickstart: one complete dual-path beamline session (Figure 2's user
//! journey) at laptop scale.
//!
//! Mount a (synthetic) sample, start the streaming service, run a scan,
//! get the three-slice preview back, then let the file-based branch
//! produce the high-quality reconstruction — and compare the two.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use als_flows::realmode::{run_session_with, scan_to_archive, FileBranchConfig};
use als_phantom::{shepp_logan_volume, DetectorConfig};
use als_scidata::ScanFile;
use als_tomo::quality::{mse_in_disk, psnr};
use als_viz::{write_preview_pgms, Window};

fn main() {
    let out_dir = std::env::temp_dir().join("als_flows_quickstart");
    std::fs::remove_dir_all(&out_dir).ok();
    std::fs::create_dir_all(&out_dir).unwrap();

    println!("== ALS 8.3.2 dual-path session (laptop scale) ==\n");
    println!("sample: Shepp-Logan volume, 96x96x8, 96 angles, photon-limited exposure");

    // 1. acquire: detector -> PVA mirror -> {file writer, streaming svc}.
    // A short-exposure (noisy) acquisition: the regime where the paper's
    // high-quality file-based branch visibly earns its 20-30 minutes.
    let phantom = shepp_logan_volume(96, 8);
    let det = DetectorConfig {
        i0: 500.0,
        ..Default::default()
    };
    let result = run_session_with(&phantom, 96, &out_dir, "quickstart_scan", 42, det);

    // 2. the streaming branch's feedback (the <10 s path in production)
    println!("\n-- streaming branch --");
    println!("frames reconstructed    : {}", result.preview.cached_frames);
    println!(
        "reconstruction          : {:.4} s while the scan arrived + {:.4} s after it ended",
        result.preview.ingest_busy.as_secs_f64(),
        result.preview.recon_wall.as_secs_f64()
    );
    println!(
        "preview assembly        : {:.4} s",
        result.preview.send_wall.as_secs_f64()
    );
    let paths = write_preview_pgms(&out_dir, "preview", &result.preview.slices).unwrap();
    println!(
        "preview slices written  : {}",
        paths[0].parent().unwrap().display()
    );

    // 3. the file-based branch's product: the written scan goes through
    // the chunked scan-to-archive pipeline — slab transpose, fused prep,
    // slice-parallel SIRT, and both archive sinks on a dedicated I/O
    // thread, overlapped with reconstruction
    println!("\n-- file-based branch (scan-to-archive pipeline) --");
    println!("scan file               : {}", result.scan_path.display());
    println!(
        "raw size                : {:.1} MiB",
        result.scan_bytes as f64 / (1 << 20) as f64
    );
    let scan = ScanFile::load(&result.scan_path).expect("written scan loads");
    let archive = scan_to_archive(
        &scan,
        det.mu_scale,
        &FileBranchConfig::default(),
        &out_dir.join("archive"),
    );
    let rep = &archive.report;
    println!(
        "scan->archive wall      : {:.2} s ({:.1} slices/s, {} slabs)",
        rep.wall.as_secs_f64(),
        rep.slices_per_sec(),
        rep.slabs
    );
    println!(
        "stage busy (load/prep/recon/sink): {:.0}/{:.0}/{:.0}/{:.0} ms, sink overlapped with recon {:.0} ms",
        rep.load_busy.as_secs_f64() * 1e3,
        rep.prep_busy.as_secs_f64() * 1e3,
        rep.recon_busy.as_secs_f64() * 1e3,
        rep.sink_busy.as_secs_f64() * 1e3,
        rep.sink_busy_overlapped.as_secs_f64() * 1e3,
    );
    println!("tiff stack              : {}", archive.tiff_dir.display());
    println!(
        "multiscale store        : {}",
        archive.multiscale_dir.display()
    );

    // 4. quality comparison against ground truth
    println!("\n-- quality (vs ground-truth phantom, middle slice) --");
    let truth = phantom.slice_xy(4);
    let stream_slice = result.streaming_volume.slice_xy(4);
    let file_slice = result.file_based_volume.slice_xy(4);
    let (p_stream, p_file) = (
        psnr(&truth, &stream_slice, 1.0),
        psnr(&truth, &file_slice, 1.0),
    );
    println!(
        "streaming FBP   : PSNR {:.1} dB, disk MSE {:.5}",
        p_stream,
        mse_in_disk(&truth, &stream_slice)
    );
    println!(
        "file-based SIRT : PSNR {:.1} dB, disk MSE {:.5}",
        p_file,
        mse_in_disk(&truth, &file_slice)
    );
    let w = Window::percentile(&file_slice, 1.0, 99.0);
    als_viz::write_pgm(&out_dir.join("file_based_mid.pgm"), &file_slice, w).unwrap();

    println!("\nartifacts in {}", out_dir.display());
}
