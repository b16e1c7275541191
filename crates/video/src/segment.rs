//! Region segmentation: the EDISON stand-in (§2.1 of the paper).
//!
//! The paper segments each frame into homogeneous color regions with
//! EDISON (mean-shift) because it is "less sensitive to small changes over
//! the frames". This module reproduces that *stability property* on the
//! synthetic rasters with a cheap pipeline:
//!
//! 1. color quantization (homogeneous color classes),
//! 2. mode filtering of the class image (suppresses pixel noise while
//!    *preserving edges*, like mean-shift's mode seeking — a box blur would
//!    smear region borders into spurious intermediate bands),
//! 3. 4-connected component labeling,
//! 4. merging of small regions into their most similar neighbor.
//!
//! The output is exactly what Definition 1 consumes: labeled regions with
//! size / mean color / centroid plus their adjacency.
//!
//! ## Hot path (DESIGN.md §10)
//!
//! A corpus frame is a few hundred runs of identical pixels, not 19,200
//! pixels, so only one scan per row looks at every pixel: it splits the
//! row into runs of one pixel value, classes each run once and joins
//! neighbouring runs of one class. Everything after it works on runs, and
//! no stage builds a per-pixel class plane. The mode filter cuts each row
//! where any of its window rows changes class, decides every pixel whose
//! window lies within one such segment at once, and decides only the
//! pixels within its radius of a cut one by one, from the runs each window
//! row has there. Labeling joins the smoothed runs across rows by a
//! union-find and names each region by its first run; region statistics
//! are integer sums over the pixel runs under each smoothed run; and the
//! small-region merge runs on the region graph, one pass over its pairs a
//! round, instead of re-scanning the pixels every round. The
//! pixel-by-pixel pipeline this replaced is compiled only into this
//! module's unit tests, which pin the two to each other byte for byte:
//! labels, bit-identical `f64` colors and centroids, and adjacency.
//!
//! Per-frame buffers live in a reusable [`SegScratch`] arena so that
//! steady-state segmentation performs **zero heap allocations** (pinned by
//! `tests/ingest_alloc.rs`); `frames_to_rags` threads one arena per worker
//! through the frame fan-out.

use strg_graph::{Point2, Rgb};

use crate::raster::{Frame, Pixel};

/// Configuration of the segmenter.
#[derive(Copy, Clone, Debug)]
pub struct SegmentConfig {
    /// Color quantization levels per channel, clamped to `2..=256`. At 256
    /// the quantizer is already one-to-one on 8-bit channels, so a larger
    /// value would segment exactly as 256 does.
    pub quant_levels: u32,
    /// Regions smaller than this many pixels are merged into their most
    /// color-similar neighbor.
    pub min_region_size: usize,
    /// Radius of the mode (majority) filter applied to the quantized class
    /// image (0 disables smoothing).
    pub smooth_radius: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            quant_levels: 6,
            min_region_size: 24,
            smooth_radius: 1,
        }
    }
}

/// One segmented region.
#[derive(Clone, Debug)]
pub struct Region {
    /// Dense region label (index into [`Segmentation::regions`]).
    pub label: u32,
    /// Number of pixels.
    pub size: usize,
    /// Mean color over the region's pixels (of the *original* frame).
    pub color: Rgb,
    /// Pixel centroid.
    pub centroid: Point2,
}

/// The result of segmenting one frame.
#[derive(Clone, Debug, Default)]
pub struct Segmentation {
    /// Per-pixel region labels, row major.
    pub labels: Vec<u32>,
    /// Frame width the labels refer to.
    pub width: usize,
    /// The regions, indexed by label.
    pub regions: Vec<Region>,
    /// Adjacent region pairs `(a, b)` with `a < b`, deduplicated.
    pub adjacency: Vec<(u32, u32)>,
}

/// Reusable per-worker scratch arena for [`segment_into`].
///
/// Owns every intermediate buffer of the segmentation pipeline (pixel and
/// class runs, the mode filter's window cursors and class counts, smoothed
/// runs and the union-find that labels and merges them, the region graph's
/// adjacency pairs, and the region sums, merge targets and dense numbering,
/// indexed by run) plus the output [`Segmentation`] itself. Run buffers
/// grow with the frame's run count, not its pixel count. Buffers are grown
/// on demand and **never shrink**, so repeated calls on same-sized frames
/// reach a steady state with zero heap allocations (`tests/ingest_alloc.rs`
/// pins this). One arena serves one worker; `frames_to_rags` creates one
/// per `par_map` worker via `strg_parallel::par_map_with`.
#[derive(Debug, Default)]
pub struct SegScratch {
    // The scan: runs of one pixel value and runs of one class.
    pixel_runs: Vec<PixelRun>,
    class_runs: RowRuns,
    // The mode filter.
    cursors: Vec<u32>,
    counts: Vec<(u32, u32)>,
    // Smoothed runs and the union-find over them that names the regions.
    smoothed: RowRuns,
    run_comp: Vec<u32>,
    // Region sums and the region-graph merge.
    sums: Vec<RegionSums>,
    pairs: Vec<(u32, u32)>,
    target: Vec<(f64, u32)>,
    dense: Vec<u32>,
    // Reused output.
    out: Segmentation,
}

impl SegScratch {
    /// Creates an empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the most recent segmentation out of the arena (the arena keeps
    /// its other buffers and can be reused).
    pub fn take_output(&mut self) -> Segmentation {
        std::mem::take(&mut self.out)
    }
}

/// Clears `v` and resizes it to `n` copies of `value`.
fn fill_to<T: Copy>(v: &mut Vec<T>, n: usize, value: T) {
    clear_with_cap(v, n);
    v.resize(n, value);
}

/// Clears `v`, ensuring capacity for at least `cap` elements.
fn clear_with_cap<T>(v: &mut Vec<T>, cap: usize) {
    v.clear();
    v.reserve_exact(cap);
}

/// Union-find root with path halving.
fn find(uf: &mut [u32], mut x: u32) -> u32 {
    while uf[x as usize] != x {
        uf[x as usize] = uf[uf[x as usize] as usize];
        x = uf[x as usize];
    }
    x
}

/// A maximal run of one class within one row: pixels `x0..x1` of row `y`.
#[derive(Copy, Clone, Debug)]
struct Run {
    y: u32,
    x0: u32,
    x1: u32,
    class: u32,
}

/// A maximal run of one pixel value within one row. It starts where the
/// row's previous run ends (at 0 for the row's first run) and ends at
/// `x1`.
#[derive(Copy, Clone, Debug)]
struct PixelRun {
    x1: u32,
    pixel: Pixel,
}

/// The runs of a class image in raster order: row `y`'s runs are
/// `runs[row[y]..row[y + 1]]`, and they tile the row.
#[derive(Debug, Default)]
struct RowRuns {
    runs: Vec<Run>,
    row: Vec<u32>,
}

impl RowRuns {
    /// Empties the image; rows follow with [`RowRuns::push`] and
    /// [`RowRuns::end_row`].
    fn clear(&mut self) {
        self.runs.clear();
        self.row.clear();
        self.row.push(0);
    }

    /// Appends pixels `x0..x1` of row `y` in `class`, extending the row's
    /// last run when it holds the same class, so runs stay maximal.
    fn push(&mut self, y: usize, x0: usize, x1: usize, class: u32) {
        match self.runs.last_mut() {
            Some(run) if run.y == y as u32 && run.class == class => run.x1 = x1 as u32,
            _ => self.runs.push(Run {
                y: y as u32,
                x0: x0 as u32,
                x1: x1 as u32,
                class,
            }),
        }
    }

    /// Closes the current row.
    fn end_row(&mut self) {
        self.row.push(self.runs.len() as u32);
    }
}

/// Integer pixel sums of one region: count, Σx, Σy and the channel sums.
///
/// A pixel-by-pixel `f64` accumulation of the same values is exact as long
/// as every partial sum stays an integer below 2^53 (any frame under 2^17
/// pixels a side), so it ends on exactly the bits that converting these
/// sums once gives — in any order of addition.
#[derive(Copy, Clone, Debug, Default)]
struct RegionSums {
    count: u64,
    x: u64,
    y: u64,
    r: u64,
    g: u64,
    b: u64,
}

impl RegionSums {
    fn absorb(&mut self, o: RegionSums) {
        self.count += o.count;
        self.x += o.x;
        self.y += o.y;
        self.r += o.r;
        self.g += o.g;
        self.b += o.b;
    }
    fn mean_color(&self) -> Rgb {
        let n = self.count.max(1) as f64;
        Rgb::new(self.r as f64 / n, self.g as f64 / n, self.b as f64 / n)
    }
    fn centroid(&self) -> Point2 {
        let n = self.count.max(1) as f64;
        Point2::new(self.x as f64 / n, self.y as f64 / n)
    }
}

/// Segments a frame into homogeneous color regions.
///
/// Allocates a fresh [`SegScratch`] per call; batch callers should hold one
/// arena per worker and use [`segment_into`] instead.
pub fn segment(frame: &Frame, cfg: &SegmentConfig) -> Segmentation {
    let mut scratch = SegScratch::new();
    segment_into(frame, cfg, &mut scratch);
    scratch.take_output()
}

/// Segments a frame into `scratch`'s reused output buffer and returns a
/// reference to it. Byte-identical to [`segment`] for any arena state: the
/// arena only recycles capacity, never results.
pub fn segment_into<'s>(
    frame: &Frame,
    cfg: &SegmentConfig,
    scratch: &'s mut SegScratch,
) -> &'s Segmentation {
    let w = frame.width();
    let h = frame.height();
    let n = w * h;

    let SegScratch {
        pixel_runs,
        class_runs,
        cursors,
        counts,
        smoothed,
        run_comp,
        sums,
        pairs,
        target,
        dense,
        out,
    } = scratch;
    out.width = w;
    out.labels.clear();
    out.regions.clear();
    out.adjacency.clear();
    if n == 0 {
        return out;
    }

    scan_runs(frame, cfg.quant_levels, pixel_runs, class_runs);
    mode_filter_runs(class_runs, w, cfg.smooth_radius, smoothed, cursors, counts);
    let RowRuns {
        runs,
        row: row_runs,
    } = smoothed;

    // 4-connected components over identical classes: a smoothed run joins
    // every same-class run of the row above that it overlaps.
    clear_with_cap(run_comp, runs.len());
    run_comp.extend(0..runs.len() as u32);
    // Adjacency candidates as run pairs: neighbors within a row (fewer
    // than one per run) and overlapping runs of different classes across
    // rows (fewer than two per run).
    clear_with_cap(pairs, 3 * runs.len());
    for y in 0..h {
        let (start, end) = (row_runs[y] as usize, row_runs[y + 1] as usize);
        pairs.extend((start as u32..end as u32 - 1).map(|i| (i, i + 1)));
        if y == 0 {
            continue;
        }
        // Both rows tile `0..w`, so stepping past whichever run ends first
        // visits exactly the overlapping pairs, and both rows run out on
        // the same step.
        let (mut i, mut j) = (row_runs[y - 1] as usize, start);
        while j < end {
            let (a, b) = (runs[i], runs[j]);
            if a.class == b.class {
                let (ra, rb) = (find(run_comp, i as u32), find(run_comp, j as u32));
                // The lower run stays the root, so every root is its
                // component's first run in raster order.
                run_comp[ra.max(rb) as usize] = ra.min(rb);
            } else {
                pairs.push((i as u32, j as u32));
            }
            i += (a.x1 <= b.x1) as usize;
            j += (b.x1 <= a.x1) as usize;
        }
    }
    // Name every component by its first run — the order a raster-scan
    // flood fill meets them, since a component's first pixel starts its
    // first run. Parents point to lower runs, so a run's parent already
    // points at that first run when the run is reached. The name stays the
    // region's until the merge folds it into another.
    for i in 0..run_comp.len() {
        run_comp[i] = run_comp[run_comp[i] as usize];
    }

    // Region sums from the ORIGINAL pixels: each smoothed run adds the
    // stretches of the pixel runs under it, length times color. Both run
    // lists tile every row in raster order, so one cursor walks them.
    fill_to(sums, runs.len(), RegionSums::default());
    let mut p = 0;
    for (run, &c) in runs.iter().zip(run_comp.iter()) {
        let (x0, x1, len) = (run.x0 as u64, run.x1 as u64, (run.x1 - run.x0) as u64);
        let s = &mut sums[c as usize];
        s.count += len;
        s.x += (x0 + x1 - 1) * len / 2;
        s.y += run.y as u64 * len;
        let mut x = run.x0;
        while x < run.x1 {
            let PixelRun { x1: end, pixel } = pixel_runs[p];
            let stretch = (end.min(run.x1) - x) as u64;
            s.r += stretch * pixel.r as u64;
            s.g += stretch * pixel.g as u64;
            s.b += stretch * pixel.b as u64;
            x += stretch as u32;
            p += (end == x) as usize;
        }
    }
    // The region graph: the run pairs named by their regions, deduplicated
    // here so that each merge round passes over edges, not run pairs.
    for p in pairs.iter_mut() {
        let (a, b) = (run_comp[p.0 as usize], run_comp[p.1 as usize]);
        *p = (a.min(b), a.max(b));
    }
    pairs.sort_unstable();
    pairs.dedup();

    // Merge small regions into their most similar neighbor until stable.
    // The rule: a small region's target is its neighbor with the least
    // (mean-color distance, name), and the unions run in ascending region
    // order, pointing the small region's root at its target's root. Mutual
    // choices (A picks B, B picks A) coalesce in the union-find instead of
    // livelocking; every union strictly reduces the number of live regions,
    // so the loop terminates. Live regions are the roots with sums at the
    // start of a round. A round only relabels the pairs: the duplicates
    // that makes change no target, so they stay until the loop ends.
    loop {
        fill_to(target, runs.len(), (f64::INFINITY, u32::MAX));
        for &(a, b) in pairs.iter() {
            for (l, t) in [(a as usize, b), (b as usize, a)] {
                if sums[l].count < cfg.min_region_size as u64 {
                    let d = sums[t as usize].mean_color().dist(sums[l].mean_color());
                    let best = &mut target[l];
                    if d.total_cmp(&best.0).then(t.cmp(&best.1)).is_lt() {
                        *best = (d, t);
                    }
                }
            }
        }
        let mut merged_any = false;
        for l in 0..runs.len() as u32 {
            let t = target[l as usize].1;
            if t != u32::MAX {
                let (rl, rt) = (find(run_comp, l), find(run_comp, t));
                if rl != rt {
                    // The targets are all chosen, so the sums can move now.
                    run_comp[rl as usize] = rt;
                    let merged = std::mem::take(&mut sums[rl as usize]);
                    sums[rt as usize].absorb(merged);
                    merged_any = true;
                }
            }
        }
        if !merged_any {
            break;
        }
        // Relabel the region graph through the roots: the pairs a re-scan
        // of the relabelled pixels would find.
        for p in pairs.iter_mut() {
            let (a, b) = (find(run_comp, p.0), find(run_comp, p.1));
            *p = (a.min(b), a.max(b));
        }
        pairs.retain(|&(a, b)| a != b);
    }
    pairs.sort_unstable();
    pairs.dedup();

    // Number the live regions densely in name order, one label fill per run.
    fill_to(dense, runs.len(), u32::MAX);
    let regions = &mut out.regions;
    for (l, acc) in sums.iter().enumerate() {
        if acc.count > 0 {
            dense[l] = regions.len() as u32;
            regions.push(Region {
                label: regions.len() as u32,
                size: acc.count as usize,
                color: acc.mean_color(),
                centroid: acc.centroid(),
            });
        }
    }
    let labels = &mut out.labels;
    clear_with_cap(labels, n);
    for (i, run) in runs.iter().enumerate() {
        let l = dense[find(run_comp, i as u32) as usize];
        labels.resize(labels.len() + (run.x1 - run.x0) as usize, l);
    }
    // `dense` is increasing over live regions, so the pairs stay sorted,
    // unique and ordered within each pair.
    clear_with_cap(&mut out.adjacency, pairs.len());
    out.adjacency.extend(
        pairs
            .iter()
            .map(|&(a, b)| (dense[a as usize], dense[b as usize])),
    );
    out
}

/// Splits every row of `frame` into maximal runs of one pixel value
/// (`pixel_runs`) and of one class (`class_runs`), classing each pixel run
/// once.
///
/// The class key is `(q_r·L + q_g)·L + q_b`, where `L` is `quant_levels`
/// clamped to `2..=256`, so the largest key is below 2^24. Larger values
/// would overflow the `u32` key without changing which pixels share a
/// class: from 256 levels on the per-channel quantizer is one-to-one on
/// `u8`. Channels are u8, so the quantizer collapses to 256-entry lookup
/// tables, and the key distributes over the per-channel terms, so the
/// weights are premultiplied into the tables: a run's key is three loads
/// and two adds.
fn scan_runs(
    frame: &Frame,
    quant_levels: u32,
    pixel_runs: &mut Vec<PixelRun>,
    class_runs: &mut RowRuns,
) {
    let levels = quant_levels.clamp(2, 256);
    let step = 255.0 / (levels - 1) as f64;
    let mut lut_r = [0u32; 256];
    let mut lut_g = [0u32; 256];
    let mut lut_b = [0u32; 256];
    for v in 0..256usize {
        let q = ((v as f64 / step).round() as u32).min(levels - 1);
        lut_r[v] = q * levels * levels;
        lut_g[v] = q * levels;
        lut_b[v] = q;
    }
    pixel_runs.clear();
    class_runs.clear();
    let w = frame.width();
    for (y, row) in frame.pixels().chunks_exact(w).enumerate() {
        let mut x0 = 0;
        while x0 < w {
            let pixel = row[x0];
            let x1 = run_end(row, x0);
            pixel_runs.push(PixelRun {
                x1: x1 as u32,
                pixel,
            });
            let class = lut_r[pixel.r as usize] + lut_g[pixel.g as usize] + lut_b[pixel.b as usize];
            class_runs.push(y, x0, x1, class);
            x0 = x1;
        }
        class_runs.end_row();
    }
}

/// The end of the run of `row[x0]`'s value that starts at `x0`: eight
/// pixels at a time while all eight match (an OR of channel XORs, which
/// the compiler vectorises), then pixel by pixel.
fn run_end(row: &[Pixel], x0: usize) -> usize {
    let p = row[x0];
    let mut x = x0 + 1;
    for chunk in row[x..].chunks_exact(8) {
        let diff = chunk
            .iter()
            .fold(0, |acc, q| acc | (q.r ^ p.r) | (q.g ^ p.g) | (q.b ^ p.b));
        if diff != 0 {
            break;
        }
        x += 8;
    }
    row[x..]
        .iter()
        .position(|&q| q != p)
        .map_or(row.len(), |len| x + len)
}

/// Edge-preserving mode filter on the runs of a non-empty `w`-wide class
/// image: each pixel takes the majority class of its clipped `(2r+1)^2`
/// window, the center winning ties — byte-identical to the naïve filter.
/// The filtered image lands in `out` as maximal runs.
///
/// The run starts of a row's window rows cut it into segments within
/// which every window row is constant. A pixel whose clipped window lies
/// inside one segment sees each window row contribute its class once per
/// window column, so its class counts are the window rows' counts times
/// the window's width, met in window-row order. Every such pixel of a
/// segment therefore gets the same answer, decided once: the center
/// survives when it holds at least half of the window rows (it cannot be
/// strictly beaten), and otherwise [`window_mode`] decides at one of
/// them. The pixels within `r` of a cut are decided one by one by
/// [`window_mode`].
fn mode_filter_runs(
    src: &RowRuns,
    w: usize,
    radius: usize,
    out: &mut RowRuns,
    cursors: &mut Vec<u32>,
    counts: &mut Vec<(u32, u32)>,
) {
    let h = src.row.len() - 1;
    // Past the frame's extent a radius clips to the same windows.
    let r = radius.min(w.max(h));
    // A window holds at most this many distinct classes.
    clear_with_cap(counts, (2 * r + 1).pow(2).min(w * h));
    out.clear();
    for y in 0..h {
        let (y0, y1) = (y.saturating_sub(r), (y + r).min(h - 1));
        // Each window row's run over the current segment.
        cursors.clear();
        cursors.extend_from_slice(&src.row[y0..=y1]);
        let center_row = y - y0;
        let mut s0 = 0;
        while s0 < w {
            let s1 = cursors
                .iter()
                .map(|&c| src.runs[c as usize].x1)
                .min()
                .unwrap_or(w as u32) as usize;
            // Pixels `lo..hi` have their whole clipped window in the segment.
            let lo = if s0 == 0 { 0 } else { (s0 + r).min(s1) };
            let hi = if s1 == w { w } else { s1.saturating_sub(r) }.max(lo);
            for x in s0..lo {
                let class = window_mode(&src.runs, cursors, center_row, x, r, w, counts);
                out.push(y, x, x + 1, class);
            }
            if lo < hi {
                let center = src.runs[cursors[center_row] as usize].class;
                let center_rows = cursors
                    .iter()
                    .filter(|&&c| src.runs[c as usize].class == center)
                    .count();
                let class = if 2 * center_rows >= cursors.len() {
                    center
                } else {
                    window_mode(&src.runs, cursors, center_row, lo, r, w, counts)
                };
                out.push(y, lo, hi, class);
            }
            for x in hi..s1 {
                let class = window_mode(&src.runs, cursors, center_row, x, r, w, counts);
                out.push(y, x, x + 1, class);
            }
            for c in cursors.iter_mut() {
                *c += (src.runs[*c as usize].x1 as usize == s1) as u32;
            }
            s0 = s1;
        }
        out.end_row();
    }
}

/// The naïve filter's answer at pixel `x` of a row whose window rows' runs
/// over `x` are `runs[cursors[k]]`, the center row's at `center_row`.
///
/// The class counts of the clipped window `x - r..=x + r` come from the
/// runs each window row has there, top row first and left to right: the
/// order in which a row-major scan of the window's cells first meets each
/// class. So `counts` ends up as the naïve filter's list, entry for entry,
/// and the choice is its choice: the **last** maximal entry in that order
/// (`max_by_key`), unless it does not strictly beat the center class.
fn window_mode(
    runs: &[Run],
    cursors: &[u32],
    center_row: usize,
    x: usize,
    r: usize,
    w: usize,
    counts: &mut Vec<(u32, u32)>,
) -> u32 {
    let (a, b) = (x.saturating_sub(r) as u32, (x + r + 1).min(w) as u32);
    let center = runs[cursors[center_row] as usize].class;
    // Row `c`'s runs over `a..b`. Rows tile `0..w`, so neither walk leaves
    // the row.
    let span = |c: u32| {
        let (mut i, mut j) = (c as usize, c as usize);
        while runs[i].x0 > a {
            i -= 1;
        }
        while runs[j].x1 < b {
            j += 1;
        }
        &runs[i..=j]
    };
    let cells = |run: &Run| run.x1.min(b) - run.x0.max(a);
    // A center holding half of its window cannot be strictly beaten.
    let mut same = 0;
    for &c in cursors {
        for run in span(c) {
            if run.class == center {
                same += cells(run);
            }
        }
    }
    if 2 * same as usize >= cursors.len() * (b - a) as usize {
        return center;
    }
    counts.clear();
    for &c in cursors {
        for run in span(c) {
            match counts.iter_mut().find(|e| e.0 == run.class) {
                Some(e) => e.1 += cells(run),
                None => counts.push((run.class, cells(run))),
            }
        }
    }
    let center_n = counts.iter().find(|e| e.0 == center).map_or(0, |e| e.1);
    let best = counts.iter().max_by_key(|e| e.1).expect("window non-empty");
    if best.1 > center_n {
        best.0
    } else {
        center
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::tests::{clips150_clip, pixel_hash, FNV_BASIS};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    // ---- the reference: the pixel-by-pixel segmenter ----

    /// Region statistics as the pixel-by-pixel segmenter kept them: `f64`
    /// sums, one pixel at a time.
    #[derive(Copy, Clone, Default)]
    struct RefAcc {
        count: usize,
        sum_x: f64,
        sum_y: f64,
        sum_r: f64,
        sum_g: f64,
        sum_b: f64,
    }

    impl RefAcc {
        fn add(&mut self, x: f64, y: f64, c: Rgb) {
            self.count += 1;
            self.sum_x += x;
            self.sum_y += y;
            self.sum_r += c.r;
            self.sum_g += c.g;
            self.sum_b += c.b;
        }
        fn mean_color(&self) -> Rgb {
            let n = self.count.max(1) as f64;
            Rgb::new(self.sum_r / n, self.sum_g / n, self.sum_b / n)
        }
        fn centroid(&self) -> Point2 {
            let n = self.count.max(1) as f64;
            Point2::new(self.sum_x / n, self.sum_y / n)
        }
    }

    /// Deduplicated adjacent label pairs of a label image: one candidate
    /// per adjacent boundary pixel pair, normalized to `a < b`, sorted.
    fn adjacency_pairs(labels: &[u32], w: usize, h: usize) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let l = labels[y * w + x];
                if x + 1 < w && labels[y * w + x + 1] != l {
                    let r = labels[y * w + x + 1];
                    pairs.push((l.min(r), l.max(r)));
                }
                if y + 1 < h && labels[(y + 1) * w + x] != l {
                    let d = labels[(y + 1) * w + x];
                    pairs.push((l.min(d), l.max(d)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// The class key of every pixel, computed pixel by pixel from the
    /// quantizer's formula rather than from the premultiplied tables.
    fn quantize_reference(frame: &Frame, quant_levels: u32) -> Vec<u32> {
        let levels = quant_levels.clamp(2, 256);
        let step = 255.0 / (levels - 1) as f64;
        let q = |v: u8| ((v as f64 / step).round() as u32).min(levels - 1);
        frame
            .pixels()
            .iter()
            .map(|p| (q(p.r) * levels + q(p.g)) * levels + q(p.b))
            .collect()
    }

    /// The naïve mode of one `(2r+1)^2` window, exactly as the original filter
    /// computed it: counts accumulate in first-encounter (row-major window
    /// scan) order, `max_by_key` picks the **last** maximal entry in that
    /// order, and the center class wins unless strictly beaten.
    fn mode_of_window_naive(
        classes: &[u32],
        w: usize,
        h: usize,
        x: usize,
        y: usize,
        radius: usize,
        counts: &mut Vec<(u32, u32)>,
    ) -> u32 {
        counts.clear();
        let r = radius as isize;
        let (xi, yi) = (x as isize, y as isize);
        for yy in (yi - r).max(0)..=(yi + r).min(h as isize - 1) {
            for xx in (xi - r).max(0)..=(xi + r).min(w as isize - 1) {
                let c = classes[yy as usize * w + xx as usize];
                match counts.iter_mut().find(|e| e.0 == c) {
                    Some(e) => e.1 += 1,
                    None => counts.push((c, 1)),
                }
            }
        }
        let center = classes[y * w + x];
        let center_n = counts.iter().find(|e| e.0 == center).map_or(0, |e| e.1);
        let best = counts.iter().max_by_key(|e| e.1).expect("window non-empty");
        if best.1 > center_n {
            best.0
        } else {
            center
        }
    }

    /// The original `O(r^2)`-per-pixel mode filter: each output pixel is
    /// the most frequent class in its `(2r+1)^2` window, with the center
    /// class winning ties.
    fn mode_filter_naive(classes: &[u32], w: usize, h: usize, radius: usize) -> Vec<u32> {
        let mut out = vec![0u32; classes.len()];
        let mut counts = Vec::new();
        for y in 0..h {
            for x in 0..w {
                out[y * w + x] = mode_of_window_naive(classes, w, h, x, y, radius, &mut counts);
            }
        }
        out
    }

    /// The segmenter `segment_into` replaced, kept as its oracle: the
    /// naïve mode filter, a raster-order flood fill, `f64` statistics
    /// summed pixel by pixel, and in every merge round a re-scan of the
    /// pixel plane for adjacency, labels and statistics.
    fn segment_reference(frame: &Frame, cfg: &SegmentConfig) -> Segmentation {
        let (w, h) = (frame.width(), frame.height());
        let n = w * h;
        let mut classes = quantize_reference(frame, cfg.quant_levels);
        if cfg.smooth_radius > 0 {
            classes = mode_filter_naive(&classes, w, h, cfg.smooth_radius);
        }

        let mut labels = vec![u32::MAX; n];
        let mut stack = Vec::new();
        let mut next = 0u32;
        for start in 0..n {
            if labels[start] != u32::MAX {
                continue;
            }
            let class = classes[start];
            labels[start] = next;
            stack.push(start);
            while let Some(i) = stack.pop() {
                let (x, y) = (i % w, i / w);
                let mut visit = |j: usize| {
                    if labels[j] == u32::MAX && classes[j] == class {
                        labels[j] = next;
                        stack.push(j);
                    }
                };
                if x > 0 {
                    visit(i - 1);
                }
                if x + 1 < w {
                    visit(i + 1);
                }
                if y > 0 {
                    visit(i - w);
                }
                if y + 1 < h {
                    visit(i + w);
                }
            }
            next += 1;
        }

        let stats_of = |labels: &[u32], len: usize| {
            let mut stats = vec![RefAcc::default(); len];
            for (i, &l) in labels.iter().enumerate() {
                let (x, y) = (i % w, i / w);
                stats[l as usize].add(x as f64, y as f64, frame.pixels()[i].to_rgb());
            }
            stats
        };
        let mut stats = stats_of(&labels, next as usize);
        loop {
            let mut nbrs = vec![Vec::new(); stats.len()];
            for (a, b) in adjacency_pairs(&labels, w, h) {
                nbrs[a as usize].push(b);
                nbrs[b as usize].push(a);
            }
            let mut uf: Vec<u32> = (0..stats.len() as u32).collect();
            let mut merged_any = false;
            for (l, acc) in stats.iter().enumerate() {
                if acc.count == 0 || acc.count >= cfg.min_region_size {
                    continue;
                }
                let target = nbrs[l]
                    .iter()
                    .filter(|&&n| stats[n as usize].count > 0)
                    .min_by(|&&a, &&b| {
                        let da = stats[a as usize].mean_color().dist(acc.mean_color());
                        let db = stats[b as usize].mean_color().dist(acc.mean_color());
                        da.total_cmp(&db)
                    })
                    .copied();
                if let Some(t) = target {
                    let (rl, rt) = (find(&mut uf, l as u32), find(&mut uf, t));
                    if rl != rt {
                        uf[rl as usize] = rt;
                        merged_any = true;
                    }
                }
            }
            if !merged_any {
                break;
            }
            for l in labels.iter_mut() {
                *l = find(&mut uf, *l);
            }
            stats = stats_of(&labels, stats.len());
        }

        let mut dense = vec![u32::MAX; stats.len()];
        let mut regions = Vec::new();
        for (l, acc) in stats.iter().enumerate() {
            if acc.count > 0 {
                dense[l] = regions.len() as u32;
                regions.push(Region {
                    label: regions.len() as u32,
                    size: acc.count,
                    color: acc.mean_color(),
                    centroid: acc.centroid(),
                });
            }
        }
        for l in labels.iter_mut() {
            *l = dense[*l as usize];
        }
        let adjacency = adjacency_pairs(&labels, w, h);
        Segmentation {
            labels,
            width: w,
            regions,
            adjacency,
        }
    }

    /// Everything a segmentation says, with every `f64` as its bit
    /// pattern.
    type Fingerprint = (
        Vec<u32>,
        usize,
        Vec<(u32, usize, [u64; 5])>,
        Vec<(u32, u32)>,
    );

    fn fingerprint(seg: &Segmentation) -> Fingerprint {
        let regions = seg
            .regions
            .iter()
            .map(|r| {
                let bits = [r.color.r, r.color.g, r.color.b, r.centroid.x, r.centroid.y];
                (r.label, r.size, bits.map(f64::to_bits))
            })
            .collect();
        (
            seg.labels.clone(),
            seg.width,
            regions,
            seg.adjacency.clone(),
        )
    }

    /// Segments `frame` through the reused arena and through the
    /// reference, and panics with `ctx` unless they agree bit for bit.
    fn assert_matches_reference(frame: &Frame, cfg: &SegmentConfig, s: &mut SegScratch, ctx: &str) {
        let want = fingerprint(&segment_reference(frame, cfg));
        let got = fingerprint(segment_into(frame, cfg, s));
        assert!(
            got == want,
            "{ctx} {cfg:?}: segmentation differs from the reference"
        );
    }

    /// Every frame of the first `clips` corpus clips at the default config.
    fn check_corpus(clips: usize) {
        let cfg = SegmentConfig::default();
        let mut s = SegScratch::new();
        let mut frames = 0;
        for i in 0..clips {
            let (clip, seed) = clips150_clip(i);
            for (t, f) in clip.render_all(seed).iter().enumerate() {
                assert_matches_reference(f, &cfg, &mut s, &format!("clip {i} frame {t}"));
                frames += 1;
            }
        }
        assert!(frames > 20 * clips, "{frames} frames");
    }

    #[test]
    fn matches_reference_on_corpus_clips() {
        check_corpus(4);
    }

    /// All 150 clips (~6.8k frames); too slow unoptimised, so CI runs it
    /// in its `--release` leg.
    #[test]
    #[ignore]
    fn matches_reference_on_every_corpus_clip() {
        check_corpus(150);
    }

    /// Every frame of all 150 corpus clips, pinned bit for bit: the frame
    /// count and one FNV-1a digest over every channel byte, in clip order,
    /// as the renderer that mapped every pixel after painting produced
    /// them. A change that moves one channel of one frame fails here.
    #[test]
    #[ignore]
    fn corpus_renders_are_pinned_on_every_clip() {
        let (mut frames, mut h) = (0, FNV_BASIS);
        for i in 0..150 {
            let (clip, seed) = clips150_clip(i);
            let clip_frames = clip.render_all(seed);
            frames += clip_frames.len();
            h = pixel_hash(h, &clip_frames);
        }
        assert_eq!((frames, h), (6786, 8108758750492762771));
    }

    /// A deterministic frame with structured content plus pseudo-noise.
    fn busy_frame(w: usize, h: usize, seed: u64) -> Frame {
        let mut f = Frame::new(w, h, Pixel::new(30, 40, 50));
        f.fill_rect(
            (w / 5) as isize,
            (h / 5) as isize,
            w / 3,
            h / 3,
            Pixel::new(210, 60, 60),
        );
        f.fill_circle(
            w as f64 * 0.7,
            h as f64 * 0.6,
            (w.min(h) / 5) as f64,
            Pixel::new(60, 200, 90),
        );
        let mut state = seed | 1;
        for _ in 0..(w * h / 12) {
            // xorshift64 pseudo-noise speckles.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = (state % w as u64) as isize;
            let y = ((state >> 16) % h as u64) as isize;
            let v = (state >> 32) as u8;
            f.set(x, y, Pixel::new(v, v.wrapping_mul(3), v.wrapping_add(80)));
        }
        f
    }

    /// Four colors far enough apart to stay four classes at 2 levels.
    const PALETTE: [Pixel; 4] = [
        Pixel::new(0, 0, 0),
        Pixel::new(255, 0, 0),
        Pixel::new(0, 255, 0),
        Pixel::new(0, 0, 255),
    ];

    /// A four-color checkerboard of single pixels: every interior center
    /// owns 1 of its 9 cells at radius 1.
    fn checkerboard(w: usize, h: usize) -> Frame {
        let mut f = Frame::new(w, h, Pixel::default());
        for y in 0..h {
            for x in 0..w {
                f.set(x as isize, y as isize, PALETTE[x % 2 + 2 * (y % 2)]);
            }
        }
        f
    }

    /// Four colors drawn at random per pixel.
    fn four_color_noise(w: usize, h: usize, seed: u64) -> Frame {
        let mut f = Frame::new(w, h, Pixel::default());
        let mut state = seed | 1;
        for p in f.pixels_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *p = PALETTE[(state >> 40) as usize % 4];
        }
        f
    }

    /// Pixels the filter leaves to the fallback at radius `r`, and among
    /// them those whose window has two or more classes tied above the
    /// center.
    fn fallback_profile(frame: &Frame, r: usize) -> (usize, usize) {
        let (w, h) = (frame.width(), frame.height());
        let classes = quantize_reference(frame, 2);
        let (mut fallback, mut ties) = (0, 0);
        let mut counts = Vec::new();
        for y in 0..h {
            for x in 0..w {
                mode_of_window_naive(&classes, w, h, x, y, r, &mut counts);
                let center = classes[y * w + x];
                let center_n = counts.iter().find(|e| e.0 == center).map_or(0, |e| e.1);
                let area: u32 = counts.iter().map(|e| e.1).sum();
                let max = counts.iter().map(|e| e.1).max().unwrap_or(0);
                fallback += (2 * center_n < area) as usize;
                ties +=
                    (max > center_n && counts.iter().filter(|e| e.1 == max).count() > 1) as usize;
            }
        }
        (fallback, ties)
    }

    /// The tie-heavy frames really exercise the fallback and its
    /// first-encounter tie-break.
    #[test]
    fn tie_frames_take_the_fallback() {
        let (fallback, ties) = fallback_profile(&checkerboard(12, 9), 1);
        assert!(
            fallback > 12 * 9 / 2,
            "checkerboard: {fallback} of 108 fall back"
        );
        assert!(
            ties > 0,
            "checkerboard borders tie two classes above the center"
        );
        let (_, ties) = fallback_profile(&four_color_noise(16, 12, 5), 1);
        assert!(ties > 10, "noise: {ties} strict multi-way ties");
    }

    /// Degenerate shapes, busy frames, tie-heavy frames and two corpus
    /// frames across radius 0–3, 2/4/6 levels and minimum sizes 1/24/40.
    #[test]
    fn matches_reference_on_every_shape_and_config() {
        let mut frames = vec![
            ("0x0", Frame::new(0, 0, Pixel::default())),
            ("0x5", Frame::new(0, 5, Pixel::default())),
            ("1x1", busy_frame(1, 1, 3)),
            ("1xn", busy_frame(1, 13, 4)),
            ("nx1", busy_frame(13, 1, 5)),
            ("2x2", four_color_noise(2, 2, 6)),
            ("3x3", four_color_noise(3, 3, 7)),
            ("busy 23x17", busy_frame(23, 17, 8)),
            ("busy 40x30", busy_frame(40, 30, 9)),
            ("checkerboard", checkerboard(12, 9)),
            ("four-color noise", four_color_noise(16, 12, 10)),
        ];
        for i in 0..2 {
            let (clip, seed) = clips150_clip(i);
            frames.push(("corpus frame", clip.render_all(seed).swap_remove(20)));
        }
        let mut s = SegScratch::new();
        for (name, f) in &frames {
            for smooth_radius in 0..=3 {
                for quant_levels in [2, 4, 6] {
                    for min_region_size in [1, 24, 40] {
                        let cfg = SegmentConfig {
                            quant_levels,
                            min_region_size,
                            smooth_radius,
                        };
                        assert_matches_reference(f, &cfg, &mut s, name);
                    }
                }
            }
        }
    }

    /// From 256 levels on the quantizer is one-to-one on `u8`: larger
    /// values give the same segmentation, and no class key overflows.
    #[test]
    fn quant_levels_past_256_segment_identically() {
        let f = busy_frame(40, 30, 11);
        let seg = |quant_levels| {
            let cfg = SegmentConfig {
                quant_levels,
                ..SegmentConfig::default()
            };
            fingerprint(&segment(&f, &cfg))
        };
        let at_256 = seg(256);
        assert!(at_256.2.len() > 1);
        for levels in [1_000, 1_626, 5_000, u32::MAX] {
            assert!(seg(levels) == at_256, "{levels} levels");
        }
        assert!(seg(0) == seg(2) && seg(1) == seg(2), "below 2 clamps to 2");
    }

    // ---- generated frames ----

    /// Frames `w × h` with both sides drawn from `sides`: a base color,
    /// up to six rectangles, some of them horizontal gradients, then salt.
    /// A gradient steps its red and blue channels by 1–3 per column, so
    /// its pixels are runs of one pixel each that coarse levels quantize
    /// into one class: one smoothed run then spans many pixel runs of
    /// different colors.
    fn generated_frames(sides: std::ops::Range<usize>) -> impl Strategy<Value = Frame> {
        let color = || (0u8..=255, 0u8..=255, 0u8..=255);
        (
            sides.clone(),
            sides,
            color(),
            prop::collection::vec(
                (
                    0usize..64,
                    0usize..64,
                    1usize..48,
                    1usize..48,
                    color(),
                    0u8..4,
                ),
                0..7,
            ),
            0usize..=16,
            0u64..u64::MAX,
        )
            .prop_map(|(w, h, base, rects, salt, seed)| {
                let mut f = Frame::new(w, h, Pixel::new(base.0, base.1, base.2));
                for (x, y, rw, rh, (r, g, b), step) in rects {
                    let (x, y) = (x % w, y % h);
                    for dx in 0..rw.min(w - x) {
                        let d = (dx * step as usize).min(255) as u8;
                        let p = Pixel::new(r.saturating_add(d), g, b.saturating_sub(d));
                        f.fill_rect((x + dx) as isize, y as isize, 1, rh, p);
                    }
                }
                // Up to one pixel in 16 salted with a random color.
                let mut state = seed | 1;
                for _ in 0..w * h * salt / 256 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let (x, y) = (
                        (state % w as u64) as isize,
                        ((state >> 16) % h as u64) as isize,
                    );
                    let v = (state >> 32).to_le_bytes();
                    f.set(x, y, Pixel::new(v[0], v[1], v[2]));
                }
                f
            })
    }

    /// A segmenter configuration for a `w × h` frame: levels `2..=300`,
    /// minimum sizes `0..=40`, and radius `0..=4` or, one time in six, one
    /// past the frame's extent.
    fn generated_config(
        (quant_levels, radius, min_region_size): (u32, usize, usize),
        frame: &Frame,
    ) -> SegmentConfig {
        let past_extent = frame.width().max(frame.height()) + 1;
        SegmentConfig {
            quant_levels,
            min_region_size,
            smooth_radius: if radius == 5 { past_extent } else { radius },
        }
    }

    /// Smoothed runs of the arena's last segmentation that span two or
    /// more pixel runs, which differ in color by construction.
    fn runs_spanning_pixel_runs(s: &SegScratch) -> usize {
        let mut p = 0;
        s.smoothed
            .runs
            .iter()
            .filter(|run| {
                let first = p;
                while s.pixel_runs[p].x1 < run.x1 {
                    p += 1;
                }
                let spans = p > first;
                p += (s.pixel_runs[p].x1 == run.x1) as usize;
                spans
            })
            .count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn matches_reference_on_generated_frames(
            frame in generated_frames(1..40),
            cfg in (2u32..=300, 0usize..=5, 0usize..=40),
        ) {
            let cfg = generated_config(cfg, &frame);
            let got = fingerprint(&segment(&frame, &cfg));
            let (w, h) = (frame.width(), frame.height());
            prop_assert!(
                got == fingerprint(&segment_reference(&frame, &cfg)),
                "{w}x{h} {cfg:?}: segmentation differs from the reference"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Frames up to 120 pixels a side at radius 0–4 (a radius past
        /// the extent makes the reference's filter quadratic in the
        /// pixels); too slow unoptimised, so CI runs it in its `--release`
        /// leg.
        #[test]
        #[ignore]
        fn matches_reference_on_large_generated_frames(
            frame in generated_frames(40..121),
            cfg in (2u32..=300, 0usize..=4, 0usize..=40),
        ) {
            let cfg = generated_config(cfg, &frame);
            let got = fingerprint(&segment(&frame, &cfg));
            let (w, h) = (frame.width(), frame.height());
            prop_assert!(
                got == fingerprint(&segment_reference(&frame, &cfg)),
                "{w}x{h} {cfg:?}: segmentation differs from the reference"
            );
        }
    }

    /// The generated cases reach the sums walk's multi-run case: in most
    /// of them some smoothed run covers pixel runs of different colors.
    #[test]
    fn generated_frames_span_pixel_runs() {
        let strategy = (
            generated_frames(1..40),
            (2u32..=300, 0usize..=5, 0usize..=40),
        );
        let mut s = SegScratch::new();
        let spanning = (0..96)
            .filter(|&case| {
                let (frame, cfg) = strategy.sample(&mut TestRng::for_case(case));
                segment_into(&frame, &generated_config(cfg, &frame), &mut s);
                runs_spanning_pixel_runs(&s) > 0
            })
            .count();
        assert!(spanning > 48, "{spanning} of 96 cases");
    }

    // ---- behaviour ----

    /// A frame split into a dark left half and a bright right half.
    fn two_region_frame() -> Frame {
        let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
        f.fill_rect(20, 0, 20, 30, Pixel::new(230, 230, 230));
        f
    }

    #[test]
    fn segments_two_obvious_regions() {
        let seg = segment(&two_region_frame(), &SegmentConfig::default());
        assert_eq!(seg.regions.len(), 2);
        assert_eq!(seg.adjacency.len(), 1);
        let total: usize = seg.regions.iter().map(|r| r.size).sum();
        assert_eq!(total, 40 * 30);
    }

    #[test]
    fn centroids_land_in_their_halves() {
        let seg = segment(&two_region_frame(), &SegmentConfig::default());
        let dark = seg
            .regions
            .iter()
            .find(|r| r.color.r < 128.0)
            .expect("dark region");
        let bright = seg
            .regions
            .iter()
            .find(|r| r.color.r >= 128.0)
            .expect("bright region");
        assert!(dark.centroid.x < 20.0);
        assert!(bright.centroid.x >= 20.0);
    }

    #[test]
    fn small_regions_are_merged() {
        let mut f = two_region_frame();
        // A 3x3 speck that must be absorbed.
        f.fill_rect(5, 5, 3, 3, Pixel::new(120, 120, 120));
        let seg = segment(
            &f,
            &SegmentConfig {
                min_region_size: 24,
                smooth_radius: 0,
                ..SegmentConfig::default()
            },
        );
        assert_eq!(seg.regions.len(), 2, "speck merged into a big region");
    }

    #[test]
    fn smoothing_removes_salt_noise() {
        let mut f = two_region_frame();
        // Salt noise: isolated bright pixels inside the dark half.
        for i in 0..20 {
            f.set(2 + (i * 7) % 15, (i * 3) % 30, Pixel::new(255, 255, 255));
        }
        let seg = segment(&f, &SegmentConfig::default());
        assert_eq!(seg.regions.len(), 2, "noise should not create regions");
    }

    #[test]
    fn labels_match_regions() {
        let seg = segment(&two_region_frame(), &SegmentConfig::default());
        for (i, &l) in seg.labels.iter().enumerate() {
            assert!((l as usize) < seg.regions.len(), "pixel {i} label {l}");
        }
        // Region sizes agree with label counts.
        for r in &seg.regions {
            let n = seg.labels.iter().filter(|&&l| l == r.label).count();
            assert_eq!(n, r.size);
        }
    }

    #[test]
    fn uniform_frame_is_one_region() {
        let f = Frame::new(16, 16, Pixel::new(50, 80, 90));
        let seg = segment(&f, &SegmentConfig::default());
        assert_eq!(seg.regions.len(), 1);
        assert!(seg.adjacency.is_empty());
        let r = &seg.regions[0];
        assert_eq!(r.size, 256);
        assert!(r.centroid.dist(Point2::new(7.5, 7.5)) < 1e-9);
    }

    #[test]
    fn quantization_separates_gradient_into_bands() {
        let mut f = Frame::new(64, 8, Pixel::default());
        for x in 0..64 {
            let v = (x * 4) as u8;
            f.fill_rect(x as isize, 0, 1, 8, Pixel::new(v, v, v));
        }
        let seg = segment(
            &f,
            &SegmentConfig {
                quant_levels: 4,
                min_region_size: 1,
                smooth_radius: 0,
            },
        );
        assert!(seg.regions.len() >= 3, "bands: {}", seg.regions.len());
        assert!(seg.regions.len() <= 6);
    }

    // ---- the mode filter ----

    /// The run filter as an image filter: the class image's maximal row
    /// runs go through [`mode_filter_runs`], and its runs are expanded back
    /// into an image.
    fn mode_filter(classes: &[u32], w: usize, radius: usize) -> Vec<u32> {
        let mut src = RowRuns::default();
        src.clear();
        for (y, row) in classes.chunks_exact(w).enumerate() {
            for (x, &c) in row.iter().enumerate() {
                src.push(y, x, x + 1, c);
            }
            src.end_row();
        }
        let mut out = RowRuns::default();
        mode_filter_runs(&src, w, radius, &mut out, &mut Vec::new(), &mut Vec::new());
        let mut image = Vec::new();
        for run in &out.runs {
            image.resize(image.len() + (run.x1 - run.x0) as usize, run.class);
        }
        image
    }

    /// The mode filter's border windows are *clipped*: a corner pixel with
    /// radius 1 sees a 2x2 window, and the center class wins non-strict
    /// majorities in it.
    #[test]
    fn mode_filter_corner_center_wins_2x2_tie() {
        // 2x2 window at (0,0) holds classes [5, 9, 9, 5]: tie 2-2, center
        // class 5 must survive in both implementations.
        let classes = vec![5, 9, 7, 9, 5, 7, 7, 7, 7];
        let naive = mode_filter_naive(&classes, 3, 3, 1);
        assert_eq!(naive[0], 5);
        assert_eq!(mode_filter(&classes, 3, 1), naive);
    }

    /// A strict majority overrides the center even at the border.
    #[test]
    fn mode_filter_corner_strict_majority_overrides_center() {
        let classes = vec![5, 9, 7, 9, 9, 7, 7, 7, 7];
        let naive = mode_filter_naive(&classes, 3, 3, 1);
        assert_eq!(naive[0], 9, "3-of-4 beats the corner's own class");
        assert_eq!(mode_filter(&classes, 3, 1), naive);
    }

    /// The filter vs the naïve one on adversarial tie-heavy class images
    /// (few classes, checkerboards and stripes produce many multi-way
    /// ties), class keys spanning the whole `u32` range, and radii up to
    /// and past the frame's extent.
    #[test]
    fn mode_filter_matches_naive_exactly() {
        type Pattern = (usize, usize, Box<dyn Fn(usize, usize) -> u32>);
        let patterns: Vec<Pattern> = vec![
            (8, 8, Box::new(|x, y| ((x + y) % 2) as u32)),
            (9, 7, Box::new(|x, y| ((x / 2 + y / 3) % 3) as u32)),
            (16, 5, Box::new(|x, _| (x % 4) as u32 * 1000)),
            (6, 6, Box::new(|x, y| ((x * 7 + y * 13) % 5) as u32)),
            (1, 12, Box::new(|_, y| (y % 2) as u32)),
            (12, 1, Box::new(|x, _| (x % 3) as u32)),
            (
                9,
                6,
                Box::new(|x, y| ((x + y) % 4) as u32 * 0x4000_0000 + 3),
            ),
            (31, 17, Box::new(|x, y| ((x * 7 + y * 13) % 5) as u32)),
            (29, 19, Box::new(|x, y| ((x / 5 + y / 4) % 3) as u32)),
        ];
        for (w, h, f) in patterns {
            let classes: Vec<u32> = (0..w * h).map(|i| f(i % w, i / w)).collect();
            for radius in [1, 2, 3, 4, 5, 6, 40, usize::MAX / 4] {
                let naive = mode_filter_naive(&classes, w, h, radius);
                assert_eq!(
                    mode_filter(&classes, w, radius),
                    naive,
                    "{w}x{h} radius {radius}"
                );
            }
        }
    }

    /// The reference's adjacency is sorted, normalized to `a < b`, and
    /// deduplicated although it emits one candidate per boundary pixel
    /// pair.
    #[test]
    fn adjacency_pairs_sorted_deduped_normalized() {
        // Labels: two columns of 0|1 over two rows, plus a 2-row stripe of
        // label 2 — every boundary crossing is emitted multiple times.
        let labels = vec![0, 1, 2, 0, 1, 2];
        let pairs = adjacency_pairs(&labels, 3, 2);
        assert_eq!(pairs, vec![(0, 1), (1, 2)]);
        // Edge pixels: single row has no vertical neighbors.
        let pairs = adjacency_pairs(&[0, 1, 0], 3, 1);
        assert_eq!(pairs, vec![(0, 1)]);
        // Single column has no horizontal neighbors.
        let pairs = adjacency_pairs(&[0, 1, 0], 1, 3);
        assert_eq!(pairs, vec![(0, 1)]);
        // Uniform image: no pairs at all.
        assert!(adjacency_pairs(&[7; 12], 4, 3).is_empty());
    }

    // ---- scratch arena behaviour ----

    /// Reusing one arena across frames of different sizes and contents
    /// yields exactly what fresh per-call arenas produce.
    #[test]
    fn scratch_reuse_is_stateless() {
        let cfg = SegmentConfig::default();
        let frames = [
            busy_frame(40, 30, 1),
            busy_frame(16, 16, 2),
            busy_frame(52, 20, 3),
            Frame::new(8, 8, Pixel::new(9, 9, 9)),
            Frame::new(0, 3, Pixel::default()),
            busy_frame(40, 30, 4),
        ];
        let mut scratch = SegScratch::new();
        for f in &frames {
            let fresh = fingerprint(&segment(f, &cfg));
            assert!(fingerprint(segment_into(f, &cfg, &mut scratch)) == fresh);
        }
    }

    #[test]
    fn empty_frame_segments_to_nothing() {
        let f = Frame::new(0, 0, Pixel::default());
        let seg = segment(&f, &SegmentConfig::default());
        assert!(seg.labels.is_empty());
        assert!(seg.regions.is_empty());
        assert!(seg.adjacency.is_empty());
    }
}
