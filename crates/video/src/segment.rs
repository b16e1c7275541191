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
//! Only the mode filter visits the class image cell by cell. Labeling
//! works on maximal same-class runs per row, joined across rows by a
//! union-find; region statistics are integer sums per run; and the merge
//! of small regions runs on the region graph — adjacency pairs built once
//! from the runs and relabelled each round — instead of re-scanning the
//! pixels every round. The pixel-by-pixel pipeline this replaced is
//! compiled only into this module's unit tests, which pin the two to each
//! other byte for byte: labels, bit-identical `f64` colors and centroids,
//! and adjacency.
//!
//! Per-frame buffers live in a reusable [`SegScratch`] arena so that
//! steady-state segmentation performs **zero heap allocations** (pinned by
//! `tests/ingest_alloc.rs`); `frames_to_rags` threads one arena per worker
//! through the frame fan-out.

use strg_graph::{Point2, Rgb};

use crate::raster::Frame;

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
/// Owns every intermediate buffer of the segmentation pipeline (class
/// planes, the mode filter's per-row tallies, row runs and their
/// union-find, region sums, the region graph's adjacency pairs and
/// neighbor lists, the merge union-find) plus the output [`Segmentation`]
/// itself. Buffers are grown on demand and **never shrink**, so repeated
/// calls on same-sized frames reach a steady state with zero heap
/// allocations (`tests/ingest_alloc.rs` pins this). One arena serves one
/// worker; `frames_to_rags` creates one per `par_map` worker via
/// `strg_parallel::par_map_with`.
#[derive(Debug, Default)]
pub struct SegScratch {
    // Quantized class planes and the mode filter.
    classes: Vec<u32>,
    smoothed: Vec<u32>,
    same: Vec<u32>,
    window: Vec<(u32, u32)>,
    // Row runs, their union-find (then component numbers), row offsets.
    runs: Vec<Run>,
    run_comp: Vec<u32>,
    row_runs: Vec<u32>,
    // Region sums and the region-graph merge.
    sums: Vec<RegionSums>,
    pairs: Vec<(u32, u32)>,
    nbr_off: Vec<u32>,
    nbr_cursor: Vec<u32>,
    nbr: Vec<u32>,
    uf: Vec<u32>,
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
        classes,
        smoothed,
        same,
        window,
        runs,
        run_comp,
        row_runs,
        sums,
        pairs,
        nbr_off,
        nbr_cursor,
        nbr,
        uf,
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

    quantize_into(frame, cfg.quant_levels, classes);
    let classes: &[u32] = if cfg.smooth_radius > 0 {
        mode_filter_into(classes, w, cfg.smooth_radius, smoothed, same, window);
        smoothed
    } else {
        classes
    };

    // 4-connected components over identical classes: each row splits into
    // maximal same-class runs, and a run joins every same-class run of the
    // row above that it overlaps.
    clear_with_cap(runs, n);
    fill_to(row_runs, h + 1, 0);
    for (y, row) in classes.chunks_exact(w).enumerate() {
        let mut x0 = 0;
        while x0 < w {
            let class = row[x0];
            let x1 = row[x0..]
                .iter()
                .position(|&c| c != class)
                .map_or(w, |len| x0 + len);
            runs.push(Run {
                y: y as u32,
                x0: x0 as u32,
                x1: x1 as u32,
                class,
            });
            x0 = x1;
        }
        row_runs[y + 1] = runs.len() as u32;
    }
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
    // Number the components by their first run — the order a raster-scan
    // flood fill meets them, since a component's first pixel starts its
    // first run. Parents point to lower runs, so a run's parent already
    // holds the component number when the run is reached.
    let mut n_comp = 0u32;
    for i in 0..run_comp.len() {
        let parent = run_comp[i] as usize;
        run_comp[i] = if parent == i {
            n_comp += 1;
            n_comp - 1
        } else {
            run_comp[parent]
        };
    }
    let n_comp = n_comp as usize;

    // Region sums from the ORIGINAL pixels, one run at a time.
    fill_to(sums, n_comp, RegionSums::default());
    let pixels = frame.pixels();
    for (run, &c) in runs.iter().zip(run_comp.iter()) {
        let (x0, x1, len) = (run.x0 as u64, run.x1 as u64, (run.x1 - run.x0) as u64);
        let s = &mut sums[c as usize];
        s.count += len;
        s.x += (x0 + x1 - 1) * len / 2;
        s.y += run.y as u64 * len;
        let row = run.y as usize * w;
        for p in &pixels[row + run.x0 as usize..row + run.x1 as usize] {
            s.r += p.r as u64;
            s.g += p.g as u64;
            s.b += p.b as u64;
        }
    }
    for p in pairs.iter_mut() {
        let (a, b) = (run_comp[p.0 as usize], run_comp[p.1 as usize]);
        *p = (a.min(b), a.max(b));
    }
    pairs.sort_unstable();
    pairs.dedup();

    // Merge small regions into their most similar neighbor until stable.
    // Merges go through a union-find so that mutual choices (A picks B, B
    // picks A) coalesce instead of livelocking; every union strictly
    // reduces the number of live regions, so the loop terminates. Live
    // regions are exactly the union-find's roots at the start of a round.
    clear_with_cap(uf, n_comp);
    uf.extend(0..n_comp as u32);
    loop {
        // Neighbor lists in CSR layout, preserving the per-region neighbor
        // order of the pair list (both endpoint directions, pair order).
        fill_to(nbr_off, n_comp + 1, 0);
        for &(a, b) in pairs.iter() {
            nbr_off[a as usize + 1] += 1;
            nbr_off[b as usize + 1] += 1;
        }
        for i in 1..nbr_off.len() {
            nbr_off[i] += nbr_off[i - 1];
        }
        clear_with_cap(nbr_cursor, n_comp);
        nbr_cursor.extend_from_slice(&nbr_off[..n_comp]);
        fill_to(nbr, pairs.len() * 2, 0);
        for &(a, b) in pairs.iter() {
            nbr[nbr_cursor[a as usize] as usize] = b;
            nbr_cursor[a as usize] += 1;
            nbr[nbr_cursor[b as usize] as usize] = a;
            nbr_cursor[b as usize] += 1;
        }
        let mut merged_any = false;
        for (l, acc) in sums.iter().enumerate() {
            if acc.count == 0 || acc.count >= cfg.min_region_size as u64 {
                continue;
            }
            // Most similar (by mean color) live neighbor.
            let target = nbr[nbr_off[l] as usize..nbr_off[l + 1] as usize]
                .iter()
                .filter(|&&n| sums[n as usize].count > 0)
                .min_by(|&&a, &&b| {
                    let da = sums[a as usize].mean_color().dist(acc.mean_color());
                    let db = sums[b as usize].mean_color().dist(acc.mean_color());
                    da.total_cmp(&db)
                })
                .copied();
            if let Some(t) = target {
                let (rl, rt) = (find(uf, l as u32), find(uf, t));
                if rl != rt {
                    uf[rl as usize] = rt;
                    merged_any = true;
                }
            }
        }
        if !merged_any {
            break;
        }
        // Fold each merged region's sums into its root, and relabel the
        // region graph through the roots: the pairs a re-scan of the
        // relabelled pixels would find.
        for l in 0..n_comp {
            let root = find(uf, l as u32) as usize;
            if root != l && sums[l].count > 0 {
                let merged = std::mem::take(&mut sums[l]);
                sums[root].absorb(merged);
            }
        }
        for p in pairs.iter_mut() {
            let (a, b) = (find(uf, p.0), find(uf, p.1));
            *p = (a.min(b), a.max(b));
        }
        pairs.retain(|&(a, b)| a != b);
        pairs.sort_unstable();
        pairs.dedup();
    }

    // Compact labels to dense 0..n, one fill per run.
    fill_to(dense, n_comp, u32::MAX);
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
    for (run, &c) in runs.iter().zip(run_comp.iter()) {
        let l = dense[find(uf, c) as usize];
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

/// Quantized color class keys `(q_r·L + q_g)·L + q_b` of every pixel.
///
/// `L` is `quant_levels` clamped to `2..=256`, so the largest key is below
/// 2^24. Larger values would overflow the `u32` key without changing which
/// pixels share a class: from 256 levels on the per-channel quantizer is
/// one-to-one on `u8`. Channels are u8, so the quantizer collapses to
/// 256-entry lookup tables, and the key distributes over the per-channel
/// terms, so the weights are premultiplied into the tables: the per-pixel
/// work is three loads and two adds.
fn quantize_into(frame: &Frame, quant_levels: u32, classes: &mut Vec<u32>) {
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
    clear_with_cap(classes, frame.pixels().len());
    classes.extend(
        frame
            .pixels()
            .iter()
            .map(|p| lut_r[p.r as usize] + lut_g[p.g as usize] + lut_b[p.b as usize]),
    );
}

/// Edge-preserving mode filter over a non-empty `w`-wide class image: each
/// pixel takes the majority class of its clipped `(2r+1)^2` window, the
/// center winning ties — byte-identical to the naïve filter.
///
/// Per window offset, one `zip` pass over row slices tallies the cells
/// equal to the center. A center holding at least half of its clipped
/// window cannot be strictly beaten and survives; every other pixel
/// (region borders and noise, under 1 % of a corpus frame) is decided by
/// [`mode_of_window_naive`] itself, so ties resolve exactly as the naïve
/// filter resolves them.
fn mode_filter_into(
    classes: &[u32],
    w: usize,
    radius: usize,
    out: &mut Vec<u32>,
    same: &mut Vec<u32>,
    window: &mut Vec<(u32, u32)>,
) {
    let h = classes.len() / w;
    clear_with_cap(out, classes.len());
    out.extend_from_slice(classes);
    // Past the frame's extent a radius clips to the same windows.
    let r = radius.min(w.max(h));
    // A window holds at most this many distinct classes.
    clear_with_cap(window, (2 * r + 1).pow(2).min(classes.len()));
    for (y, center) in classes.chunks_exact(w).enumerate() {
        let (y0, y1) = (y.saturating_sub(r), (y + r).min(h - 1));
        fill_to(same, w, 0);
        for src in classes[y0 * w..(y1 + 1) * w].chunks_exact(w) {
            for d in 0..=2 * r {
                // Cell `x` meets `src[x + d - r]`.
                if d < r {
                    let s = (r - d).min(w);
                    tally(&mut same[s..], &center[s..], &src[..w - s]);
                } else {
                    let s = (d - r).min(w);
                    tally(&mut same[..w - s], &center[..w - s], &src[s..]);
                }
            }
        }
        for (x, &n_same) in same.iter().enumerate() {
            let area = (y1 - y0 + 1) * ((x + r).min(w - 1) - x.saturating_sub(r) + 1);
            if 2 * (n_same as usize) < area {
                out[y * w + x] = mode_of_window_naive(classes, w, h, x, y, r, window);
            }
        }
    }
}

/// Adds one to `same[x]` wherever `center[x] == src[x]`.
fn tally(same: &mut [u32], center: &[u32], src: &[u32]) {
    for ((n, &c), &s) in same.iter_mut().zip(center).zip(src) {
        *n += (c == s) as u32;
    }
}

/// The naïve mode of one `(2r+1)^2` window, exactly as the original filter
/// computed it: counts accumulate in first-encounter (row-major window
/// scan) order, `max_by_key` picks the **last** maximal entry in that
/// order, and the center class wins unless strictly beaten. Shared by the
/// test-only reference filter and the production filter's fallback, so
/// both resolve multi-way ties identically by construction.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Pixel;
    use crate::scenario::tests::{clips150_clip, pixel_hash, FNV_BASIS};

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
        let mut classes = Vec::new();
        quantize_into(frame, cfg.quant_levels, &mut classes);
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
        let mut classes = Vec::new();
        quantize_into(frame, 2, &mut classes);
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

    fn mode_filter(classes: &[u32], w: usize, radius: usize) -> Vec<u32> {
        let mut out = Vec::new();
        mode_filter_into(
            classes,
            w,
            radius,
            &mut out,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        out
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
