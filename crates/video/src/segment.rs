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
//! ## Hot-path kernel (DESIGN.md §10)
//!
//! The mode filter is the per-pixel hot path of ingest: a Huang-style
//! incremental sliding histogram (add/remove one clipped column per step
//! instead of rescanning the `(2r+1)^2` window) — per-pixel cost `O(r)`
//! instead of `O(r^2)`. The window rescan it replaced
//! (`mode_filter_naive`) is compiled only for this module's unit tests,
//! which pin the kernel to it byte for byte.
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
    /// Color quantization levels per channel (>= 2).
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

/// Class images with more distinct key values than this are remapped to a
/// dense id space before histogramming (`quant_levels^3` stays far below
/// the limit for every realistic configuration).
const DENSE_CLASS_LIMIT: usize = 1 << 20;

/// Reusable per-worker scratch arena for [`segment_into`].
///
/// Owns every intermediate buffer of the segmentation pipeline (class
/// planes, sliding histogram, labeling stack, union-find, region
/// statistics, adjacency accumulators) plus the output [`Segmentation`]
/// itself. Buffers are grown on demand and **never shrink**, so repeated
/// calls on same-sized frames reach a steady state with zero heap
/// allocations (`tests/ingest_alloc.rs` pins this). One arena serves one
/// worker; `frames_to_rags` creates one per `par_map` worker via
/// `strg_parallel::par_map_with`.
#[derive(Debug, Default)]
pub struct SegScratch {
    // Quantized class planes.
    classes: Vec<u32>,
    smoothed: Vec<u32>,
    // Sliding-histogram mode filter.
    hist: Vec<u32>,
    freq: Vec<u32>,
    present: Vec<u32>,
    present_pos: Vec<u32>,
    remap_keys: Vec<u32>,
    remapped: Vec<u32>,
    transposed: Vec<u32>,
    tie_counts: Vec<(u32, u32)>,
    // Connected-component labeling and region merging.
    stack: Vec<usize>,
    stats: Vec<RegionAcc>,
    stats_next: Vec<RegionAcc>,
    pairs: Vec<(u32, u32)>,
    nbr_off: Vec<u32>,
    nbr_cursor: Vec<u32>,
    nbr: Vec<u32>,
    uf: Vec<u32>,
    dense: Vec<u32>,
    // Reused output.
    out: Segmentation,
    grows: u64,
}

impl SegScratch {
    /// Creates an empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total heap bytes currently reserved by the arena's buffers
    /// (including the reused output segmentation).
    pub fn alloc_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        cap(&self.classes)
            + cap(&self.smoothed)
            + cap(&self.hist)
            + cap(&self.freq)
            + cap(&self.present)
            + cap(&self.present_pos)
            + cap(&self.remap_keys)
            + cap(&self.remapped)
            + cap(&self.transposed)
            + cap(&self.tie_counts)
            + cap(&self.stack)
            + cap(&self.stats)
            + cap(&self.stats_next)
            + cap(&self.pairs)
            + cap(&self.nbr_off)
            + cap(&self.nbr_cursor)
            + cap(&self.nbr)
            + cap(&self.uf)
            + cap(&self.dense)
            + cap(&self.out.labels)
            + cap(&self.out.regions)
            + cap(&self.out.adjacency)
    }

    /// Number of buffer-growth events since creation. Zero growth across a
    /// call means the call performed no heap allocation.
    pub fn grow_events(&self) -> u64 {
        self.grows
    }

    /// Moves the most recent segmentation out of the arena (the arena keeps
    /// its other buffers and can be reused).
    pub fn take_output(&mut self) -> Segmentation {
        std::mem::take(&mut self.out)
    }
}

/// Clears `v` and resizes it to `n` copies of `value`, counting a growth
/// event iff the buffer had to reallocate.
fn fill_to<T: Copy>(v: &mut Vec<T>, n: usize, value: T, grows: &mut u64) {
    v.clear();
    if v.capacity() < n {
        *grows += 1;
        v.reserve_exact(n);
    }
    v.resize(n, value);
}

/// Clears `v`, ensuring capacity for at least `cap` elements.
fn clear_with_cap<T>(v: &mut Vec<T>, cap: usize, grows: &mut u64) {
    v.clear();
    if v.capacity() < cap {
        *grows += 1;
        v.reserve_exact(cap);
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
        hist,
        freq,
        present,
        present_pos,
        remap_keys,
        remapped,
        transposed,
        tie_counts,
        stack,
        stats,
        stats_next,
        pairs,
        nbr_off,
        nbr_cursor,
        nbr,
        uf,
        dense,
        out,
        grows,
    } = scratch;

    // Quantized color classes, encoded as integer keys. Channels are u8,
    // so the per-channel quantizer collapses to 256-entry lookup tables.
    // The class key `(qr * levels + qg) * levels + qb` distributes over the
    // per-channel terms, so the weights are premultiplied into the tables
    // and the per-pixel work is three loads and two adds — bit-identical
    // integer math, same key for every pixel as the factored form.
    let levels = cfg.quant_levels.max(2);
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
    clear_with_cap(classes, n, grows);
    classes.extend(
        frame
            .pixels()
            .iter()
            .map(|p| lut_r[p.r as usize] + lut_g[p.g as usize] + lut_b[p.b as usize]),
    );

    // Edge-preserving mode filter: each pixel takes the majority class of
    // its window (the center wins ties).
    let classes: &[u32] = if cfg.smooth_radius > 0 {
        mode_filter_fast(
            classes,
            w,
            h,
            cfg.smooth_radius,
            smoothed,
            hist,
            freq,
            present,
            present_pos,
            remap_keys,
            remapped,
            transposed,
            tie_counts,
            grows,
        );
        smoothed
    } else {
        classes
    };

    // 4-connected components over identical quantized colors.
    let labels = &mut out.labels;
    fill_to(labels, n, u32::MAX, grows);
    clear_with_cap(stack, n, grows);
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

    // Accumulate region statistics from the ORIGINAL pixels.
    fill_to(stats, next as usize, RegionAcc::default(), grows);
    for (i, &l) in labels.iter().enumerate() {
        let (x, y) = (i % w, i / w);
        stats[l as usize].add(x as f64, y as f64, frame.pixels()[i].to_rgb());
    }

    // Merge small regions into their most similar neighbor until stable.
    // Merges go through a union-find so that mutual choices (A picks B, B
    // picks A) coalesce instead of livelocking; every union strictly
    // reduces the number of live regions, so the loop terminates.
    loop {
        adjacency_pairs_into(labels, w, h, pairs, grows);
        // Neighbor lists in CSR layout, preserving the per-region neighbor
        // order of the pair list (both endpoint directions, pair order).
        fill_to(nbr_off, stats.len() + 1, 0, grows);
        for &(a, b) in pairs.iter() {
            nbr_off[a as usize + 1] += 1;
            nbr_off[b as usize + 1] += 1;
        }
        for i in 1..nbr_off.len() {
            nbr_off[i] += nbr_off[i - 1];
        }
        clear_with_cap(nbr_cursor, stats.len(), grows);
        nbr_cursor.extend_from_slice(&nbr_off[..stats.len()]);
        fill_to(nbr, pairs.len() * 2, 0, grows);
        for &(a, b) in pairs.iter() {
            nbr[nbr_cursor[a as usize] as usize] = b;
            nbr_cursor[a as usize] += 1;
            nbr[nbr_cursor[b as usize] as usize] = a;
            nbr_cursor[b as usize] += 1;
        }
        clear_with_cap(uf, stats.len(), grows);
        uf.extend(0..stats.len() as u32);
        fn find(uf: &mut [u32], mut x: u32) -> u32 {
            while uf[x as usize] != x {
                uf[x as usize] = uf[uf[x as usize] as usize];
                x = uf[x as usize];
            }
            x
        }
        let mut merged_any = false;
        for (l, acc) in stats.iter().enumerate() {
            if acc.count == 0 || acc.count >= cfg.min_region_size {
                continue;
            }
            // Most similar (by mean color) live neighbor.
            let target = nbr[nbr_off[l] as usize..nbr_off[l + 1] as usize]
                .iter()
                .filter(|&&n| stats[n as usize].count > 0)
                .min_by(|&&a, &&b| {
                    let da = stats[a as usize].mean_color().dist(acc.mean_color());
                    let db = stats[b as usize].mean_color().dist(acc.mean_color());
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
        for l in labels.iter_mut() {
            *l = find(uf, *l);
        }
        // Recompute stats.
        fill_to(stats_next, stats.len(), RegionAcc::default(), grows);
        for (i, &l) in labels.iter().enumerate() {
            let (x, y) = (i % w, i / w);
            stats_next[l as usize].add(x as f64, y as f64, frame.pixels()[i].to_rgb());
        }
        std::mem::swap(stats, stats_next);
    }

    // Compact labels to dense 0..n.
    fill_to(dense, stats.len(), u32::MAX, grows);
    let regions = &mut out.regions;
    regions.clear();
    for (l, acc) in stats.iter().enumerate() {
        if acc.count > 0 {
            dense[l] = regions.len() as u32;
            if regions.len() == regions.capacity() {
                *grows += 1;
            }
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
    adjacency_pairs_into(labels, w, h, &mut out.adjacency, grows);
    out.width = w;
    out
}

#[derive(Copy, Clone, Debug, Default)]
struct RegionAcc {
    count: usize,
    sum_x: f64,
    sum_y: f64,
    sum_r: f64,
    sum_g: f64,
    sum_b: f64,
}

impl RegionAcc {
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

/// Deduplicated adjacent label pairs of a label image.
#[cfg(test)]
fn adjacency_pairs(labels: &[u32], w: usize, h: usize) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let mut grows = 0;
    adjacency_pairs_into(labels, w, h, &mut pairs, &mut grows);
    pairs
}

/// [`adjacency_pairs`] into a reused buffer. Emits one candidate pair per
/// adjacent boundary pixel pair (normalized to `a < b`), then sorts
/// in place and deduplicates — `sort_unstable` + `dedup` never allocate,
/// so a warm buffer makes the whole pass allocation-free.
fn adjacency_pairs_into(
    labels: &[u32],
    w: usize,
    h: usize,
    pairs: &mut Vec<(u32, u32)>,
    grows: &mut u64,
) {
    clear_with_cap(pairs, 2 * w * h, grows);
    for y in 0..h {
        for x in 0..w {
            let l = labels[y * w + x];
            if x + 1 < w {
                let r = labels[y * w + x + 1];
                if r != l {
                    pairs.push(if l < r { (l, r) } else { (r, l) });
                }
            }
            if y + 1 < h {
                let d = labels[(y + 1) * w + x];
                if d != l {
                    pairs.push(if l < d { (l, d) } else { (d, l) });
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
}

/// The naïve mode of one `(2r+1)^2` window, exactly as the original filter
/// computed it: counts accumulate in first-encounter (row-major window
/// scan) order, `max_by_key` picks the **last** maximal entry in that
/// order, and the center class wins unless strictly beaten. Shared by the
/// test-only reference filter and the fast filter's tie fallback, so both
/// resolve multi-way ties identically by construction.
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

/// The original `O(r^2)`-per-pixel mode filter (the unit tests'
/// reference): each output pixel is the most frequent class in its
/// `(2r+1)^2` window, with the center class winning ties.
#[cfg(test)]
fn mode_filter_naive(classes: &[u32], w: usize, h: usize, radius: usize) -> Vec<u32> {
    let mut out = vec![0u32; classes.len()];
    let mut counts: Vec<(u32, u32)> = Vec::with_capacity(9);
    for y in 0..h {
        for x in 0..w {
            out[y * w + x] = mode_of_window_naive(classes, w, h, x, y, radius, &mut counts);
        }
    }
    out
}

/// Adds one class occurrence to the sliding histogram, maintaining the
/// count-of-counts array and the running maximum count.
#[inline(always)]
fn add_one(
    c: usize,
    hist: &mut [u32],
    freq: &mut [u32],
    max_n: &mut u32,
    present: &mut Vec<u32>,
    present_pos: &mut [u32],
) {
    let n = hist[c];
    hist[c] = n + 1;
    if n == 0 {
        present_pos[c] = present.len() as u32;
        present.push(c as u32);
    } else {
        freq[n as usize] -= 1;
    }
    freq[n as usize + 1] += 1;
    if n + 1 > *max_n {
        *max_n = n + 1;
    }
}

/// Removes one class occurrence from the sliding histogram. When the only
/// class at the maximum count loses a member, the new maximum is exactly
/// one lower (that same class now holds it), so the running maximum
/// updates in O(1).
#[inline(always)]
fn remove_one(
    c: usize,
    hist: &mut [u32],
    freq: &mut [u32],
    max_n: &mut u32,
    present: &mut Vec<u32>,
    present_pos: &mut [u32],
) {
    let n = hist[c];
    hist[c] = n - 1;
    freq[n as usize] -= 1;
    if n > 1 {
        freq[n as usize - 1] += 1;
    } else {
        // Swap-remove from the present list, patching the moved entry.
        let pos = present_pos[c] as usize;
        let last = *present.last().expect("present entry exists");
        present.swap_remove(pos);
        if pos < present.len() {
            present_pos[last as usize] = pos as u32;
        }
        present_pos[c] = u32::MAX;
    }
    if n == *max_n && freq[n as usize] == 0 {
        *max_n = n - 1;
    }
}

/// Adds one clipped column of class ids to the sliding histogram.
#[allow(clippy::too_many_arguments)]
fn add_column(
    ids: &[u32],
    w: usize,
    x: usize,
    y0: usize,
    y1: usize,
    hist: &mut [u32],
    freq: &mut [u32],
    max_n: &mut u32,
    present: &mut Vec<u32>,
    present_pos: &mut [u32],
) {
    for yy in y0..=y1 {
        add_one(
            ids[yy * w + x] as usize,
            hist,
            freq,
            max_n,
            present,
            present_pos,
        );
    }
}

/// Removes one clipped column of class ids from the sliding histogram.
#[allow(clippy::too_many_arguments)]
fn remove_column(
    ids: &[u32],
    w: usize,
    x: usize,
    y0: usize,
    y1: usize,
    hist: &mut [u32],
    freq: &mut [u32],
    max_n: &mut u32,
    present: &mut Vec<u32>,
    present_pos: &mut [u32],
) {
    for yy in y0..=y1 {
        remove_one(
            ids[yy * w + x] as usize,
            hist,
            freq,
            max_n,
            present,
            present_pos,
        );
    }
}

/// Huang-style incremental mode filter: one histogram per row window,
/// updated by adding/removing a clipped column per step — `O(2r+1)` work
/// per pixel instead of `O((2r+1)^2)` — plus a count-of-counts array
/// (`freq[n]` = classes with window count `n`) and a running maximum, so
/// the per-pixel majority decision is O(1) in the common case where the
/// center class already holds the (non-strict) majority.
///
/// Byte-identical to `mode_filter_naive`: a non-strict majority keeps
/// the center class in both implementations, a strict *unique* winner is
/// order-independent (found by scanning the present list only on such
/// boundary pixels), and the rare multi-way strict tie falls back to
/// [`mode_of_window_naive`] for that single pixel so the first-encounter
/// tie-break is reproduced exactly.
#[allow(clippy::too_many_arguments)]
fn mode_filter_fast(
    classes: &[u32],
    w: usize,
    h: usize,
    radius: usize,
    out: &mut Vec<u32>,
    hist: &mut Vec<u32>,
    freq: &mut Vec<u32>,
    present: &mut Vec<u32>,
    present_pos: &mut Vec<u32>,
    remap_keys: &mut Vec<u32>,
    remapped: &mut Vec<u32>,
    transposed: &mut Vec<u32>,
    tie_counts: &mut Vec<(u32, u32)>,
    grows: &mut u64,
) {
    fill_to(out, classes.len(), 0, grows);
    if w == 0 || h == 0 {
        return;
    }
    let max_class = *classes.iter().max().expect("non-empty class image") as usize;
    // Histogram over the class values directly when they are small (the
    // segmenter's keys are < quant_levels^3); remap to dense ids otherwise.
    let dense_ids = max_class < DENSE_CLASS_LIMIT;
    let ids: &[u32] = if dense_ids {
        classes
    } else {
        clear_with_cap(remap_keys, classes.len(), grows);
        remap_keys.extend_from_slice(classes);
        remap_keys.sort_unstable();
        remap_keys.dedup();
        fill_to(remapped, classes.len(), 0, grows);
        for (i, &c) in classes.iter().enumerate() {
            remapped[i] = remap_keys.binary_search(&c).expect("key present") as u32;
        }
        remapped
    };
    let n_ids = if dense_ids {
        max_class + 1
    } else {
        remap_keys.len()
    };
    fill_to(hist, n_ids, 0, grows);
    fill_to(present_pos, n_ids, u32::MAX, grows);
    clear_with_cap(present, n_ids, grows);
    clear_with_cap(tie_counts, 16, grows);
    // Counts never exceed the clipped window area.
    let window_cap = (2 * radius + 1).min(w) * (2 * radius + 1).min(h);
    fill_to(freq, window_cap + 1, 0, grows);

    let r = radius;
    // Column-major mirror of the id plane for the interior step: the
    // outgoing/incoming window columns become contiguous slices. Built
    // once per frame, only when interior steps exist.
    let ids_t: &[u32] = if w > 2 * r + 1 {
        fill_to(transposed, ids.len(), 0, grows);
        for (yy, row) in ids.chunks_exact(w).enumerate() {
            for (xx, &c) in row.iter().enumerate() {
                transposed[xx * h + yy] = c;
            }
        }
        transposed
    } else {
        &[]
    };
    for y in 0..h {
        let y0 = y.saturating_sub(r);
        let y1 = (y + r).min(h - 1);
        // Reset the histogram and count-of-counts from the previous row via
        // the present list (touches only classes actually in the window).
        for &c in present.iter() {
            freq[hist[c as usize] as usize] = 0;
            hist[c as usize] = 0;
            present_pos[c as usize] = u32::MAX;
        }
        present.clear();
        let mut max_n = 0u32;
        for xx in 0..=r.min(w - 1) {
            add_column(
                ids,
                w,
                xx,
                y0,
                y1,
                hist,
                freq,
                &mut max_n,
                present,
                present_pos,
            );
        }
        for x in 0..w {
            if x > 0 {
                // Remove before add so counts never transiently exceed the
                // window area (`freq`'s capacity).
                if x <= r {
                    // Left fringe: the window only grows.
                    if x + r < w {
                        add_column(
                            ids,
                            w,
                            x + r,
                            y0,
                            y1,
                            hist,
                            freq,
                            &mut max_n,
                            present,
                            present_pos,
                        );
                    }
                } else if x + r >= w {
                    // Right fringe: the window only shrinks.
                    remove_column(
                        ids,
                        w,
                        x - r - 1,
                        y0,
                        y1,
                        hist,
                        freq,
                        &mut max_n,
                        present,
                        present_pos,
                    );
                } else {
                    // Interior step: pair each outgoing element with the
                    // incoming one on the same row and skip the pair when
                    // both carry the same class — the histogram is
                    // unchanged. Away from region boundaries this skips
                    // nearly every update, making the slide O(1) amortized
                    // rather than O(2r+1).
                    let (xa, xr) = (x + r, x - r - 1);
                    // The walk runs over the column-major mirror: rows
                    // are visited in ascending order with remove-then-add
                    // per diff, exactly as a strided walk over `ids` would.
                    let col_r = &ids_t[xr * h + y0..xr * h + y1 + 1];
                    let col_a = &ids_t[xa * h + y0..xa * h + y1 + 1];
                    for (&cr, &ca) in col_r.iter().zip(col_a) {
                        if cr != ca {
                            remove_one(cr as usize, hist, freq, &mut max_n, present, present_pos);
                            add_one(ca as usize, hist, freq, &mut max_n, present, present_pos);
                        }
                    }
                }
            }
            let center_id = ids[y * w + x] as usize;
            let center_n = hist[center_id];
            out[y * w + x] = if max_n <= center_n {
                // Non-strict majority: the center class survives. This is
                // the O(1) interior-pixel common case.
                classes[y * w + x]
            } else if freq[max_n as usize] == 1 {
                // Unique strict winner: order-independent. Scan the present
                // list for it — only boundary/noise pixels pay this.
                let win = present
                    .iter()
                    .copied()
                    .find(|&c| hist[c as usize] == max_n)
                    .expect("class at max count exists");
                if dense_ids {
                    win
                } else {
                    remap_keys[win as usize]
                }
            } else {
                // Multi-way strict tie: replicate the naïve first-encounter
                // tie-break exactly (rare — bounded by ties per frame).
                mode_of_window_naive(classes, w, h, x, y, r, tie_counts)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::Pixel;

    /// A frame split into a dark left half and a bright right half.
    fn two_region_frame() -> Frame {
        let mut f = Frame::new(40, 30, Pixel::new(20, 20, 20));
        f.fill_rect(20, 0, 20, 30, Pixel::new(230, 230, 230));
        f
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

    // ---- edge-handling pins (satellite: boundary-window audit) ----

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
        let mut s = SegScratch::new();
        let SegScratch {
            smoothed,
            hist,
            freq,
            present,
            present_pos,
            remap_keys,
            remapped,
            transposed,
            tie_counts,
            grows,
            ..
        } = &mut s;
        mode_filter_fast(
            &classes,
            3,
            3,
            1,
            smoothed,
            hist,
            freq,
            present,
            present_pos,
            remap_keys,
            remapped,
            transposed,
            tie_counts,
            grows,
        );
        assert_eq!(smoothed[0], 5);
        assert_eq!(&naive, smoothed);
    }

    /// A strict majority overrides the center even at the border.
    #[test]
    fn mode_filter_corner_strict_majority_overrides_center() {
        let classes = vec![5, 9, 7, 9, 9, 7, 7, 7, 7];
        let naive = mode_filter_naive(&classes, 3, 3, 1);
        assert_eq!(naive[0], 9, "3-of-4 beats the corner's own class");
    }

    /// Fast vs naïve on adversarial tie-heavy class images (few classes,
    /// checkerboards and stripes produce many multi-way ties, exercising
    /// the fallback path).
    #[test]
    fn mode_filter_fast_matches_naive_exactly() {
        type Pattern = (usize, usize, Box<dyn Fn(usize, usize) -> u32>);
        let patterns: Vec<Pattern> = vec![
            (8, 8, Box::new(|x, y| ((x + y) % 2) as u32)),
            (9, 7, Box::new(|x, y| ((x / 2 + y / 3) % 3) as u32)),
            (16, 5, Box::new(|x, _| (x % 4) as u32 * 1000)),
            (6, 6, Box::new(|x, y| ((x * 7 + y * 13) % 5) as u32)),
            (1, 12, Box::new(|_, y| (y % 2) as u32)),
            (12, 1, Box::new(|x, _| (x % 3) as u32)),
            // Tall and wide enough that radii 4-6 slide unclipped window
            // columns of 9-13 cells through interior steps.
            (31, 17, Box::new(|x, y| ((x * 7 + y * 13) % 5) as u32)),
            (29, 19, Box::new(|x, y| ((x / 5 + y / 4) % 3) as u32)),
        ];
        let mut s = SegScratch::new();
        for (w, h, f) in patterns {
            let classes: Vec<u32> = (0..w * h).map(|i| f(i % w, i / w)).collect();
            for radius in [1, 2, 3, 4, 5, 6] {
                let naive = mode_filter_naive(&classes, w, h, radius);
                let SegScratch {
                    smoothed,
                    hist,
                    freq,
                    present,
                    present_pos,
                    remap_keys,
                    remapped,
                    transposed,
                    tie_counts,
                    grows,
                    ..
                } = &mut s;
                mode_filter_fast(
                    &classes,
                    w,
                    h,
                    radius,
                    smoothed,
                    hist,
                    freq,
                    present,
                    present_pos,
                    remap_keys,
                    remapped,
                    transposed,
                    tie_counts,
                    grows,
                );
                assert_eq!(&naive, smoothed, "{w}x{h} radius {radius}");
            }
        }
    }

    /// Class keys past the dense-histogram limit take the remap path and
    /// still match the naïve filter.
    #[test]
    fn mode_filter_remap_path_matches_naive() {
        let w = 9;
        let h = 6;
        let classes: Vec<u32> = (0..w * h)
            .map(|i| ((i % 4) as u32) * 0x0100_0000 + 3)
            .collect();
        assert!(*classes.iter().max().unwrap() as usize >= DENSE_CLASS_LIMIT);
        let naive = mode_filter_naive(&classes, w, h, 2);
        let mut s = SegScratch::new();
        let SegScratch {
            smoothed,
            hist,
            freq,
            present,
            present_pos,
            remap_keys,
            remapped,
            transposed,
            tie_counts,
            grows,
            ..
        } = &mut s;
        mode_filter_fast(
            &classes,
            w,
            h,
            2,
            smoothed,
            hist,
            freq,
            present,
            present_pos,
            remap_keys,
            remapped,
            transposed,
            tie_counts,
            grows,
        );
        assert_eq!(&naive, smoothed);
        assert!(s.hist.len() <= w * h, "remapped id space is dense");
    }

    // ---- adjacency pins (satellite: duplicate-emission audit) ----

    /// `adjacency_pairs` emits one candidate per boundary pixel pair but
    /// the output is sorted, normalized to `a < b`, and deduplicated.
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

    #[test]
    fn adjacency_pairs_reused_buffer_matches_fresh() {
        let labels_a = vec![0, 0, 1, 1, 2, 2, 3, 3, 4];
        let labels_b = vec![0, 1, 0, 1, 0, 1, 0, 1, 0];
        let mut buf = Vec::new();
        let mut grows = 0;
        adjacency_pairs_into(&labels_a, 3, 3, &mut buf, &mut grows);
        assert_eq!(buf, adjacency_pairs(&labels_a, 3, 3));
        adjacency_pairs_into(&labels_b, 3, 3, &mut buf, &mut grows);
        assert_eq!(buf, adjacency_pairs(&labels_b, 3, 3));
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
            busy_frame(40, 30, 4),
        ];
        let mut scratch = SegScratch::new();
        for f in &frames {
            let fresh = segment(f, &cfg);
            let reused = segment_into(f, &cfg, &mut scratch);
            assert_eq!(fresh.labels, reused.labels);
            assert_eq!(fresh.width, reused.width);
            assert_eq!(fresh.adjacency, reused.adjacency);
            assert_eq!(fresh.regions.len(), reused.regions.len());
            for (a, b) in fresh.regions.iter().zip(&reused.regions) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.size, b.size);
                assert_eq!(a.color.r.to_bits(), b.color.r.to_bits());
                assert_eq!(a.color.g.to_bits(), b.color.g.to_bits());
                assert_eq!(a.color.b.to_bits(), b.color.b.to_bits());
                assert_eq!(a.centroid.x.to_bits(), b.centroid.x.to_bits());
                assert_eq!(a.centroid.y.to_bits(), b.centroid.y.to_bits());
            }
        }
    }

    /// After a warm-up pass the arena stops growing: re-segmenting the
    /// same frames triggers no further buffer growth.
    #[test]
    fn scratch_reaches_steady_state() {
        let cfg = SegmentConfig::default();
        let frames = [busy_frame(40, 30, 7), busy_frame(40, 30, 8)];
        let mut scratch = SegScratch::new();
        for f in &frames {
            segment_into(f, &cfg, &mut scratch);
        }
        let grows_after_warmup = scratch.grow_events();
        let bytes_after_warmup = scratch.alloc_bytes();
        assert!(bytes_after_warmup > 0);
        for _ in 0..3 {
            for f in &frames {
                segment_into(f, &cfg, &mut scratch);
            }
        }
        assert_eq!(
            scratch.grow_events(),
            grows_after_warmup,
            "steady-state segmentation must not grow the arena"
        );
        assert_eq!(scratch.alloc_bytes(), bytes_after_warmup);
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
