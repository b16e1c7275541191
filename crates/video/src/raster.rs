//! Raster frames: the pixel substrate the synthetic camera produces and the
//! segmenter consumes.

use strg_graph::Rgb;

/// A packed 8-bit RGB pixel.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Pixel {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Pixel {
    /// Creates a pixel.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }

    /// Converts to the `f64` color used by graph attributes.
    pub fn to_rgb(self) -> Rgb {
        Rgb::new(self.r as f64, self.g as f64, self.b as f64)
    }

    /// Converts from an `f64` color (clamped to `[0, 255]`).
    pub fn from_rgb(c: Rgb) -> Self {
        let c = c.clamp();
        Self::new(c.r.round() as u8, c.g.round() as u8, c.b.round() as u8)
    }
}

/// One video frame: a `width x height` grid of pixels, row major.
#[derive(Clone, Debug)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<Pixel>,
}

impl Frame {
    /// Creates a frame filled with `fill`.
    pub fn new(width: usize, height: usize, fill: Pixel) -> Self {
        // One pixel, then doubling copies: `vec![fill; n]` stores 3 bytes at a time.
        let n = width * height;
        let mut pixels = Vec::with_capacity(n);
        pixels.extend((n > 0).then_some(fill));
        while pixels.len() < n {
            pixels.extend_from_within(..pixels.len().min(n - pixels.len()));
        }
        Self {
            width,
            height,
            pixels,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> Pixel {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`; out-of-bounds writes are ignored so that
    /// sprites may partially leave the frame.
    pub fn set(&mut self, x: isize, y: isize, p: Pixel) {
        if x >= 0 && y >= 0 && (x as usize) < self.width && (y as usize) < self.height {
            self.pixels[y as usize * self.width + x as usize] = p;
        }
    }

    /// Fills the axis-aligned rectangle with corner `(x, y)` and the given
    /// size, clipping to the frame.
    pub fn fill_rect(&mut self, x: isize, y: isize, w: usize, h: usize, p: Pixel) {
        // Clamping both ends is monotone, so `lo <= hi` and an off-frame
        // rectangle clips to an empty range.
        let clip = |start: isize, len: usize, max: usize| {
            let clamp = |v: isize| v.clamp(0, max as isize) as usize;
            (clamp(start), clamp(start.saturating_add_unsigned(len)))
        };
        let (x0, x1) = clip(x, w, self.width);
        let (y0, y1) = clip(y, h, self.height);
        if y0 == y1 {
            return;
        }
        // The first row as `Frame::new` fills a frame, then copies of it.
        let first = y0 * self.width + x0..y0 * self.width + x1;
        let row = &mut self.pixels[first.clone()];
        let mut done = row.len().min(1);
        row[..done].fill(p);
        while done < row.len() {
            let n = done.min(row.len() - done);
            row.copy_within(..n, done);
            done += n;
        }
        for y in y0 + 1..y1 {
            self.pixels.copy_within(first.clone(), y * self.width + x0);
        }
    }

    /// Fills a disc centered at `(cx, cy)`.
    pub fn fill_circle(&mut self, cx: f64, cy: f64, radius: f64, p: Pixel) {
        let r = radius.ceil() as isize;
        let (cxi, cyi) = (cx.round() as isize, cy.round() as isize);
        for yy in cyi - r..=cyi + r {
            for xx in cxi - r..=cxi + r {
                let dx = xx as f64 - cx;
                let dy = yy as f64 - cy;
                if dx * dx + dy * dy <= radius * radius {
                    self.set(xx, yy, p);
                }
            }
        }
    }

    /// Raw pixel storage, row major.
    pub fn pixels(&self) -> &[Pixel] {
        &self.pixels
    }

    /// Mutable raw pixel storage.
    pub fn pixels_mut(&mut self) -> &mut [Pixel] {
        &mut self.pixels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_frame_is_filled() {
        let f = Frame::new(4, 3, Pixel::new(1, 2, 3));
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert!(f.pixels().iter().all(|&p| p == Pixel::new(1, 2, 3)));
    }

    #[test]
    fn set_get_roundtrip_and_oob_ignored() {
        let mut f = Frame::new(4, 4, Pixel::default());
        f.set(2, 1, Pixel::new(9, 9, 9));
        assert_eq!(f.get(2, 1), Pixel::new(9, 9, 9));
        f.set(-1, 0, Pixel::new(1, 1, 1));
        f.set(0, 99, Pixel::new(1, 1, 1));
        assert_eq!(f.get(0, 0), Pixel::default());
    }

    #[test]
    fn fill_rect_clips() {
        let mut f = Frame::new(4, 4, Pixel::default());
        f.fill_rect(2, 2, 10, 10, Pixel::new(5, 5, 5));
        assert_eq!(f.get(3, 3), Pixel::new(5, 5, 5));
        assert_eq!(f.get(1, 1), Pixel::default());
        // Row slices ≡ a clipped `set` per pixel, across every edge.
        let rects = [
            (-3, -2, 5, 4),
            (-10, 1, 4, 2),
            (1, -9, 2, 3),
            (5, 5, 0, 3),
            (3, 0, 1, 9),
        ];
        for (i, &(x, y, w, h)) in rects.iter().enumerate() {
            let p = Pixel::new(i as u8 + 1, 0, 0);
            let mut want = Frame::new(6, 5, Pixel::default());
            for yy in y..y + h as isize {
                for xx in x..x + w as isize {
                    want.set(xx, yy, p);
                }
            }
            let mut got = Frame::new(6, 5, Pixel::default());
            got.fill_rect(x, y, w, h, p);
            assert_eq!(got.pixels(), want.pixels(), "rect {i}");
        }
        // Extents past `isize::MAX` saturate instead of wrapping.
        let mut f = Frame::new(3, 2, Pixel::default());
        f.fill_rect(-1, -1, usize::MAX, usize::MAX, Pixel::new(1, 1, 1));
        assert!(f.pixels().iter().all(|&p| p == Pixel::new(1, 1, 1)));
    }

    /// The doubling copies fill exactly the frame at every length around
    /// their power-of-two steps.
    #[test]
    fn new_fills_every_length() {
        for w in 0..=17 {
            for h in [0, 1, 2, 3, 17] {
                let p = Pixel::new(w as u8, h as u8, 7);
                let f = Frame::new(w, h, p);
                assert_eq!(f.pixels(), vec![p; w * h], "{w}x{h}");
            }
        }
    }

    /// A rectangle's first row and its copies ≡ a `set` per pixel, at
    /// every width and height 0–17, at both edges and over the whole frame.
    #[test]
    fn fill_rect_matches_set_at_every_length() {
        let (fw, fh) = (20, 19);
        for len in 0..=17usize {
            let rects = [
                (1, 2, len, 3),
                (3, 1, 2, len),
                (fw as isize - len as isize + 2, -1, len, len),
                (-2, fh as isize - 5, len, len),
                (0, 0, fw, fh),
            ];
            for (x, y, w, h) in rects {
                let p = Pixel::new(len as u8 + 1, 2, 3);
                let mut want = Frame::new(fw, fh, Pixel::new(9, 8, 7));
                for yy in y..y + h as isize {
                    for xx in x..x + w as isize {
                        want.set(xx, yy, p);
                    }
                }
                let mut got = Frame::new(fw, fh, Pixel::new(9, 8, 7));
                got.fill_rect(x, y, w, h, p);
                assert_eq!(got.pixels(), want.pixels(), "rect {x},{y} {w}x{h}");
            }
        }
    }

    #[test]
    fn fill_circle_covers_center() {
        let mut f = Frame::new(20, 20, Pixel::default());
        f.fill_circle(10.0, 10.0, 3.0, Pixel::new(7, 7, 7));
        assert_eq!(f.get(10, 10), Pixel::new(7, 7, 7));
        assert_eq!(f.get(10, 13), Pixel::new(7, 7, 7));
        assert_eq!(f.get(10, 14), Pixel::default());
    }

    #[test]
    fn pixel_rgb_roundtrip() {
        let p = Pixel::new(10, 200, 133);
        let c = p.to_rgb();
        assert_eq!(Pixel::from_rgb(c), p);
        // Clamping.
        assert_eq!(
            Pixel::from_rgb(strg_graph::Rgb::new(-4.0, 300.0, 1.4)),
            Pixel::new(0, 255, 1)
        );
    }
}
