//! Synthetic scene scripting and rendering — the stand-in for the paper's
//! camera (§6.1's real video streams).
//!
//! A [`Scene`] is a static multi-region background plus moving [`Actor`]s,
//! each a multi-part sprite following a per-frame path. Rendering draws
//! background then actors, and optionally applies illumination jitter and
//! pixel noise so that segmentation and tracking face the same nuisances
//! real footage has. The jitter shifts each fill's colour, not each pixel.

use rand::rngs::StdRng;
use rand::Rng;
use strg_graph::Point2;

use crate::raster::{Frame, Pixel};

/// A colored rectangle of the static background.
#[derive(Copy, Clone, Debug)]
pub struct BgPatch {
    /// Top-left corner x.
    pub x: isize,
    /// Top-left corner y.
    pub y: isize,
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
    /// Fill color.
    pub color: Pixel,
}

/// One rigid part of a sprite, drawn relative to the actor position.
#[derive(Copy, Clone, Debug)]
pub struct SpritePart {
    /// Offset of the part's center from the actor position.
    pub offset: Point2,
    /// Part half-width.
    pub half_w: f64,
    /// Part half-height.
    pub half_h: f64,
    /// Part color (distinct parts should have distinct colors so the
    /// region segmenter splits them, exercising OG merging).
    pub color: Pixel,
}

/// A multi-part sprite.
#[derive(Clone, Debug, Default)]
pub struct Sprite {
    /// The sprite's parts, drawn in order.
    pub parts: Vec<SpritePart>,
}

impl Sprite {
    /// A person-like sprite: head, torso, legs (three stacked parts).
    pub fn person(scale: f64, shirt: Pixel) -> Self {
        Sprite {
            parts: vec![
                SpritePart {
                    offset: Point2::new(0.0, -9.0 * scale),
                    half_w: 3.0 * scale,
                    half_h: 3.0 * scale,
                    color: Pixel::new(222, 184, 135), // skin tone
                },
                SpritePart {
                    offset: Point2::new(0.0, 0.0),
                    half_w: 4.5 * scale,
                    half_h: 6.0 * scale,
                    color: shirt,
                },
                SpritePart {
                    offset: Point2::new(0.0, 10.0 * scale),
                    half_w: 3.5 * scale,
                    half_h: 4.0 * scale,
                    color: Pixel::new(40, 40, 90), // trousers
                },
            ],
        }
    }

    /// A car-like sprite: body plus a windshield stripe.
    pub fn car(scale: f64, body: Pixel) -> Self {
        Sprite {
            parts: vec![
                SpritePart {
                    offset: Point2::new(0.0, 0.0),
                    half_w: 10.0 * scale,
                    half_h: 4.5 * scale,
                    color: body,
                },
                SpritePart {
                    offset: Point2::new(2.0 * scale, -scale),
                    half_w: 3.0 * scale,
                    half_h: 2.0 * scale,
                    color: Pixel::new(180, 220, 240), // glass
                },
            ],
        }
    }
}

/// A moving object of the scene.
#[derive(Clone, Debug)]
pub struct Actor {
    /// The sprite drawn at each path position.
    pub sprite: Sprite,
    /// First frame the actor is visible.
    pub start_frame: usize,
    /// Per-frame positions starting at `start_frame`.
    pub path: Vec<Point2>,
}

impl Actor {
    /// The actor's position at frame `t`, if visible.
    pub fn position_at(&self, t: usize) -> Option<Point2> {
        if t < self.start_frame {
            return None;
        }
        self.path.get(t - self.start_frame).copied()
    }
}

/// Rendering nuisances.
#[derive(Copy, Clone, Debug)]
pub struct SceneNoise {
    /// Max per-frame uniform illumination offset applied to every channel.
    pub illumination: f64,
    /// Per-pixel chance of salt noise.
    pub pixel_noise: f64,
    /// Per-frame chance that the frame is dropped: its actors are not
    /// drawn, so it shows the background only (simulates a decode
    /// glitch). A dropped frame still gets its own illumination offset
    /// and salt noise, so it is not an exact copy of the background.
    pub frame_drop: f64,
}

impl Default for SceneNoise {
    fn default() -> Self {
        Self {
            illumination: 4.0,
            pixel_noise: 0.001,
            frame_drop: 0.0,
        }
    }
}

/// A synthetic scene: canvas, background, actors, noise model.
#[derive(Clone, Debug)]
pub struct Scene {
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Canvas base color (under the patches).
    pub base: Pixel,
    /// Static background patches, drawn in order.
    pub background: Vec<BgPatch>,
    /// The moving objects.
    pub actors: Vec<Actor>,
    /// Noise model.
    pub noise: SceneNoise,
}

impl Scene {
    /// Total number of frames needed to play out every actor.
    pub fn frame_count(&self) -> usize {
        self.actors
            .iter()
            .map(|a| a.start_frame + a.path.len())
            .max()
            .unwrap_or(0)
    }

    /// Renders frame `t`. It draws the drop flag, the illumination offset,
    /// then one salt draw per pixel; painting draws nothing. The offset maps
    /// channel values, so each fill is painted in its shifted colour
    /// (DESIGN.md §10, "Rendering").
    pub fn render(&self, t: usize, rng: &mut StdRng) -> Frame {
        let dropped = self.noise.frame_drop > 0.0 && rng.gen::<f64>() < self.noise.frame_drop;
        let off = if self.noise.illumination > 0.0 {
            rng.gen_range(-self.noise.illumination..=self.noise.illumination)
        } else {
            0.0
        };
        // Channels are u8, so the shift has 256 possible inputs.
        let shifted: [u8; 256] = std::array::from_fn(|v| (v as f64 + off).clamp(0.0, 255.0) as u8);
        let shift = |c: Pixel| {
            Pixel::new(
                shifted[c.r as usize],
                shifted[c.g as usize],
                shifted[c.b as usize],
            )
        };
        let mut f = Frame::new(self.width, self.height, shift(self.base));
        for p in &self.background {
            f.fill_rect(p.x, p.y, p.w, p.h, shift(p.color));
        }
        if !dropped {
            for a in &self.actors {
                if let Some(pos) = a.position_at(t) {
                    for part in &a.sprite.parts {
                        let c = pos + part.offset;
                        f.fill_rect(
                            (c.x - part.half_w).round() as isize,
                            (c.y - part.half_h).round() as isize,
                            (2.0 * part.half_w).round() as usize,
                            (2.0 * part.half_h).round() as usize,
                            shift(part.color),
                        );
                    }
                }
            }
        }
        // Salt noise.
        if self.noise.pixel_noise > 0.0 {
            for p in f.pixels_mut() {
                if rng.gen::<f64>() < self.noise.pixel_noise {
                    let v: u8 = rng.gen();
                    *p = Pixel::new(v, v, v);
                }
            }
        }
        f
    }
}

/// A straight-line path from `a` to `b` over `steps` frames.
pub fn line_path(a: Point2, b: Point2, steps: usize) -> Vec<Point2> {
    if steps == 0 {
        return Vec::new();
    }
    if steps == 1 {
        return vec![a];
    }
    (0..steps)
        .map(|i| a.lerp(b, i as f64 / (steps - 1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn quiet(mut s: Scene) -> Scene {
        s.noise = SceneNoise {
            illumination: 0.0,
            pixel_noise: 0.0,
            frame_drop: 0.0,
        };
        s
    }

    fn scene_with_one_actor() -> Scene {
        quiet(Scene {
            width: 64,
            height: 48,
            base: Pixel::new(30, 30, 30),
            background: vec![BgPatch {
                x: 0,
                y: 40,
                w: 64,
                h: 8,
                color: Pixel::new(80, 80, 80),
            }],
            actors: vec![Actor {
                sprite: Sprite::person(1.0, Pixel::new(200, 30, 30)),
                start_frame: 2,
                path: line_path(Point2::new(10.0, 20.0), Point2::new(50.0, 20.0), 10),
            }],
            noise: SceneNoise::default(),
        })
    }

    /// The renderer as it stood before fills were painted in their
    /// shifted colour: paint everything, then map every pixel through the
    /// illumination table. [`Scene::render`] must match it pixel for pixel
    /// and draw the same RNG stream.
    fn render_reference(scene: &Scene, t: usize, rng: &mut StdRng) -> Frame {
        let mut f = Frame::new(scene.width, scene.height, scene.base);
        for p in &scene.background {
            f.fill_rect(p.x, p.y, p.w, p.h, p.color);
        }
        let dropped = scene.noise.frame_drop > 0.0 && rng.gen::<f64>() < scene.noise.frame_drop;
        if !dropped {
            for a in &scene.actors {
                if let Some(pos) = a.position_at(t) {
                    for part in &a.sprite.parts {
                        let c = pos + part.offset;
                        f.fill_rect(
                            (c.x - part.half_w).round() as isize,
                            (c.y - part.half_h).round() as isize,
                            (2.0 * part.half_w).round() as usize,
                            (2.0 * part.half_h).round() as usize,
                            part.color,
                        );
                    }
                }
            }
        }
        // Illumination jitter: one offset per frame.
        if scene.noise.illumination > 0.0 {
            let off = rng.gen_range(-scene.noise.illumination..=scene.noise.illumination);
            // Channels are u8, so the shifted value has 256 possible
            // inputs: tabulate the expression once per frame.
            let mut shifted = [0u8; 256];
            for (v, s) in shifted.iter_mut().enumerate() {
                *s = (v as f64 + off).clamp(0.0, 255.0) as u8;
            }
            for p in f.pixels_mut() {
                p.r = shifted[p.r as usize];
                p.g = shifted[p.g as usize];
                p.b = shifted[p.b as usize];
            }
        }
        // Salt noise.
        if scene.noise.pixel_noise > 0.0 {
            let n = f.pixels_mut().len();
            for i in 0..n {
                if rng.gen::<f64>() < scene.noise.pixel_noise {
                    let v: u8 = rng.gen();
                    f.pixels_mut()[i] = Pixel::new(v, v, v);
                }
            }
        }
        f
    }

    /// A scene that reaches every branch of both renderers: channels
    /// within 4 of 0 and of 255, overlapping and zero-size patches, a
    /// sprite that walks in from off-frame, one that never enters it and
    /// one whose part rounds to zero size.
    fn branchy_scene() -> Scene {
        let walker = Actor {
            sprite: Sprite::person(1.0, Pixel::new(254, 1, 128)),
            start_frame: 0,
            path: line_path(Point2::new(-12.0, 15.0), Point2::new(30.0, 18.0), 12),
        };
        let outside = Actor {
            sprite: Sprite::car(1.0, Pixel::new(0, 255, 3)),
            start_frame: 2,
            path: line_path(Point2::new(-50.0, -40.0), Point2::new(90.0, -40.0), 8),
        };
        let mut flat = Sprite::car(0.8, Pixel::new(4, 251, 90));
        flat.parts[1].half_w = 0.2;
        let flat = Actor {
            sprite: flat,
            start_frame: 3,
            path: line_path(Point2::new(30.0, 25.0), Point2::new(10.0, 5.0), 9),
        };
        let patch = |x, y, w, h, color| BgPatch { x, y, w, h, color };
        Scene {
            width: 40,
            height: 30,
            base: Pixel::new(2, 253, 128),
            background: vec![
                patch(-5, -5, 20, 15, Pixel::new(255, 0, 4)),
                patch(10, 5, 20, 20, Pixel::new(251, 3, 60)),
                patch(25, 0, 15, 30, Pixel::new(0, 128, 255)),
                patch(5, 5, 0, 10, Pixel::new(9, 9, 9)),
                patch(5, 5, 10, 0, Pixel::new(9, 9, 9)),
                patch(60, 40, 5, 5, Pixel::new(9, 9, 9)),
            ],
            actors: vec![walker, outside, flat],
            noise: SceneNoise::default(),
        }
    }

    /// `render` equals the paint-then-map reference pixel for pixel on
    /// every frame, and leaves the RNG where the reference does, across
    /// no, small and saturating illumination, no, sparse and full salt,
    /// and dropped frames.
    #[test]
    fn render_matches_reference() {
        let mut scene = branchy_scene();
        let mut cases = 0;
        for illumination in [0.0, 4.0, 300.0] {
            for pixel_noise in [0.0, 0.01, 1.0] {
                for frame_drop in [0.0, 0.5] {
                    scene.noise = SceneNoise {
                        illumination,
                        pixel_noise,
                        frame_drop,
                    };
                    let mut got_rng = StdRng::seed_from_u64(cases);
                    let mut want_rng = got_rng.clone();
                    for t in 0..scene.frame_count() + 2 {
                        let got = scene.render(t, &mut got_rng);
                        let want = render_reference(&scene, t, &mut want_rng);
                        let ctx = format!("{:?} frame {t}", scene.noise);
                        assert_eq!(got.pixels(), want.pixels(), "{ctx}");
                        assert_eq!(
                            got_rng.clone().gen::<u64>(),
                            want_rng.clone().gen::<u64>(),
                            "{ctx}: RNG stream"
                        );
                    }
                    cases += 1;
                }
            }
        }
    }

    #[test]
    fn frame_count_covers_actor_lifetime() {
        assert_eq!(scene_with_one_actor().frame_count(), 12);
    }

    #[test]
    fn actor_invisible_before_start() {
        let s = scene_with_one_actor();
        let mut rng = StdRng::seed_from_u64(0);
        let f0 = s.render(0, &mut rng);
        let f5 = s.render(5, &mut rng);
        // Frame 0 has no shirt-red pixels, frame 5 does.
        let red = |f: &Frame| f.pixels().iter().filter(|p| p.r > 150 && p.g < 100).count();
        assert_eq!(red(&f0), 0);
        assert!(red(&f5) > 10);
    }

    #[test]
    fn actor_moves_over_time() {
        let s = scene_with_one_actor();
        let mut rng = StdRng::seed_from_u64(0);
        let centroid_of_red = |f: &Frame| {
            let mut sx = 0.0f64;
            let mut n = 0.0f64;
            for y in 0..f.height() {
                for x in 0..f.width() {
                    let p = f.get(x, y);
                    if p.r > 150 && p.g < 100 {
                        sx += x as f64;
                        n += 1.0;
                    }
                }
            }
            sx / n.max(1.0)
        };
        let early = centroid_of_red(&s.render(2, &mut rng));
        let late = centroid_of_red(&s.render(11, &mut rng));
        assert!(late > early + 20.0, "{early} -> {late}");
    }

    #[test]
    fn line_path_endpoints() {
        let p = line_path(Point2::new(0.0, 0.0), Point2::new(9.0, 0.0), 10);
        assert_eq!(p.len(), 10);
        assert_eq!(p[0], Point2::new(0.0, 0.0));
        assert_eq!(p[9], Point2::new(9.0, 0.0));
    }

    #[test]
    fn background_is_stable_without_noise() {
        let s = scene_with_one_actor();
        let mut rng = StdRng::seed_from_u64(0);
        let a = s.render(0, &mut rng);
        let b = s.render(1, &mut rng);
        assert_eq!(a.pixels(), b.pixels());
    }

    #[test]
    fn illumination_shifts_whole_frame() {
        let mut s = scene_with_one_actor();
        s.noise.illumination = 10.0;
        let mut rng = StdRng::seed_from_u64(3);
        let a = s.render(0, &mut rng);
        let b = s.render(0, &mut rng);
        // Different jitter draws produce shifted but uniform offsets.
        let d0 = a.get(0, 0).r as i32 - b.get(0, 0).r as i32;
        let d1 = a.get(63, 47).r as i32 - b.get(63, 47).r as i32;
        assert_eq!(d0, d1, "offset uniform across frame");
    }

    #[test]
    fn sprite_constructors() {
        assert_eq!(Sprite::person(1.0, Pixel::new(1, 2, 3)).parts.len(), 3);
        assert_eq!(Sprite::car(1.0, Pixel::new(1, 2, 3)).parts.len(), 2);
    }
}
