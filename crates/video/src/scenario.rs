//! The four evaluation videos of Table 1, scaled to laptop size.
//!
//! The paper records ~45 hours from a laboratory camera (Lab1, Lab2) and a
//! traffic camera (Traffic1, Traffic2). We script the same *content
//! structure* synthetically: a static indoor room with people walking
//! through (Lab), and a two-lane road with bidirectional vehicles
//! (Traffic). Durations are scaled down (minutes of footage become hundreds
//! of frames); Table 1/2 of EXPERIMENTS.md reports the scaled counts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use strg_graph::Point2;

use crate::raster::{Frame, Pixel};
use crate::scene::{line_path, Actor, BgPatch, Scene, SceneNoise, Sprite};

/// Canvas width of the scenario videos.
pub const SCENE_W: usize = 160;
/// Canvas height of the scenario videos.
pub const SCENE_H: usize = 120;

/// Configuration of a scenario build.
#[derive(Copy, Clone, Debug)]
pub struct ScenarioConfig {
    /// Number of moving objects scripted into the clip.
    pub n_actors: usize,
    /// The window actors start in, not the clip's length. An actor whose
    /// path takes `steps` frames starts in `0..max(frames - steps, 1)`, and
    /// the clip ends when the last path does ([`Scene::frame_count`]): it
    /// falls short of `frames` when no actor starts late, and outruns it
    /// when a path is longer than the window (`strgdb ingest --scene lab
    /// --frames 40` renders 54 frames, `--scene traffic --frames 40` 38).
    pub frames: usize,
    /// RNG seed (actor schedules, lanes, speeds).
    pub seed: u64,
    /// Rendering noise.
    pub noise: SceneNoise,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            n_actors: 8,
            frames: 120,
            seed: 0,
            noise: SceneNoise::default(),
        }
    }
}

/// A named synthetic video clip.
#[derive(Clone, Debug)]
pub struct VideoClip {
    /// Clip name (e.g. `"Lab1"`).
    pub name: String,
    /// The scripted scene.
    pub scene: Scene,
    /// Nominal frame rate, used to report durations.
    pub fps: f64,
}

impl VideoClip {
    /// Number of frames in the clip.
    pub fn frame_count(&self) -> usize {
        self.scene.frame_count()
    }

    /// Nominal duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.frame_count() as f64 / self.fps
    }

    /// Renders every frame deterministically from `seed`.
    pub fn render_all(&self, seed: u64) -> Vec<Frame> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.frame_count())
            .map(|t| self.scene.render(t, &mut rng))
            .collect()
    }
}

/// Shirt colors for lab people — far apart so segmentation separates them.
const SHIRTS: [Pixel; 6] = [
    Pixel::new(200, 40, 40),
    Pixel::new(40, 160, 40),
    Pixel::new(230, 180, 40),
    Pixel::new(160, 40, 200),
    Pixel::new(40, 170, 200),
    Pixel::new(240, 120, 40),
];

/// Car body colors.
const CARS: [Pixel; 5] = [
    Pixel::new(200, 30, 30),
    Pixel::new(30, 60, 180),
    Pixel::new(220, 220, 220),
    Pixel::new(40, 40, 40),
    Pixel::new(230, 200, 60),
];

/// Builds a laboratory scene: static room, people crossing it.
pub fn lab_scene(cfg: &ScenarioConfig) -> Scene {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let background = vec![
        // Floor.
        BgPatch {
            x: 0,
            y: 70,
            w: SCENE_W,
            h: 50,
            color: Pixel::new(150, 130, 100),
        },
        // Door.
        BgPatch {
            x: 130,
            y: 20,
            w: 22,
            h: 50,
            color: Pixel::new(110, 70, 40),
        },
        // Desk.
        BgPatch {
            x: 10,
            y: 55,
            w: 45,
            h: 18,
            color: Pixel::new(90, 60, 35),
        },
        // Whiteboard.
        BgPatch {
            x: 60,
            y: 12,
            w: 50,
            h: 26,
            color: Pixel::new(235, 235, 235),
        },
    ];
    let mut actors = Vec::new();
    for i in 0..cfg.n_actors {
        let shirt = SHIRTS[i % SHIRTS.len()];
        let y = rng.gen_range(62.0..92.0);
        let ltr: bool = rng.gen();
        let (a, b) = if ltr {
            (Point2::new(-12.0, y), Point2::new(SCENE_W as f64 + 12.0, y))
        } else {
            (Point2::new(SCENE_W as f64 + 12.0, y), Point2::new(-12.0, y))
        };
        let steps = rng.gen_range(35..60);
        let latest_start = cfg.frames.saturating_sub(steps).max(1);
        let start = rng.gen_range(0..latest_start);
        actors.push(Actor {
            sprite: Sprite::person(1.0, shirt),
            start_frame: start,
            path: line_path(a, b, steps),
        });
    }
    Scene {
        width: SCENE_W,
        height: SCENE_H,
        base: Pixel::new(200, 205, 210), // wall
        background,
        actors,
        noise: cfg.noise,
    }
}

/// Builds a traffic scene: road with bidirectional vehicles.
pub fn traffic_scene(cfg: &ScenarioConfig) -> Scene {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut background = vec![
        // Asphalt.
        BgPatch {
            x: 0,
            y: 40,
            w: SCENE_W,
            h: 44,
            color: Pixel::new(70, 70, 75),
        },
        // Grass below.
        BgPatch {
            x: 0,
            y: 84,
            w: SCENE_W,
            h: 36,
            color: Pixel::new(60, 130, 60),
        },
    ];
    // Lane dashes.
    let mut x = 4;
    while x < SCENE_W as isize {
        background.push(BgPatch {
            x,
            y: 60,
            w: 10,
            h: 3,
            color: Pixel::new(220, 220, 180),
        });
        x += 24;
    }
    let mut actors = Vec::new();
    for i in 0..cfg.n_actors {
        let body = CARS[i % CARS.len()];
        let eastbound: bool = rng.gen();
        let y = if eastbound { 50.0 } else { 72.0 };
        let (a, b) = if eastbound {
            (Point2::new(-16.0, y), Point2::new(SCENE_W as f64 + 16.0, y))
        } else {
            (Point2::new(SCENE_W as f64 + 16.0, y), Point2::new(-16.0, y))
        };
        let steps = rng.gen_range(22..40);
        let latest_start = cfg.frames.saturating_sub(steps).max(1);
        let start = rng.gen_range(0..latest_start);
        actors.push(Actor {
            sprite: Sprite::car(1.0, body),
            start_frame: start,
            path: line_path(a, b, steps),
        });
    }
    Scene {
        width: SCENE_W,
        height: SCENE_H,
        base: Pixel::new(130, 170, 215), // sky
        background,
        actors,
        noise: cfg.noise,
    }
}

/// The four scaled evaluation clips of Table 1, deterministic per name.
pub fn table1_clips() -> Vec<VideoClip> {
    table1_clips_scaled(1.0)
}

/// The Table 1 clips with frame and actor budgets multiplied by `scale`
/// (used by the experiment harness to trade fidelity for speed).
pub fn table1_clips_scaled(scale: f64) -> Vec<VideoClip> {
    let sa = |n: usize| ((n as f64 * scale).round() as usize).max(2);
    let sf = |n: usize| ((n as f64 * scale).round() as usize).max(60);
    vec![
        VideoClip {
            name: "Lab1".into(),
            scene: lab_scene(&ScenarioConfig {
                n_actors: sa(14),
                frames: sf(420),
                seed: 101,
                ..ScenarioConfig::default()
            }),
            fps: 30.0,
        },
        VideoClip {
            name: "Lab2".into(),
            scene: lab_scene(&ScenarioConfig {
                n_actors: sa(8),
                frames: sf(260),
                seed: 102,
                ..ScenarioConfig::default()
            }),
            fps: 30.0,
        },
        VideoClip {
            name: "Traffic1".into(),
            scene: traffic_scene(&ScenarioConfig {
                n_actors: sa(10),
                frames: sf(300),
                seed: 103,
                ..ScenarioConfig::default()
            }),
            fps: 30.0,
        },
        VideoClip {
            name: "Traffic2".into(),
            scene: traffic_scene(&ScenarioConfig {
                n_actors: sa(10),
                frames: sf(280),
                seed: 104,
                ..ScenarioConfig::default()
            }),
            fps: 30.0,
        },
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Clip `i` of the benchmark's `clips150` corpus (alternating lab /
    /// traffic, 4 actors, a 24-frame budget, seed `20050614 + i`) and its
    /// render seed — the frames the segmenter's oracle tests replay.
    pub(crate) fn clips150_clip(i: usize) -> (VideoClip, u64) {
        let seed = 20050614 + i as u64;
        let cfg = ScenarioConfig {
            n_actors: 4,
            frames: 24,
            seed,
            ..ScenarioConfig::default()
        };
        let scene = [lab_scene, traffic_scene][i % 2];
        let clip = VideoClip {
            name: format!("clip-{i:04}"),
            scene: scene(&cfg),
            fps: 30.0,
        };
        (clip, seed)
    }

    /// FNV-1a's offset basis: the hash of no bytes.
    pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a state `h` continued over every channel byte of every frame.
    pub(crate) fn pixel_hash(mut h: u64, frames: &[Frame]) -> u64 {
        for p in frames.iter().flat_map(Frame::pixels) {
            for byte in [p.r, p.g, p.b] {
                h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    /// Rendering is pinned bit for bit: the illumination table and the
    /// row-slice `fill_rect` reproduce the per-pixel expressions they
    /// replaced, and the RNG stream is untouched.
    #[test]
    fn corpus_renders_are_pinned() {
        let mut got = Vec::new();
        for i in 0..2 {
            let (clip, seed) = clips150_clip(i);
            let frames = clip.render_all(seed);
            got.push((frames.len(), pixel_hash(FNV_BASIS, &frames)));
        }
        assert_eq!(
            got,
            vec![(59, 4816198138863386248), (36, 4450703003020171100)]
        );
    }

    #[test]
    fn lab_scene_has_actors_and_background() {
        let s = lab_scene(&ScenarioConfig::default());
        assert_eq!(s.actors.len(), 8);
        assert!(s.background.len() >= 4);
        assert!(s.frame_count() > 0);
    }

    #[test]
    fn traffic_scene_lanes_are_on_the_road() {
        let s = traffic_scene(&ScenarioConfig::default());
        for a in &s.actors {
            for p in &a.path {
                assert!((40.0..84.0).contains(&p.y), "car stays on asphalt: {}", p.y);
            }
        }
    }

    #[test]
    fn scenarios_deterministic_per_seed() {
        let a = lab_scene(&ScenarioConfig::default());
        let b = lab_scene(&ScenarioConfig::default());
        assert_eq!(a.actors.len(), b.actors.len());
        for (x, y) in a.actors.iter().zip(&b.actors) {
            assert_eq!(x.start_frame, y.start_frame);
            assert_eq!(x.path, y.path);
        }
    }

    #[test]
    fn table1_clips_have_expected_names() {
        let clips = table1_clips();
        let names: Vec<&str> = clips.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Lab1", "Lab2", "Traffic1", "Traffic2"]);
        for c in &clips {
            assert!(c.frame_count() > 100);
            assert!(c.duration_secs() > 3.0);
        }
    }

    #[test]
    fn render_all_is_deterministic() {
        let clip = &table1_clips()[2];
        let a = clip.render_all(7);
        let b = clip.render_all(7);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[10].pixels(), b[10].pixels());
    }
}
