//! # strg-video
//!
//! The synthetic video substrate standing in for the paper's cameras and
//! for EDISON region segmentation (see DESIGN.md, "Substitutions"):
//!
//! * [`raster`] — pixel frames,
//! * [`scene`] — scripted backgrounds + multi-part moving sprites with
//!   illumination/pixel/frame-drop noise,
//! * [`scenario`] — the Lab1/Lab2/Traffic1/Traffic2 analogs of Table 1,
//! * [`mod@segment`] — homogeneous-color region segmentation,
//! * [`rag_extract`] — frame → Region Adjacency Graph (Definition 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rag_extract;
pub mod raster;
pub mod scenario;
pub mod scene;
pub mod segment;

pub use rag_extract::{
    frames_to_rags, frames_to_rags_with_stats, rag_from_segmentation, ExtractStats,
};
pub use raster::{Frame, Pixel};
pub use scenario::{
    lab_scene, table1_clips, table1_clips_scaled, traffic_scene, ScenarioConfig, VideoClip,
    SCENE_H, SCENE_W,
};
pub use scene::{line_path, Actor, BgPatch, Scene, SceneNoise, Sprite, SpritePart};
pub use segment::{segment, segment_into, Region, SegScratch, SegmentConfig, Segmentation};
pub use strg_parallel::Threads;
