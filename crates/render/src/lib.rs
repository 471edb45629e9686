//! # coterie-render
//!
//! Software panoramic renderer for the Coterie reproduction.
//!
//! The paper's clients and server render with Unity; this crate replaces
//! that with a compact equirectangular rasterizer whose projection is the
//! real thing: objects subtend solid angles inversely proportional to
//! distance ("Perspective Projection ... converts faraway objects to be
//! viewed smaller and the nearby objects to be viewed larger", §4.2).
//! Consequently the paper's central observation — the *near-object
//! effect*, where a small viewpoint displacement of a near object changes
//! many more pixels than the same displacement of a far object — emerges
//! from geometry here rather than being assumed.
//!
//! The renderer supports the near/far BE split at the heart of Coterie:
//! a [`RenderFilter`] restricts rendering to objects (and ground) inside
//! or outside a cutoff radius, producing the near-BE and far-BE layers
//! that are later composited by [`merge`].
//!
//! # Example
//!
//! ```
//! use coterie_render::{Renderer, RenderFilter};
//! use coterie_world::{GameId, GameSpec};
//!
//! let spec = GameSpec::for_game(GameId::Fps);
//! let scene = spec.build_scene(1);
//! let renderer = Renderer::default();
//! let eye = scene.eye(scene.bounds().center());
//! let pano = renderer.render_panorama(&scene, eye, RenderFilter::All);
//! assert_eq!(pano.frame.width(), 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fov;
pub mod merge;
pub mod panorama;
pub mod stereo;

pub use fov::FovOptions;
pub use merge::merge;
pub use panorama::{Panorama, RenderFilter, RenderOptions, Renderer};
pub use stereo::{StereoOptions, StereoPair};
