//! Software direct volume rendering.
//!
//! The paper renders with "fragment programs and view aligned 3D textures"
//! on a GeForce 6800 (Section 7). This crate reproduces the same pipeline on
//! the CPU: per-ray front-to-back compositing with transfer-function lookups,
//! central-difference gradient shading, early ray termination, and the
//! multi-pass tracked-feature overlay (tracked voxels drawn in red over the
//! context volume). Scanlines render in parallel with rayon.
//!
//! - [`Image`] — an RGB framebuffer with PPM output,
//! - [`Camera`] — an orbiting look-at camera with orthographic projection,
//! - [`Renderer`] — the ray caster,
//! - [`render_tracking_overlay`] — the Section 5/7 feature-highlight pass.

#![forbid(unsafe_code)]

pub mod camera;
pub mod image;
pub mod raycast;
pub mod slice_view;

pub use camera::Camera;
pub use image::Image;
pub use raycast::{render_tracking_overlay, RenderParams, Renderer, AUTO_PACKET, MAX_PACKET};
pub use slice_view::{render_slice, slice_data, SliceAxis};
