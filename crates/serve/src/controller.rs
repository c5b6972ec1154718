//! The queue-depth backpressure controller: degrade, shed, recover.
//!
//! The controller is a **pure state machine** over queue-depth
//! observations — no clocks, no channels — so its whole behavior is
//! unit-testable deterministically. One observation is made per admission
//! window, right before the window is served:
//!
//! ```text
//!            depth ≥ degrade_watermark
//!      Full ───────────────────────────▶ Degraded
//!        ▲                                  │
//!        │  depth ≤ recover_watermark for   │
//!        └── recover_windows consecutive ◀──┘
//!                    windows
//! ```
//!
//! The two watermarks plus the consecutive-window requirement form the
//! hysteresis band: a queue oscillating between the watermarks keeps the
//! controller in `Degraded` (no flapping), and recovery is guaranteed
//! within `recover_windows` windows once the queue genuinely drains.

use serde::{Deserialize, Serialize};
use stratrec_core::prelude::ServiceQuality;

/// Watermarks and hysteresis of the [`BackpressureController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Queue depth at or above which the controller degrades to
    /// `Baseline2` service.
    pub degrade_watermark: usize,
    /// Queue depth at or below which a window counts as calm. Must sit
    /// strictly below [`Self::degrade_watermark`] (checked by
    /// [`BackpressureController::new`]): at or above it, one steady depth
    /// both degrades and counts as calm, so the controller flaps.
    pub recover_watermark: usize,
    /// Consecutive calm windows required before quality returns to full.
    pub recover_windows: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            degrade_watermark: 64,
            recover_watermark: 16,
            recover_windows: 3,
        }
    }
}

/// The shed/degrade/recover state machine of the streaming front-end.
#[derive(Debug, Clone)]
pub struct BackpressureController {
    config: ControllerConfig,
    quality: ServiceQuality,
    calm_windows: usize,
}

impl BackpressureController {
    /// A controller starting at [`ServiceQuality::Full`].
    ///
    /// # Panics
    ///
    /// Panics when `config.recover_watermark` is not strictly below
    /// `config.degrade_watermark`: a queue depth between the two would
    /// toggle Full ↔ Degraded on alternate windows.
    #[must_use]
    pub fn new(config: ControllerConfig) -> Self {
        assert!(
            config.recover_watermark < config.degrade_watermark,
            "ControllerConfig::recover_watermark ({}) must sit strictly below \
             degrade_watermark ({})",
            config.recover_watermark,
            config.degrade_watermark
        );
        Self {
            config,
            quality: ServiceQuality::Full,
            calm_windows: 0,
        }
    }

    /// The quality the controller currently serves at.
    #[must_use]
    pub fn quality(&self) -> ServiceQuality {
        self.quality
    }

    /// Feeds one per-window queue-depth observation and returns the quality
    /// to serve the window at. Degradation is immediate at the degrade
    /// watermark; recovery requires `recover_windows` consecutive
    /// observations at or below the recover watermark.
    pub fn observe(&mut self, queue_depth: usize) -> ServiceQuality {
        match self.quality {
            ServiceQuality::Full => {
                if queue_depth >= self.config.degrade_watermark {
                    self.quality = ServiceQuality::Degraded;
                    self.calm_windows = 0;
                }
            }
            ServiceQuality::Degraded => {
                if queue_depth <= self.config.recover_watermark {
                    self.calm_windows += 1;
                    if self.calm_windows >= self.config.recover_windows {
                        self.quality = ServiceQuality::Full;
                        self.calm_windows = 0;
                    }
                } else {
                    self.calm_windows = 0;
                }
            }
        }
        self.quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> BackpressureController {
        BackpressureController::new(ControllerConfig {
            degrade_watermark: 10,
            recover_watermark: 4,
            recover_windows: 3,
        })
    }

    #[test]
    fn degrades_immediately_at_the_watermark() {
        let mut c = controller();
        assert_eq!(c.observe(9), ServiceQuality::Full);
        assert_eq!(c.observe(10), ServiceQuality::Degraded);
        assert_eq!(c.quality(), ServiceQuality::Degraded);
    }

    #[test]
    fn recovery_needs_consecutive_calm_windows() {
        let mut c = controller();
        c.observe(50);
        assert_eq!(c.observe(4), ServiceQuality::Degraded, "calm 1 of 3");
        assert_eq!(c.observe(3), ServiceQuality::Degraded, "calm 2 of 3");
        assert_eq!(c.observe(0), ServiceQuality::Full, "calm 3 of 3 recovers");
    }

    #[test]
    fn a_loud_window_resets_the_calm_streak() {
        let mut c = controller();
        c.observe(50);
        c.observe(4);
        c.observe(4);
        // One observation inside the hysteresis band (above recover, below
        // degrade) resets the streak — no flapping at the boundary.
        assert_eq!(c.observe(7), ServiceQuality::Degraded);
        c.observe(4);
        c.observe(4);
        assert_eq!(c.observe(4), ServiceQuality::Full, "streak rebuilt");
    }

    #[test]
    fn oscillation_between_the_watermarks_never_recovers() {
        let mut c = controller();
        c.observe(50);
        for _ in 0..100 {
            assert_eq!(c.observe(5), ServiceQuality::Degraded);
            assert_eq!(c.observe(9), ServiceQuality::Degraded);
        }
    }

    #[test]
    fn recovery_is_bounded_once_the_queue_drains() {
        let mut c = controller();
        c.observe(50);
        let mut windows = 0;
        while c.observe(0) == ServiceQuality::Degraded {
            windows += 1;
            assert!(windows < 10, "recovery must be bounded");
        }
        // `recover_windows = 3` ⇒ the third calm window flips to Full, so
        // two observations stay degraded and the third recovers.
        assert_eq!(windows, 2);
    }

    /// With `recover ≥ degrade` a steady depth in between (here 6) would
    /// degrade on one window and count as calm on the next, flapping
    /// Full ↔ Degraded forever; such a config is rejected up front.
    #[test]
    #[should_panic(expected = "must sit strictly below")]
    fn an_inverted_hysteresis_band_is_rejected() {
        let _ = BackpressureController::new(ControllerConfig {
            degrade_watermark: 4,
            recover_watermark: 8,
            recover_windows: 1,
        });
    }

    #[test]
    #[should_panic(expected = "must sit strictly below")]
    fn equal_watermarks_are_rejected() {
        let _ = BackpressureController::new(ControllerConfig {
            degrade_watermark: 4,
            recover_watermark: 4,
            recover_windows: 1,
        });
    }

    #[test]
    fn full_quality_ignores_sub_watermark_noise() {
        let mut c = controller();
        for depth in [0, 4, 9, 5, 0, 9] {
            assert_eq!(c.observe(depth), ServiceQuality::Full);
        }
    }
}
