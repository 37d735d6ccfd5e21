//! Planning errors.

use std::error::Error;
use std::fmt;

/// Memory planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// A single layer's weights exceed the fetch buffer — no segmentation
    /// can stage it. Grow the buffer (or shrink the model).
    LayerTooLarge {
        /// Model name.
        model: String,
        /// Offending layer name.
        layer: String,
        /// The layer's weight bytes.
        bytes: u64,
        /// The configured fetch-buffer size.
        buffer_bytes: u64,
    },
    /// The fetch buffer size is zero.
    ZeroBuffer,
    /// The combined SRAM demand (activations + double buffers + runtime
    /// reserve) exceeds the platform's SRAM.
    SramOverflow {
        /// Bytes demanded.
        demanded: u64,
        /// Bytes available.
        available: u64,
    },
    /// An arena allocation failed (out of space or name collision).
    ArenaExhausted {
        /// Allocation label.
        label: String,
        /// Requested bytes.
        bytes: u64,
        /// Bytes still free (possibly fragmented).
        free: u64,
    },
    /// A region's byte size does not fit in 64 bits (e.g. the double
    /// buffer of a fetch buffer larger than 2^63 bytes).
    SizeOverflow {
        /// Region label.
        label: String,
    },
    /// An arena allocation asked for zero bytes.
    ZeroSizedRegion {
        /// Allocation label.
        label: String,
    },
    /// An arena allocation asked for an alignment that is not a power
    /// of two.
    BadAlignment {
        /// Allocation label.
        label: String,
        /// The requested alignment.
        align: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::LayerTooLarge {
                model,
                layer,
                bytes,
                buffer_bytes,
            } => write!(
                f,
                "layer {layer} of {model} needs {bytes} bytes, exceeding the {buffer_bytes}-byte fetch buffer"
            ),
            PlanError::ZeroBuffer => write!(f, "fetch buffer size must be positive"),
            PlanError::SramOverflow {
                demanded,
                available,
            } => write!(f, "sram demand of {demanded} bytes exceeds {available} available"),
            PlanError::ArenaExhausted { label, bytes, free } => write!(
                f,
                "cannot allocate {bytes} bytes for {label}; {free} bytes free"
            ),
            PlanError::SizeOverflow { label } => {
                write!(f, "size of {label} overflows 64 bits")
            }
            PlanError::ZeroSizedRegion { label } => {
                write!(f, "cannot allocate zero bytes for {label}")
            }
            PlanError::BadAlignment { label, align } => write!(
                f,
                "alignment {align} for {label} is not a power of two"
            ),
        }
    }
}

impl Error for PlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = PlanError::LayerTooLarge {
            model: "resnet8".into(),
            layer: "conv3".into(),
            bytes: 40_000,
            buffer_bytes: 16_384,
        };
        let msg = e.to_string();
        assert!(msg.contains("conv3") && msg.contains("resnet8") && msg.contains("16384"));
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<PlanError>();
    }
}
