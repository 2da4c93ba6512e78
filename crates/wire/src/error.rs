use std::fmt;

/// Error produced while encoding or decoding wire data.
///
/// All variants carry enough context to locate the malformed byte region in
/// a captured frame; `Display` messages are lowercase and concise per Rust
/// API guidelines (C-GOOD-ERR).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before a complete value could be decoded.
    UnexpectedEof {
        /// What the decoder was trying to read.
        expected: &'static str,
    },
    /// A tag byte did not correspond to any known variant.
    InvalidTag {
        /// Which tagged union was being decoded.
        kind: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    InvalidUtf8,
    /// A varint used more bytes than permitted for its width.
    VarintOverflow,
    /// A declared length exceeded the configured maximum.
    LengthOverflow {
        /// The declared length.
        declared: u64,
        /// The maximum the decoder accepts.
        max: u64,
    },
    /// Trailing bytes remained after a complete message was decoded.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A state tree was nested deeper than the decoder accepts.
    DepthExceeded {
        /// The deepest nesting the decoder accepts.
        max: usize,
    },
    /// An object pathname was syntactically invalid.
    InvalidPath {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input while reading {expected}")
            }
            WireError::InvalidTag { kind, tag } => {
                write!(f, "invalid tag {tag:#04x} for {kind}")
            }
            WireError::InvalidUtf8 => write!(f, "string field was not valid utf-8"),
            WireError::VarintOverflow => write!(f, "varint exceeded 64 bits"),
            WireError::LengthOverflow { declared, max } => {
                write!(f, "declared length {declared} exceeds maximum {max}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
            WireError::DepthExceeded { max } => {
                write!(f, "state tree nested deeper than {max} levels")
            }
            WireError::InvalidPath { reason } => write!(f, "invalid object path: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            WireError::UnexpectedEof { expected: "varint" },
            WireError::InvalidTag { kind: "Value", tag: 0xff },
            WireError::InvalidUtf8,
            WireError::VarintOverflow,
            WireError::LengthOverflow { declared: 10, max: 5 },
            WireError::TrailingBytes { remaining: 3 },
            WireError::DepthExceeded { max: 128 },
            WireError::InvalidPath { reason: "empty segment" },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with(char::is_numeric));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WireError>();
    }
}
