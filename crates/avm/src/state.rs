//! The typed value the AVM keeps on its stack and in application state.

/// A TEAL stack/state value: the AVM is bi-typed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TealValue {
    /// A 64-bit unsigned integer.
    Uint(u64),
    /// An octet string (up to 4 KiB on the real AVM).
    Bytes(Vec<u8>),
}

impl TealValue {
    /// The integer value.
    ///
    /// # Errors
    ///
    /// Returns `None` for byte values.
    pub(crate) fn as_uint(&self) -> Option<u64> {
        match self {
            TealValue::Uint(v) => Some(*v),
            TealValue::Bytes(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(TealValue::Uint(7).as_uint(), Some(7));
        assert_eq!(TealValue::Bytes(vec![1, 2]).as_uint(), None);
    }
}
