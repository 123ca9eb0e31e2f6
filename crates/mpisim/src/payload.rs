//! Typed message payloads.
//!
//! Anything sent through the simulated MPI must report its wire size so
//! the cost model can price it. Implementations exist for the types the
//! hydro code actually ships: field slices, byte buffers, and scalars.
//!
//! A payload travels as a [`Body`]. Most are boxed; a scalar travels as
//! one word and a payload with no data of its own as nothing at all, so
//! the messages of a cost-only run — timestamps, a `dt`, faces that
//! carry only their size — allocate nothing on the way.

use std::any::{Any, TypeId};

/// A payload in flight. The `TypeId` of an unboxed body keeps the
/// receive's type check: a body taken as the wrong type is `None`.
pub enum Body {
    /// A payload with no data, rebuilt from the packet's byte count.
    Empty(TypeId),
    /// A payload that fits one word.
    Word(u64, TypeId),
    /// Any other payload.
    Any(Box<dyn Any + Send>),
}

impl Body {
    /// A boxed body as a `T`.
    pub fn downcast<T: 'static>(self) -> Option<T> {
        match self {
            Body::Any(any) => any.downcast().ok().map(|b| *b),
            _ => None,
        }
    }

    /// A word body of a `T`.
    fn word<T: 'static>(self) -> Option<u64> {
        match self {
            Body::Word(word, id) if id == TypeId::of::<T>() => Some(word),
            _ => None,
        }
    }
}

/// A sendable message body.
pub trait Payload: Send + 'static {
    /// Size on the wire in bytes.
    fn byte_len(&self) -> u64;

    /// The body this payload travels as: boxed, unless the type says
    /// otherwise.
    fn into_body(self) -> Body
    where
        Self: Sized,
    {
        Body::Any(Box::new(self))
    }

    /// The payload a body of `bytes` wire bytes carries, or `None` if it
    /// carries another type.
    fn from_body(body: Body, _bytes: u64) -> Option<Self>
    where
        Self: Sized,
    {
        body.downcast()
    }
}

impl Payload for Vec<f64> {
    fn byte_len(&self) -> u64 {
        (self.len() * std::mem::size_of::<f64>()) as u64
    }
}

impl Payload for Vec<u8> {
    fn byte_len(&self) -> u64 {
        self.len() as u64
    }
}

impl Payload for Vec<u64> {
    fn byte_len(&self) -> u64 {
        (self.len() * std::mem::size_of::<u64>()) as u64
    }
}

impl Payload for Vec<i64> {
    fn byte_len(&self) -> u64 {
        (self.len() * std::mem::size_of::<i64>()) as u64
    }
}

impl Payload for f64 {
    fn byte_len(&self) -> u64 {
        std::mem::size_of::<f64>() as u64
    }

    fn into_body(self) -> Body {
        Body::Word(self.to_bits(), TypeId::of::<f64>())
    }

    fn from_body(body: Body, _bytes: u64) -> Option<Self> {
        body.word::<f64>().map(f64::from_bits)
    }
}

impl Payload for u64 {
    fn byte_len(&self) -> u64 {
        std::mem::size_of::<u64>() as u64
    }

    fn into_body(self) -> Body {
        Body::Word(self, TypeId::of::<u64>())
    }

    fn from_body(body: Body, _bytes: u64) -> Option<Self> {
        body.word::<u64>()
    }
}

impl Payload for usize {
    fn byte_len(&self) -> u64 {
        std::mem::size_of::<usize>() as u64
    }
}

impl Payload for (f64, f64) {
    fn byte_len(&self) -> u64 {
        16
    }
}

impl Payload for () {
    fn byte_len(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_lengths_match_memory_sizes() {
        assert_eq!(vec![1.0f64; 10].byte_len(), 80);
        assert_eq!(vec![0u8; 7].byte_len(), 7);
        assert_eq!(vec![0u64; 3].byte_len(), 24);
        assert_eq!(1.5f64.byte_len(), 8);
        assert_eq!(().byte_len(), 0);
        assert_eq!((1.0, 2.0).byte_len(), 16);
    }

    #[test]
    fn a_body_comes_back_only_as_the_type_it_left_as() {
        let word = |x: f64| x.into_body();
        assert_eq!(f64::from_body(word(-2.5), 8), Some(-2.5));
        assert_eq!(u64::from_body(word(-2.5), 8), None);
        assert_eq!(u64::from_body(7u64.into_body(), 8), Some(7));
        assert_eq!(f64::from_body(7u64.into_body(), 8), None);
        let boxed = vec![1.0f64, 2.0].into_body();
        assert_eq!(<Vec<f64>>::from_body(boxed, 16), Some(vec![1.0, 2.0]));
        assert_eq!(f64::from_body(vec![1.0f64].into_body(), 8), None);
        assert_eq!(<Vec<f64>>::from_body(word(1.0), 8), None);
    }
}
