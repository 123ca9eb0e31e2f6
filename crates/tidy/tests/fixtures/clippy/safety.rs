// expect: clippy::undocumented_unsafe_blocks
// A module that may use `unsafe`, with a block that says nothing of why.
#![allow(unsafe_code)]

use std::cell::UnsafeCell;

pub struct Slot(UnsafeCell<u64>);

impl Slot {
    pub fn set(&self, v: u64) {
        unsafe { *self.0.get() = v };
    }
}
