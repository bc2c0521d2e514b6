//! Fixture: hash-ordered iteration leaking into outputs. Every marked line
//! must trip `map-iter-order` when linted under a deterministic crate path.
use std::collections::{HashMap, HashSet};

pub fn leak_values(m: &HashMap<u32, u32>) -> Vec<u32> {
    m.values().copied().collect() //~ map-iter-order
}

pub fn leak_pairs(m: &HashMap<u32, u32>) -> Vec<(u32, u32)> {
    m.iter().map(|(k, v)| (*k, *v)).collect() //~ map-iter-order
}

pub fn leak_loop(seen: &HashSet<u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for s in seen { //~ map-iter-order
        out.push(*s);
    }
    out
}

pub fn leak_drain(mut pending: HashMap<u64, u64>) -> Vec<u64> {
    pending.drain().map(|(_, v)| v).collect() //~ map-iter-order
}

pub fn leak_owned(m: HashMap<u32, u32>) -> Vec<(u32, u32)> {
    m.into_iter().collect() //~ map-iter-order
}
