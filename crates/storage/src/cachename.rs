//! Content-derived file naming (TaskVine "cachenames", §IV-B).
//!
//! TaskVine retains files on worker-local disks and moves them between
//! peers, so a file must have the same identity everywhere regardless of
//! the path the application knows it by. TaskVine derives a unique
//! *cachename* from file metadata and content; we model that as a 128-bit
//! hash over a namespace plus arbitrary parts (producer task signature,
//! logical name, partition index, ...). Cachenames may refer to single
//! files or to directory trees treated as atomic units.

use std::fmt;

/// A content/metadata-derived, location-independent file identity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheName(u128);

impl CacheName {
    /// Derive a cachename from a namespace and ordered byte parts.
    ///
    /// Equal `(namespace, parts)` always produce equal names; parts are
    /// length-delimited, so `["ab","c"]` and `["a","bc"]` differ.
    pub fn derive(namespace: &str, parts: &[&[u8]]) -> Self {
        let mut hi = fnv1a64(0xcbf2_9ce4_8422_2325, namespace.as_bytes());
        let mut lo = fnv1a64(0x84222325_cbf29ce4, namespace.as_bytes());
        for part in parts {
            let len = (part.len() as u64).to_le_bytes();
            hi = fnv1a64(hi ^ 0x9e37, &len);
            hi = fnv1a64(hi, part);
            lo = fnv1a64(lo ^ 0x79b9, &len);
            lo = fnv1a64(lo, part);
        }
        CacheName(((hi as u128) << 64) | lo as u128)
    }

    /// Derive a cachename for a task's numbered output.
    pub fn for_task_output(task_signature: &str, output_index: u32) -> Self {
        CacheName::derive(
            "task-output",
            &[task_signature.as_bytes(), &output_index.to_le_bytes()],
        )
    }

    /// Derive a cachename for an input dataset file.
    pub fn for_dataset_file(dataset: &str, file_index: u32) -> Self {
        CacheName::derive(
            "dataset-file",
            &[dataset.as_bytes(), &file_index.to_le_bytes()],
        )
    }
}

impl fmt::Debug for CacheName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cachename:{:032x}", self.0)
    }
}

impl fmt::Display for CacheName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", (self.0 >> 64) as u64 ^ self.0 as u64)
    }
}

fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = CacheName::derive("ns", &[b"hello", b"world"]);
        let b = CacheName::derive("ns", &[b"hello", b"world"]);
        assert_eq!(a, b);
    }

    #[test]
    fn namespace_separates() {
        assert_ne!(
            CacheName::derive("ns1", &[b"x"]),
            CacheName::derive("ns2", &[b"x"])
        );
    }

    #[test]
    fn part_boundaries_matter() {
        assert_ne!(
            CacheName::derive("ns", &[b"ab", b"c"]),
            CacheName::derive("ns", &[b"a", b"bc"])
        );
        assert_ne!(
            CacheName::derive("ns", &[b"abc"]),
            CacheName::derive("ns", &[b"abc", b""])
        );
    }

    #[test]
    fn task_output_names_unique_per_index() {
        let a = CacheName::for_task_output("proc-partition-17", 0);
        let b = CacheName::for_task_output("proc-partition-17", 1);
        let c = CacheName::for_task_output("proc-partition-18", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn dataset_file_names_stable() {
        assert_eq!(
            CacheName::for_dataset_file("SingleMu", 3),
            CacheName::for_dataset_file("SingleMu", 3)
        );
    }

    #[test]
    fn no_collisions_over_many_names() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for ds in 0..50u32 {
            for f in 0..200u32 {
                let name = CacheName::for_dataset_file(&format!("ds{ds}"), f);
                assert!(seen.insert(name), "collision at ds{ds} file {f}");
            }
        }
    }

    #[test]
    fn debug_format_is_hex() {
        let n = CacheName::derive("ns", &[b"x"]);
        assert!(format!("{n:?}").starts_with("cachename:"));
    }
}
