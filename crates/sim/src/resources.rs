//! Multi-dimensional server resources.
//!
//! The paper considers `D` resource types per server (CPU, memory, disk in
//! the Google traces), with job demands normalized by the capacity of one
//! server.
//!
//! A [`ResourceVec`] is an inline `Copy` value of at most
//! [`MAX_RESOURCE_DIMS`] components: every job demand and every server's
//! capacity and usage lives inside its owner, so the simulator kernel
//! allocates nothing when a job arrives, starts, finishes or is re-placed.
//! Three components is the paper's `D` (CPU, memory, disk) and what the
//! trace generator and both real-trace parsers produce; a fourth is
//! rejected by name in [`ResourceVec::new`], in deserialization and in
//! [`ClusterConfig::validate`](crate::config::ClusterConfig::validate).

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// The most components a [`ResourceVec`] can hold: the paper's `D = 3`
/// (CPU, memory, disk).
pub const MAX_RESOURCE_DIMS: usize = 3;

/// The resource types used by the Google-trace workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// CPU cores (normalized).
    Cpu,
    /// Memory (normalized).
    Memory,
    /// Local disk (normalized).
    Disk,
}

impl ResourceKind {
    /// The standard three-resource set in trace column order.
    pub const STANDARD: [ResourceKind; 3] =
        [ResourceKind::Cpu, ResourceKind::Memory, ResourceKind::Disk];

    /// Index of this kind within [`ResourceKind::STANDARD`].
    pub fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::Memory => 1,
            ResourceKind::Disk => 2,
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Memory => "memory",
            ResourceKind::Disk => "disk",
        };
        f.write_str(name)
    }
}

/// A `D`-dimensional resource quantity (demand, usage, or capacity),
/// normalized so that one server's capacity is `1.0` per dimension.
///
/// Stored inline: `1 <= D <= MAX_RESOURCE_DIMS` components in a fixed
/// array (unused trailing components stay `0.0`), so the value is `Copy`
/// and 32 bytes. It serializes as the JSON array of its `D` components,
/// exactly like the `Vec<f64>` it replaces.
#[derive(Clone, Copy)]
pub struct ResourceVec {
    values: [f64; MAX_RESOURCE_DIMS],
    dims: usize,
}

/// Checks a component count against `1..=MAX_RESOURCE_DIMS`.
fn check_dim_count(dims: usize) -> Result<(), String> {
    if dims == 0 {
        Err("resource vector needs at least one dimension".into())
    } else if dims > MAX_RESOURCE_DIMS {
        Err(format!(
            "resource vector has {dims} components, but at most \
             MAX_RESOURCE_DIMS = {MAX_RESOURCE_DIMS} are supported"
        ))
    } else {
        Ok(())
    }
}

impl ResourceVec {
    /// A vector of `dims` components all equal to `value`.
    fn filled(dims: usize, value: f64) -> Self {
        if let Err(e) = check_dim_count(dims) {
            panic!("{e}");
        }
        let mut values = [0.0; MAX_RESOURCE_DIMS];
        values[..dims].fill(value);
        ResourceVec { values, dims }
    }

    /// A zero vector with `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `dims > MAX_RESOURCE_DIMS`.
    pub fn zeros(dims: usize) -> Self {
        Self::filled(dims, 0.0)
    }

    /// A vector of ones (one full server) with `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims == 0` or `dims > MAX_RESOURCE_DIMS`.
    pub fn ones(dims: usize) -> Self {
        Self::filled(dims, 1.0)
    }

    /// Builds from components.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, has more than [`MAX_RESOURCE_DIMS`]
    /// components, or any component is negative or non-finite.
    pub fn new(values: &[f64]) -> Self {
        if let Err(e) = check_dim_count(values.len()) {
            panic!("{e}");
        }
        for (i, &v) in values.iter().enumerate() {
            assert!(
                v.is_finite() && v >= 0.0,
                "resource component {i} must be finite and non-negative, got {v}"
            );
        }
        let mut out = [0.0; MAX_RESOURCE_DIMS];
        out[..values.len()].copy_from_slice(values);
        ResourceVec {
            values: out,
            dims: values.len(),
        }
    }

    /// CPU/memory/disk convenience constructor.
    pub fn cpu_mem_disk(cpu: f64, mem: f64, disk: f64) -> Self {
        Self::new(&[cpu, mem, disk])
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Component `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dims()`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.as_slice()[i]
    }

    /// The CPU component (dimension 0).
    #[inline]
    pub fn cpu(&self) -> f64 {
        self.values[0]
    }

    /// All components as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.values[..self.dims]
    }

    /// `self + other`, component-wise.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add(&self, other: &ResourceVec) -> ResourceVec {
        let mut sum = *self;
        sum.add_assign(other);
        sum
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_assign(&mut self, other: &ResourceVec) {
        self.check_dims(other);
        let dims = self.dims;
        for (a, b) in self.values[..dims].iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// In-place `self -= other`, clamping tiny negative residue (floating
    /// point) to zero.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch, or (debug) if a component would become
    /// significantly negative.
    pub fn sub_assign(&mut self, other: &ResourceVec) {
        self.check_dims(other);
        let dims = self.dims;
        for (a, b) in self.values[..dims].iter_mut().zip(other.as_slice()) {
            debug_assert!(
                *a >= *b - 1e-9,
                "resource release would go negative: {a} - {b}"
            );
            *a = (*a - b).max(0.0);
        }
    }

    /// `factor` times every component (a degraded server's capacity).
    ///
    /// # Panics
    ///
    /// Panics if a scaled component is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> ResourceVec {
        let mut out = *self;
        for (i, v) in out.values[..self.dims].iter_mut().enumerate() {
            *v *= factor;
            assert!(
                v.is_finite() && *v >= 0.0,
                "resource component {i} must be finite and non-negative, got {v}"
            );
        }
        out
    }

    /// Whether `self + extra` fits within `capacity` in every dimension
    /// (with a tiny epsilon for floating-point accumulation).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fits_with(&self, extra: &ResourceVec, capacity: &ResourceVec) -> bool {
        self.check_dims(extra);
        self.check_dims(capacity);
        self.as_slice()
            .iter()
            .zip(extra.as_slice())
            .zip(capacity.as_slice())
            .all(|((u, e), c)| u + e <= c + 1e-9)
    }

    /// Component-wise utilization `self / capacity`, clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or zero capacity component.
    pub fn utilization(&self, capacity: &ResourceVec) -> ResourceVec {
        self.check_dims(capacity);
        let mut out = *self;
        for (u, c) in out.values[..self.dims].iter_mut().zip(capacity.as_slice()) {
            assert!(*c > 0.0, "capacity component must be positive");
            *u = (*u / c).clamp(0.0, 1.0);
        }
        out
    }

    /// Largest component.
    pub fn max_component(&self) -> f64 {
        self.as_slice().iter().cloned().fold(0.0, f64::max)
    }

    /// Sum of components.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    fn check_dims(&self, other: &ResourceVec) {
        assert_eq!(
            self.dims(),
            other.dims(),
            "resource dimension mismatch: {} vs {}",
            self.dims(),
            other.dims()
        );
    }
}

impl PartialEq for ResourceVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ResourceVec")
            .field(&self.as_slice())
            .finish()
    }
}

impl Serialize for ResourceVec {
    fn to_value(&self) -> Value {
        Value::Seq(self.as_slice().iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for ResourceVec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_seq()
            .ok_or_else(|| Error::expected("array", "ResourceVec"))?;
        check_dim_count(items.len()).map_err(Error::new)?;
        let mut values = [0.0; MAX_RESOURCE_DIMS];
        for (slot, item) in values.iter_mut().zip(items) {
            *slot = f64::from_value(item)?;
        }
        Ok(ResourceVec {
            values,
            dims: items.len(),
        })
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_kinds_index_in_order() {
        for (i, k) in ResourceKind::STANDARD.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn add_and_sub_round_trip() {
        let mut u = ResourceVec::zeros(3);
        let d = ResourceVec::cpu_mem_disk(0.5, 0.25, 0.1);
        u.add_assign(&d);
        assert_eq!(u, d);
        u.sub_assign(&d);
        assert_eq!(u, ResourceVec::zeros(3));
    }

    #[test]
    fn fits_with_respects_capacity() {
        let used = ResourceVec::cpu_mem_disk(0.6, 0.2, 0.0);
        let cap = ResourceVec::ones(3);
        assert!(used.fits_with(&ResourceVec::cpu_mem_disk(0.4, 0.5, 0.9), &cap));
        assert!(!used.fits_with(&ResourceVec::cpu_mem_disk(0.41, 0.0, 0.0), &cap));
    }

    #[test]
    fn utilization_is_clamped() {
        let used = ResourceVec::cpu_mem_disk(1.5, 0.5, 0.0);
        let cap = ResourceVec::ones(3);
        let u = used.utilization(&cap);
        assert_eq!(u.as_slice(), &[1.0, 0.5, 0.0]);
    }

    #[test]
    fn max_component_and_sum() {
        let v = ResourceVec::cpu_mem_disk(0.1, 0.7, 0.3);
        assert_eq!(v.max_component(), 0.7);
        assert!((v.sum() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn sub_assign_clamps_float_residue() {
        let mut u = ResourceVec::new(&[0.30000000000000004]);
        u.sub_assign(&ResourceVec::new(&[0.3000000000000001]));
        assert_eq!(u.get(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = ResourceVec::zeros(2);
        let b = ResourceVec::zeros(3);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_component_rejected() {
        let _ = ResourceVec::new(&[-0.1]);
    }

    #[test]
    fn json_wire_format_is_the_component_array() {
        // The inline representation keeps the JSON of the `Vec<f64>` it
        // replaced, so every committed artifact and config parses as before.
        let v = ResourceVec::cpu_mem_disk(0.25, 0.1, 0.05);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, "[0.25,0.1,0.05]");
        let back: ResourceVec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.dims(), 3);
        let one: ResourceVec = serde_json::from_str("[0.5]").unwrap();
        assert_eq!(one, ResourceVec::new(&[0.5]));
        assert_eq!(serde_json::to_string(&one).unwrap(), "[0.5]");
    }

    #[test]
    fn four_component_array_fails_to_deserialize_by_name() {
        let err = serde_json::from_str::<ResourceVec>("[0.1,0.2,0.3,0.4]").unwrap_err();
        assert!(
            err.to_string().contains("4 components")
                && err.to_string().contains("MAX_RESOURCE_DIMS"),
            "unnamed error: {err}"
        );
        assert!(serde_json::from_str::<ResourceVec>("[]").is_err());
    }

    #[test]
    #[should_panic(expected = "at most MAX_RESOURCE_DIMS = 3")]
    fn new_rejects_a_fourth_component_by_name() {
        let _ = ResourceVec::new(&[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn equality_and_debug_see_only_the_live_components() {
        let a = ResourceVec::new(&[0.5, 0.0]);
        let b = ResourceVec::new(&[0.5]);
        assert_ne!(a, b, "different dimensionality");
        assert_eq!(a, ResourceVec::new(&[0.5, 0.0]));
        assert_eq!(format!("{a:?}"), "ResourceVec([0.5, 0.0])");
        assert_eq!(a.scaled(2.0), ResourceVec::new(&[1.0, 0.0]));
    }
}
