//! Thread-mapping configuration for the execution engine.

use std::fmt;

/// How a schedule maps work onto OS threads.
///
/// Two orthogonal axes, multiplied when both are set:
///
/// * **inter-op** — how many independent DAG nodes within one wavefront
///   level run concurrently ([`crate::Schedule::run_into`]);
/// * **intra-op** — how many worker threads a single primitive may use
///   internally (GEMM row slabs, output-channel chunks, Winograd tiles).
///
/// [`Parallelism::serial`] — the default — pins both to 1 and is the
/// bit-exact reference: every parallel configuration is required (and
/// tested) to produce bit-identical outputs to it, because the engine
/// only ever partitions work between threads, never changes a kernel's
/// per-element accumulation order.
///
/// # Example
///
/// ```
/// use pbqp_dnn_runtime::Parallelism;
///
/// let par = Parallelism::serial().with_inter_op(4).with_intra_op(2);
/// assert_eq!((par.inter_op, par.intra_op), (4, 2));
/// assert_eq!(Parallelism::default(), Parallelism::serial());
/// assert!(Parallelism::available().inter_op >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Independent DAG nodes of one wavefront level executed
    /// concurrently (≥ 1).
    pub inter_op: usize,
    /// Worker threads inside one primitive (≥ 1).
    pub intra_op: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Single-threaded everywhere: the bit-exact reference configuration.
    pub fn serial() -> Parallelism {
        Parallelism { inter_op: 1, intra_op: 1 }
    }

    /// Inter-op parallelism across all available cores, serial inside
    /// each primitive — wavefront execution for branchy graphs.
    pub fn available() -> Parallelism {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Parallelism { inter_op: cores, intra_op: 1 }
    }

    /// Replaces the inter-op width (clamped to ≥ 1).
    pub fn with_inter_op(mut self, inter_op: usize) -> Parallelism {
        self.inter_op = inter_op.max(1);
        self
    }

    /// Replaces the intra-op width (clamped to ≥ 1).
    pub fn with_intra_op(mut self, intra_op: usize) -> Parallelism {
        self.intra_op = intra_op.max(1);
        self
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inter-op {} × intra-op {}", self.inter_op, self.intra_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_to_one() {
        let p = Parallelism::serial().with_inter_op(0).with_intra_op(0);
        assert_eq!(p, Parallelism::serial());
        assert_eq!(p.to_string(), "inter-op 1 × intra-op 1");
    }
}
