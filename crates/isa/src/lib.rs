//! **lowbit-isa** — one safe runtime dispatch onto the host's widest
//! vector ISA.
//!
//! The paper picks, per bit width, the narrowest exact lane and the widest
//! vector the ISA offers. The host kernels keep the exact NEON lane
//! semantics in portable Rust, so their speed on the host depends on which
//! vector instructions LLVM may use when it compiles them. A build flag
//! (`-C target-cpu=…`) would decide that for the whole binary and make it
//! crash on older CPUs. This crate decides it at run time instead, per
//! call:
//!
//! * [`Isa::host`] is the widest level this CPU supports: `x86-64-v4` (the
//!   AVX-512 set) when `is_x86_feature_detected!` confirms **every** feature
//!   in [`Isa::features`], otherwise the baseline the crate was built for;
//! * [`Isa::run`] runs a closure inside a trampoline compiled with that
//!   level's target features. The closure (and every kernel it calls) must
//!   be `#[inline(always)]`, so its body is compiled — and vectorized —
//!   inside the trampoline. The source is the same for every level; only
//!   the code LLVM emits for it differs.
//!
//! ```
//! use lowbit_isa::Isa;
//!
//! let xs = [3i16, -4, 5, 7];
//! let dot = |isa: Isa| isa.run(#[inline(always)] || xs.iter().map(|&x| x * x).sum::<i16>());
//! // Every level computes the same bits; only the instructions differ.
//! for isa in Isa::supported() {
//!     assert_eq!(dot(isa), dot(Isa::BASELINE));
//! }
//! assert_eq!(dot(Isa::host()), 99);
//! ```
//!
//! # Safety argument
//!
//! Calling a function compiled with target features the CPU lacks is
//! undefined behaviour, so the one `unsafe` call is guarded by a type
//! invariant: an [`Isa`] value *is* the proof of detection. Its field is
//! private, and the only constructors are [`Isa::BASELINE`] (needs nothing
//! beyond the build target) and [`Isa::supported`]/[`Isa::host`], which
//! yield a wider level only after runtime detection confirmed every one of
//! its features. The detected list and the enabled list are expanded from a
//! single macro invocation, so they cannot drift apart. On other
//! architectures only the baseline level exists and [`Isa::run`] is a
//! plain call.

#![deny(unsafe_code)]

use std::fmt;
use std::sync::OnceLock;

/// A vector ISA level that this CPU has been checked to support.
///
/// Values can only be obtained through [`Isa::BASELINE`],
/// [`Isa::supported`] and [`Isa::host`], so holding one proves its target
/// features are present.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Isa(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Level {
    /// The build target's own features (SSE2 on x86-64).
    Baseline,
    /// The x86-64-v4 microarchitecture level: AVX2 plus AVX-512
    /// F/BW/CD/DQ/VL.
    #[cfg(target_arch = "x86_64")]
    X86V4,
}

impl Isa {
    /// The build target's baseline: supported everywhere this binary runs.
    pub const BASELINE: Isa = Isa(Level::Baseline);

    /// Every level this CPU supports, baseline first, widest last.
    pub fn supported() -> Vec<Isa> {
        #[cfg(target_arch = "x86_64")]
        if x86::detect().iter().all(|&(_, found)| found) {
            return vec![Isa::BASELINE, Isa(Level::X86V4)];
        }
        vec![Isa::BASELINE]
    }

    /// The widest level this CPU supports, detected once per process.
    pub fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| Isa::supported().pop().unwrap_or(Isa::BASELINE))
    }

    /// Short name of the level: `x86-64-v4`, or the baseline build target
    /// (`x86-64`, or the architecture name elsewhere).
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Baseline if cfg!(target_arch = "x86_64") => "x86-64",
            Level::Baseline => std::env::consts::ARCH,
            #[cfg(target_arch = "x86_64")]
            Level::X86V4 => "x86-64-v4",
        }
    }

    /// Target features this level enables on top of the build target
    /// (empty for the baseline).
    pub fn features(self) -> &'static [&'static str] {
        match self.0 {
            Level::Baseline => &[],
            #[cfg(target_arch = "x86_64")]
            Level::X86V4 => x86::V4,
        }
    }

    /// Runs `f` compiled for this level.
    ///
    /// Mark the closure `#[inline(always)]`, and every kernel function it
    /// calls too: code that is not inlined into the trampoline is compiled
    /// for the baseline. Dispatch around one kernel call (one register
    /// block of micro-tiles), not around a driver's loops: the loops should
    /// stay out of line.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self.0 {
            Level::Baseline => f(),
            // SAFETY: an `Isa` holding `X86V4` is only constructed by
            // `Isa::supported` after `x86::detect` confirmed every feature
            // that `x86::run_v4` enables (one macro expands both lists).
            #[cfg(target_arch = "x86_64")]
            Level::X86V4 => unsafe { x86::run_v4(f) },
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    /// Expands one feature list into the list itself, its runtime
    /// detection and the trampoline that enables it.
    macro_rules! feature_level {
        ($($feature:tt),+ $(,)?) => {
            /// The features of the level, in declaration order.
            pub(crate) const V4: &[&str] = &[$($feature),+];

            /// Runtime detection of each feature in [`V4`], in order.
            pub(crate) fn detect() -> Vec<(&'static str, bool)> {
                vec![$(($feature, std::is_x86_feature_detected!($feature))),+]
            }

            /// Runs `f` with every feature in [`V4`] enabled.
            #[target_feature($(enable = $feature),+)]
            pub(crate) fn run_v4<R>(f: impl FnOnce() -> R) -> R {
                f()
            }
        };
    }

    // x86-64-v4 as the detection macro can name it: the v2 and v3 levels
    // and AVX-512 F/BW/CD/DQ/VL. LAHF/SAHF (also v2) has no detection name
    // and no kernel use, so it is left out.
    #[rustfmt::skip]
    feature_level!(
        "sse3", "ssse3", "sse4.1", "sse4.2", "popcnt", "cmpxchg16b", // v2
        "avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "lzcnt", "movbe", "xsave", // v3
        "avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl", // v4
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_always_supported_and_listed_first() {
        let levels = Isa::supported();
        assert_eq!(levels[0], Isa::BASELINE);
        assert!(Isa::BASELINE.features().is_empty());
        assert_eq!(Isa::host(), *levels.last().unwrap());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detected_and_enabled_features_come_from_one_list() {
        let v4 = Isa(Level::X86V4);
        let detected = x86::detect();
        // The detection walks exactly the list the trampoline enables.
        let names: Vec<&str> = detected.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, v4.features());
        for feature in ["avx2", "avx512f", "avx512bw", "avx512vl"] {
            assert!(
                v4.features().contains(&feature),
                "{feature} missing from the v4 set"
            );
        }
        // The wider level is offered exactly when every feature was found.
        let all_found = detected.iter().all(|&(_, found)| found);
        assert_eq!(Isa::supported().contains(&v4), all_found);
        assert_eq!(Isa::host() == v4, all_found);
    }

    #[test]
    fn every_level_runs_the_same_closure_to_the_same_bits() {
        // Wrapping i16 arithmetic, like the kernels' drain intervals.
        let a: Vec<i16> = (0..1000).map(|i| (i * 37 % 255 - 127) as i16).collect();
        let dot = |isa: Isa| {
            isa.run(
                #[inline(always)]
                || {
                    a.iter()
                        .zip(a.iter().rev())
                        .fold(0i16, |s, (&x, &y)| s.wrapping_add(x.wrapping_mul(y)))
                },
            )
        };
        let want = dot(Isa::BASELINE);
        for isa in Isa::supported() {
            assert_eq!(dot(isa), want, "{isa}");
        }
    }

    #[test]
    fn names_are_distinct() {
        let levels = Isa::supported();
        for (i, a) in levels.iter().enumerate() {
            for b in &levels[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(Isa::host().to_string(), Isa::host().name());
    }
}
