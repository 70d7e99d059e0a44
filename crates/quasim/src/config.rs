//! Shared parsing for the workspace's environment knobs.
//!
//! Every audited `env::var` entry point (`QUCAD_THREADS`,
//! `QUCAD_TRAJ_BATCH`) and the `qucad-serve` flags resolve their raw value
//! through these pure helpers, so all knobs share one contract: a *set*
//! variable must parse. Garbage, empty, whitespace-only, and out-of-range
//! values fail fast with one uniform message instead of being silently
//! ignored — a typo in a CI matrix or a deployment manifest must not
//! demote a knob to its default.
//!
//! The helpers take the raw string, not the variable name to read: they
//! stay side-effect-free so the panic contract is testable without racing
//! on process-global environment state, and so each call site keeps its
//! own audited env-read lint annotation.
//!
//! [`KernelMode`] lives here too: the one env-derived choice of which
//! compilation the lane kernels of all three engines run.

/// Parses a positive (non-zero) integer knob.
///
/// # Panics
///
/// Panics unless `raw` trims to a positive integer — `0`, garbage, empty,
/// and whitespace-only values all fail with the knob's name in the
/// message.
pub fn parse_positive(name: &str, raw: &str) -> usize {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| panic!("{name} must be a positive integer, got '{raw}'"))
}

/// Parses a TCP port knob. `0` is accepted: it asks the OS for an
/// ephemeral port (the serve CI leg binds that way).
///
/// # Panics
///
/// Panics unless `raw` trims to an integer in `0..=65535`.
pub fn parse_port(name: &str, raw: &str) -> u16 {
    raw.trim()
        .parse::<u16>()
        .unwrap_or_else(|_| panic!("{name} must be a port number (0-65535), got '{raw}'"))
}

/// Parses a `0`/`1` switch knob (`QUCAD_FORCE_SCALAR`): `1` is on, `0`
/// is off.
///
/// # Panics
///
/// Panics unless `raw` trims to `0` or `1` — `false`, `yes`, empty and
/// whitespace-only values fail with the knob's name in the message.
pub(crate) fn parse_switch(name: &str, raw: &str) -> bool {
    match raw.trim() {
        "0" => false,
        "1" => true,
        _ => panic!("{name} must be 0 or 1, got '{raw}'"),
    }
}

/// Which compilation of the lane kernels an engine runs: the density
/// runner ([`crate::fused`]), the state-vector panel
/// ([`crate::statevector::StatePanel`]) and the trajectory panel
/// ([`crate::trajectory::TrajectoryPanel`]) each write their kernels once
/// as plain `#[inline(always)]` Rust, and one dispatch compiles that walk
/// a second time with AVX2 enabled.
///
/// Both compilations compute the identical IEEE-754 result for every
/// element: the kernels contain no `mul_add` and no cross-lane or
/// cross-element reduction, and AVX2 does not enable FMA, so lane `j` of
/// a vectorised loop performs the very operations the plain loop performs
/// at index `j`. The scalar compilation is therefore the bit-identity
/// *oracle* (asserted by `panel_props`, `fuse_props` and the state-vector
/// lane tests under both modes), not a fallback with looser semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The plain compilation (the bit-identity oracle; always
    /// available).
    Scalar,
    /// The AVX2 compilation (x86_64 hosts with AVX2 only).
    Avx2,
}

impl KernelMode {
    /// Runtime-detected default: [`KernelMode::Avx2`] when the host CPU
    /// supports it, unless `QUCAD_FORCE_SCALAR=1` pins the scalar oracle
    /// (CI's scalar legs). Detected once per process.
    ///
    /// # Panics
    ///
    /// Panics if `QUCAD_FORCE_SCALAR` is set to anything but `0` or `1`.
    pub fn detect() -> KernelMode {
        static MODE: std::sync::OnceLock<KernelMode> = std::sync::OnceLock::new();
        *MODE.get_or_init(|| {
            // qucad-lint: allow(env-read) — audited entry point: kernel compilation
            let raw = std::env::var("QUCAD_FORCE_SCALAR").ok();
            Self::from_value(raw.as_deref(), Self::avx2_supported())
        })
    }

    /// Pure resolution core of [`KernelMode::detect`] (`value` is the raw
    /// `QUCAD_FORCE_SCALAR` when set).
    fn from_value(value: Option<&str>, avx2: bool) -> KernelMode {
        let forced = value.is_some_and(|v| parse_switch("QUCAD_FORCE_SCALAR", v));
        if avx2 && !forced {
            KernelMode::Avx2
        } else {
            KernelMode::Scalar
        }
    }

    /// Whether this host can run the AVX2 compilation. The result is what
    /// makes constructing [`KernelMode::Avx2`] sound: [`KernelMode::detect`]
    /// and every engine's `set_kernel_mode` test it first, so the dispatch
    /// may enter AVX2 code without re-testing.
    pub fn avx2_supported() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2") // qucad-lint: allow(target-feature)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// `self`, after checking the host can run it — the one check behind
    /// every engine's `set_kernel_mode`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is [`KernelMode::Avx2`] on a host without AVX2
    /// (constructing the variant without support would make
    /// [`KernelMode::run`]'s safety argument unsound).
    pub(crate) fn checked(self) -> Self {
        assert!(
            self == KernelMode::Scalar || Self::avx2_supported(),
            "AVX2 kernels requested on a host without AVX2"
        );
        self
    }

    /// Calls `f` under this compilation: inline for
    /// [`KernelMode::Scalar`], inside [`with_avx2`] for
    /// [`KernelMode::Avx2`]. Pass an `#[inline(always)]` closure whose
    /// callees are `#[inline(always)]` down to the arithmetic, so the
    /// whole walk is compiled into the AVX2 instance.
    #[inline(always)]
    pub(crate) fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self {
            KernelMode::Scalar => f(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed once `avx2_supported()`
            // returned true (`detect` / `checked`), so this CPU has the
            // avx2 target feature `with_avx2` is compiled for.
            KernelMode::Avx2 => unsafe { with_avx2(f) },
            #[cfg(not(target_arch = "x86_64"))]
            KernelMode::Avx2 => unreachable!("KernelMode::Avx2 cannot be constructed off x86_64"),
        }
    }
}

/// `f()` compiled with AVX2 enabled: the one `#[target_feature]` function
/// of the workspace. `f` and everything it forces inline take on the
/// feature, so the lane loops become 4-wide vector instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")] // qucad-lint: allow(target-feature)
fn with_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_accepts_zero_and_one() {
        assert!(!parse_switch("K", "0"));
        assert!(parse_switch("K", " 1 "));
    }

    #[test]
    #[should_panic(expected = "QUCAD_FORCE_SCALAR must be 0 or 1, got 'false'")]
    fn switch_rejects_words() {
        parse_switch("QUCAD_FORCE_SCALAR", "false");
    }

    #[test]
    #[should_panic(expected = "QUCAD_FORCE_SCALAR must be 0 or 1, got ''")]
    fn switch_rejects_empty() {
        parse_switch("QUCAD_FORCE_SCALAR", "");
    }

    #[test]
    fn kernel_mode_resolves_force_scalar() {
        assert_eq!(KernelMode::from_value(None, true), KernelMode::Avx2);
        assert_eq!(KernelMode::from_value(Some("0"), true), KernelMode::Avx2);
        assert_eq!(KernelMode::from_value(Some("1"), true), KernelMode::Scalar);
        assert_eq!(KernelMode::from_value(None, false), KernelMode::Scalar);
        assert_eq!(KernelMode::from_value(Some("0"), false), KernelMode::Scalar);
    }

    #[test]
    #[should_panic(expected = "QUCAD_FORCE_SCALAR must be 0 or 1, got 'true'")]
    fn kernel_mode_rejects_typos_without_avx2_too() {
        KernelMode::from_value(Some("true"), false);
    }

    #[test]
    fn positive_accepts_trimmed_integers() {
        assert_eq!(parse_positive("K", "3"), 3);
        assert_eq!(parse_positive("K", " 17 "), 17);
        assert_eq!(parse_positive("K", "1"), 1);
    }

    #[test]
    #[should_panic(expected = "QUCAD_THREADS must be a positive integer, got '0'")]
    fn positive_rejects_zero() {
        parse_positive("QUCAD_THREADS", "0");
    }

    #[test]
    #[should_panic(expected = "QUCAD_THREADS must be a positive integer, got 'four'")]
    fn positive_rejects_garbage() {
        parse_positive("QUCAD_THREADS", "four");
    }

    #[test]
    #[should_panic(expected = "QUCAD_THREADS must be a positive integer, got '  '")]
    fn positive_rejects_whitespace_only() {
        parse_positive("QUCAD_THREADS", "  ");
    }

    #[test]
    #[should_panic(expected = "must be a positive integer, got '-2'")]
    fn positive_rejects_negatives() {
        parse_positive("QUCAD_SERVE_MAX_BATCH", "-2");
    }

    #[test]
    fn port_accepts_full_range_and_zero() {
        assert_eq!(parse_port("QUCAD_SERVE_PORT", "0"), 0);
        assert_eq!(parse_port("QUCAD_SERVE_PORT", " 9107 "), 9107);
        assert_eq!(parse_port("QUCAD_SERVE_PORT", "65535"), 65535);
    }

    #[test]
    #[should_panic(expected = "QUCAD_SERVE_PORT must be a port number (0-65535), got '65536'")]
    fn port_rejects_out_of_range() {
        parse_port("QUCAD_SERVE_PORT", "65536");
    }

    #[test]
    #[should_panic(expected = "QUCAD_SERVE_PORT must be a port number (0-65535), got 'http'")]
    fn port_rejects_garbage() {
        parse_port("QUCAD_SERVE_PORT", "http");
    }
}
