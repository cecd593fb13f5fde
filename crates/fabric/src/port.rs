use rispp_model::AtomUniverse;

use crate::error::FabricError;

/// The prototype's processor clock in Hz: the base processor and the Atom
/// Containers run at 100 MHz, and all simulator timing is expressed in
/// cycles of this clock.
const CLOCK_HZ: u64 = 100_000_000;

/// Configuration of the single reconfiguration port (SelectMAP/ICAP).
///
/// The paper's prototype streams partial bitstreams at 66 MB/s nominal
/// bandwidth; the measured average reconfiguration time of one Atom is
/// 874.03 µs. Those two figures together with the average bitstream size
/// (60,488 bytes) imply an *effective* bandwidth slightly above nominal
/// (~69.2 MB/s); [`ReconfigPortConfig::prototype`] uses the effective value
/// so that the measured per-Atom latency is reproduced exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigPortConfig {
    /// Sustained bitstream bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl ReconfigPortConfig {
    /// The prototype's port: effective 69.2 MB/s so that the paper's average
    /// bitstream (60,488 B) loads in the paper's average 874 µs.
    #[must_use]
    pub fn prototype() -> Self {
        ReconfigPortConfig::with_bandwidth(69_206_000)
    }

    /// A port with the given nominal bandwidth on the prototype clock.
    #[must_use]
    pub fn with_bandwidth(bandwidth_bytes_per_sec: u64) -> Self {
        ReconfigPortConfig {
            bandwidth_bytes_per_sec,
        }
    }

    /// Checks that the configuration can actually transfer bitstreams.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ZeroBandwidth`] if the bandwidth is zero.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.bandwidth_bytes_per_sec == 0 {
            return Err(FabricError::ZeroBandwidth);
        }
        Ok(())
    }

    /// Cycles needed to load a partial bitstream of `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ZeroBandwidth`] if the configured bandwidth is
    /// zero (a transfer would never finish). Construction-time callers are
    /// expected to reject such configs up front via
    /// [`ReconfigPortConfig::validate`].
    pub fn load_cycles(&self, bytes: u32) -> Result<u64, FabricError> {
        self.validate()?;
        #[allow(clippy::cast_precision_loss)]
        let seconds = f64::from(bytes) / self.bandwidth_bytes_per_sec as f64;
        let us = seconds * 1e6;
        // Rounded up to whole cycles of the 100 MHz clock.
        Ok((us * CLOCK_HZ as f64 / 1e6).ceil() as u64)
    }

    /// [`load_cycles`](Self::load_cycles) of one atom of each type of
    /// `universe`, indexed by type. A fabric and the Molen baseline take
    /// them once at construction: neither the port nor the universe
    /// changes after that.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::ZeroBandwidth`] if the configured bandwidth
    /// is zero.
    pub fn cycles_per_type(&self, universe: &AtomUniverse) -> Result<Vec<u64>, FabricError> {
        self.validate()?;
        universe
            .iter()
            .map(|(_, info)| self.load_cycles(info.bitstream_bytes))
            .collect()
    }
}

impl Default for ReconfigPortConfig {
    fn default() -> Self {
        ReconfigPortConfig::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_reproduces_874us_per_average_atom() {
        let port = ReconfigPortConfig::prototype();
        let cycles = port.load_cycles(60_488).unwrap();
        // 100 cycles per µs at the prototype's 100 MHz.
        let us = cycles as f64 / 100.0;
        assert!(
            (us - 874.03).abs() < 1.0,
            "average atom should load in ~874 µs, got {us:.2}"
        );
    }

    #[test]
    fn load_time_scales_with_size() {
        let port = ReconfigPortConfig::prototype();
        assert!(port.load_cycles(120_000).unwrap() > 2 * port.load_cycles(59_000).unwrap());
        assert_eq!(port.load_cycles(0).unwrap(), 0);
    }

    #[test]
    fn zero_bandwidth_is_an_error_not_a_panic() {
        let port = ReconfigPortConfig::with_bandwidth(0);
        assert_eq!(port.validate(), Err(FabricError::ZeroBandwidth));
        assert_eq!(port.load_cycles(60_488), Err(FabricError::ZeroBandwidth));
        assert!(ReconfigPortConfig::prototype().validate().is_ok());
    }
}
