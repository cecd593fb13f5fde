//! The AES packet-encryption gateway application.
//!
//! The gateway's processing migrates between three hot spots, mirroring
//! the paper's Figure 1 for a different domain:
//!
//! 1. **Handshake** — key schedules for new sessions (`KeyExpand`-heavy),
//! 2. **Bulk** — CTR encryption of payload blocks (`AesRound`-heavy),
//! 3. **Integrity** — CRC-32 scanning of frames (`Crc32`-heavy).
//!
//! All payloads are really encrypted ([`crate::aes`]) and checksummed
//! ([`crate::crc`]); SI execution counts come from that processing, so the
//! trace's profile depends on the synthetic traffic mix (session churn,
//! packet sizes) exactly as the H.264 workload depends on video content.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rispp_model::{AtomTypeInfo, AtomUniverse, Molecule, SiId, SiLibrary, SiLibraryBuilder};
use rispp_monitor::HotSpotId;
use rispp_sim::{Burst, Invocation, Trace};

use crate::aes::{encrypt_ctr, key_schedule};
use crate::crc::crc32;

/// The gateway's Special Instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum CryptoSi {
    /// One AES round over a 16-byte state.
    AesRound = 0,
    /// One key-schedule word-expansion step.
    KeyExpand = 1,
    /// CRC-32 over a 16-byte group.
    Crc32 = 2,
    /// Header parsing / field extraction of one packet.
    ParseHeader = 3,
}

impl CryptoSi {
    /// All SIs in library order.
    pub const ALL: [CryptoSi; 4] = [
        CryptoSi::AesRound,
        CryptoSi::KeyExpand,
        CryptoSi::Crc32,
        CryptoSi::ParseHeader,
    ];

    /// The SI id in [`crypto_si_library`].
    #[must_use]
    pub fn id(self) -> SiId {
        SiId(self as u16)
    }
}

/// The gateway's hot spots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum CryptoHotSpot {
    /// Session establishment (key schedules).
    Handshake = 0,
    /// Payload encryption.
    Bulk = 1,
    /// Frame integrity scanning.
    Integrity = 2,
}

impl CryptoHotSpot {
    /// The engine-level id.
    #[must_use]
    pub fn id(self) -> HotSpotId {
        HotSpotId(self as u16)
    }
}

/// Builds the gateway SI library: 4 SIs over 6 Atom types
/// (`SubBytes`, `MixColumns`, `XorKey`, `SboxMul`, `CrcUnit`, `FieldExtract`).
///
/// # Panics
///
/// Never panics for the built-in tables.
#[must_use]
pub fn crypto_si_library() -> SiLibrary {
    let universe = AtomUniverse::from_types([
        AtomTypeInfo::new("SubBytes")
            .with_bitstream_bytes(62_000)
            .with_slices(430),
        AtomTypeInfo::new("MixColumns")
            .with_bitstream_bytes(70_000)
            .with_slices(520),
        AtomTypeInfo::new("XorKey")
            .with_bitstream_bytes(44_000)
            .with_slices(250),
        AtomTypeInfo::new("SboxMul")
            .with_bitstream_bytes(58_000)
            .with_slices(400),
        AtomTypeInfo::new("CrcUnit")
            .with_bitstream_bytes(52_000)
            .with_slices(330),
        AtomTypeInfo::new("FieldExtract")
            .with_bitstream_bytes(40_000)
            .with_slices(220),
    ])
    .expect("unique names");
    let mut b = SiLibraryBuilder::new(universe);
    let v = |entries: &[(usize, u16)]| {
        let mut counts = [0u16; 6];
        for &(i, c) in entries {
            counts[i] = c;
        }
        Molecule::from_counts(counts)
    };
    {
        let mut si = b.special_instruction("AES_ROUND", 1_400).expect("unique");
        si.molecule(v(&[(0, 1), (1, 1), (2, 1)]), 420)
            .expect("valid")
            .molecule(v(&[(0, 2), (1, 1), (2, 1)]), 260)
            .expect("valid")
            .molecule(v(&[(0, 2), (1, 2), (2, 1)]), 150)
            .expect("valid")
            .molecule(v(&[(0, 4), (1, 2), (2, 2)]), 80)
            .expect("valid")
            .molecule(v(&[(0, 4), (1, 4), (2, 2)]), 30)
            .expect("valid");
    }
    {
        let mut si = b.special_instruction("KEY_EXPAND", 900).expect("unique");
        si.molecule(v(&[(3, 1), (2, 1)]), 300)
            .expect("valid")
            .molecule(v(&[(3, 2), (2, 1)]), 160)
            .expect("valid")
            .molecule(v(&[(3, 4), (2, 2)]), 60)
            .expect("valid");
    }
    {
        let mut si = b.special_instruction("CRC32", 700).expect("unique");
        si.molecule(v(&[(4, 1)]), 240)
            .expect("valid")
            .molecule(v(&[(4, 2)]), 120)
            .expect("valid")
            .molecule(v(&[(4, 4)]), 45)
            .expect("valid");
    }
    {
        let mut si = b.special_instruction("PARSE_HEADER", 350).expect("unique");
        si.molecule(v(&[(5, 1)]), 120)
            .expect("valid")
            .molecule(v(&[(5, 2)]), 55)
            .expect("valid");
    }
    b.build().expect("valid library")
}

/// Traffic-mix parameters of the gateway workload.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Processing epochs (one Handshake→Bulk→Integrity cycle each).
    pub epochs: u32,
    /// Packets per epoch.
    pub packets_per_epoch: u32,
    /// New sessions (fresh key schedules) per epoch.
    pub sessions_per_epoch: u32,
    /// Random seed for payload sizes and contents.
    pub seed: u64,
}

impl GatewayConfig {
    /// A medium-sized deterministic workload.
    #[must_use]
    pub fn default_mix() -> Self {
        GatewayConfig {
            epochs: 40,
            packets_per_epoch: 300,
            sessions_per_epoch: 8,
            seed: 0xC0FFEE,
        }
    }

    /// A tiny configuration for tests: the gateway's unit tests and the
    /// tier-1 `the_concept_generalises_beyond_video` replay it.
    #[must_use]
    pub fn tiny() -> Self {
        GatewayConfig {
            epochs: 3,
            packets_per_epoch: 20,
            sessions_per_epoch: 2,
            seed: 7,
        }
    }
}

/// Generates the gateway trace by actually encrypting and checksumming
/// the synthetic traffic. Returns the trace and the total ciphertext
/// checksum (so the computation cannot be optimised away and runs can be
/// compared for determinism).
#[must_use]
pub fn generate_gateway_workload(config: &GatewayConfig) -> (Trace, u32) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut trace = Trace::default();
    let mut checksum = 0u32;
    let key = [0x2bu8; 16];
    let nonce = [0x01u8; 12];
    // Design-time hints per hot spot.
    let hs_hints = |hs: CryptoHotSpot, cfg: &GatewayConfig| -> Vec<(SiId, u64)> {
        match hs {
            CryptoHotSpot::Handshake => vec![
                (
                    CryptoSi::KeyExpand.id(),
                    u64::from(cfg.sessions_per_epoch) * 40,
                ),
                (
                    CryptoSi::ParseHeader.id(),
                    u64::from(cfg.sessions_per_epoch),
                ),
            ],
            CryptoHotSpot::Bulk => vec![
                (
                    CryptoSi::AesRound.id(),
                    u64::from(cfg.packets_per_epoch) * 300,
                ),
                (CryptoSi::ParseHeader.id(), u64::from(cfg.packets_per_epoch)),
            ],
            CryptoHotSpot::Integrity => vec![
                (CryptoSi::Crc32.id(), u64::from(cfg.packets_per_epoch) * 40),
                (CryptoSi::ParseHeader.id(), u64::from(cfg.packets_per_epoch)),
            ],
        }
    };

    for epoch in 0..config.epochs {
        // Burstiness: packet sizes drift across epochs (jumbo phase in the
        // middle third), shifting the AES/CRC balance at run time.
        let jumbo = epoch >= config.epochs / 3 && epoch < 2 * config.epochs / 3;
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for _ in 0..config.packets_per_epoch {
            let size = if jumbo {
                rng.gen_range(1_024..4_096usize)
            } else {
                rng.gen_range(64..512usize)
            };
            payloads.push((0..size).map(|_| rng.gen()).collect());
        }

        // Handshake: real key schedules.
        let mut handshake_bursts = Vec::new();
        for _ in 0..config.sessions_per_epoch {
            let rk = key_schedule(&key);
            checksum ^= crc32(&rk[10]);
            // 40 word-expansion steps per AES-128 schedule.
            handshake_bursts.push(Burst {
                si: CryptoSi::KeyExpand.id(),
                count: 40,
                overhead: 8,
            });
            handshake_bursts.push(Burst {
                si: CryptoSi::ParseHeader.id(),
                count: 1,
                overhead: 8,
            });
        }
        trace.push(Invocation {
            hot_spot: CryptoHotSpot::Handshake.id(),
            prologue_cycles: 20_000,
            bursts: handshake_bursts,
            hints: hs_hints(CryptoHotSpot::Handshake, config),
        });

        // Bulk: real CTR encryption; one AES_ROUND SI per round per block.
        let mut bulk_bursts = Vec::new();
        for payload in &payloads {
            let cipher = encrypt_ctr(payload, &key, &nonce);
            checksum ^= crc32(&cipher);
            let blocks = payload.len().div_ceil(16) as u32;
            bulk_bursts.push(Burst {
                si: CryptoSi::ParseHeader.id(),
                count: 1,
                overhead: 10,
            });
            bulk_bursts.push(Burst {
                si: CryptoSi::AesRound.id(),
                count: blocks * 10,
                overhead: 6,
            });
        }
        trace.push(Invocation {
            hot_spot: CryptoHotSpot::Bulk.id(),
            prologue_cycles: 30_000,
            bursts: bulk_bursts,
            hints: hs_hints(CryptoHotSpot::Bulk, config),
        });

        // Integrity: real CRC over the ciphertexts, 16-byte groups.
        let mut integrity_bursts = Vec::new();
        for payload in &payloads {
            let groups = payload.len().div_ceil(16) as u32;
            integrity_bursts.push(Burst {
                si: CryptoSi::Crc32.id(),
                count: groups,
                overhead: 6,
            });
        }
        trace.push(Invocation {
            hot_spot: CryptoHotSpot::Integrity.id(),
            prologue_cycles: 15_000,
            bursts: integrity_bursts,
            hints: hs_hints(CryptoHotSpot::Integrity, config),
        });
    }
    (trace, checksum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rispp_core::SchedulerKind;
    use rispp_sim::{simulate, SimConfig};

    #[test]
    fn library_shape() {
        let lib = crypto_si_library();
        assert_eq!(lib.len(), 4);
        assert_eq!(lib.arity(), 6);
        assert_eq!(lib.by_name("AES_ROUND").unwrap().molecule_count(), 5);
    }

    #[test]
    fn workload_is_deterministic() {
        let (a, ca) = generate_gateway_workload(&GatewayConfig::tiny());
        let (b, cb) = generate_gateway_workload(&GatewayConfig::tiny());
        assert_eq!(ca, cb);
        assert_eq!(a.total_si_executions(), b.total_si_executions());
        assert_eq!(a.len(), 9); // 3 epochs × 3 hot spots
    }

    #[test]
    fn rispp_accelerates_the_gateway() {
        let lib = crypto_si_library();
        let (trace, _) = generate_gateway_workload(&GatewayConfig::tiny());
        let sw = simulate(&lib, &trace, &SimConfig::software_only());
        let hef = simulate(&lib, &trace, &SimConfig::rispp(8, SchedulerKind::Hef));
        assert!(
            hef.total_cycles * 2 < sw.total_cycles,
            "HEF {} vs software {}",
            hef.total_cycles,
            sw.total_cycles
        );
    }

    #[test]
    fn hef_not_slower_than_other_schedulers_on_gateway() {
        let lib = crypto_si_library();
        let (trace, _) = generate_gateway_workload(&GatewayConfig::tiny());
        let hef = simulate(&lib, &trace, &SimConfig::rispp(6, SchedulerKind::Hef)).total_cycles;
        for kind in SchedulerKind::ALL {
            let other = simulate(&lib, &trace, &SimConfig::rispp(6, kind)).total_cycles;
            assert!(
                hef as f64 <= other as f64 * 1.01,
                "{kind}: {hef} vs {other}"
            );
        }
    }

    #[test]
    fn trait_path_matches_enum_path_on_gateway() {
        use rispp_sim::{simulate_with, RunStats, SimObserver};
        let lib = crypto_si_library();
        let (trace, _) = generate_gateway_workload(&GatewayConfig::tiny());
        for config in [
            SimConfig::software_only(),
            SimConfig::molen(6),
            SimConfig::rispp(6, SchedulerKind::Hef),
        ] {
            let via_enum = simulate(&lib, &trace, &config);
            let mut system = config.build_system(&lib);
            let mut stats = RunStats::new(
                system.label(),
                lib.len(),
                config.bucket_cycles,
                config.detail,
            );
            {
                let mut observers: [&mut dyn SimObserver; 1] = [&mut stats];
                simulate_with(system.as_mut(), &trace, &mut observers);
            }
            assert_eq!(via_enum, stats);
        }
    }

    #[test]
    fn jumbo_phase_shifts_the_profile() {
        let (trace, _) = generate_gateway_workload(&GatewayConfig {
            epochs: 9,
            packets_per_epoch: 30,
            sessions_per_epoch: 2,
            seed: 11,
        });
        // Bulk invocations: epochs 0..3 small, 3..6 jumbo.
        let bulk: Vec<&rispp_sim::Invocation> = trace
            .invocations()
            .iter()
            .filter(|i| i.hot_spot == CryptoHotSpot::Bulk.id())
            .collect();
        let small = bulk[0].si_executions();
        let jumbo = bulk[4].si_executions();
        assert!(jumbo > small * 3, "jumbo {jumbo} vs small {small}");
    }
}
