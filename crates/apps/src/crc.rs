//! CRC-32 (IEEE 802.3) — the integrity-check kernel of the crypto
//! gateway.

/// Computes the table for the reflected IEEE polynomial `0xEDB88320`.
fn table() -> [u32; 256] {
    let mut t = [0u32; 256];
    for (i, entry) in t.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
        *entry = crc;
    }
    t
}

/// CRC-32 of `data` (IEEE 802.3: init `0xFFFF_FFFF`, final XOR).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ t[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The canonical CRC-32 check: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        data[17] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }
}
