//! AES-128 (FIPS-197) block encryption — the kernel behind the crypto
//! gateway's Special Instructions.
//!
//! The per-round operations map onto the gateway's Atom types:
//! `SubBytes` (S-box lanes), `MixColumns` (GF(2⁸) column multipliers),
//! `AddRoundKey` (XOR lanes) and the key-schedule core.

/// The AES S-box.
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by `x` in GF(2⁸) with the AES polynomial.
#[must_use]
pub fn xtime(a: u8) -> u8 {
    let shifted = a << 1;
    if a & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// Expanded AES-128 key schedule: 11 round keys of 16 bytes.
#[must_use]
pub fn key_schedule(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for b in &mut temp {
                *b = SBOX[usize::from(*b)];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    core::array::from_fn(|round| {
        let mut rk = [0u8; 16];
        for c in 0..4 {
            rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * round + c]);
        }
        rk
    })
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[usize::from(*b)];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    // Column-major state: byte (row r, column c) at index 4c + r.
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        let base = col[0];
        state[4 * c] ^= t ^ xtime(col[0] ^ col[1]);
        state[4 * c + 1] ^= t ^ xtime(col[1] ^ col[2]);
        state[4 * c + 2] ^= t ^ xtime(col[2] ^ col[3]);
        state[4 * c + 3] ^= t ^ xtime(col[3] ^ base);
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

/// Encrypts one 16-byte block with the expanded key schedule.
#[must_use]
pub fn encrypt_block(block: &[u8; 16], round_keys: &[[u8; 16]; 11]) -> [u8; 16] {
    let mut state = *block;
    add_round_key(&mut state, &round_keys[0]);
    for rk in &round_keys[1..10] {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, rk);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &round_keys[10]);
    state
}

/// Encrypts a payload in CTR mode (big-endian 32-bit counter in the last
/// nonce word), returning the ciphertext.
#[must_use]
pub fn encrypt_ctr(payload: &[u8], key: &[u8; 16], nonce: &[u8; 12]) -> Vec<u8> {
    let round_keys = key_schedule(key);
    let mut out = Vec::with_capacity(payload.len());
    for (i, chunk) in payload.chunks(16).enumerate() {
        let mut counter_block = [0u8; 16];
        counter_block[..12].copy_from_slice(nonce);
        counter_block[12..].copy_from_slice(&(i as u32 + 1).to_be_bytes());
        let keystream = encrypt_block(&counter_block, &round_keys);
        for (j, &p) in chunk.iter().enumerate() {
            out.push(p ^ keystream[j]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B: key 2b7e..., plaintext 3243f6a8...
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let want = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let rk = key_schedule(&key);
        assert_eq!(encrypt_block(&plain, &rk), want);
    }

    #[test]
    fn fips197_key_expansion_first_and_last_words() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = key_schedule(&key);
        assert_eq!(rk[0][..4], key[..4]);
        // w[43] = b6 63 0c a6 (FIPS-197 Appendix A.1).
        assert_eq!(rk[10][12..], [0xb6, 0x63, 0x0c, 0xa6]);
    }

    #[test]
    fn ctr_mode_roundtrips() {
        let key = [7u8; 16];
        let nonce = [3u8; 12];
        let payload: Vec<u8> = (0..100).map(|i| (i * 31 % 251) as u8).collect();
        let cipher = encrypt_ctr(&payload, &key, &nonce);
        assert_ne!(cipher, payload);
        let plain = encrypt_ctr(&cipher, &key, &nonce);
        assert_eq!(plain, payload);
    }

    #[test]
    fn ctr_keystream_differs_per_block() {
        let key = [1u8; 16];
        let nonce = [0u8; 12];
        let zeros = vec![0u8; 32];
        let ks = encrypt_ctr(&zeros, &key, &nonce);
        assert_ne!(ks[..16], ks[16..32]);
    }

    #[test]
    fn xtime_matches_definition() {
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
        assert_eq!(xtime(0x80), 0x1b);
    }
}
