//! "Bump-in-the-wire" (BITW) encryption retrofit — the alternative defense
//! the paper considers and rejects.
//!
//! §III.D: "encryption mechanisms (e.g., 'bump-in-the-wire' (BITW)
//! solutions) … may introduce significant overhead in the system operation
//! and still not eliminate the possibility of TOCTOU exploits." This module
//! makes that argument executable, in two placements:
//!
//! * [`BitwPlacement::Wire`] — the literal BITW retrofit (e.g. an SEL-3021
//!   serial encrypting transceiver, the paper's ref. \[31\]): the encryptor
//!   sits on the cable, *downstream* of the host. The `LD_PRELOAD` malware
//!   runs inside the host and sees plaintext before the encryptor —
//!   eavesdropping and injection both still work. Encryption at this
//!   placement buys nothing against the paper's threat model.
//! * [`BitwPlacement::Host`] — the counterfactual in-process variant
//!   (encrypt before the `write` call): the malware now sees only
//!   ciphertext, so the Byte-0 reconnaissance fails and blind injection
//!   garbles packets that the authenticated decryptor rejects — degrading
//!   the targeted attack to a denial of service (watchdog starvation →
//!   E-STOP), but still not preventing *that*.
//!
//! The cipher is a keystream XOR with a 32-bit per-packet nonce and a
//! 16-bit keyed authenticator — a simulation stand-in with the right
//! *structure* (confidentiality + integrity + per-packet freshness), not a
//! cryptographically reviewed construction.

use serde::{Deserialize, Serialize};

/// Where the encryptor sits relative to the compromised host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BitwPlacement {
    /// On the cable, downstream of the host (the classic BITW retrofit).
    /// Interceptors in the host see plaintext.
    Wire,
    /// Inside the application, upstream of `write`. Interceptors see
    /// ciphertext.
    Host,
}

/// Wire overhead added to every packet: 4-byte nonce + 2-byte tag.
pub const BITW_OVERHEAD: usize = 6;

/// A paired encryptor/decryptor sharing a session key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitwCodec {
    key: u64,
    nonce: u32,
    /// Packets rejected by the authenticator.
    rejects: u64,
}

impl BitwCodec {
    /// Creates a codec for a session key.
    pub fn new(key: u64) -> Self {
        BitwCodec { key, nonce: 0, rejects: 0 }
    }

    /// Encrypts and authenticates one packet:
    /// `[nonce u32 LE] [ciphertext] [tag u16 LE]`.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + BITW_OVERHEAD);
        self.seal_into(plaintext, &mut out);
        out
    }

    /// [`BitwCodec::seal`] into a caller-held buffer, which is cleared and
    /// resized to exactly `plaintext.len() + BITW_OVERHEAD` bytes.
    ///
    /// This is the per-cycle entry point: the rig keystream-seals every
    /// command and feedback packet, so it keeps one persistent buffer per
    /// direction and steady-state sealing never allocates (the buffer
    /// reaches packet size once and is reused thereafter).
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        let nonce = self.nonce;
        self.nonce = self.nonce.wrapping_add(1);
        out.clear();
        out.resize(plaintext.len() + BITW_OVERHEAD, 0);
        out[..4].copy_from_slice(&nonce.to_le_bytes());
        let mut stream = keystream(self.key, nonce);
        for (slot, &b) in out[4..].iter_mut().zip(plaintext) {
            *slot = b ^ stream.next_byte();
        }
        let tag = authenticate(self.key, nonce, plaintext);
        let end = plaintext.len() + BITW_OVERHEAD;
        out[end - 2..end].copy_from_slice(&tag.to_le_bytes());
    }

    /// Verifies and decrypts one packet. Returns `None` on any tampering
    /// (wrong length, failed authenticator).
    pub fn open(&mut self, sealed: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(sealed.len().saturating_sub(BITW_OVERHEAD));
        if self.open_into(sealed, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    /// [`BitwCodec::open`] into a caller-held buffer. Returns `true` and
    /// leaves the plaintext in `out` on success; returns `false` and leaves
    /// `out` empty on any tampering. Allocation-free once the buffer has
    /// reached packet size — the counterpart of [`BitwCodec::seal_into`]
    /// for the rig's receive paths.
    pub fn open_into(&mut self, sealed: &[u8], out: &mut Vec<u8>) -> bool {
        out.clear();
        if sealed.len() < BITW_OVERHEAD {
            self.rejects += 1;
            return false;
        }
        let nonce = u32::from_le_bytes([sealed[0], sealed[1], sealed[2], sealed[3]]);
        let body = &sealed[4..sealed.len() - 2];
        let tag_wire = u16::from_le_bytes([sealed[sealed.len() - 2], sealed[sealed.len() - 1]]);
        let mut stream = keystream(self.key, nonce);
        out.resize(body.len(), 0);
        for (slot, &b) in out.iter_mut().zip(body) {
            *slot = b ^ stream.next_byte();
        }
        if authenticate(self.key, nonce, out) != tag_wire {
            self.rejects += 1;
            out.clear();
            return false;
        }
        true
    }

    /// Packets rejected so far.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }
}

struct Keystream {
    state: u64,
}

impl Keystream {
    fn next_byte(&mut self) -> u8 {
        // SplitMix64 step; one byte per step is plenty for a simulation.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as u8
    }
}

fn keystream(key: u64, nonce: u32) -> Keystream {
    Keystream { state: key ^ (u64::from(nonce) << 17) ^ 0x51ab_c0de_0000_0001 }
}

fn authenticate(key: u64, nonce: u32, plaintext: &[u8]) -> u16 {
    let mut h = key ^ u64::from(nonce).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in plaintext {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h = h.rotate_left(7);
    }
    (h ^ (h >> 32) ^ (h >> 16)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let mut tx = BitwCodec::new(0xfeed_beef);
        let mut rx = BitwCodec::new(0xfeed_beef);
        for i in 0..50u8 {
            let msg = vec![i; 18];
            let sealed = tx.seal(&msg);
            assert_eq!(sealed.len(), msg.len() + BITW_OVERHEAD);
            assert_eq!(rx.open(&sealed).unwrap(), msg);
        }
        assert_eq!(rx.rejects(), 0);
    }

    #[test]
    fn ciphertext_hides_the_state_byte() {
        // The whole point: Byte 0's small alphabet must vanish on the wire.
        let mut tx = BitwCodec::new(7);
        let mut values = std::collections::BTreeSet::new();
        for i in 0..512u32 {
            let mut pkt = vec![0x1F; 18]; // constant Pedal-Down byte 0
            pkt[1] = (i % 251) as u8;
            let sealed = tx.seal(&pkt);
            values.insert(sealed[4]); // first ciphertext byte (post-nonce)
        }
        assert!(
            values.len() > 128,
            "state byte still visible: only {} ciphertext values",
            values.len()
        );
    }

    #[test]
    fn any_tampering_is_rejected() {
        let mut tx = BitwCodec::new(42);
        let mut rx = BitwCodec::new(42);
        let sealed = tx.seal(&[1, 2, 3, 4, 5, 6, 7, 8]);
        for offset in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[offset] ^= 0x40;
            assert!(rx.open(&bad).is_none(), "tampering at {offset} accepted");
        }
        // The untampered packet still opens.
        assert!(rx.open(&sealed).is_some());
    }

    #[test]
    fn wrong_key_rejected() {
        let mut tx = BitwCodec::new(1);
        let mut rx = BitwCodec::new(2);
        assert!(rx.open(&tx.seal(&[9; 18])).is_none());
        assert_eq!(rx.rejects(), 1);
    }

    #[test]
    fn short_garbage_rejected() {
        let mut rx = BitwCodec::new(3);
        assert!(rx.open(&[1, 2, 3]).is_none());
        assert!(rx.open(&[]).is_none());
    }

    #[test]
    fn seal_into_and_open_into_reuse_storage_and_match_owned_api() {
        let mut tx = BitwCodec::new(0xfeed_beef);
        let mut tx2 = BitwCodec::new(0xfeed_beef);
        let mut rx = BitwCodec::new(0xfeed_beef);
        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        let mut cap = 0;
        for i in 0..50u8 {
            let msg = vec![i; 18];
            tx.seal_into(&msg, &mut sealed);
            assert_eq!(sealed, tx2.seal(&msg), "seal_into must match seal");
            assert!(rx.open_into(&sealed, &mut opened));
            assert_eq!(opened, msg);
            if i == 0 {
                cap = sealed.capacity();
            } else {
                assert_eq!(sealed.capacity(), cap, "steady-state seal reallocated");
            }
        }
        // Tampering leaves the output empty and counts a reject.
        sealed[5] ^= 0x40;
        assert!(!rx.open_into(&sealed, &mut opened));
        assert!(opened.is_empty());
        assert_eq!(rx.rejects(), 1);
    }

    #[test]
    fn nonces_differ_per_packet() {
        // Identical plaintexts must not produce identical ciphertexts
        // (otherwise traffic analysis recovers the state byte patterns).
        let mut tx = BitwCodec::new(5);
        let a = tx.seal(&[0x1F; 18]);
        let b = tx.seal(&[0x1F; 18]);
        assert_ne!(a, b);
    }
}
