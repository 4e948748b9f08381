//! Property-based tests on the ITP codec and trajectory generators.

use proptest::prelude::*;
use raven_math::Vec3;
use raven_teleop::{Circle, ItpPacket, MinimumJerk, Suturing, Trajectory, ITP_PACKET_LEN};

fn any_packet() -> impl Strategy<Value = ItpPacket> {
    (
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        prop::array::uniform3(-0.05f64..0.05),
        prop::array::uniform4(-3.0f64..3.0),
    )
        .prop_map(|(seq, pedal, estop, d, wrist)| ItpPacket {
            seq,
            pedal,
            estop,
            delta_pos: Vec3::new(d[0], d[1], d[2]),
            wrist,
        })
}

proptest! {
    #[test]
    fn itp_roundtrip_within_quantization(pkt in any_packet()) {
        let decoded = ItpPacket::decode(&pkt.encode()).unwrap();
        prop_assert_eq!(decoded.seq, pkt.seq);
        prop_assert_eq!(decoded.pedal, pkt.pedal);
        prop_assert_eq!(decoded.estop, pkt.estop);
        // Position quantization: 0.1 µm; wrist: 1 mrad.
        prop_assert!((decoded.delta_pos - pkt.delta_pos).norm() < 2e-7);
        for i in 0..4 {
            prop_assert!((decoded.wrist[i] - pkt.wrist[i]).abs() <= 5.1e-4);
        }
    }

    #[test]
    fn itp_rejects_any_single_byte_corruption(
        pkt in any_packet(),
        offset in 0usize..ITP_PACKET_LEN,
        delta in 1u8..=255,
    ) {
        // Unlike the USB boards, the ITP decoder verifies integrity: a
        // scenario-A attacker must re-encode, not flip bits.
        let mut buf = pkt.encode().to_vec();
        buf[offset] = buf[offset].wrapping_add(delta);
        prop_assert!(ItpPacket::decode(&buf).is_err());
    }

    #[test]
    fn reencoding_is_idempotent(pkt in any_packet()) {
        let once = ItpPacket::decode(&pkt.encode()).unwrap();
        let twice = ItpPacket::decode(&once.encode()).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn trajectories_are_continuous(t in 0.0f64..60.0) {
        // Max per-millisecond step of every generator stays surgical-scale
        // (< 1 mm/ms): the basis of the clean-run jump statistics.
        let mut gens: Vec<Box<dyn Trajectory>> = vec![
            Box::new(Circle::new(0.012, 0.25)),
            Box::new(Suturing::new(0.006, 0.004, 2.0)),
            Box::new(MinimumJerk::new(Vec3::new(0.02, -0.015, 0.01), 3.0)),
        ];
        for g in &mut gens {
            let step = (g.offset(t + 1e-3) - g.offset(t)).norm();
            prop_assert!(step < 1e-3, "{} stepped {step} m in 1 ms", g.label());
        }
    }

    #[test]
    fn trajectories_start_at_origin(_x in 0..1i32) {
        let mut gens: Vec<Box<dyn Trajectory>> = vec![
            Box::new(Circle::new(0.012, 0.25)),
            Box::new(Suturing::new(0.006, 0.004, 2.0)),
            Box::new(MinimumJerk::new(Vec3::new(0.02, -0.015, 0.01), 3.0)),
        ];
        for g in &mut gens {
            prop_assert!(g.offset(0.0).norm() < 1e-9, "{} does not start at 0", g.label());
        }
    }
}

// ---------------------------------------------------------------------------
// Minimizer fixture: a packet that trips on its E-STOP bit shrinks every
// other field to its simplest value while the bit itself survives.

#[test]
fn minimizer_strips_a_failing_packet_down_to_the_estop_bit() {
    use proptest::test_runner::run_reporting;
    let cfg = ProptestConfig::with_cases(64);
    let strat = (any_packet(),);
    let failure = run_reporting("teleop_minimizer_fixture", &cfg, &strat, |(pkt,)| {
        if pkt.estop {
            Err(TestCaseError::fail("E-STOP requested"))
        } else {
            Ok(())
        }
    })
    .expect_err("property was constructed to fail");
    let pkt = failure.minimized.0;
    assert!(pkt.estop, "the failing bit survives shrinking");
    assert_eq!(pkt.seq, 0);
    assert!(!pkt.pedal);
    assert_eq!((pkt.delta_pos.x, pkt.delta_pos.y, pkt.delta_pos.z), (-0.05, -0.05, -0.05));
    assert_eq!(pkt.wrist, [-3.0; 4]);
}
