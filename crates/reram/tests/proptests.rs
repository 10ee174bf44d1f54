//! Property-based tests for the ReRAM substrate.

use proptest::prelude::*;
use reram::adc::Adc;
use reram::array::CrossbarArray;
use reram::cell::DeviceParams;
use reram::faults::{FaultInjector, FaultRates};
use reram::scouting::{ScoutingLogic, SlOp};
use sc_core::rng::Xoshiro256;
use sc_core::BitStream;

fn random_stream(n: usize, seed: u64) -> BitStream {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    BitStream::from_fn(n, |_| rng.next_f64() < 0.5)
}

proptest! {
    #[test]
    fn array_rows_are_independent(cols in 1usize..200, seed in any::<u64>()) {
        let mut a = CrossbarArray::pristine(3, cols, seed);
        let r0 = random_stream(cols, seed ^ 1);
        let r1 = random_stream(cols, seed ^ 2);
        a.write_row(0, &r0).expect("row in range");
        a.write_row(1, &r1).expect("row in range");
        prop_assert_eq!(a.read_row(0).expect("row in range"), r0);
        prop_assert_eq!(a.read_row(1).expect("row in range"), r1);
        prop_assert_eq!(a.read_row(2).expect("row in range").count_ones(), 0);
    }

    #[test]
    fn differential_writes_count_hamming_distance(cols in 1usize..200, seed in any::<u64>()) {
        let mut a = CrossbarArray::pristine(1, cols, seed);
        let first = random_stream(cols, seed ^ 3);
        let second = random_stream(cols, seed ^ 4);
        a.write_row(0, &first).expect("row in range");
        let changed = a.write_row(0, &second).expect("row in range");
        let expect = first.xor(&second).expect("equal lengths").count_ones();
        prop_assert_eq!(changed as u64, expect);
    }

    #[test]
    fn ideal_scouting_matches_boolean_semantics(cols in 2usize..128, seed in any::<u64>()) {
        let mut a = CrossbarArray::pristine(3, cols, seed);
        let r0 = random_stream(cols, seed ^ 5);
        let r1 = random_stream(cols, seed ^ 6);
        let r2 = random_stream(cols, seed ^ 7);
        a.write_row(0, &r0).expect("row in range");
        a.write_row(1, &r1).expect("row in range");
        a.write_row(2, &r2).expect("row in range");
        let mut sl = ScoutingLogic::ideal();
        prop_assert_eq!(
            sl.execute_mut(&mut a, SlOp::And, &[0, 1]).expect("valid"),
            r0.and(&r1).expect("equal lengths"));
        prop_assert_eq!(
            sl.execute_mut(&mut a, SlOp::Xor, &[0, 1]).expect("valid"),
            r0.xor(&r1).expect("equal lengths"));
        prop_assert_eq!(
            sl.execute_mut(&mut a, SlOp::Maj, &[0, 1, 2]).expect("valid"),
            r0.maj3(&r1, &r2).expect("equal lengths"));
    }

    #[test]
    fn fault_injection_rate_is_statistical(p in 0.0f64..0.3, seed in any::<u64>()) {
        let n = 20_000;
        let mut inj = FaultInjector::new(FaultRates::uniform(p), seed);
        let mut s = BitStream::zeros(n);
        inj.corrupt_op_output(SlOp::And, &mut s);
        let rate = s.count_ones() as f64 / n as f64;
        // 5-sigma binomial bound.
        let sigma = (p * (1.0 - p) / n as f64).sqrt();
        prop_assert!((rate - p).abs() <= 5.0 * sigma + 1e-9,
            "rate {rate} vs p {p}");
    }

    #[test]
    fn adc_code_is_monotone_in_count(full in 1u64..1000, seed in any::<u64>()) {
        let mut adc = Adc::ideal(8);
        let mut last = 0u64;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut counts: Vec<u64> = (0..20).map(|_| rng.next_below(full + 1)).collect();
        counts.sort_unstable();
        for c in counts {
            let code = adc.convert_count(c, full).expect("in range");
            prop_assert!(code >= last, "code {code} after {last}");
            last = code;
        }
    }

    #[test]
    fn clean_analog_sensing_matches_digital(cols in 2usize..64, seed in any::<u64>()) {
        let mut params = DeviceParams::hfo2();
        params.lrs_sigma = 0.02;
        params.hrs_sigma = 0.05;
        params.hrs_tail_prob = 0.0;
        params.read_noise_frac = 0.005;
        let mut a = CrossbarArray::with_params(2, cols, params, seed);
        let r0 = random_stream(cols, seed ^ 8);
        let r1 = random_stream(cols, seed ^ 9);
        a.write_row(0, &r0).expect("row in range");
        a.write_row(1, &r1).expect("row in range");
        let mut analog = ScoutingLogic::analog();
        let got = analog.execute_mut(&mut a, SlOp::Or, &[0, 1]).expect("valid");
        prop_assert_eq!(got, r0.or(&r1).expect("equal lengths"));
    }

    #[test]
    fn endurance_counters_are_monotone(seed in any::<u64>(), writes in 1usize..20) {
        let mut a = CrossbarArray::pristine(1, 32, seed);
        for i in 0..writes {
            let s = random_stream(32, seed ^ (i as u64 + 10));
            a.write_row(0, &s).expect("row in range");
            prop_assert_eq!(a.row_wear(0).expect("row in range"), i as u64 + 1);
        }
        prop_assert_eq!(a.row_writes(), writes as u64);
    }
}
