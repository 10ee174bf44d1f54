//! Seeded fuzz leg for the request wire codec: thousands of mangled
//! versions of valid `write_request` frames — bit flips, truncations,
//! and oversized dimension, factor and image-count fields — go through
//! `read_request`. Every one must come back as an error, a clean
//! end-of-stream, or a request that passes `validate()`; none may panic.
//! A frame that parses but fails validation is a `Rejected` error, and
//! the codec must leave the stream aligned on the frame after it.

use imgproc::request::KernelRequest;
use imgproc::synth;
use serve::proto::{read_request, write_request, WireBody, WireRequest, MAX_DIM};
use std::io::Cursor;
use std::panic;

/// Mutations per base frame (five base frames).
const MUTATIONS_PER_FRAME: u64 = 480;

/// Byte offsets of the fixed request header (see `serve::proto`).
const FACTOR_AT: usize = 12;
const COUNT_AT: usize = 32;
const FIRST_IMAGE_AT: usize = 33;

/// SplitMix64: a tiny seeded generator, so every mutation is
/// reproducible from its index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn frame(body: WireBody) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(
        &mut buf,
        &WireRequest {
            id: 42,
            deadline_us: 5_000,
            backend: 0,
            fault_prob: 0.0,
            body,
        },
    )
    .expect("in-memory write");
    buf
}

fn base_frames() -> Vec<(&'static str, Vec<u8>)> {
    let img = || synth::gradient(6, 5, true);
    vec![
        (
            "edge",
            frame(WireBody::Kernel(KernelRequest::Edge { image: img() })),
        ),
        (
            "bilinear",
            frame(WireBody::Kernel(KernelRequest::Bilinear {
                src: img(),
                factor: 2,
            })),
        ),
        (
            "compositing",
            frame(WireBody::Kernel(KernelRequest::Compositing {
                foreground: img(),
                background: img(),
                alpha: img(),
            })),
        ),
        (
            "matting",
            frame(WireBody::Kernel(KernelRequest::Matting {
                image: img(),
                background: img(),
                foreground: img(),
            })),
        ),
        ("shutdown", frame(WireBody::Shutdown)),
    ]
}

/// A `u32` a hostile peer might put in a size field.
fn hostile_u32(rng: &mut Rng) -> u32 {
    match rng.below(6) {
        0 => 0,
        1 => u32::MAX,
        2 => MAX_DIM + 1 + rng.below(1 << 16) as u32,
        3 => 1 << rng.below(32),
        4 => rng.below(64) as u32,
        _ => rng.next() as u32,
    }
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    if at + 4 <= buf.len() {
        buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }
}

/// One seeded mutation of `base`, with a label naming what it did.
fn mutate(base: &[u8], rng: &mut Rng) -> (String, Vec<u8>) {
    let mut buf = base.to_vec();
    let label = match rng.below(5) {
        0 => {
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let bit = rng.below(buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            format!("{flips} bit flips")
        }
        1 => {
            let keep = rng.below(buf.len());
            buf.truncate(keep);
            format!("truncated to {keep} bytes")
        }
        2 => {
            let v = hostile_u32(rng);
            put_u32(&mut buf, FACTOR_AT, v);
            format!("factor {v}")
        }
        3 => {
            // Width or height of the first image.
            let at = FIRST_IMAGE_AT + 4 * rng.below(2);
            let v = hostile_u32(rng);
            put_u32(&mut buf, at, v);
            format!("dimension at {at} = {v}")
        }
        _ => {
            let v = rng.next() as u8;
            if COUNT_AT < buf.len() {
                buf[COUNT_AT] = v;
            }
            format!("image count {v}")
        }
    };
    (label, buf)
}

#[test]
fn mangled_request_frames_never_panic_or_pass_invalid() {
    let mut checked = 0u64;
    let mut rejected = 0u64;
    for (f, (name, base)) in base_frames().into_iter().enumerate() {
        // The unmangled frame parses into a valid request.
        let clean = read_request(&mut Cursor::new(base.clone()))
            .expect("valid frame")
            .expect("one frame");
        if let WireBody::Kernel(k) = &clean.body {
            k.validate().expect("valid request");
        }
        for i in 0..MUTATIONS_PER_FRAME {
            let mut rng = Rng(0xF0_22 ^ ((f as u64) << 32) ^ i);
            let (label, bytes) = mutate(&base, &mut rng);
            let ctx = format!("{name} mutation {i} ({label})");
            let parsed = panic::catch_unwind(|| read_request(&mut Cursor::new(bytes)))
                .unwrap_or_else(|_| panic!("{ctx}: read_request panicked"));
            match parsed {
                Err(_) => rejected += 1,
                Ok(None) => {}
                Ok(Some(req)) => {
                    if let WireBody::Kernel(k) = &req.body {
                        if let Err(e) = k.validate() {
                            panic!("{ctx}: parsed a request that fails validate(): {e}");
                        }
                    }
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 2_000, "only {checked} mutations");
    // Most mangled frames must be refused outright, not slip through.
    assert!(rejected * 2 > checked, "{rejected} of {checked} rejected");
}

#[test]
fn rejected_frames_leave_the_stream_aligned() {
    let invalid = frame(WireBody::Kernel(KernelRequest::Bilinear {
        src: synth::gradient(4, 4, true),
        factor: 1,
    }));
    let valid = frame(WireBody::Shutdown);
    let mut stream = Cursor::new([invalid, valid].concat());
    let err = read_request(&mut stream).expect_err("factor 1 is invalid");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let rejected = serve::proto::rejected(&err).expect("a rejected request");
    assert_eq!(rejected.id, 42);
    assert!(
        rejected.reason.contains("at least 2"),
        "{}",
        rejected.reason
    );
    let next = read_request(&mut stream)
        .expect("next frame parses")
        .expect("one frame");
    assert!(matches!(next.body, WireBody::Shutdown));
    assert!(read_request(&mut stream).expect("clean end").is_none());
}
