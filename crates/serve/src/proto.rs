//! The wire protocol: a minimal length-delimited binary framing over
//! any byte stream (TCP in practice, `Cursor` in tests).
//!
//! All integers are little-endian. One request frame:
//!
//! ```text
//! 'R' u8 | version u8 | id u64 | kernel u8 | backend u8 | factor u32
//! | fault_prob f64 | deadline_us u64 | image_count u8
//! | image_count × (width u32 | height u32 | width·height pixel bytes)
//! ```
//!
//! `kernel` 0–3 map to edge / bilinear / compositing / matting with 1,
//! 1, 3, 3 images respectively; kernel [`SHUTDOWN`] (0xFF, zero images)
//! asks the server to drain and exit cleanly — the graceful-shutdown
//! signal CI uses instead of process signals. One response frame:
//!
//! ```text
//! 'r' u8 | version u8 | id u64 | status u8 | downgraded u8
//! | effective_n u32 | queue_ns u64 | service_ns u64
//! | Ok:    width u32 | height u32 | pixel bytes
//! | other: message_len u32 | utf-8 message
//! ```
//!
//! Dimensions are capped ([`MAX_DIM`], [`MAX_PIXELS`]) so a corrupt or
//! hostile frame cannot trigger an unbounded allocation. The caps apply
//! to the *output* shape too: a bilinear frame whose `input × factor`
//! dimensions would exceed them is rejected at parse time (with checked
//! arithmetic, so a near-`u32::MAX` factor cannot overflow the check
//! itself). A kernel frame that parses but fails
//! [`KernelRequest::validate`] comes back as a [`Rejected`] error: the
//! frame was consumed whole, so the server answers it and keeps reading.

use imgproc::request::{Backend, KernelRequest};
use imgproc::GrayImage;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version of this codec.
pub const VERSION: u8 = 1;
/// Request-frame magic byte (`'R'`).
pub const REQ_MAGIC: u8 = b'R';
/// Response-frame magic byte (`'r'`).
pub const RESP_MAGIC: u8 = b'r';
/// The kernel tag of a graceful-shutdown request.
pub const SHUTDOWN: u8 = 0xFF;
/// Largest accepted image side length.
pub const MAX_DIM: u32 = 1 << 14;
/// Largest accepted per-image pixel count (16 MiB of payload).
pub const MAX_PIXELS: u64 = 1 << 24;

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request ran; pixels follow.
    Ok,
    /// The request was shed under overload; a reason message follows.
    Shed,
    /// The request failed; an error message follows.
    Error,
}

impl Status {
    fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Shed => 1,
            Status::Error => 2,
        }
    }

    fn from_code(code: u8) -> io::Result<Self> {
        match code {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Shed),
            2 => Ok(Status::Error),
            _ => Err(bad(format!("unknown status code {code}"))),
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// Requested deadline in microseconds; 0 = server default.
    pub deadline_us: u64,
    /// Backend selector byte (see [`backend_of`]).
    pub backend: u8,
    /// BinaryCim fault probability (ignored by other backends).
    pub fault_prob: f64,
    /// The request body.
    pub body: WireBody,
}

/// The body of a request frame.
#[derive(Debug, Clone)]
pub enum WireBody {
    /// An ordinary kernel request.
    Kernel(KernelRequest),
    /// The graceful-shutdown signal.
    Shutdown,
}

/// A parsed response frame.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// Echoed request id.
    pub id: u64,
    /// Outcome status.
    pub status: Status,
    /// Whether the bitstream length was downgraded to meet the deadline.
    pub downgraded: bool,
    /// The bitstream length the request ran at (0 when shed).
    pub effective_n: u32,
    /// Admission-to-dispatch time, ns.
    pub queue_ns: u64,
    /// Batch execution time, ns.
    pub service_ns: u64,
    /// Pixels on [`Status::Ok`].
    pub pixels: Option<GrayImage>,
    /// Shed reason / error message otherwise.
    pub message: String,
}

/// A well-framed request whose kernel fails [`KernelRequest::validate`].
/// [`read_request`] returns it inside an [`io::ErrorKind::InvalidInput`]
/// error (see [`rejected`]); unlike a framing error, the stream is still
/// aligned on the next frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// The request id, for the error response.
    pub id: u64,
    /// The validation failure.
    pub reason: String,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request {} rejected: {}", self.id, self.reason)
    }
}

impl std::error::Error for Rejected {}

/// The [`Rejected`] request behind a [`read_request`] error, if that is
/// what it was (`None` for framing and I/O errors).
#[must_use]
pub fn rejected(e: &io::Error) -> Option<&Rejected> {
    e.get_ref()?.downcast_ref()
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    Ok(f64::from_bits(read_u64(r)?))
}

fn write_image(w: &mut impl Write, img: &GrayImage) -> io::Result<()> {
    let width = u32::try_from(img.width()).map_err(|_| {
        bad(format!(
            "image width {} not representable on the wire",
            img.width()
        ))
    })?;
    let height = u32::try_from(img.height()).map_err(|_| {
        bad(format!(
            "image height {} not representable on the wire",
            img.height()
        ))
    })?;
    w.write_all(&width.to_le_bytes())?;
    w.write_all(&height.to_le_bytes())?;
    w.write_all(img.pixels())
}

fn read_image(r: &mut impl Read) -> io::Result<GrayImage> {
    let width = read_u32(r)?;
    let height = read_u32(r)?;
    if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
        return Err(bad(format!(
            "image dimensions {width}x{height} out of range"
        )));
    }
    let pixels = u64::from(width) * u64::from(height);
    if pixels > MAX_PIXELS {
        return Err(bad(format!("image payload {pixels} pixels over cap")));
    }
    let mut data = vec![0u8; pixels as usize];
    r.read_exact(&mut data)?;
    GrayImage::from_pixels(width as usize, height as usize, data).map_err(|e| bad(e.to_string()))
}

/// Writes one request frame.
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_request(w: &mut impl Write, req: &WireRequest) -> io::Result<()> {
    w.write_all(&[REQ_MAGIC, VERSION])?;
    w.write_all(&req.id.to_le_bytes())?;
    let (tag, factor, images): (u8, u32, Vec<&GrayImage>) = match &req.body {
        WireBody::Shutdown => (SHUTDOWN, 0, vec![]),
        WireBody::Kernel(k) => match k {
            KernelRequest::Edge { image } => (0, 0, vec![image]),
            KernelRequest::Bilinear { src, factor } => (1, *factor as u32, vec![src]),
            KernelRequest::Compositing {
                foreground,
                background,
                alpha,
            } => (2, 0, vec![foreground, background, alpha]),
            KernelRequest::Matting {
                image,
                background,
                foreground,
            } => (3, 0, vec![image, background, foreground]),
        },
    };
    w.write_all(&[tag, req.backend])?;
    w.write_all(&factor.to_le_bytes())?;
    w.write_all(&req.fault_prob.to_bits().to_le_bytes())?;
    w.write_all(&req.deadline_us.to_le_bytes())?;
    w.write_all(&[images.len() as u8])?;
    for img in images {
        write_image(w, img)?;
    }
    w.flush()
}

/// Reads one request frame; `Ok(None)` on clean end-of-stream (the
/// peer closed between frames). Every kernel request returned passes
/// [`KernelRequest::validate`].
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed frames, plus underlying
/// I/O errors (including truncation mid-frame).
/// [`io::ErrorKind::InvalidInput`] carrying a [`Rejected`] for a
/// well-formed frame whose request fails validation.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<WireRequest>> {
    let mut magic = [0u8; 1];
    match r.read(&mut magic)? {
        0 => return Ok(None),
        _ => {
            if magic[0] != REQ_MAGIC {
                return Err(bad(format!("bad request magic {:#x}", magic[0])));
            }
        }
    }
    let version = read_u8(r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported protocol version {version}")));
    }
    let id = read_u64(r)?;
    let kernel = read_u8(r)?;
    let backend = read_u8(r)?;
    let factor = read_u32(r)? as usize;
    let fault_prob = read_f64(r)?;
    let deadline_us = read_u64(r)?;
    let count = read_u8(r)? as usize;
    let expected = match kernel {
        SHUTDOWN => 0,
        0 | 1 => 1,
        2 | 3 => 3,
        other => return Err(bad(format!("unknown kernel tag {other}"))),
    };
    if count != expected {
        return Err(bad(format!(
            "kernel tag {kernel} carries {count} images, expected {expected}"
        )));
    }
    let mut images = Vec::with_capacity(count);
    for _ in 0..count {
        images.push(read_image(r)?);
    }
    let body = match kernel {
        SHUTDOWN => WireBody::Shutdown,
        0 => WireBody::Kernel(KernelRequest::Edge {
            image: images.remove(0),
        }),
        1 => {
            let src = images.remove(0);
            // The input caps alone do not bound a bilinear request: its
            // allocation is `input × factor`, so the *output* shape must
            // satisfy the same caps — with checked math, because a
            // near-`u32::MAX` factor would overflow `width * factor`.
            let out_w = (src.width() as u64).checked_mul(factor as u64);
            let out_h = (src.height() as u64).checked_mul(factor as u64);
            match (out_w, out_h) {
                (Some(w), Some(h))
                    if w <= u64::from(MAX_DIM)
                        && h <= u64::from(MAX_DIM)
                        && w * h <= MAX_PIXELS => {}
                _ => {
                    return Err(bad(format!(
                        "bilinear factor {factor} scales {}x{} past the output caps",
                        src.width(),
                        src.height()
                    )))
                }
            }
            WireBody::Kernel(KernelRequest::Bilinear { src, factor })
        }
        2 => {
            let foreground = images.remove(0);
            let background = images.remove(0);
            let alpha = images.remove(0);
            WireBody::Kernel(KernelRequest::Compositing {
                foreground,
                background,
                alpha,
            })
        }
        _ => {
            let image = images.remove(0);
            let background = images.remove(0);
            let foreground = images.remove(0);
            WireBody::Kernel(KernelRequest::Matting {
                image,
                background,
                foreground,
            })
        }
    };
    if let WireBody::Kernel(k) = &body {
        if let Err(e) = k.validate() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                Rejected {
                    id,
                    reason: e.to_string(),
                },
            ));
        }
    }
    Ok(Some(WireRequest {
        id,
        deadline_us,
        backend,
        fault_prob,
        body,
    }))
}

/// Writes one response frame.
///
/// # Errors
///
/// I/O errors from the underlying stream.
pub fn write_response(w: &mut impl Write, resp: &WireResponse) -> io::Result<()> {
    w.write_all(&[RESP_MAGIC, VERSION])?;
    w.write_all(&resp.id.to_le_bytes())?;
    w.write_all(&[resp.status.code(), u8::from(resp.downgraded)])?;
    w.write_all(&resp.effective_n.to_le_bytes())?;
    w.write_all(&resp.queue_ns.to_le_bytes())?;
    w.write_all(&resp.service_ns.to_le_bytes())?;
    match (&resp.status, &resp.pixels) {
        (Status::Ok, Some(img)) => write_image(w, img)?,
        (Status::Ok, None) => {
            // An Ok without pixels (the shutdown acknowledgement): a
            // zero-dimension image marker.
            w.write_all(&0u32.to_le_bytes())?;
            w.write_all(&0u32.to_le_bytes())?;
        }
        _ => {
            let msg = resp.message.as_bytes();
            w.write_all(&(msg.len() as u32).to_le_bytes())?;
            w.write_all(msg)?;
        }
    }
    w.flush()
}

/// Reads one response frame.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on malformed frames, plus underlying
/// I/O errors.
pub fn read_response(r: &mut impl Read) -> io::Result<WireResponse> {
    let magic = read_u8(r)?;
    if magic != RESP_MAGIC {
        return Err(bad(format!("bad response magic {magic:#x}")));
    }
    let version = read_u8(r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported protocol version {version}")));
    }
    let id = read_u64(r)?;
    let status = Status::from_code(read_u8(r)?)?;
    let downgraded = read_u8(r)? != 0;
    let effective_n = read_u32(r)?;
    let queue_ns = read_u64(r)?;
    let service_ns = read_u64(r)?;
    let (pixels, message) = match status {
        Status::Ok => {
            let width = read_u32(r)?;
            let height = read_u32(r)?;
            if width == 0 && height == 0 {
                (None, String::new())
            } else {
                if width > MAX_DIM || height > MAX_DIM {
                    return Err(bad(format!(
                        "response dimensions {width}x{height} out of range"
                    )));
                }
                let pixels = u64::from(width) * u64::from(height);
                if pixels > MAX_PIXELS {
                    return Err(bad(format!("response payload {pixels} pixels over cap")));
                }
                let mut data = vec![0u8; pixels as usize];
                r.read_exact(&mut data)?;
                let img = GrayImage::from_pixels(width as usize, height as usize, data)
                    .map_err(|e| bad(e.to_string()))?;
                (Some(img), String::new())
            }
        }
        Status::Shed | Status::Error => {
            let len = read_u32(r)?;
            if u64::from(len) > MAX_PIXELS {
                return Err(bad(format!("message length {len} over cap")));
            }
            let mut data = vec![0u8; len as usize];
            r.read_exact(&mut data)?;
            let msg = String::from_utf8(data).map_err(|e| bad(e.to_string()))?;
            (None, msg)
        }
    };
    Ok(WireResponse {
        id,
        status,
        downgraded,
        effective_n,
        queue_ns,
        service_ns,
        pixels,
        message,
    })
}

/// Maps a backend selector byte to a [`Backend`], deriving the CMOS SNG
/// configuration from the service engine (shared `N` and seed).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on an unknown selector.
pub fn backend_of(
    byte: u8,
    fault_prob: f64,
    engine: &imgproc::ScReramConfig,
) -> io::Result<Backend> {
    match byte {
        0 => Ok(Backend::ScReram),
        1 => Ok(Backend::Cmos(imgproc::CmosScConfig::new(
            engine.stream_len,
            imgproc::scbackend::CmosSngKind::Sobol,
            engine.seed,
        ))),
        2 => Ok(Backend::BinaryCim { fault_prob }),
        3 => Ok(Backend::Software),
        other => Err(bad(format!("unknown backend selector {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imgproc::synth;
    use std::io::Cursor;

    fn roundtrip_request(req: WireRequest) -> WireRequest {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        read_request(&mut Cursor::new(buf)).unwrap().unwrap()
    }

    #[test]
    fn kernel_request_roundtrips() {
        let img = synth::gradient(8, 6, true);
        let out = roundtrip_request(WireRequest {
            id: 7,
            deadline_us: 12_000,
            backend: 0,
            fault_prob: 0.0,
            body: WireBody::Kernel(KernelRequest::Bilinear {
                src: img.clone(),
                factor: 3,
            }),
        });
        assert_eq!(out.id, 7);
        assert_eq!(out.deadline_us, 12_000);
        let WireBody::Kernel(KernelRequest::Bilinear { src, factor }) = out.body else {
            panic!("wrong body");
        };
        assert_eq!(factor, 3);
        assert_eq!(src, img);
    }

    #[test]
    fn three_image_kernel_roundtrips_in_order() {
        let f = synth::gradient(4, 4, true);
        let b = synth::checkerboard(4, 4, 2);
        let a = synth::gradient(4, 4, false);
        let out = roundtrip_request(WireRequest {
            id: 1,
            deadline_us: 0,
            backend: 0,
            fault_prob: 0.0,
            body: WireBody::Kernel(KernelRequest::Compositing {
                foreground: f.clone(),
                background: b.clone(),
                alpha: a.clone(),
            }),
        });
        let WireBody::Kernel(KernelRequest::Compositing {
            foreground,
            background,
            alpha,
        }) = out.body
        else {
            panic!("wrong body");
        };
        assert_eq!((foreground, background, alpha), (f, b, a));
    }

    #[test]
    fn shutdown_roundtrips() {
        let out = roundtrip_request(WireRequest {
            id: 99,
            deadline_us: 0,
            backend: 0,
            fault_prob: 0.0,
            body: WireBody::Shutdown,
        });
        assert!(matches!(out.body, WireBody::Shutdown));
    }

    #[test]
    fn response_roundtrips_both_shapes() {
        let img = synth::gradient(5, 3, false);
        let ok = WireResponse {
            id: 4,
            status: Status::Ok,
            downgraded: true,
            effective_n: 128,
            queue_ns: 10,
            service_ns: 20,
            pixels: Some(img.clone()),
            message: String::new(),
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &ok).unwrap();
        let out = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out.status, Status::Ok);
        assert!(out.downgraded);
        assert_eq!(out.effective_n, 128);
        assert_eq!(out.pixels.unwrap(), img);

        let shed = WireResponse {
            id: 5,
            status: Status::Shed,
            downgraded: false,
            effective_n: 0,
            queue_ns: 1,
            service_ns: 0,
            pixels: None,
            message: "queue full".into(),
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &shed).unwrap();
        let out = read_response(&mut Cursor::new(buf)).unwrap();
        assert_eq!(out.status, Status::Shed);
        assert_eq!(out.message, "queue full");
        assert!(out.pixels.is_none());
    }

    #[test]
    fn clean_eof_is_none_truncation_is_error() {
        assert!(read_request(&mut Cursor::new(Vec::new()))
            .unwrap()
            .is_none());
        let img = synth::gradient(4, 4, true);
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &WireRequest {
                id: 1,
                deadline_us: 0,
                backend: 0,
                fault_prob: 0.0,
                body: WireBody::Kernel(KernelRequest::Edge { image: img }),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_request(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn hostile_dimensions_are_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&[REQ_MAGIC, VERSION]);
        buf.extend_from_slice(&1u64.to_le_bytes()); // id
        buf.extend_from_slice(&[0, 0]); // edge, screram
        buf.extend_from_slice(&0u32.to_le_bytes()); // factor
        buf.extend_from_slice(&0.0f64.to_bits().to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // deadline
        buf.push(1); // one image
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // width
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // height
        let err = read_request(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn hostile_bilinear_factor_is_rejected_before_allocation() {
        // A cap-compliant input whose scaled output would be enormous
        // (or whose `dim * factor` product overflows) must be rejected
        // at parse time, for factors both huge and merely too large.
        for factor in [u32::MAX, 1000] {
            let img = synth::gradient(64, 64, true);
            let mut buf = Vec::new();
            write_request(
                &mut buf,
                &WireRequest {
                    id: 1,
                    deadline_us: 0,
                    backend: 3,
                    fault_prob: 0.0,
                    body: WireBody::Kernel(KernelRequest::Bilinear {
                        src: img,
                        factor: factor as usize,
                    }),
                },
            )
            .unwrap();
            let err = read_request(&mut Cursor::new(buf)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
        // The largest in-cap output still parses.
        let img = synth::gradient(64, 64, true);
        let out = roundtrip_request(WireRequest {
            id: 1,
            deadline_us: 0,
            backend: 0,
            fault_prob: 0.0,
            body: WireBody::Kernel(KernelRequest::Bilinear {
                src: img,
                factor: 64,
            }),
        });
        assert!(matches!(
            out.body,
            WireBody::Kernel(KernelRequest::Bilinear { factor: 64, .. })
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&[REQ_MAGIC, VERSION]);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&[9, 0]); // unknown kernel tag
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0.0f64.to_bits().to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.push(0);
        assert!(read_request(&mut Cursor::new(buf)).is_err());
        let engine = imgproc::ScReramConfig::new(64, 1);
        assert!(backend_of(9, 0.0, &engine).is_err());
    }
}
