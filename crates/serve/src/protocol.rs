//! Wire format for the session service: length-prefixed binary frames over
//! a byte stream (a Unix socket in practice, a `Vec<u8>` in tests).
//!
//! ```text
//! frame := magic[4] | payload_len u32 LE | payload[payload_len] | crc32 u32 LE
//! ```
//!
//! The CRC (IEEE 802.3, shared with the `.rawz`/`.ifet` containers) covers
//! the whole payload — request id, tenant id, verb, and body alike — so any
//! single-byte corruption anywhere in a frame is detected *before* the
//! request is interpreted. That is what makes the fuzz guarantee hold:
//! a flipped byte can never silently retarget a request at another tenant's
//! session or mutate its parameters; it always surfaces as a typed
//! [`ProtocolError`].
//!
//! Payloads:
//!
//! ```text
//! request  := request_id u64 | tenant u32 | verb u8 | verb body
//! response := request_id u64 | tenant u32 | status u8 | status body
//! ```
//!
//! All integers are little-endian; `f32` travels as its IEEE bit pattern
//! (`to_bits`), so encode/decode is exactly lossless and responses are
//! byte-comparable across runs. Strings are `u32` length + UTF-8 bytes.

use ifet_volume::codec::crc32;

/// Magic prefix of request frames.
pub const MAGIC_REQUEST: [u8; 4] = *b"IFQ1";
/// Magic prefix of response frames.
pub const MAGIC_RESPONSE: [u8; 4] = *b"IFS1";
/// Hard cap on payload size: a corrupted length prefix must never drive an
/// allocation, so frames are rejected *before* the payload is read.
pub const MAX_PAYLOAD: u32 = 1 << 24;
/// Bytes of framing around a payload: magic + length prefix + trailing CRC.
pub const FRAME_OVERHEAD: usize = 4 + 4 + 4;
/// Protocol revision negotiated by [`Verb::Hello`]. v2 adds the pipelining
/// handshake; framing and every v1 verb encoding are unchanged, so v1
/// clients (which never send `Hello`) interoperate without translation.
pub const PROTOCOL_VERSION: u32 = 2;
/// Hard cap on the pipeline depth a `Hello` can negotiate: the per-connection
/// bound on decoded-but-unanswered requests the server will hold.
pub const MAX_PIPELINE: u32 = 64;

/// Why a byte buffer is not a valid protocol frame. Every corruption mode
/// the fuzz suite sweeps (flips, truncations, oversized prefixes, unknown
/// discriminants) lands on exactly one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The buffer ends before the field being read.
    Truncated { need: usize, have: usize },
    /// The frame does not start with the expected magic.
    BadMagic { found: [u8; 4] },
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized { len: u32, max: u32 },
    /// Payload bytes do not match the stored CRC.
    Checksum { stored: u32, computed: u32 },
    /// Bytes remain after the frame's declared end.
    TrailingBytes { extra: usize },
    /// Unknown verb discriminant in a request.
    UnknownVerb(u8),
    /// Unknown status discriminant in a response.
    UnknownStatus(u8),
    /// Unknown tracking-criterion discriminant.
    UnknownCriterion(u8),
    /// Unknown slice-axis discriminant.
    UnknownAxis(u8),
    /// Unknown error-code discriminant in an error response.
    UnknownErrorCode(u8),
    /// A string field is not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            ProtocolError::BadMagic { found } => write!(f, "bad frame magic {found:?}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "length prefix {len} exceeds cap {max}")
            }
            ProtocolError::Checksum { stored, computed } => {
                write!(
                    f,
                    "payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame end")
            }
            ProtocolError::UnknownVerb(v) => write!(f, "unknown verb {v}"),
            ProtocolError::UnknownStatus(s) => write!(f, "unknown response status {s}"),
            ProtocolError::UnknownCriterion(c) => write!(f, "unknown criterion kind {c}"),
            ProtocolError::UnknownAxis(a) => write!(f, "unknown slice axis {a}"),
            ProtocolError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Which axis a `render-slice` request cuts across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    X,
    Y,
    Z,
}

/// Tracking criterion carried on the wire — mirrors
/// `ifet_core::CriterionSpec` field-for-field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireCriterion {
    FixedBand { lo: f32, hi: f32 },
    AdaptiveTf { tau: f32 },
    DataSpace { tau: f32 },
}

/// A request verb plus its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Bind this tenant to the session persisted at `artifact`, with frame
    /// data in `data_dir`. Sessions are shared: two tenants opening the same
    /// artifact drive one resident `VisSession` and one paged series.
    Open { artifact: String, data_dir: String },
    /// Data-space extraction mask at `step`, certainty threshold `tau`.
    Classify { step: u32, tau: f32 },
    /// Run 4D region growing from `seeds` under `criterion`.
    Track {
        criterion: WireCriterion,
        seeds: Vec<(u32, u32, u32, u32)>,
    },
    /// Color-mapped axis slice of the frame at `step`; `adaptive` modulates
    /// it by the IATF-generated transfer function's opacity.
    RenderSlice {
        step: u32,
        axis: Axis,
        k: u32,
        adaptive: bool,
    },
    /// Per-tenant runtime counters (scheduling-dependent; see DESIGN §10).
    ReportStats,
    /// Release this tenant's session binding.
    Close,
    /// Pipelining handshake (protocol v2). The client asks for up to
    /// `max_pipeline` outstanding requests on this connection; the server
    /// answers [`ResponseBody::HelloOk`] with the granted depth (clamped to
    /// [`MAX_PIPELINE`]). A connection that never sends `Hello` runs in
    /// v1-compatible single-shot mode: one request, one reply, in order.
    Hello { max_pipeline: u32 },
}

impl Verb {
    /// Stable name for logs and counters.
    pub fn name(&self) -> &'static str {
        match self {
            Verb::Open { .. } => "open",
            Verb::Classify { .. } => "classify",
            Verb::Track { .. } => "track",
            Verb::RenderSlice { .. } => "render-slice",
            Verb::ReportStats => "report-stats",
            Verb::Close => "close",
            Verb::Hello { .. } => "hello",
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Tenant the request acts for. Tenants are the unit of fairness
    /// accounting; they are created on first use.
    pub tenant: u32,
    pub verb: Verb,
}

/// Machine-readable failure class in an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame itself was malformed.
    Protocol,
    /// The tenant exceeded its in-flight bound; retry later.
    Overloaded,
    /// The verb needs an open session and the tenant has none.
    NoSession,
    /// Arguments are structurally valid but unusable (bad step, bad seed…).
    BadRequest,
    /// The session rejected the operation (no classifier, paging I/O…).
    Session,
    /// Opening the artifact or its frame data failed.
    Open,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Protocol => 0,
            ErrorCode::Overloaded => 1,
            ErrorCode::NoSession => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Session => 4,
            ErrorCode::Open => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, ProtocolError> {
        Ok(match v {
            0 => ErrorCode::Protocol,
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::NoSession,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::Session,
            5 => ErrorCode::Open,
            other => return Err(ProtocolError::UnknownErrorCode(other)),
        })
    }
}

/// Per-tenant service counters as reported by `report-stats`.
///
/// These are **runtime** observations (the serving analog of
/// `obs::counter_runtime`): `sent`/`accepted`/`rejected`/`completed` depend
/// on request interleaving, so equivalence schedules exclude this verb.
/// The admission invariant `accepted + rejected == sent` holds at any
/// quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReport {
    pub sent: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// Highest concurrent in-flight depth this tenant ever reached.
    pub max_depth: u64,
    /// Engine-wide: MLP jobs (classify masks and adaptive-slice IATF
    /// tables) the workers ran.
    pub batch_jobs: u64,
    /// Engine-wide: always equal to `batch_jobs` (every MLP job is its own
    /// cycle). Kept so the wire layout stays unchanged.
    pub batch_cycles: u64,
    /// Engine-wide: voxel rows those MLP jobs pushed through the network.
    pub batch_rows: u64,
    /// Engine-wide: frames evicted from the shared cache budget.
    pub evictions: u64,
    /// Engine-wide: evictions by the quota-local phase (a tenant over its
    /// resident-byte quota reclaiming its own LRU frames).
    pub quota_evictions: u64,
    /// Engine-wide: evictions redirected from an active tenant's LRU frame
    /// to an idle tenant's frame.
    pub idle_evictions: u64,
}

/// A response body: one `Ok` variant per verb, or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    OpenOk {
        frames: u32,
        dims: (u32, u32, u32),
        first_step: u32,
        last_step: u32,
        has_iatf: bool,
        has_classifier: bool,
        tracks: u32,
    },
    ClassifyOk {
        /// Voxels at or above the certainty threshold.
        voxels: u64,
        /// The packed extraction mask (`Mask3` words, LSB-first).
        words: Vec<u64>,
    },
    TrackOk {
        voxels_per_frame: Vec<u32>,
        events: u32,
    },
    RenderSliceOk {
        width: u32,
        height: u32,
        /// Row-major RGB, 8 bits per channel (same quantization as PPM).
        rgb: Vec<u8>,
    },
    StatsOk(StatsReport),
    CloseOk,
    /// Handshake grant (protocol v2): the connection may now keep up to
    /// `max_pipeline` requests outstanding, with replies in completion order
    /// matched by request id.
    HelloOk {
        /// Server protocol revision ([`PROTOCOL_VERSION`]).
        version: u32,
        /// Granted pipeline depth (requested depth clamped to
        /// [`MAX_PIPELINE`], floored at 1).
        max_pipeline: u32,
    },
    Err {
        code: ErrorCode,
        message: String,
    },
}

/// One service response, correlated to its request by `(request_id, tenant)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    pub request_id: u64,
    pub tenant: u32,
    pub body: ResponseBody,
}

// ---- encoding ----

struct Wr(Vec<u8>);

impl Wr {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Wrap a payload in framing: magic, length prefix, trailing CRC.
pub fn encode_frame(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() as u64 <= MAX_PAYLOAD as u64,
        "payload exceeds MAX_PAYLOAD"
    );
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

fn encode_request_payload(req: &Request) -> Vec<u8> {
    let mut w = Wr(Vec::new());
    w.u64(req.request_id);
    w.u32(req.tenant);
    match &req.verb {
        Verb::Open { artifact, data_dir } => {
            w.u8(0);
            w.str(artifact);
            w.str(data_dir);
        }
        Verb::Classify { step, tau } => {
            w.u8(1);
            w.u32(*step);
            w.f32(*tau);
        }
        Verb::Track { criterion, seeds } => {
            w.u8(2);
            match criterion {
                WireCriterion::FixedBand { lo, hi } => {
                    w.u8(0);
                    w.f32(*lo);
                    w.f32(*hi);
                }
                WireCriterion::AdaptiveTf { tau } => {
                    w.u8(1);
                    w.f32(*tau);
                }
                WireCriterion::DataSpace { tau } => {
                    w.u8(2);
                    w.f32(*tau);
                }
            }
            w.u32(seeds.len() as u32);
            for &(t, x, y, z) in seeds {
                w.u32(t);
                w.u32(x);
                w.u32(y);
                w.u32(z);
            }
        }
        Verb::RenderSlice {
            step,
            axis,
            k,
            adaptive,
        } => {
            w.u8(3);
            w.u32(*step);
            w.u8(match axis {
                Axis::X => 0,
                Axis::Y => 1,
                Axis::Z => 2,
            });
            w.u32(*k);
            w.u8(u8::from(*adaptive));
        }
        Verb::ReportStats => w.u8(4),
        Verb::Close => w.u8(5),
        Verb::Hello { max_pipeline } => {
            w.u8(6);
            w.u32(*max_pipeline);
        }
    }
    w.0
}

/// Encode a request as a complete wire frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode_frame(MAGIC_REQUEST, &encode_request_payload(req))
}

fn encode_response_payload(rsp: &Response) -> Vec<u8> {
    let mut w = Wr(Vec::new());
    w.u64(rsp.request_id);
    w.u32(rsp.tenant);
    match &rsp.body {
        ResponseBody::OpenOk {
            frames,
            dims,
            first_step,
            last_step,
            has_iatf,
            has_classifier,
            tracks,
        } => {
            w.u8(0);
            w.u32(*frames);
            w.u32(dims.0);
            w.u32(dims.1);
            w.u32(dims.2);
            w.u32(*first_step);
            w.u32(*last_step);
            w.u8(u8::from(*has_iatf) | (u8::from(*has_classifier) << 1));
            w.u32(*tracks);
        }
        ResponseBody::ClassifyOk { voxels, words } => {
            w.u8(1);
            w.u64(*voxels);
            w.u32(words.len() as u32);
            for &word in words {
                w.u64(word);
            }
        }
        ResponseBody::TrackOk {
            voxels_per_frame,
            events,
        } => {
            w.u8(2);
            w.u32(voxels_per_frame.len() as u32);
            for &v in voxels_per_frame {
                w.u32(v);
            }
            w.u32(*events);
        }
        ResponseBody::RenderSliceOk { width, height, rgb } => {
            w.u8(3);
            w.u32(*width);
            w.u32(*height);
            w.u32(rgb.len() as u32);
            w.0.extend_from_slice(rgb);
        }
        ResponseBody::StatsOk(s) => {
            w.u8(4);
            w.u64(s.sent);
            w.u64(s.accepted);
            w.u64(s.rejected);
            w.u64(s.completed);
            w.u64(s.max_depth);
            w.u64(s.batch_jobs);
            w.u64(s.batch_cycles);
            w.u64(s.batch_rows);
            w.u64(s.evictions);
            w.u64(s.quota_evictions);
            w.u64(s.idle_evictions);
        }
        ResponseBody::CloseOk => w.u8(5),
        ResponseBody::HelloOk {
            version,
            max_pipeline,
        } => {
            w.u8(6);
            w.u32(*version);
            w.u32(*max_pipeline);
        }
        ResponseBody::Err { code, message } => {
            w.u8(255);
            w.u8(code.to_u8());
            w.str(message);
        }
    }
    w.0
}

/// Encode a response as a complete wire frame.
pub fn encode_response(rsp: &Response) -> Vec<u8> {
    encode_frame(MAGIC_RESPONSE, &encode_response_payload(rsp))
}

// ---- decoding ----

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let have = self.b.len() - self.pos;
        if have < n {
            return Err(ProtocolError::Truncated { need: n, have });
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, ProtocolError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn str(&mut self) -> Result<String, ProtocolError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }
    fn finish(self) -> Result<(), ProtocolError> {
        let extra = self.b.len() - self.pos;
        if extra != 0 {
            return Err(ProtocolError::TrailingBytes { extra });
        }
        Ok(())
    }
}

/// Validate framing (magic, length, CRC) and return the payload slice.
///
/// The length prefix is checked against [`MAX_PAYLOAD`] *before* the payload
/// is touched, so an oversized prefix can never drive an allocation or an
/// out-of-bounds read.
pub fn decode_frame(magic: [u8; 4], bytes: &[u8]) -> Result<&[u8], ProtocolError> {
    if bytes.len() < 8 {
        return Err(ProtocolError::Truncated {
            need: 8,
            have: bytes.len(),
        });
    }
    let found: [u8; 4] = bytes[0..4].try_into().unwrap();
    if found != magic {
        return Err(ProtocolError::BadMagic { found });
    }
    let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_PAYLOAD,
        });
    }
    let total = 8 + len as usize + 4;
    if bytes.len() < total {
        return Err(ProtocolError::Truncated {
            need: total,
            have: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(ProtocolError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let payload = &bytes[8..8 + len as usize];
    let stored = u32::from_le_bytes(bytes[total - 4..total].try_into().unwrap());
    let computed = crc32(payload);
    if stored != computed {
        return Err(ProtocolError::Checksum { stored, computed });
    }
    Ok(payload)
}

fn decode_request_payload(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut r = Rd { b: payload, pos: 0 };
    let request_id = r.u64()?;
    let tenant = r.u32()?;
    let verb = match r.u8()? {
        0 => Verb::Open {
            artifact: r.str()?,
            data_dir: r.str()?,
        },
        1 => Verb::Classify {
            step: r.u32()?,
            tau: r.f32()?,
        },
        2 => {
            let criterion = match r.u8()? {
                0 => WireCriterion::FixedBand {
                    lo: r.f32()?,
                    hi: r.f32()?,
                },
                1 => WireCriterion::AdaptiveTf { tau: r.f32()? },
                2 => WireCriterion::DataSpace { tau: r.f32()? },
                other => return Err(ProtocolError::UnknownCriterion(other)),
            };
            let n = r.u32()? as usize;
            let mut seeds = Vec::new();
            for _ in 0..n {
                seeds.push((r.u32()?, r.u32()?, r.u32()?, r.u32()?));
            }
            Verb::Track { criterion, seeds }
        }
        3 => Verb::RenderSlice {
            step: r.u32()?,
            axis: match r.u8()? {
                0 => Axis::X,
                1 => Axis::Y,
                2 => Axis::Z,
                other => return Err(ProtocolError::UnknownAxis(other)),
            },
            k: r.u32()?,
            adaptive: r.u8()? != 0,
        },
        4 => Verb::ReportStats,
        5 => Verb::Close,
        6 => Verb::Hello {
            max_pipeline: r.u32()?,
        },
        other => return Err(ProtocolError::UnknownVerb(other)),
    };
    r.finish()?;
    Ok(Request {
        request_id,
        tenant,
        verb,
    })
}

/// Decode a complete request frame.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    decode_request_payload(decode_frame(MAGIC_REQUEST, bytes)?)
}

fn decode_response_payload(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut r = Rd { b: payload, pos: 0 };
    let request_id = r.u64()?;
    let tenant = r.u32()?;
    let body = match r.u8()? {
        0 => {
            let frames = r.u32()?;
            let dims = (r.u32()?, r.u32()?, r.u32()?);
            let first_step = r.u32()?;
            let last_step = r.u32()?;
            let flags = r.u8()?;
            ResponseBody::OpenOk {
                frames,
                dims,
                first_step,
                last_step,
                has_iatf: flags & 1 != 0,
                has_classifier: flags & 2 != 0,
                tracks: r.u32()?,
            }
        }
        1 => {
            let voxels = r.u64()?;
            let n = r.u32()? as usize;
            let mut words = Vec::new();
            for _ in 0..n {
                words.push(r.u64()?);
            }
            ResponseBody::ClassifyOk { voxels, words }
        }
        2 => {
            let n = r.u32()? as usize;
            let mut voxels_per_frame = Vec::new();
            for _ in 0..n {
                voxels_per_frame.push(r.u32()?);
            }
            ResponseBody::TrackOk {
                voxels_per_frame,
                events: r.u32()?,
            }
        }
        3 => {
            let width = r.u32()?;
            let height = r.u32()?;
            let n = r.u32()? as usize;
            ResponseBody::RenderSliceOk {
                width,
                height,
                rgb: r.take(n)?.to_vec(),
            }
        }
        4 => ResponseBody::StatsOk(StatsReport {
            sent: r.u64()?,
            accepted: r.u64()?,
            rejected: r.u64()?,
            completed: r.u64()?,
            max_depth: r.u64()?,
            batch_jobs: r.u64()?,
            batch_cycles: r.u64()?,
            batch_rows: r.u64()?,
            evictions: r.u64()?,
            quota_evictions: r.u64()?,
            idle_evictions: r.u64()?,
        }),
        5 => ResponseBody::CloseOk,
        6 => ResponseBody::HelloOk {
            version: r.u32()?,
            max_pipeline: r.u32()?,
        },
        255 => ResponseBody::Err {
            code: ErrorCode::from_u8(r.u8()?)?,
            message: r.str()?,
        },
        other => return Err(ProtocolError::UnknownStatus(other)),
    };
    r.finish()?;
    Ok(Response {
        request_id,
        tenant,
        body,
    })
}

/// Decode a complete response frame.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
    decode_response_payload(decode_frame(MAGIC_RESPONSE, bytes)?)
}

/// Read one frame's raw bytes from a stream: header first (validating magic
/// and length before any payload allocation), then payload + CRC. Returns
/// `Ok(None)` on clean EOF at a frame boundary. CRC/semantic validation is
/// left to `decode_request`/`decode_response` on the returned bytes.
pub fn read_frame_bytes(
    r: &mut dyn std::io::Read,
    magic: [u8; 4],
) -> std::io::Result<Option<Result<Vec<u8>, ProtocolError>>> {
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Ok(Some(Err(ProtocolError::Truncated { need: 8, have: got }))),
            n => got += n,
        }
    }
    let found: [u8; 4] = header[0..4].try_into().unwrap();
    if found != magic {
        return Ok(Some(Err(ProtocolError::BadMagic { found })));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Ok(Some(Err(ProtocolError::Oversized {
            len,
            max: MAX_PAYLOAD,
        })));
    }
    let rest = len as usize + 4;
    let mut frame = Vec::with_capacity(8 + rest);
    frame.extend_from_slice(&header);
    frame.resize(8 + rest, 0);
    let mut got = 0;
    while got < rest {
        match r.read(&mut frame[8 + got..])? {
            0 => {
                return Ok(Some(Err(ProtocolError::Truncated {
                    need: 8 + rest,
                    have: 8 + got,
                })))
            }
            n => got += n,
        }
    }
    Ok(Some(Ok(frame)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request {
                request_id: 7,
                tenant: 1,
                verb: Verb::Open {
                    artifact: "a.ifet".into(),
                    data_dir: "/tmp/frames".into(),
                },
            },
            Request {
                request_id: 8,
                tenant: 2,
                verb: Verb::Classify { step: 3, tau: 0.5 },
            },
            Request {
                request_id: 9,
                tenant: 1,
                verb: Verb::Track {
                    criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
                    seeds: vec![(0, 3, 6, 6), (1, 4, 6, 6)],
                },
            },
            Request {
                request_id: 10,
                tenant: 3,
                verb: Verb::RenderSlice {
                    step: 2,
                    axis: Axis::Z,
                    k: 6,
                    adaptive: true,
                },
            },
            Request {
                request_id: 11,
                tenant: 3,
                verb: Verb::ReportStats,
            },
            Request {
                request_id: 12,
                tenant: 3,
                verb: Verb::Close,
            },
            Request {
                request_id: 13,
                tenant: 0,
                verb: Verb::Hello { max_pipeline: 8 },
            },
        ]
    }

    #[test]
    fn request_round_trips() {
        for req in sample_requests() {
            let wire = encode_request(&req);
            assert_eq!(decode_request(&wire).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        let bodies = vec![
            ResponseBody::OpenOk {
                frames: 16,
                dims: (12, 12, 12),
                first_step: 0,
                last_step: 15,
                has_iatf: true,
                has_classifier: false,
                tracks: 2,
            },
            ResponseBody::ClassifyOk {
                voxels: 42,
                words: vec![0xdead_beef, 0, u64::MAX],
            },
            ResponseBody::TrackOk {
                voxels_per_frame: vec![5, 9, 0],
                events: 3,
            },
            ResponseBody::RenderSliceOk {
                width: 2,
                height: 2,
                rgb: vec![0, 128, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            },
            ResponseBody::StatsOk(StatsReport {
                sent: 10,
                accepted: 8,
                rejected: 2,
                completed: 8,
                max_depth: 4,
                batch_jobs: 6,
                batch_cycles: 3,
                batch_rows: 10_368,
                evictions: 5,
                quota_evictions: 2,
                idle_evictions: 1,
            }),
            ResponseBody::CloseOk,
            ResponseBody::HelloOk {
                version: PROTOCOL_VERSION,
                max_pipeline: 8,
            },
            ResponseBody::Err {
                code: ErrorCode::Overloaded,
                message: "tenant 3 at in-flight bound 4".into(),
            },
        ];
        for body in bodies {
            let rsp = Response {
                request_id: 99,
                tenant: 3,
                body,
            };
            let wire = encode_response(&rsp);
            assert_eq!(decode_response(&wire).unwrap(), rsp);
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let req = sample_requests().remove(0);
        let mut wire = encode_request(&req);
        wire[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&wire),
            Err(ProtocolError::Oversized { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn stream_reader_matches_buffer_decoder() {
        let reqs = sample_requests();
        let mut stream = Vec::new();
        for r in &reqs {
            stream.extend_from_slice(&encode_request(r));
        }
        let mut cursor = std::io::Cursor::new(stream);
        for expect in &reqs {
            let frame = read_frame_bytes(&mut cursor, MAGIC_REQUEST)
                .unwrap()
                .expect("frame present")
                .expect("frame valid");
            assert_eq!(&decode_request(&frame).unwrap(), expect);
        }
        assert!(read_frame_bytes(&mut cursor, MAGIC_REQUEST)
            .unwrap()
            .is_none());
    }
}
