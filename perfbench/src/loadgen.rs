//! Open-loop pose generator and frame receiver.
//!
//! A phase offers poses at a fixed total rate to every session
//! round-robin: pose `k` of the phase is due at `start + k / rate`, no
//! matter when earlier frames came back. One sender thread writes the
//! poses as they fall due and one receiver thread waits on every
//! session's socket with epoll, reassembles and decodes the frames.
//! Latency runs from each pose's *scheduled* send time to its frame
//! being decoded, so a stall that delays sending is charged to every
//! pose it delays (no coordinated omission); the sender's own lateness
//! is reported beside it.

use crate::stats;
use bytes::Bytes;
use coterie_codec::{EncodedFrame, Encoder};
use coterie_net::wire::{FrameAssembler, WireMessage, PROTO_VERSION};
use coterie_server::service::{quality_from_wire, BASE_WIDTH};
use coterie_server::sys::{Epoll, EpollEvent, EPOLLIN};
use coterie_server::Server;
use coterie_telemetry::VSYNC_BUDGET_MS;
use coterie_world::{GameId, Vec2};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One pose of a route: where the player is and which way it looks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutePose {
    /// Game-clock time of the pose, ms.
    pub t_ms: f64,
    /// Ground position.
    pub pos: Vec2,
    /// Heading, radians.
    pub yaw: f64,
}

/// A connected session: a writer and a reader handle on one socket.
pub struct Client {
    writer: UnixStream,
    reader: UnixStream,
    asm: FrameAssembler,
    decoders: Vec<Encoder>,
    /// Next sequence number this session will send.
    next_seq: u64,
    /// Poses this session has sent over its lifetime.
    pub poses_sent: u64,
    /// Frames this session has received over its lifetime.
    pub frames_received: u64,
}

/// The width the server renders at a given quality scale.
pub fn expected_width(scale_pm: u16) -> u32 {
    (BASE_WIDTH * scale_pm as u32 / 1000).max(16)
}

/// Whether a frame's dimensions match its quality scale.
pub fn size_matches_scale(width: u32, height: u32, scale_pm: u16) -> bool {
    width == expected_width(scale_pm) && height == (width / 2).max(8)
}

/// What a frame told the client.
#[derive(Debug, Clone, Copy)]
struct FrameSeen {
    arrived: Instant,
    store_hit: bool,
    scale_pm: u16,
}

impl Client {
    /// Connects to the server at `path` and joins `room` of `game`.
    pub fn connect(path: &Path, game: GameId, room: u32, seed: u64) -> io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = writer.try_clone()?;
        let mut client = Client {
            writer,
            reader,
            asm: FrameAssembler::new(),
            decoders: decoders(),
            next_seq: 0,
            poses_sent: 0,
            frames_received: 0,
        };
        let hello = WireMessage::Hello {
            proto: PROTO_VERSION,
            game,
            room,
            seed,
        };
        client.writer.write_all(&hello.encode_frame())?;
        match client.read_blocking()? {
            WireMessage::Welcome { .. } => Ok(client),
            other => Err(io::Error::other(format!("expected Welcome, got {other:?}"))),
        }
    }

    /// Sends one pose and blocks until its frame is decoded; returns
    /// whether the frame passed every check.
    pub fn round_trip(&mut self, pose: RoutePose) -> io::Result<bool> {
        let seq = self.send_pose(pose)?;
        loop {
            match self.read_blocking()? {
                WireMessage::Frame {
                    seq: got,
                    width,
                    height,
                    quality,
                    scale_pm,
                    payload,
                    ..
                } => {
                    self.frames_received += 1;
                    let header = (width, height, quality, scale_pm);
                    let checked = check_frame(&self.decoders, header, payload, None);
                    return Ok(got == seq && checked.is_ok());
                }
                WireMessage::Degrade { .. } => {}
                other => return Err(io::Error::other(format!("expected Frame, got {other:?}"))),
            }
        }
    }

    /// Says `Bye` and waits for the server's `Goodbye`. Returns every
    /// frame the session received, those still in flight included.
    pub fn close(mut self) -> io::Result<u64> {
        self.writer.write_all(&WireMessage::Bye.encode_frame())?;
        loop {
            match self.read_blocking()? {
                WireMessage::Goodbye { .. } => return Ok(self.frames_received),
                WireMessage::Frame { .. } => self.frames_received += 1,
                WireMessage::Degrade { .. } => {}
                other => return Err(io::Error::other(format!("expected Goodbye, got {other:?}"))),
            }
        }
    }

    fn send_pose(&mut self, pose: RoutePose) -> io::Result<u64> {
        let seq = self.next_seq;
        let msg = WireMessage::Pose {
            seq,
            t_ms: pose.t_ms,
            x: pose.pos.x,
            z: pose.pos.z,
            yaw: pose.yaw,
        };
        self.writer.write_all(&msg.encode_frame())?;
        self.next_seq += 1;
        self.poses_sent += 1;
        Ok(seq)
    }

    fn read_blocking(&mut self) -> io::Result<WireMessage> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.asm.next_message() {
                Ok(Some(m)) => return Ok(m),
                Ok(None) => {}
                Err(e) => return Err(io::Error::other(format!("wire: {e:?}"))),
            }
            let n = self.reader.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.asm.push(&buf[..n]);
        }
    }
}

/// One decoder per wire quality code.
fn decoders() -> Vec<Encoder> {
    (0..3u8)
        .map(|q| Encoder::new(quality_from_wire(q)))
        .collect()
}

/// One open-loop phase.
#[derive(Debug, Clone)]
pub struct PhasePlan {
    /// Total offered pose rate across all sessions, poses/s.
    pub rate: f64,
    /// Poses each session sends.
    pub poses_per_session: usize,
    /// Time every call into the wire layer and the codec (the traced
    /// run's client-side layer numbers).
    pub detail: bool,
    /// Test hook: the sender sleeps this long before global pose
    /// `.0`, standing in for a stalled client.
    pub stall: Option<(usize, Duration)>,
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    /// Poses the schedule offered.
    pub scheduled: usize,
    /// Frames received.
    pub frames: usize,
    /// Pose→decoded-frame latency from the scheduled send time, ms,
    /// for every scheduled pose in schedule order; a pose whose frame
    /// never arrived counts from its due time to the end of the phase.
    pub by_pose_ms: Vec<f64>,
    /// Pose→decoded-frame time from the actual send, ms.
    pub rtt_ms: Vec<f64>,
    /// How late each pose left against its schedule, ms.
    pub lateness_ms: Vec<f64>,
    /// Scheduled poses whose frame decoded within the vsync budget.
    pub on_time: usize,
    /// Frames the server flagged as store hits.
    pub store_hits: usize,
    /// Sum of delivered frames' quality scales, per-mille.
    pub scale_pm_sum: u64,
    /// Socket bytes received.
    pub wire_bytes: u64,
    /// Degrade notices received.
    pub degrades: usize,
    /// Frames that failed a check (decode, sequence, size/scale).
    pub failures: usize,
    /// First few failure descriptions.
    pub failure_notes: Vec<String>,
    /// Median lateness of the last quarter of sent poses minus that of
    /// the first quarter, ms: positive and large when the generator
    /// falls further behind as the phase goes on.
    pub lateness_growth_ms: f64,
    /// Whether the phase was abandoned for lateness.
    pub aborted: bool,
    /// `WireMessage::encode_frame` time per pose, µs (detail only).
    pub pose_encode_us: Vec<f64>,
    /// Reassembly and parse time per received frame, µs (detail only).
    pub assemble_us: Vec<f64>,
    /// `Encoder::decode` time per frame, µs (detail only).
    pub decode_us: Vec<f64>,
}

impl PhaseResult {
    /// Share of scheduled poses whose frame decoded within budget.
    pub fn on_time_ratio(&self) -> f64 {
        self.on_time as f64 / self.scheduled.max(1) as f64
    }

    fn fail(&mut self, note: String) {
        self.failures += 1;
        if self.failure_notes.len() < 8 {
            self.failure_notes.push(note);
        }
    }
}

/// Runs one phase: `routes[s]` is session `s`'s route, replayed
/// cyclically from its current sequence number. The receiver reads
/// `server`'s frame-drop counter to know when every pose is accounted
/// for.
pub fn run_phase(
    clients: &mut [Client],
    routes: &[Vec<RoutePose>],
    plan: &PhasePlan,
    server: &Server,
) -> PhaseResult {
    let n = clients.len();
    assert!(n > 0 && routes.len() == n, "one route per session");
    assert!(plan.rate > 0.0, "rate must be positive");
    let total = n * plan.poses_per_session;
    let interval_ns = 1e9 / plan.rate;
    let first_seq: Vec<u64> = clients.iter().map(|c| c.next_seq).collect();
    let drops_before = server.stats().frames_dropped;

    // Split every client into its writer (sender thread) and reader
    // (receiver thread) halves for the phase.
    let mut writers: Vec<(&mut UnixStream, &mut u64, &mut u64)> = Vec::with_capacity(n);
    let mut readers: Vec<(&mut UnixStream, &mut FrameAssembler, &mut u64)> = Vec::with_capacity(n);
    for c in clients.iter_mut() {
        writers.push((&mut c.writer, &mut c.next_seq, &mut c.poses_sent));
        readers.push((&mut c.reader, &mut c.asm, &mut c.frames_received));
    }

    let start = Instant::now() + Duration::from_millis(2);
    let sent_flag = std::sync::atomic::AtomicUsize::new(usize::MAX);

    let (send_side, recv_side) = std::thread::scope(|scope| {
        let sent_flag = &sent_flag;
        let first_seq = &first_seq;
        let sender = scope.spawn(move || {
            // Send times of the poses sent, which are a prefix of the
            // schedule: the sender stops at the first abandoned pose.
            let mut sent_at: Vec<Instant> = Vec::with_capacity(total);
            let mut encode_us = Vec::new();
            let mut aborted = false;
            for k in 0..total {
                if let Some((at, dur)) = plan.stall {
                    if at == k {
                        std::thread::sleep(dur);
                    }
                }
                let due = start + Duration::from_nanos((k as f64 * interval_ns) as u64);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                } else if (now - due).as_secs_f64() * 1000.0 > ABORT_LATENESS_MS {
                    aborted = true;
                    break;
                }
                let s = k % n;
                let i = k / n;
                let (w, next_seq, poses_sent) = &mut writers[s];
                let seq = first_seq[s] + i as u64;
                let route = &routes[s];
                let pose = route[(seq as usize) % route.len()];
                let msg = WireMessage::Pose {
                    seq,
                    t_ms: pose.t_ms,
                    x: pose.pos.x,
                    z: pose.pos.z,
                    yaw: pose.yaw,
                };
                let bytes = if plan.detail {
                    let t = Instant::now();
                    let b = msg.encode_frame();
                    encode_us.push(t.elapsed().as_secs_f64() * 1e6);
                    b
                } else {
                    msg.encode_frame()
                };
                let at = Instant::now();
                if w.write_all(&bytes).is_err() {
                    aborted = true;
                    break;
                }
                sent_at.push(at);
                **next_seq = seq + 1;
                **poses_sent += 1;
            }
            sent_flag.store(sent_at.len(), std::sync::atomic::Ordering::SeqCst);
            (sent_at, encode_us, aborted)
        });
        let receiver = scope.spawn(move || {
            receive(
                &mut readers,
                first_seq,
                plan,
                total,
                sent_flag,
                server,
                drops_before,
            )
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("receiver thread panicked"),
        )
    });

    let (sent_at, pose_encode_us, aborted) = send_side;
    let (seen, mut result) = recv_side;
    result.scheduled = total;
    result.aborted = aborted;
    result.pose_encode_us = pose_encode_us;
    let end = Instant::now();
    for (k, seen) in seen.iter().enumerate() {
        let due = start + Duration::from_nanos((k as f64 * interval_ns) as u64);
        let sent = sent_at.get(k);
        if let Some(sent) = sent {
            let late = sent.saturating_duration_since(due);
            result.lateness_ms.push(late.as_secs_f64() * 1000.0);
        }
        let Some(f) = seen else {
            let never = end.saturating_duration_since(due);
            result.by_pose_ms.push(never.as_secs_f64() * 1000.0);
            continue;
        };
        let latency = f.arrived.saturating_duration_since(due).as_secs_f64() * 1000.0;
        result.by_pose_ms.push(latency);
        if let Some(sent) = sent {
            let rtt = f.arrived.saturating_duration_since(*sent);
            result.rtt_ms.push(rtt.as_secs_f64() * 1000.0);
        }
        if latency <= VSYNC_BUDGET_MS {
            result.on_time += 1;
        }
        if f.store_hit {
            result.store_hits += 1;
        }
        result.scale_pm_sum += f.scale_pm as u64;
    }
    let q = result.lateness_ms.len() / 4;
    if q > 0 {
        let first = stats::median(&result.lateness_ms[..q]);
        let last = stats::median(&result.lateness_ms[result.lateness_ms.len() - q..]);
        result.lateness_growth_ms = last - first;
    }
    result
}

/// The sender abandons a phase once it runs this late: a phase that
/// far behind has failed whatever the rest would show.
const ABORT_LATENESS_MS: f64 = 1000.0;

/// How long the receiver waits for stragglers once everything sent is
/// accounted for or the line goes quiet.
const QUIET: Duration = Duration::from_millis(300);

/// Hard cap on a phase's drain after the last pose was sent.
const DRAIN_CAP: Duration = Duration::from_secs(20);

#[allow(clippy::type_complexity)]
fn receive(
    readers: &mut [(&mut UnixStream, &mut FrameAssembler, &mut u64)],
    first_seq: &[u64],
    plan: &PhasePlan,
    total: usize,
    sent_flag: &std::sync::atomic::AtomicUsize,
    server: &Server,
    drops_before: u64,
) -> (Vec<Option<FrameSeen>>, PhaseResult) {
    let n = readers.len();
    let mut result = PhaseResult::default();
    let mut seen: Vec<Option<FrameSeen>> = vec![None; total];
    let epoll = Epoll::new().expect("epoll instance");
    for (s, (r, _, _)) in readers.iter().enumerate() {
        epoll
            .add(r.as_raw_fd(), EPOLLIN, s as u64)
            .expect("register session socket");
    }
    let mut events = [EpollEvent::zeroed(); 8];
    let mut buf = vec![0u8; 64 * 1024];
    let decoders = decoders();
    let mut received = 0usize;
    let mut last_data = Instant::now();
    let mut sender_done_at: Option<Instant> = None;
    loop {
        let ready = epoll.wait(&mut events, 5).unwrap_or(0);
        for ev in &events[..ready] {
            let s = ev.token() as usize;
            let (r, asm, frames_received) = &mut readers[s];
            let got = match r.read(&mut buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Ok(0) | Err(_) => {
                    result.fail(format!("session {s}: connection lost mid-phase"));
                    epoll.delete(r.as_raw_fd()).ok();
                    continue;
                }
                Ok(got) => got,
            };
            last_data = Instant::now();
            result.wire_bytes += got as u64;
            let t_push = plan.detail.then(Instant::now);
            asm.push(&buf[..got]);
            let push_us = t_push.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
            let mut frame_parse_us: Vec<f64> = Vec::new();
            loop {
                let t_parse = plan.detail.then(Instant::now);
                let msg = match asm.next_message() {
                    Ok(Some(m)) => m,
                    Ok(None) => break,
                    Err(e) => {
                        result.fail(format!("session {s}: wire error {e:?}"));
                        break;
                    }
                };
                match msg {
                    WireMessage::Frame {
                        seq,
                        width,
                        height,
                        quality,
                        store_hit,
                        scale_pm,
                        payload,
                    } => {
                        if let Some(t) = t_parse {
                            frame_parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        **frames_received += 1;
                        received += 1;
                        let decode_us = plan.detail.then_some(&mut result.decode_us);
                        let header = (width, height, quality, scale_pm);
                        let checked = check_frame(&decoders, header, payload, decode_us);
                        let arrived = Instant::now();
                        // Pose `k` of the phase is pose `local` of session
                        // `s`, where `k = local * n + s`.
                        let k = seq
                            .checked_sub(first_seq[s])
                            .and_then(|local| usize::try_from(local).ok())
                            .and_then(|local| local.checked_mul(n))
                            .map(|base| base + s)
                            .filter(|&k| k < total);
                        let Some(k) = k else {
                            result.fail(format!("session {s}: frame seq {seq} was not sent"));
                            continue;
                        };
                        if seen[k].is_some() {
                            result.fail(format!("session {s}: duplicate frame seq {seq}"));
                            continue;
                        }
                        if let Err(e) = checked {
                            result.fail(format!("session {s}: frame seq {seq}: {e}"));
                            continue;
                        }
                        result.frames += 1;
                        seen[k] = Some(FrameSeen {
                            arrived,
                            store_hit,
                            scale_pm,
                        });
                    }
                    WireMessage::Degrade { .. } => result.degrades += 1,
                    other => result.fail(format!("session {s}: unexpected {other:?}")),
                }
            }
            // The read's push cost is shared by the frames it completed.
            let share = push_us / frame_parse_us.len().max(1) as f64;
            result
                .assemble_us
                .extend(frame_parse_us.iter().map(|parse| parse + share));
        }
        let sent = sent_flag.load(std::sync::atomic::Ordering::SeqCst);
        if sent != usize::MAX {
            let done_at = *sender_done_at.get_or_insert_with(Instant::now);
            let dropped = server.stats().frames_dropped.saturating_sub(drops_before) as usize;
            if received + dropped >= sent {
                break;
            }
            if last_data.elapsed() > QUIET || done_at.elapsed() > DRAIN_CAP {
                break;
            }
        }
    }
    (seen, result)
}

/// Decodes one frame with the real codec and checks it against its
/// header: a known quality code, a size that matches its quality
/// scale, and a decode to exactly that size. With `decode_us`, the
/// decode time is appended to it.
fn check_frame(
    decoders: &[Encoder],
    (width, height, quality, scale_pm): (u32, u32, u8, u16),
    payload: Vec<u8>,
    decode_us: Option<&mut Vec<f64>>,
) -> Result<(), String> {
    let decoder = decoders
        .get(quality as usize)
        .ok_or(format!("unknown quality code {quality}"))?;
    if !size_matches_scale(width, height, scale_pm) {
        return Err(format!("{width}x{height} frame at scale {scale_pm}‰"));
    }
    let encoded = EncodedFrame {
        width,
        height,
        quality: quality_from_wire(quality),
        payload: Bytes::from_vec(payload),
    };
    let t = Instant::now();
    let decoded = decoder.decode(&encoded);
    if let Some(out) = decode_us {
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    match decoded {
        Ok(f) if f.width() == width && f.height() == height => Ok(()),
        Ok(f) => Err(format!(
            "decoded {}x{} from a {width}x{height} frame",
            f.width(),
            f.height()
        )),
        Err(e) => Err(format!("decode failed: {e:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_server::stream::Listener;
    use coterie_server::ServerConfig;
    use coterie_telemetry::TelemetrySink;

    fn test_server(tag: &str) -> (Server, std::path::PathBuf) {
        let dir = Path::new("target/perfbench-test");
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("{tag}-{}.sock", std::process::id()));
        let listener = Listener::bind_uds(&path).unwrap();
        let server =
            Server::start(listener, ServerConfig::default(), TelemetrySink::disabled()).unwrap();
        (server, path)
    }

    fn still_route(n: usize) -> Vec<RoutePose> {
        (0..n)
            .map(|i| RoutePose {
                t_ms: i as f64 * 16.7,
                pos: Vec2::new(10.0, 12.0),
                yaw: 0.0,
            })
            .collect()
    }

    #[test]
    fn latency_from_schedule_charges_an_injected_stall() {
        let (server, path) = test_server("stall");
        let mut clients = vec![Client::connect(&path, GameId::Fps, 0, 1).unwrap()];
        let routes = vec![still_route(8)];
        let stall = Duration::from_millis(120);
        let plan = PhasePlan {
            rate: 1000.0,
            poses_per_session: 300,
            detail: false,
            stall: Some((100, stall)),
        };
        let r = run_phase(&mut clients, &routes, &plan, &server);
        assert_eq!(r.failures, 0, "{:?}", r.failure_notes);
        assert_eq!(r.frames, 300);
        // Pose 100 left 120 ms late: its latency from the schedule
        // carries the whole stall, its round trip from the actual send
        // does not.
        assert!(r.by_pose_ms[100] >= 115.0, "latency {}", r.by_pose_ms[100]);
        assert!(r.rtt_ms[100] < 60.0, "rtt {}", r.rtt_ms[100]);
        assert!(r.lateness_ms[100] >= 115.0);
        // The poses queued behind it wait too, less and less as the
        // open-loop sender catches up with its schedule.
        assert!(r.by_pose_ms[150] >= 40.0, "latency {}", r.by_pose_ms[150]);
        assert!(r.by_pose_ms[50] < 60.0 && r.by_pose_ms[299] < 60.0);
        assert!(r.on_time_ratio() < 0.9);
        assert!(clients.pop().unwrap().close().is_ok());
        let stats = server.stop();
        assert_eq!(stats.poses, 300);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn frame_size_follows_the_quality_scale() {
        assert!(size_matches_scale(128, 64, 1000));
        assert!(size_matches_scale(96, 48, 750));
        assert!(size_matches_scale(16, 8, 100));
        assert!(!size_matches_scale(128, 64, 750));
        assert!(!size_matches_scale(96, 47, 750));
    }
}
