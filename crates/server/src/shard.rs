//! The shard coordinator: the inter-worker exchange plane of a
//! multi-process deployment.
//!
//! Each worker process runs one [`ShardCoordinator`] next to its
//! [`Server`](crate::server::Server). The coordinator owns blocking
//! client connections to every peer worker's listener (the same
//! listener the game clients use — peers introduce themselves with
//! [`WireMessage::ShardHello`] and the event loop parks them in
//! [`ConnState::ShardPeer`](crate::conn::ConnState)). On a short cadence
//! it drains the service core's share outbox — every frame this worker
//! rendered on a store miss — and ships each one to every peer as a
//! [`WireMessage::ShardFrame`]: identity plus encoded payload, so the
//! peer admits the frame itself into its own store and the next pose
//! near that position anywhere in the fleet is a hit without a render.
//!
//! Peer links are soft state: a send failure drops the link and the
//! next flush tick reconnects. Shares that found no live peer are
//! simply lost — the peer will render on miss exactly as it would have
//! without a coordinator, so the exchange plane can only ever *save*
//! GPU work, never corrupt state.

use crate::service::{quality_to_wire, ServiceCore, ShardShare};
use crate::stream::Endpoint;
use crate::stream::Stream;
use coterie_net::wire::{ShardEntry, WireMessage, PROTO_VERSION};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the coordinator drains the share outbox and pushes to
/// peers. Short enough that a peer's replay of the same trajectory a
/// beat later already hits.
const FLUSH_INTERVAL: Duration = Duration::from_millis(10);

/// Placement of one worker in the fleet.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// This worker's shard id.
    pub shard: u16,
    /// Total worker count the fleet was provisioned with.
    pub shards: u16,
    /// Exchange endpoints of the peer workers (everyone but this one).
    pub peers: Vec<Endpoint>,
}

/// Coordinator counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCoordStats {
    /// Frame messages shipped (each peer delivery counted once).
    pub frames_out: u64,
    /// Wire bytes shipped.
    pub bytes_out: u64,
    /// Sends that failed and dropped a peer link (reconnected on the
    /// next flush tick).
    pub link_failures: u64,
}

struct CoordShared {
    stop: AtomicBool,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    link_failures: AtomicU64,
}

/// A running exchange thread; [`ShardCoordinator::stop`] (or drop)
/// flushes the tail and joins it.
pub struct ShardCoordinator {
    shared: Arc<CoordShared>,
    handle: Option<JoinHandle<()>>,
}

impl ShardCoordinator {
    /// Enables share queueing on `service` and starts the exchange
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if the coordinator thread cannot be spawned.
    pub fn start(service: Arc<ServiceCore>, plan: ShardPlan) -> ShardCoordinator {
        service.enable_shard_sharing();
        let shared = Arc::new(CoordShared {
            stop: AtomicBool::new(false),
            frames_out: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            link_failures: AtomicU64::new(0),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("coterie-shard-{}", plan.shard))
            .spawn(move || coordinator_loop(&service, &plan, &thread_shared))
            .expect("spawn shard coordinator");
        ShardCoordinator {
            shared,
            handle: Some(handle),
        }
    }

    /// A live counter snapshot.
    pub fn stats(&self) -> ShardCoordStats {
        ShardCoordStats {
            frames_out: self.shared.frames_out.load(Ordering::Relaxed),
            bytes_out: self.shared.bytes_out.load(Ordering::Relaxed),
            link_failures: self.shared.link_failures.load(Ordering::Relaxed),
        }
    }

    /// Signals the thread, waits for its final flush, and returns the
    /// totals.
    pub fn stop(mut self) -> ShardCoordStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.stats()
    }
}

impl Drop for ShardCoordinator {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

struct PeerLink {
    endpoint: Endpoint,
    stream: Option<Stream>,
}

fn coordinator_loop(service: &ServiceCore, plan: &ShardPlan, shared: &CoordShared) {
    let mut links: Vec<PeerLink> = plan
        .peers
        .iter()
        .map(|endpoint| PeerLink {
            endpoint: endpoint.clone(),
            stream: None,
        })
        .collect();
    let hello = WireMessage::ShardHello {
        proto: PROTO_VERSION,
        shard: plan.shard,
        shards: plan.shards,
        epoch: 0,
    }
    .encode_frame();
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        flush_once(service, &mut links, &hello, shared, plan.shard);
        if stopping {
            break;
        }
        std::thread::sleep(FLUSH_INTERVAL);
    }
    for link in &mut links {
        if let Some(stream) = &mut link.stream {
            let _ = stream.write_all(&WireMessage::Bye.encode_frame());
        }
    }
}

/// One flush tick: reconnect dead links, drain the outbox, fan each
/// share out to every live peer.
fn flush_once(
    service: &ServiceCore,
    links: &mut [PeerLink],
    hello: &[u8],
    shared: &CoordShared,
    shard: u16,
) {
    for link in links.iter_mut() {
        ensure_connected(link, hello);
    }
    let shares = service.drain_shard_shares();
    if shares.is_empty() {
        return;
    }
    let frames: Vec<Vec<u8>> = shares.iter().map(|s| encode_share(shard, s)).collect();
    for link in links.iter_mut() {
        let Some(stream) = &mut link.stream else {
            continue;
        };
        for frame in &frames {
            if stream.write_all(frame).is_err() {
                shared.link_failures.fetch_add(1, Ordering::Relaxed);
                link.stream = None;
                break;
            }
            shared.frames_out.fetch_add(1, Ordering::Relaxed);
            shared
                .bytes_out
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
    }
}

fn ensure_connected(link: &mut PeerLink, hello: &[u8]) {
    if link.stream.is_some() {
        return;
    }
    if let Ok(mut stream) = link.endpoint.connect() {
        if stream.write_all(hello).is_ok() {
            link.stream = Some(stream);
        }
    }
}

/// Converts a drained share into its on-the-wire frame.
fn encode_share(shard: u16, s: &ShardShare) -> Vec<u8> {
    WireMessage::ShardFrame {
        shard,
        entry: ShardEntry {
            game: s.game,
            grid_ix: s.meta.grid.ix,
            grid_iz: s.meta.grid.iz,
            pos_x: s.meta.pos.x,
            pos_z: s.meta.pos.z,
            leaf: s.meta.leaf.0,
            near_hash: s.meta.near_hash,
            bytes: s.encoded.size_bytes() as u64,
            stamp: 0,
            value: 0.0,
        },
        width: s.encoded.width,
        height: s.encoded.height,
        quality: quality_to_wire(s.encoded.quality),
        scale_pm: s.scale_pm,
        payload: s.encoded.payload.to_vec(),
    }
    .encode_frame()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coterie_net::wire::FrameAssembler;
    use coterie_telemetry::TelemetrySink;
    use coterie_world::{GameId, Vec2};

    #[test]
    fn encoded_share_round_trips_through_the_wire() {
        let core = ServiceCore::new(16 << 20, 42, TelemetrySink::disabled());
        core.enable_shard_sharing();
        core.join(GameId::Fps, 0);
        let reply = core.frame_for(GameId::Fps, 0, Vec2::new(3.0, 4.0), 0);
        let shares = core.drain_shard_shares();
        assert_eq!(shares.len(), 1);

        let bytes = encode_share(1, &shares[0]);
        let mut asm = FrameAssembler::new();
        asm.push(&bytes);
        let msg = asm.next_message().expect("decode").expect("complete");
        match msg {
            WireMessage::ShardFrame {
                shard,
                entry,
                payload,
                scale_pm,
                ..
            } => {
                assert_eq!(shard, 1);
                assert_eq!(entry.game, GameId::Fps);
                assert_eq!(scale_pm, 1000);
                assert_eq!(payload, reply.encoded.payload.to_vec());
            }
            other => panic!("unexpected message {other:?}"),
        }
    }
}
