//! The serving core: everything between a decoded `Pose` and an
//! encoded `Frame`, shared by all worker threads.
//!
//! [`ServiceCore`] hosts the `coterie-serve` cross-room frame store
//! behind the wire protocol: a [`LocalStore`] that owns the encoded
//! frames answers the paper's three-criteria similarity lookup
//! (session-id-free, so any room's frames serve any room of the same
//! game), and a per-room quality controller converts egress-queue drops
//! into degrade notices — the paper's "ship smaller frames until the
//! link recovers" loop, driven by *measured* socket backpressure instead
//! of a simulated budget.
//!
//! A store hit hands back the cached encoded frame; a miss renders,
//! encodes and inserts it. So `store_hits` counts exactly the replies
//! that rendered nothing. The room's quality scale is folded into the
//! near-set hash the store sees, so a hit never returns a frame at
//! another scale. There is no speculation on this plane: the
//! simulator's pre-render farm models frames without pixels, and a
//! store that serves its payloads has no use for those.
//!
//! Frames are produced by a deterministic procedural renderer (a cheap
//! smooth luma field seeded by the grid point) and encoded with the
//! real `coterie-codec` transform — real serialization cost on the
//! server, real decode cost on the client, without dragging the full
//! panorama renderer into the per-request path.

use coterie_codec::{EncodedFrame, Encoder, Quality};
use coterie_core::cache::{CacheQuery, FrameMeta};
use coterie_frame::LumaFrame;
use coterie_serve::{LocalStore, StoreConfig};
use coterie_telemetry::{Stage, TelemetrySink, TrackId, SERVE_PID, VSYNC_BUDGET_MS};
use coterie_world::{GameId, GameSpec, GridPoint, LeafId, Scene, Vec2};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Consecutive dropped frames on a room before its scale degrades.
pub const DEGRADE_AFTER_DROPS: u32 = 4;
/// Consecutive clean deliveries before a degraded room recovers a step.
pub const RECOVER_AFTER_CLEAN: u32 = 64;
/// Multiplicative degrade step, per-mille scale.
pub const DEGRADE_STEP: f64 = 0.75;
/// Multiplicative recovery step.
pub const RECOVER_STEP: f64 = 1.15;
/// Floor the controller never degrades below, per-mille.
pub const MIN_SCALE_PM: u16 = 250;

/// Room size the affinity placement policy packs up to — the paper's
/// four-player sessions. Rooms at or past this are not affinity
/// targets (the requested room is honored instead).
pub const AFFINITY_ROOM_CAP: u32 = 4;

/// Base far-BE frame width at full scale, px. Height is half (the
/// far-field band of an equirect panorama).
pub const BASE_WIDTH: u32 = 128;

/// Bound on the inter-shard share outbox. A worker with no coordinator
/// attached never queues; with one attached, a stalled peer link sheds
/// the oldest shares first (they are the most likely to have been
/// rendered by the peer itself by now).
const SHARD_OUTBOX_ENTRIES: usize = 1024;

/// Per-game world state, built lazily on first join.
struct World {
    scene: Scene,
    spec: GameSpec,
    /// Similarity threshold for store lookups, meters.
    dist_thresh: f64,
    /// Near-set radius fed to criterion 3's hash, meters.
    near_radius: f64,
}

/// Per-room controller state.
struct RoomState {
    next_player: u32,
    players: u32,
    scale_pm: u16,
    drop_streak: u32,
    clean_streak: u32,
    /// Last scale that survived a full clean streak.
    last_stable_pm: u16,
    /// Recovery never climbs past this; lowered to `last_stable_pm`
    /// when a higher scale degrades, so the controller converges on the
    /// highest sustainable scale instead of ping-ponging across it.
    /// Sticky for the room's lifetime (rooms reset when they empty).
    ceiling_pm: u16,
}

/// The result of serving one pose.
pub struct FrameReply {
    /// The encoded far-BE frame.
    pub encoded: Arc<EncodedFrame>,
    /// Whether the frame came from the store, with no render.
    pub store_hit: bool,
    /// The room's current quality scale, per-mille.
    pub scale_pm: u16,
}

/// Aggregate service counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Poses served with a frame reply.
    pub frames_served: u64,
    /// Replies answered from the store, with no render.
    pub store_hits: u64,
    /// Replies that rendered + encoded on demand.
    pub store_misses: u64,
    /// Degrade / recover notices generated.
    pub scale_changes: u64,
    /// Freshly rendered frames queued for inter-shard sharing.
    pub shard_frames_shared: u64,
    /// Peer-rendered frames applied into the local store.
    pub shard_frames_applied: u64,
}

/// One freshly rendered frame queued for the shard coordinator to ship
/// to peer workers: everything a peer needs to admit the frame into its
/// own store without re-rendering.
#[derive(Clone)]
pub struct ShardShare {
    /// Game the frame belongs to.
    pub game: GameId,
    /// Frame identity (grid point, position, leaf, near set), without
    /// the scale folded in.
    pub meta: FrameMeta,
    /// The encoded payload, shared with the local store.
    pub encoded: Arc<EncodedFrame>,
    /// Scale the frame was rendered at, per-mille.
    pub scale_pm: u16,
}

/// Shared serving state; one per server, `Arc`-shared across workers.
pub struct ServiceCore {
    worlds: Mutex<HashMap<GameId, Arc<World>>>,
    store: LocalStore<Arc<EncodedFrame>>,
    rooms: Mutex<HashMap<(GameId, u32), RoomState>>,
    stats: Mutex<ServiceStats>,
    shard_outbox: Mutex<ShardOutbox>,
    encoder: Encoder,
    telemetry: TelemetrySink,
    world_seed: u64,
}

/// Inter-shard share queue; disabled (and empty) until a coordinator
/// calls [`ServiceCore::enable_shard_sharing`].
struct ShardOutbox {
    enabled: bool,
    queue: VecDeque<ShardShare>,
}

impl ServiceCore {
    /// A core with the given store budget and telemetry sink (pass a
    /// disabled sink for untraced runs).
    pub fn new(store_bytes: u64, world_seed: u64, telemetry: TelemetrySink) -> ServiceCore {
        ServiceCore {
            worlds: Mutex::new(HashMap::new()),
            store: LocalStore::new(StoreConfig {
                capacity_bytes: store_bytes,
                ..StoreConfig::default()
            }),
            rooms: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServiceStats::default()),
            shard_outbox: Mutex::new(ShardOutbox {
                enabled: false,
                queue: VecDeque::new(),
            }),
            encoder: Encoder::new(Quality::CRF25),
            telemetry,
            world_seed,
        }
    }

    /// The frame store (occupancy gauges, hit-ratio reporting).
    pub fn store(&self) -> &LocalStore<Arc<EncodedFrame>> {
        &self.store
    }

    /// Starts queueing freshly rendered frames for a shard coordinator
    /// to ship to peer workers.
    pub fn enable_shard_sharing(&self) {
        self.shard_outbox.lock().enabled = true;
    }

    /// Drains the queued shard shares (coordinator-side; empty unless
    /// [`ServiceCore::enable_shard_sharing`] was called).
    pub fn drain_shard_shares(&self) -> Vec<ShardShare> {
        self.shard_outbox.lock().queue.drain(..).collect()
    }

    /// Admits a peer worker's rendered frame into the store, so the
    /// next local pose near it is a hit without a render. Returns
    /// whether the store admitted it.
    pub fn apply_shard_frame(
        &self,
        game: GameId,
        meta: FrameMeta,
        encoded: Arc<EncodedFrame>,
        scale_pm: u16,
    ) -> bool {
        let admitted = self.admit(game, meta, scale_pm, encoded);
        if admitted {
            self.stats.lock().shard_frames_applied += 1;
        }
        admitted
    }

    /// Inserts a frame rendered at `scale_pm` into the store under its
    /// scaled identity; the one insert path for local renders and peer
    /// frames alike.
    fn admit(
        &self,
        game: GameId,
        meta: FrameMeta,
        scale_pm: u16,
        encoded: Arc<EncodedFrame>,
    ) -> bool {
        let bytes = encoded.size_bytes() as u64;
        self.store
            .insert(game, scaled(meta, scale_pm), encoded, bytes)
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> ServiceStats {
        *self.stats.lock()
    }

    /// The vsync budget advertised in `Welcome`.
    pub fn budget_ms(&self) -> f64 {
        VSYNC_BUDGET_MS
    }

    fn world(&self, game: GameId) -> Arc<World> {
        let mut worlds = self.worlds.lock();
        worlds
            .entry(game)
            .or_insert_with(|| {
                let spec = GameSpec::for_game(game);
                let scene = spec.build_scene(self.world_seed);
                let spacing = scene.grid().spacing();
                Arc::new(World {
                    scene,
                    spec,
                    dist_thresh: spacing * 0.75,
                    near_radius: spacing * 2.0,
                })
            })
            .clone()
    }

    /// The game's spec and scene, for trajectory-driven tooling that
    /// wants to share the server's lazily-built world.
    pub fn world_handles(&self, game: GameId) -> (GameSpec, Arc<Scene>) {
        // The load generator builds its own scene from the same seed;
        // this accessor exists for in-process harnesses.
        let w = self.world(game);
        (
            w.spec.clone(),
            Arc::new(w.spec.build_scene(self.world_seed)),
        )
    }

    /// Admits a player into `(game, room)` and returns its player id
    /// and the room's current scale.
    pub fn join(&self, game: GameId, room: u32) -> (u32, u16) {
        // Touch the world so first-pose latency doesn't pay scene
        // construction.
        let _ = self.world(game);
        let mut rooms = self.rooms.lock();
        let state = rooms.entry((game, room)).or_insert(RoomState {
            next_player: 0,
            players: 0,
            scale_pm: 1000,
            drop_streak: 0,
            clean_streak: 0,
            last_stable_pm: 1000,
            ceiling_pm: 1000,
        });
        let player = state.next_player;
        state.next_player += 1;
        state.players += 1;
        (player, state.scale_pm)
    }

    /// Affinity placement: the fullest same-game room still under
    /// [`AFFINITY_ROOM_CAP`] players, falling back to the requested
    /// room when none qualifies. Packing players of the same game into
    /// shared rooms is the serving-plane analogue of the fleet
    /// matchmaker's overlap scoring — more co-located players means
    /// more three-criteria store hits. Ties break toward the lowest
    /// room id, so placement is deterministic despite map iteration.
    pub fn place_affinity(&self, game: GameId, requested: u32) -> u32 {
        let rooms = self.rooms.lock();
        rooms
            .iter()
            .filter(|((g, _), state)| *g == game && state.players < AFFINITY_ROOM_CAP)
            .max_by_key(|((_, room), state)| (state.players, std::cmp::Reverse(*room)))
            .map(|((_, room), _)| *room)
            .unwrap_or(requested)
    }

    /// Removes a player from its room; empty rooms reset their
    /// controller on the next join.
    pub fn leave(&self, game: GameId, room: u32) {
        let mut rooms = self.rooms.lock();
        if let Some(state) = rooms.get_mut(&(game, room)) {
            state.players = state.players.saturating_sub(1);
            if state.players == 0 {
                rooms.remove(&(game, room));
            }
        }
    }

    /// Feeds the room's quality controller one delivery outcome.
    /// Returns the new scale if it changed (a `Degrade` notice should
    /// be sent to the room's connections).
    ///
    /// Recovery is ceiling-bounded: a full clean streak marks the
    /// current scale stable, and a degrade at a higher scale lowers the
    /// recovery ceiling to that last stable level. Without the ceiling
    /// the controller re-probes a known-bad scale every
    /// [`RECOVER_AFTER_CLEAN`] frames and oscillates degrade/recover
    /// forever on a link whose capacity sits between two steps.
    pub fn note_delivery(&self, game: GameId, room: u32, dropped: bool) -> Option<u16> {
        let mut rooms = self.rooms.lock();
        let state = rooms.get_mut(&(game, room))?;
        if dropped {
            state.drop_streak += 1;
            state.clean_streak = 0;
            if state.drop_streak >= DEGRADE_AFTER_DROPS {
                state.drop_streak = 0;
                // This scale drops frames; cap future recovery at the
                // last level that demonstrably did not.
                if state.last_stable_pm < state.scale_pm {
                    state.ceiling_pm = state.last_stable_pm;
                }
                let next = ((state.scale_pm as f64 * DEGRADE_STEP) as u16).max(MIN_SCALE_PM);
                if next != state.scale_pm {
                    state.scale_pm = next;
                    self.stats.lock().scale_changes += 1;
                    return Some(next);
                }
            }
        } else {
            state.clean_streak += 1;
            state.drop_streak = 0;
            if state.clean_streak >= RECOVER_AFTER_CLEAN {
                state.clean_streak = 0;
                state.last_stable_pm = state.scale_pm;
                let next = ((state.scale_pm as f64 * RECOVER_STEP) as u16)
                    .min(1000)
                    .min(state.ceiling_pm);
                if next > state.scale_pm {
                    state.scale_pm = next;
                    self.stats.lock().scale_changes += 1;
                    return Some(next);
                }
            }
        }
        None
    }

    /// Serves one pose: a store lookup, then (on miss) a procedural
    /// render + real encode whose result is inserted into the store.
    /// `worker` is the trace track the spans land on.
    pub fn frame_for(&self, game: GameId, room: u32, pos: Vec2, worker: u32) -> FrameReply {
        let world = self.world(game);
        let grid = world.scene.grid().snap(pos);
        let gpos = world.scene.grid().position(grid);
        let meta = FrameMeta {
            grid,
            pos: gpos,
            leaf: leaf_of(grid),
            near_hash: world.scene.near_set_hash(gpos, world.near_radius),
        };
        let scale_pm = {
            let rooms = self.rooms.lock();
            rooms.get(&(game, room)).map(|r| r.scale_pm).unwrap_or(1000)
        };

        let track = TrackId {
            pid: SERVE_PID,
            tid: worker,
        };
        let key = scaled(meta, scale_pm);
        let query = CacheQuery {
            grid,
            pos: gpos,
            leaf: key.leaf,
            near_hash: key.near_hash,
            dist_thresh: world.dist_thresh,
        };

        let t0 = self.telemetry.now_ms();
        let cached = self.store.lookup(game, &query);
        self.telemetry.span(
            track,
            Stage::CacheLookup,
            "store-lookup",
            t0,
            self.telemetry.now_ms() - t0,
            0,
        );

        let store_hit = cached.is_some();
        let encoded = match cached {
            Some(e) => e,
            None => {
                let t1 = self.telemetry.now_ms();
                let luma = procedural_far_frame(grid, meta.near_hash, scale_pm);
                self.telemetry.span(
                    track,
                    Stage::Render,
                    "far-render",
                    t1,
                    self.telemetry.now_ms() - t1,
                    0,
                );
                let t2 = self.telemetry.now_ms();
                let encoded = Arc::new(self.encoder.encode(&luma));
                self.telemetry.span(
                    track,
                    Stage::Encode,
                    "far-encode",
                    t2,
                    self.telemetry.now_ms() - t2,
                    0,
                );
                self.admit(game, meta, scale_pm, encoded.clone());
                let mut outbox = self.shard_outbox.lock();
                if outbox.enabled {
                    if outbox.queue.len() >= SHARD_OUTBOX_ENTRIES {
                        outbox.queue.pop_front();
                    }
                    outbox.queue.push_back(ShardShare {
                        game,
                        meta,
                        encoded: encoded.clone(),
                        scale_pm,
                    });
                    self.stats.lock().shard_frames_shared += 1;
                }
                encoded
            }
        };

        {
            let mut stats = self.stats.lock();
            stats.frames_served += 1;
            if store_hit {
                stats.store_hits += 1;
            } else {
                stats.store_misses += 1;
            }
        }
        FrameReply {
            encoded,
            store_hit,
            scale_pm,
        }
    }

    /// A no-op, kept so harnesses that drive the core pose by pose
    /// (the `perfbench` replay calls it between poses) keep building.
    /// The socket plane has nothing to sweep between polls: it renders
    /// no speculative frames, because a frame in its store must carry
    /// the payload a hit serves.
    pub fn maintain(&self, _worker: u32) {}

    /// The telemetry sink the core records into.
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.telemetry
    }
}

/// A frame's store identity at `scale_pm`: the scale is folded into the
/// near-set hash, and criterion 3 matches hashes exactly, so frames
/// rendered at different scales never serve each other.
fn scaled(meta: FrameMeta, scale_pm: u16) -> FrameMeta {
    FrameMeta {
        near_hash: meta.near_hash ^ u64::from(scale_pm).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..meta
    }
}

/// Uniform leaf tiling: 8×8 grid-point regions. The single-session
/// pipeline derives leaves from the calibrated cutoff quadtree; the
/// serving plane approximates that with a fixed tiling, which preserves
/// the store's criterion-2 semantics (same-leaf requirement) without
/// running calibration at accept time.
fn leaf_of(grid: GridPoint) -> LeafId {
    let lx = (grid.ix >> 3) as u32;
    let lz = (grid.iz >> 3) as u32;
    LeafId((lx & 0xFFFF) << 16 | (lz & 0xFFFF))
}

/// Deterministic smooth far-field luma for a grid point. Phase is
/// seeded by the grid key and the near-set hash so different points
/// produce different (but compressible) content, and the same point
/// always reproduces byte-identical frames.
fn procedural_far_frame(grid: GridPoint, near_hash: u64, scale_pm: u16) -> LumaFrame {
    let width = (BASE_WIDTH * scale_pm as u32 / 1000).max(16);
    let height = (width / 2).max(8);
    let seed = grid.key() ^ near_hash;
    let p1 = (seed & 0xFFFF) as f32 / 65536.0;
    let p2 = ((seed >> 16) & 0xFFFF) as f32 / 65536.0;
    LumaFrame::from_fn(width, height, |x, y| {
        let fx = x as f32 / width as f32;
        let fy = y as f32 / height as f32;
        (0.5 + 0.28 * ((fx * 7.0 + p1 * 6.0).sin() * (fy * 5.0 - p2 * 4.0).cos())
            + 0.12 * ((fx * 23.0 - p2 * 11.0).cos() * (fy * 17.0 + p1 * 9.0).sin()))
        .clamp(0.0, 1.0)
    })
}

/// Maps a codec quality to its wire code.
pub fn quality_to_wire(q: Quality) -> u8 {
    match q {
        Quality::CRF18 => 0,
        Quality::CRF25 => 1,
        Quality::CRF32 => 2,
    }
}

/// Maps a wire code back to a codec quality.
pub fn quality_from_wire(code: u8) -> Quality {
    match code {
        0 => Quality::CRF18,
        2 => Quality::CRF32,
        _ => Quality::CRF25,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> ServiceCore {
        ServiceCore::new(64 << 20, 42, TelemetrySink::disabled())
    }

    #[test]
    fn join_assigns_monotonic_players_and_leave_clears_room() {
        let c = core();
        let (p0, s0) = c.join(GameId::VikingVillage, 0);
        let (p1, _) = c.join(GameId::VikingVillage, 0);
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(s0, 1000);
        c.leave(GameId::VikingVillage, 0);
        c.leave(GameId::VikingVillage, 0);
        // Room reset: a new join starts at player 0 again.
        let (p, _) = c.join(GameId::VikingVillage, 0);
        assert_eq!(p, 0);
    }

    #[test]
    fn affinity_packs_the_fullest_room_under_the_cap() {
        let c = core();
        // Room 7 has two players, room 2 has one; a newcomer asking for
        // room 99 should pack into room 7 (fullest under the cap).
        c.join(GameId::Fps, 7);
        c.join(GameId::Fps, 7);
        c.join(GameId::Fps, 2);
        assert_eq!(c.place_affinity(GameId::Fps, 99), 7);
        // Fill room 7 to the cap; the next placement spills to room 2.
        c.join(GameId::Fps, 7);
        c.join(GameId::Fps, 7);
        assert_eq!(c.place_affinity(GameId::Fps, 99), 2);
        // Other games' rooms are invisible to placement.
        assert_eq!(c.place_affinity(GameId::VikingVillage, 5), 5);
    }

    #[test]
    fn repeated_pose_hits_the_store() {
        let c = core();
        c.join(GameId::Fps, 3);
        let pos = Vec2::new(10.0, 12.0);
        let first = c.frame_for(GameId::Fps, 3, pos, 0);
        assert!(!first.store_hit);
        let second = c.frame_for(GameId::Fps, 3, pos, 0);
        assert!(second.store_hit);
        assert_eq!(first.encoded.payload, second.encoded.payload);
        let stats = c.stats();
        assert_eq!(stats.frames_served, 2);
        assert_eq!(stats.store_hits, 1);
    }

    #[test]
    fn drops_degrade_and_clean_runs_recover() {
        let c = core();
        c.join(GameId::Fps, 0);
        let mut changed = None;
        for _ in 0..DEGRADE_AFTER_DROPS {
            changed = c.note_delivery(GameId::Fps, 0, true);
        }
        let degraded = changed.expect("drops must degrade the room");
        assert_eq!(degraded, 750);
        let mut recovered = None;
        for _ in 0..RECOVER_AFTER_CLEAN {
            recovered = c.note_delivery(GameId::Fps, 0, false);
        }
        let back = recovered.expect("clean deliveries must recover");
        assert!(back > degraded);
    }

    #[test]
    fn lossy_then_clean_link_converges_without_oscillation() {
        // Closed loop against a link whose capacity sits between two
        // controller steps: every frame shipped above 750‰ drops,
        // everything at or below 750‰ delivers clean. The unpatched
        // controller re-probes 862‰ after every clean streak and
        // degrade/recover ping-pongs forever; the ceiling-bounded
        // controller must settle at 750‰ and then go quiet.
        let c = core();
        c.join(GameId::Fps, 0);
        let mut scale: u16 = 1000;
        let mut last_change_at = 0usize;
        let total = 40_000usize;
        for i in 0..total {
            if let Some(next) = c.note_delivery(GameId::Fps, 0, scale > 750) {
                scale = next;
                last_change_at = i;
            }
        }
        assert_eq!(scale, 750, "must settle on the sustainable scale");
        assert!(
            last_change_at < total - 10_000,
            "controller still changing scale at iteration {last_change_at}: \
             degrade/recover oscillation"
        );
    }

    #[test]
    fn scale_floor_holds_under_sustained_drops() {
        let c = core();
        c.join(GameId::Fps, 0);
        for _ in 0..10_000 {
            c.note_delivery(GameId::Fps, 0, true);
        }
        let reply = c.frame_for(GameId::Fps, 0, Vec2::new(0.0, 0.0), 0);
        assert!(reply.scale_pm >= MIN_SCALE_PM);
    }

    #[test]
    fn degraded_scale_shrinks_the_frame() {
        let full = procedural_far_frame(GridPoint::new(4, 4), 9, 1000);
        let degraded = procedural_far_frame(GridPoint::new(4, 4), 9, 500);
        assert!(degraded.width() < full.width());
        assert!(degraded.width() >= 16);
    }

    #[test]
    fn frames_decode_with_the_real_codec() {
        let c = core();
        c.join(GameId::VikingVillage, 0);
        let reply = c.frame_for(GameId::VikingVillage, 0, Vec2::new(5.0, 5.0), 0);
        let decoder = Encoder::new(reply.encoded.quality);
        let decoded = decoder.decode(&reply.encoded).expect("decode");
        assert_eq!(decoded.width(), reply.encoded.width);
    }

    #[test]
    fn shard_shares_round_trip_between_cores() {
        let a = core();
        a.enable_shard_sharing();
        a.join(GameId::Fps, 0);
        let pos = Vec2::new(10.0, 12.0);
        let first = a.frame_for(GameId::Fps, 0, pos, 0);
        assert!(!first.store_hit);
        let shares = a.drain_shard_shares();
        assert_eq!(shares.len(), 1);
        assert_eq!(a.stats().shard_frames_shared, 1);
        assert!(a.drain_shard_shares().is_empty(), "drain empties the box");

        let b = core();
        for s in &shares {
            assert!(b.apply_shard_frame(s.game, s.meta, s.encoded.clone(), s.scale_pm));
        }
        assert_eq!(b.stats().shard_frames_applied, 1);
        b.join(GameId::Fps, 0);
        let reply = b.frame_for(GameId::Fps, 0, pos, 0);
        assert!(reply.store_hit, "peer frame must serve as a local hit");
        assert_eq!(reply.encoded.payload, first.encoded.payload);
    }

    #[test]
    fn sharing_is_off_by_default() {
        let c = core();
        c.join(GameId::Fps, 0);
        c.frame_for(GameId::Fps, 0, Vec2::new(1.0, 1.0), 0);
        assert!(c.drain_shard_shares().is_empty());
        assert_eq!(c.stats().shard_frames_shared, 0);
    }

    /// A core recording its spans, so tests can see which replies
    /// rendered.
    fn traced_core() -> ServiceCore {
        ServiceCore::new(
            64 << 20,
            42,
            TelemetrySink::recording(coterie_telemetry::TelemetryConfig::default()),
        )
    }

    fn renders(c: &ServiceCore) -> usize {
        c.telemetry()
            .spans_snapshot()
            .iter()
            .filter(|s| s.name == "far-render")
            .count()
    }

    /// A cold route that steps to the adjacent grid point on every pose:
    /// 60 points out along one axis, then the same points back, so the
    /// way out can only miss and the way back can only hit.
    fn adjacent_route(c: &ServiceCore, game: GameId) -> Vec<Vec2> {
        let world = c.world(game);
        let grid = world.scene.grid();
        let start = grid.snap(world.scene.bounds().center());
        let out: Vec<Vec2> = (0..60)
            .map(|i| grid.position(GridPoint::new(start.ix + i, start.iz)))
            .collect();
        out.iter().chain(out.iter().rev()).copied().collect()
    }

    /// Serves `poses` one by one, running `maintain` between poses, and
    /// pairs each reply with the number of renders it caused.
    fn serve_route(c: &ServiceCore, game: GameId, poses: &[Vec2]) -> Vec<(FrameReply, usize)> {
        c.join(game, 0);
        poses
            .iter()
            .map(|&pos| {
                let before = renders(c);
                let reply = c.frame_for(game, 0, pos, 0);
                let rendered = renders(c) - before;
                c.maintain(0);
                (reply, rendered)
            })
            .collect()
    }

    #[test]
    fn store_hits_are_exactly_the_frames_not_rendered() {
        let c = traced_core();
        let route = adjacent_route(&c, GameId::Fps);
        serve_route(&c, GameId::Fps, &route);
        let stats = c.stats();
        assert_eq!(stats.frames_served, route.len() as u64);
        assert_eq!(stats.store_hits + stats.store_misses, stats.frames_served);
        assert_eq!(
            stats.store_hits,
            stats.frames_served - renders(&c) as u64,
            "{stats:?}: every hit must be a frame that was not rendered"
        );
        assert!(stats.store_hits > 0, "the way back revisits cached points");
    }

    #[test]
    fn render_spans_equal_store_misses() {
        let c = traced_core();
        let route = adjacent_route(&c, GameId::VikingVillage);
        serve_route(&c, GameId::VikingVillage, &route);
        assert_eq!(renders(&c) as u64, c.stats().store_misses);
    }

    #[test]
    fn adjacent_grid_poses_never_hit_a_frame_that_renders() {
        let c = traced_core();
        let route = adjacent_route(&c, GameId::Fps);
        let replies = serve_route(&c, GameId::Fps, &route);
        let phantom = replies
            .iter()
            .filter(|(reply, rendered)| reply.store_hit && *rendered > 0)
            .count();
        assert_eq!(phantom, 0, "flagged hits that still rendered");
        // The way out steps onto a fresh grid point every pose.
        assert!(replies[..route.len() / 2].iter().all(|(r, _)| !r.store_hit));
    }

    #[test]
    fn a_degraded_room_never_gets_a_frame_cached_at_full_scale() {
        let c = traced_core();
        c.join(GameId::Fps, 0);
        let pos = Vec2::new(10.0, 12.0);
        let full = c.frame_for(GameId::Fps, 0, pos, 0);
        assert_eq!((full.scale_pm, full.encoded.width), (1000, BASE_WIDTH));
        for _ in 0..DEGRADE_AFTER_DROPS {
            c.note_delivery(GameId::Fps, 0, true);
        }
        let expect_width = |scale_pm: u16| (BASE_WIDTH * scale_pm as u32 / 1000).max(16);
        let before = renders(&c);
        let degraded = c.frame_for(GameId::Fps, 0, pos, 0);
        assert_eq!(degraded.scale_pm, 750);
        assert_eq!(degraded.encoded.width, expect_width(750));
        assert!(
            !degraded.store_hit,
            "the 1000‰ frame must not count as a hit"
        );
        assert_eq!(renders(&c), before + 1);
        // The 750‰ frame is now cached beside the 1000‰ one.
        let again = c.frame_for(GameId::Fps, 0, pos, 0);
        assert!(again.store_hit);
        assert_eq!(again.encoded.payload, degraded.encoded.payload);
        assert_eq!(renders(&c), before + 1);
    }

    #[test]
    fn quality_wire_codes_round_trip() {
        for q in [Quality::CRF18, Quality::CRF25, Quality::CRF32] {
            assert_eq!(quality_from_wire(quality_to_wire(q)), q);
        }
    }
}
