//! Workload definitions, the Q1 load, the benchmark statements and their
//! programmatic reference plans.

use crate::trace::{deltas, sum_named, Deltas, Tracer};
use paradise::exec::table::LoadStats;
use paradise::geom::Point;
use paradise::{queries, Paradise, ParadiseConfig, QueryResult, TransportKind};
use paradise_datagen::tables::{
    self, drainage_table, land_cover_table, populated_places_table, raster_table, roads_table,
    World, WorldSpec, LARGE_CITY, OIL_FIELD, QUERY_CHANNEL,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one op of a workload is.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One SQL statement, SQL text to rows at the QC.
    Statement,
    /// One full Q1: fresh instance, five table loads, four index builds,
    /// commit.
    Load,
}

/// A named workload: data size, engine configuration and op mix.
pub struct Workload {
    pub name: &'static str,
    pub scale: usize,
    pub shrink: usize,
    pub nodes: usize,
    pub pool_pages: usize,
    pub transport: TransportKind,
    pub kind: OpKind,
    /// Statements run in this fixed cyclic order (statement workloads).
    pub statements: &'static [&'static str],
}

/// Grid tiles of the spatial declustering, for every workload.
pub const GRID_TILES: u32 = 1024;
/// Raster tile payload, as in the repository's own suite harness.
pub const TILE_BYTES: usize = 4096;

pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        // PBSM, `closest`, R*-/B+-tree search and repartitioning; no LZW,
        // no pulls and no wire I/O. The pool holds every working set.
        "vector" => Workload {
            name: "vector",
            scale: 1,
            shrink: 250,
            nodes: 4,
            pool_pages: 4096,
            transport: TransportKind::Local,
            kind: OpKind::Statement,
            statements: &["Q5", "Q6", "Q7", "Q8", "Q11", "Q12", "Q13"],
        },
        // Tile codec, clip/lower_res/average and the pull model. The
        // 64-page pool is smaller than the working sets of Q2 and Q10, so
        // they evict. Q14 is left out: its cost follows the seed's
        // oil-field polygons (median 17-33 ms across seeds), which would
        // make this workload's tail a measure of the seed. It runs on
        // `Local`: over `Tcp`, Q10 fails now and then (see `raster_tcp`).
        "raster" => Workload {
            name: "raster",
            scale: 2,
            shrink: 250,
            nodes: 4,
            pool_pages: 64,
            transport: TransportKind::Local,
            kind: OpKind::Statement,
            statements: &["Q2", "Q3", "Q4", "Q9", "Q10"],
        },
        // `raster` over real TCP: wire frames and credits. Not a measured
        // workload, because about 4% of its Q10s fail with "collect stream
        // failed: sender closed connection before EOS"; run it to count
        // that defect and to read the `wire.*` metrics.
        "raster_tcp" => {
            Workload { name: "raster_tcp", transport: TransportKind::Tcp, ..workload("raster")? }
        }
        // The write path: tiling + LZW, declustering with replication,
        // heap inserts, index bulk builds, WAL and fsync.
        "load" => Workload {
            name: "load",
            scale: 1,
            shrink: 100,
            nodes: 4,
            pool_pages: 4096,
            transport: TransportKind::Local,
            kind: OpKind::Load,
            statements: &[],
        },
        _ => return None,
    };
    Some(w)
}

impl Workload {
    pub fn spec(&self, seed: u64) -> WorldSpec {
        WorldSpec::paper_ratio(seed, self.scale, self.shrink)
    }

    pub fn config(&self, dir: &Path) -> ParadiseConfig {
        ParadiseConfig::new(dir, self.nodes)
            .with_grid_tiles(GRID_TILES)
            .with_pool_pages(self.pool_pages)
            .with_transport(self.transport)
    }
}

/// The paper's SQL text of a benchmark statement (§3.1.2), as the SQL
/// front-end tests run it.
pub fn sql_text(name: &str) -> String {
    const US: &str = "Polygon(-125, 25, -67, 25, -67, 49, -125, 49)";
    match name {
        "Q2" => format!(
            "select raster.date, raster.data.clip({US}) from raster \
             where raster.channel = 5 order by date"
        ),
        "Q3" => format!(
            "select average(raster.data.clip({US})) from raster \
             where raster.date = Date(\"1988-04-01\")"
        ),
        "Q4" => format!(
            "select raster.date, raster.channel, \
             raster.data.clip(ClosedPolygon({US})).lower_res(8) from raster \
             where raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
        ),
        "Q5" => "select * from populatedPlaces where name = \"Phoenix\"".to_string(),
        "Q6" => format!("select * from landCover where shape overlaps {US}"),
        "Q7" => "select shape.area(), LCPYTYPE from landCover \
                 where shape < Circle(Point(-90, 40), 25) and shape.area() < 3"
            .to_string(),
        "Q8" => "select landCover.shape, landCover.LCPYTYPE from landCover, populatedPlaces \
                 where populatedPlaces.name = \"Louisville\" and \
                 landCover.shape overlaps populatedPlaces.location.makeBox(8)"
            .to_string(),
        "Q9" => format!(
            "select landCover.shape, raster.data.clip(landCover.shape) \
             from landCover, raster where landCover.LCPYTYPE = {OIL_FIELD} and \
             raster.channel = 5 and raster.date = Date(\"1988-04-01\")"
        ),
        "Q10" => format!(
            "select raster.date, raster.channel, raster.data.clip({US}) from raster \
             where raster.data.clip({US}).average() > 25000"
        ),
        "Q11" => {
            "select closest(shape, Point(-89.4, 43.1)), type from roads group by type".to_string()
        }
        "Q12" => "select closest(drainage.shape, populatedPlaces.location), \
                  populatedPlaces.location from drainage, populatedPlaces \
                  where populatedPlaces.location overlaps drainage.shape and \
                  populatedPlaces.type = 1 group by populatedPlaces.location"
            .to_string(),
        "Q13" => {
            "select * from drainage, roads where drainage.shape overlaps roads.shape".to_string()
        }
        other => panic!("no benchmark statement {other}"),
    }
}

/// The programmatic plan of `paradise::queries` with the same constants
/// as the SQL text: the reference answer of a statement.
pub fn reference(db: &Paradise, name: &str) -> paradise::Result<QueryResult> {
    let us = tables::us_polygon();
    let d = tables::query_date();
    match name {
        "Q2" => queries::q2(db, QUERY_CHANNEL, &us),
        "Q3" => queries::q3(db, d, &us, false),
        "Q4" => queries::q4(db, d, QUERY_CHANNEL, &us, 8),
        "Q5" => queries::q5(db, "Phoenix"),
        "Q6" => queries::q6(db, &us),
        "Q7" => queries::q7(db, Point::new(-90.0, 40.0), 25.0, 3.0),
        "Q8" => queries::q8(db, "Louisville", 8.0),
        "Q9" => queries::q9(db, d, QUERY_CHANNEL, OIL_FIELD),
        "Q10" => queries::q10(db, &us, 25_000.0),
        "Q11" => queries::q11(db, Point::new(-89.4, 43.1)),
        "Q12" => queries::q12(db, LARGE_CITY, true),
        "Q13" => queries::q13(db),
        other => panic!("no benchmark statement {other}"),
    }
}

/// The five tables in load order, with the generated tuples of each.
pub fn world_tables(world: &World) -> [(&'static str, &[paradise::exec::Tuple]); 5] {
    [
        ("raster", &world.rasters),
        ("populatedPlaces", &world.populated_places),
        ("roads", &world.roads),
        ("drainage", &world.drainage),
        ("landCover", &world.land_cover),
    ]
}

/// Bytes of user data in the world: raster pixels plus the encoded
/// vector tuples (the Table 3.1 size columns).
pub fn user_bytes(world: &World) -> u64 {
    let vector: usize = world_tables(world)[1..]
        .iter()
        .flat_map(|(_, ts)| ts.iter())
        .map(|t| t.encode().len())
        .sum();
    (world.raster_bytes() + vector) as u64
}

/// What one completed Q1 did.
pub struct LoadRecord {
    /// Per table, in load order.
    pub stats: Vec<(&'static str, LoadStats)>,
    /// Wall time of the whole op.
    pub total: Duration,
    /// Registry counters after commit (the instance is fresh, so these
    /// are the op's own counts).
    pub counters: BTreeMap<String, u64>,
    /// Bytes on disk under the instance directory after commit.
    pub disk_bytes: u64,
    /// Wall time per load step: create, raster, vector, index, commit.
    pub steps: [Duration; 5],
}

impl LoadRecord {
    pub fn input_tuples(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.input_tuples).sum()
    }

    pub fn stored_tuples(&self) -> u64 {
        self.stats.iter().map(|(_, s)| s.stored_tuples).sum()
    }

    /// Sum of the registry counter `name` over the cluster's nodes.
    pub fn counter(&self, name: &str) -> u64 {
        sum_named(&self.counters, name) as u64
    }
}

/// Times one public call and, when tracing, records it as a child span of
/// `parent` with the registry's counter deltas attached.
fn timed<T>(
    tr: &mut Tracer,
    db: Option<&Paradise>,
    parent: Option<usize>,
    op: u64,
    layer: &'static str,
    name: &str,
    f: impl FnOnce() -> paradise::Result<T>,
) -> paradise::Result<(T, Duration)> {
    let before = match (tr.enabled(), db) {
        (true, Some(db)) => Some(db.obs().snapshot()),
        _ => None,
    };
    let t0 = Instant::now();
    let out = f()?;
    let t1 = Instant::now();
    let counters = match (before, db) {
        (Some(b), Some(db)) => deltas(&b, &db.obs().snapshot()),
        _ => Deltas::new(),
    };
    tr.record(parent, op, layer, name, t0, t1, counters);
    Ok((out, t1 - t0))
}

/// Benchmark Q1: creates a fresh instance in `dir` (wiping it), loads the
/// five tables, builds the four indexes and commits.
pub fn q1_load(
    wl: &Workload,
    dir: &Path,
    world: &World,
    tr: &mut Tracer,
    op: u64,
) -> paradise::Result<(Paradise, LoadRecord)> {
    let start = Instant::now();
    let root = tr.open(op, "Q1", start);
    let mut steps = [Duration::ZERO; 5];
    let (mut db, d) = timed(tr, None, root, op, "load.create", "Paradise::create", || {
        Paradise::create(wl.config(dir))
    })?;
    steps[0] = d;
    db.define_table(raster_table().with_tile_bytes(TILE_BYTES));
    db.define_table(populated_places_table());
    db.define_table(roads_table());
    db.define_table(drainage_table());
    db.define_table(land_cover_table());
    let mut stats = Vec::new();
    for (i, (table, tuples)) in world_tables(world).into_iter().enumerate() {
        let layer = if i == 0 { "load.raster" } else { "load.vector" };
        let name = format!("Paradise::load_table({table})");
        let (s, d) = timed(tr, Some(&db), root, op, layer, &name, || {
            db.load_table(table, tuples.iter().cloned())
        })?;
        steps[if i == 0 { 1 } else { 2 }] += d;
        stats.push((table, s));
    }
    let indexes: [(&str, &str, usize, bool); 4] = [
        ("populatedPlaces", "create_btree_index", queries::PP_NAME, false),
        ("landCover", "create_rtree_index", queries::LC_SHAPE, true),
        ("roads", "create_rtree_index", queries::LINE_SHAPE, true),
        ("drainage", "create_rtree_index", queries::LINE_SHAPE, true),
    ];
    for (table, call, col, rtree) in indexes {
        let name = format!("Paradise::{call}({table})");
        let ((), d) = timed(tr, Some(&db), root, op, "load.index", &name, || {
            if rtree {
                db.create_rtree_index(table, col)
            } else {
                db.create_btree_index(table, col)
            }
        })?;
        steps[3] += d;
    }
    let ((), d) =
        timed(tr, Some(&db), root, op, "load.commit", "Paradise::commit", || db.commit())?;
    steps[4] = d;
    let end = Instant::now();
    let counters = db.obs().snapshot();
    tr.close(root, end, Deltas::new());
    let disk_bytes = dir_bytes(dir);
    Ok((db, LoadRecord { stats, total: end - start, counters, disk_bytes, steps }))
}

/// Checks a Q1's per-table input counts against the generated world.
pub fn check_load(loaded: &LoadRecord, world: &World) -> Result<(), String> {
    for ((table, s), (wtable, tuples)) in loaded.stats.iter().zip(world_tables(world)) {
        if *table != wtable || s.input_tuples != tuples.len() as u64 {
            return Err(format!(
                "Q1: {table} loaded {} input tuples, world has {}",
                s.input_tuples,
                tuples.len()
            ));
        }
        if s.stored_tuples < s.input_tuples {
            return Err(format!(
                "Q1: {table} stored {} copies of {} tuples",
                s.stored_tuples, s.input_tuples
            ));
        }
    }
    Ok(())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => stack.push(e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
