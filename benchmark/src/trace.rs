//! Outside-in spans: the benchmark times the calls it makes into each layer
//! and keeps them in memory until the window closes.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; all spans of one
//! statement, one migration step or one advisor pass share `op_id`. Threads
//! the benchmark owns (clients, the migration driver, the advisor loop)
//! announce what they are working on through [`enter`]; a decorator called
//! on such a thread reads it back with [`current`]. Store calls run on the
//! server's shard workers, which the benchmark does not own, so a client
//! also posts the keys of its in-flight statement in [`Inflight`], and the
//! store decorator finds the statement a call belongs to by key.

use crate::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub op_id: u64,
}

/// What the current thread is working on: `(op_id, parent span id)`.
/// `(0, 0)` means nothing that is being traced.
pub type Context = (u64, u64);

thread_local! {
    static CONTEXT: Cell<Context> = const { Cell::new((0, 0)) };
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Announces that this thread now works on `ctx` (pass `(0, 0)` to clear).
pub fn enter(ctx: Context) {
    CONTEXT.with(|c| c.set(ctx));
}

/// The context the current thread announced.
pub fn current() -> Context {
    CONTEXT.with(Cell::get)
}

/// In-memory span buffer, sharded by recording thread so that recording
/// never contends. Each shard is preallocated with an even share of the
/// capacity; a thread that records more than its share (a client records
/// several spans per statement, a shard worker one) grows its shard, but
/// the total never passes the capacity.
pub struct Tracer {
    origin: Instant,
    shards: Vec<Mutex<Vec<Span>>>,
    capacity: u64,
    recorded: AtomicU64,
    next_shard: AtomicU64,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

const SHARDS: usize = 32;

impl Tracer {
    /// Room for `capacity` spans in total; later ones are counted as
    /// dropped, never reallocated for.
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Vec::with_capacity(capacity.div_ceil(SHARDS))))
                .collect(),
            capacity: capacity as u64,
            recorded: AtomicU64::new(0),
            next_shard: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent has ended.
    pub fn reserve_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn record_as(&self, id: u64, name: &'static str, start_ns: u64, ctx: Context) {
        let span = Span {
            id,
            name,
            start_ns,
            end_ns: self.now_ns(),
            parent: ctx.1,
            op_id: ctx.0,
        };
        let shard = SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_shard.fetch_add(1, Ordering::Relaxed) as usize % SHARDS);
            }
            s.get()
        });
        if self.recorded.fetch_add(1, Ordering::Relaxed) < self.capacity {
            self.shards[shard]
                .lock()
                .expect("span shard poisoned")
                .push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished leaf span.
    pub fn record(&self, name: &'static str, start_ns: u64, ctx: Context) {
        self.record_as(self.reserve_id(), name, start_ns, ctx);
    }

    /// Spans that did not fit the buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Every recorded span, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut all: Vec<Span> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().expect("span shard poisoned").clone())
            .collect();
        all.sort_unstable_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// The keys of each client's in-flight statement, so a store call on a
/// shard worker can be attributed to the statement that caused it.
pub struct Inflight {
    slots: Vec<Slot>,
}

/// `op_id`, parent span id and up to [`MAX_KEYS`] row keys (`u64::MAX` =
/// unused).
struct Slot {
    op_id: AtomicU64,
    parent: AtomicU64,
    keys: [AtomicU64; MAX_KEYS],
}

/// Most keys one statement of any mix pins.
pub const MAX_KEYS: usize = 3;

impl Inflight {
    pub fn new(clients: usize) -> Self {
        Self {
            slots: (0..clients)
                .map(|_| Slot {
                    op_id: AtomicU64::new(0),
                    parent: AtomicU64::new(0),
                    keys: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
                })
                .collect(),
        }
    }

    /// Posts client `client`'s statement. The release store of `op_id`
    /// pairs with the acquire load in [`find`](Self::find): a worker that
    /// sees the id also sees the keys.
    pub fn post(&self, client: usize, ctx: Context, keys: &[u64]) {
        let slot = &self.slots[client];
        slot.op_id.store(0, Ordering::Release);
        for (i, k) in slot.keys.iter().enumerate() {
            k.store(keys.get(i).copied().unwrap_or(u64::MAX), Ordering::Relaxed);
        }
        slot.parent.store(ctx.1, Ordering::Relaxed);
        slot.op_id.store(ctx.0, Ordering::Release);
    }

    /// Clears client `client`'s slot.
    pub fn clear(&self, client: usize) {
        self.slots[client].op_id.store(0, Ordering::Release);
    }

    /// The traced statement currently touching row `key`, if any.
    pub fn find(&self, key: u64) -> Option<Context> {
        self.slots.iter().find_map(|slot| {
            let op = slot.op_id.load(Ordering::Acquire);
            (op != 0 && slot.keys.iter().any(|k| k.load(Ordering::Relaxed) == key))
                .then(|| (op, slot.parent.load(Ordering::Relaxed)))
        })
    }
}

/// Part of `parent` not covered by any of `children`: the parent's
/// duration minus the union of the children's intervals clipped to it.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(parent.start_ns, parent.end_ns),
                c.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    cover.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Total and self time per span name, in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(*s);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_time_ns(s, kids);
    }
    out
}

/// The trace file: a column header, one row per span, and the per-name
/// totals (count, total and self nanoseconds) a reader would otherwise
/// have to recompute.
pub fn to_json(workload: &str, spans: &[Span], dropped: u64) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::Int(s.id as i64),
                Json::str(s.name),
                Json::Int(s.start_ns as i64),
                Json::Int(s.end_ns as i64),
                Json::Int(s.parent as i64),
                Json::Int(s.op_id as i64),
            ])
        })
        .collect();
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name.to_owned(),
                Json::obj([
                    ("count", Json::Int(count as i64)),
                    ("total_ns", Json::Int(total as i64)),
                    ("self_ns", Json::Int(own as i64)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        (
            "columns",
            Json::Arr(
                ["id", "name", "start_ns", "end_ns", "parent", "op_id"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        ("dropped_spans", Json::Int(dropped as i64)),
        ("by_name", Json::Obj(totals)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: u64) -> Span {
        Span {
            id,
            name: if parent == 0 { "parent" } else { "child" },
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(1, 100, 200, 0);
        // 110..150 and 140..170 overlap (union 110..170 = 60); 190..230
        // sticks out past the parent (clipped to 190..200 = 10); 20..60
        // lies wholly outside it.
        let children = [
            span(2, 110, 150, 1),
            span(3, 140, 170, 1),
            span(4, 190, 230, 1),
            span(5, 20, 60, 1),
        ];
        assert_eq!(self_time_ns(&parent, &children), 100 - 60 - 10);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // A child covering the whole parent leaves nothing.
        assert_eq!(self_time_ns(&parent, &[span(6, 90, 210, 1)]), 0);
    }

    #[test]
    fn totals_attribute_self_time_per_name() {
        let spans = [span(1, 0, 100, 0), span(2, 10, 40, 1), span(3, 30, 60, 1)];
        let t = totals_by_name(&spans);
        assert_eq!(t["parent"], (1, 100, 50));
        assert_eq!(t["child"], (2, 60, 60));
    }

    #[test]
    fn tracer_keeps_what_fits_and_counts_the_rest() {
        let tracer = Tracer::new(2);
        for _ in 0..5 {
            tracer.record("x", 0, (7, 0));
        }
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped(), 3);
        assert!(tracer.spans().iter().all(|s| s.op_id == 7));
    }

    #[test]
    fn inflight_attributes_by_key() {
        let inflight = Inflight::new(2);
        inflight.post(1, (9, 4), &[17, 23]);
        assert_eq!(inflight.find(23), Some((9, 4)));
        assert_eq!(inflight.find(5), None);
        inflight.clear(1);
        assert_eq!(inflight.find(23), None);
    }
}
