//! Spans around the calls into each layer. A traced run keeps them in
//! memory and writes them out at exit; an untraced run pays one branch per
//! call. The ledger sums a pass's top-level spans against its wall clock.

use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_INTERVAL: i64 = -1;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// The interval the call worked on, or [`NO_INTERVAL`].
    pub interval: i64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Threads share `epoch` so their spans line
/// up on one clock when written out.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer { epoch, on, spans: Vec::new(), open: Vec::new() }
    }

    /// Switches recording; open spans must be closed first.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggling a tracer with open spans");
        self.on = on;
    }

    /// Runs `f` inside a span named `name` (when tracing is on).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        interval: i64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, interval });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span measured elsewhere (a client thread's request).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            let parent = self.open.last().copied().unwrap_or(NO_PARENT);
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                interval: NO_INTERVAL,
            });
        }
    }
}

/// A span's self time: its duration minus the part its children cover
/// (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id as u32)
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

/// One ledger row: a top-level span name under a pass root, its summed
/// time and its call count.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    pub name: &'static str,
    pub total_ns: u64,
    pub calls: usize,
}

/// The ledger of one pass: rows in first-seen order, plus the residual —
/// the root's self time, i.e. wall clock no top-level span accounts for.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub wall_ns: u64,
    pub rows: Vec<LedgerRow>,
    pub residual_ns: u64,
}

impl Ledger {
    pub fn of(spans: &[Span], root: usize) -> Ledger {
        let mut rows: Vec<LedgerRow> = Vec::new();
        for s in spans.iter().filter(|s| s.parent == root as u32) {
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.total_ns += s.dur_ns();
                    r.calls += 1;
                }
                None => rows.push(LedgerRow { name: s.name, total_ns: s.dur_ns(), calls: 1 }),
            }
        }
        Ledger { wall_ns: spans[root].dur_ns(), rows, residual_ns: self_time_ns(spans, root) }
    }

    pub fn residual_pct(&self) -> f64 {
        100.0 * self.residual_ns as f64 / self.wall_ns.max(1) as f64
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.rows.iter().find(|r| r.name == name).map_or(0, |r| r.total_ns)
    }

    /// Sums several passes' ledgers row by row.
    pub fn merged(ledgers: &[Ledger]) -> Ledger {
        let mut out = Ledger { wall_ns: 0, rows: Vec::new(), residual_ns: 0 };
        for l in ledgers {
            out.wall_ns += l.wall_ns;
            out.residual_ns += l.residual_ns;
            for row in &l.rows {
                match out.rows.iter_mut().find(|r| r.name == row.name) {
                    Some(r) => {
                        r.total_ns += row.total_ns;
                        r.calls += row.calls;
                    }
                    None => out.rows.push(row.clone()),
                }
            }
        }
        out
    }

    /// The printed form: one line per row with its share of the pass.
    pub fn render(&self, title: &str, passes: usize) -> String {
        let per = |ns: u64| ns as f64 / 1e6 / passes.max(1) as f64;
        let share = |ns: u64| 100.0 * ns as f64 / self.wall_ns.max(1) as f64;
        let mut out =
            format!("ledger {title}: pass {:.1} ms (mean of {passes})\n", per(self.wall_ns));
        for r in &self.rows {
            out += &format!(
                "  {:<22} {:>10.2} ms {:>6.1} %  ({} calls)\n",
                r.name,
                per(r.total_ns),
                share(r.total_ns),
                r.calls / passes.max(1)
            );
        }
        out += &format!(
            "  {:<22} {:>10.2} ms {:>6.1} %\n",
            "residual",
            per(self.residual_ns),
            share(self.residual_ns)
        );
        out
    }
}

/// Appends one thread's spans to `out` as JSON lines.
pub fn write_spans(out: &mut impl Write, thread: &str, spans: &[Span]) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
        writeln!(
            out,
            "{{\"thread\": \"{thread}\", \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"interval\": {}}}",
            s.name, s.start_ns, s.end_ns, s.interval
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, interval: NO_INTERVAL }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass", 0, 100, NO_PARENT),
            span("a", 10, 30, 0),
            span("b", 25, 50, 0), // overlaps a by 5
            span("c", 60, 70, 0),
            span("inner", 12, 20, 1), // grandchild: not pass's business
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - (40 + 10));
        assert_eq!(self_time_ns(&spans, 1), 20 - 8);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn ledger_rows_and_residual_sum_to_the_wall() {
        let spans = vec![
            span("pass", 0, 1000, NO_PARENT),
            span("traffic.parse", 0, 400, 0),
            span("stream.segment", 400, 450, 0),
            span("traffic.parse", 450, 700, 0),
            span("engine.push", 700, 900, 0),
        ];
        let ledger = Ledger::of(&spans, 0);
        assert_eq!(ledger.total_ns("traffic.parse"), 650);
        assert_eq!(ledger.rows[0].calls, 2);
        assert_eq!(ledger.residual_ns, 100);
        let rows: u64 = ledger.rows.iter().map(|r| r.total_ns).sum();
        assert_eq!(rows + ledger.residual_ns, ledger.wall_ns);
        assert!((ledger.residual_pct() - 10.0).abs() < 1e-12);
        let twice = Ledger::merged(&[ledger.clone(), ledger]);
        assert_eq!(twice.wall_ns, 2000);
        assert_eq!(twice.total_ns("engine.push"), 400);
    }

    #[test]
    fn tracer_nests_and_costs_nothing_when_off() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("pass", NO_INTERVAL, |t| {
            t.span("engine.push", 3, |_| ());
            t.span("engine.close", 3, |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].interval, 3);
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
        let mut off = Tracer::new(Instant::now(), false);
        assert_eq!(off.span("pass", NO_INTERVAL, |_| 7), 7);
        assert!(off.spans.is_empty());
    }
}
